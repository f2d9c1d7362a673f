"""Command-line surface: law specs in, JSON reports (with CSV attachments) out.

Input documents
---------------
Laws (``--law``, ``--law-a``, ``--driver`` ...) are JSON objects with a
``"schema": 1`` field; unknown fields are rejected.

* ``{"schema": 1, "type": "discrete", "atoms": [[...], ...], "weights": [...]}``
* ``{"schema": 1, "type": "gaussian", "mean": [...], "cov": [[...], ...]}``
* ``{"schema": 1, "type": "lognormal", "mean": [...], "cov": [[...], ...]}``
  (parameters of the log-vector)
* ``{"schema": 1, "type": "elliptical", "radial": {"kind": "constant", "value": 1.0},
  "matrix": [[...], ...]}`` with radial kinds ``constant`` (value), ``chi`` (dof),
  ``exponential`` (rate), ``uniform`` (low, high)
* ``{"schema": 1, "type": "location-scale", "base": {"kind": "normal"},
  "location": 0.0, "scale": 1.0}`` with base kinds ``normal``, ``laplace``,
  ``student-t`` (dof), ``uniform`` (halfwidth)

Sequence models: ``{"type": "dacunha-castelle"}``,
``{"type": "lognormal-swap", "b": [...]}``,
``{"type": "iid-exchangeable", "base": {...}}``.
Processes: ``{"type": "gbm", "drift_correction": true}``.
Levy triplets: ``{"schema": 1, "A": [[...]], "nu": [{"x": [...], "mass": m}, ...],
"b": [...]}``.

Grids: ``default``, an integer (smooth grid of that size plus axes and
diagonals), ``circle:N``, ``uniform:N``, ``fibonacci:N``, ``axes``, or a path
to ``{"schema": 1, "directions": [[...], ...]}``.

Exit codes: 0 pass/success, 1 failed verdict, 2 usage or configuration error,
3 numerical diagnostic failure.  Every report embeds a run manifest (seed,
versions, config hash); the timestamp is the only field that varies between
identical runs.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import ergodic as ergodic_mod
from . import lepage as lepage_mod
from . import levy as levy_mod
from . import report as report_mod
from .errors import DiagnosticError, SchemaError
from .invariance import (
    _decide,
    test_lift_swap_invariance,
    test_swap_invariance,
    test_zonoid_equiv,
    test_zonoid_stationarity,
)
from .laws import (
    _check_fields,
    law_from_json,
    process_from_json,
    process_to_json,
    scalar_base_from_json,
    sequence_model_from_json,
)
from .zonoid import DirectionGrid, mean_width_check, support_at, zonotope_2d

_STATISTICAL_MIN_BUDGET = 1_000


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _require_schema(doc: dict, what: str) -> dict:
    if not isinstance(doc, dict) or doc.get("schema") != 1:
        raise SchemaError(f"{what}: input files must carry \"schema\": 1")
    return doc


def _load_law(path: str):
    return law_from_json(_require_schema(_load_json(path), path))


def _build_grid(spec: str, d: int, seed) -> DirectionGrid:
    if spec == "default":
        return DirectionGrid.default(d)
    if spec == "axes":
        return DirectionGrid.axes_and_diagonals(d)
    if ":" in spec:
        kind, _, count = spec.partition(":")
        n = int(count)
        if kind == "circle":
            return DirectionGrid.circle(n)
        if kind == "uniform":
            return DirectionGrid.uniform_sphere(d, n, seed)
        if kind == "fibonacci":
            return DirectionGrid.fibonacci_sphere(n)
        raise SchemaError(f"unknown grid kind {kind!r}")
    if spec.isdigit():
        return DirectionGrid.default(d, seed, int(spec))
    doc = _require_schema(_load_json(spec), spec)
    _check_fields(doc, {"directions"}, spec)
    return DirectionGrid(np.asarray(doc["directions"], dtype=float))


def _grid_inputs(grid: DirectionGrid) -> dict:
    """The directions of a grid read from a file, for the report's inputs; a named grid is its spec."""
    return {"grid": {"directions": grid.directions}} if grid.construction == "user-supplied" else {}


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip() != ""]


def _parse_vectors(text: str) -> np.ndarray:
    return np.array([_parse_floats(chunk) for chunk in text.split(";") if chunk.strip() != ""])


def _check_budget(budget: int) -> int:
    if budget < _STATISTICAL_MIN_BUDGET:
        raise SchemaError(f"budget must be >= {_STATISTICAL_MIN_BUDGET} in statistical modes")
    return budget


# Options the config hash leaves out: where the report lands and how it is laid
# out do not change what was computed, and neither does the worker count.
_UNHASHED = frozenset({"func", "out", "format", "workers"})


def _emit(args, command: str, inputs: dict, result: dict, tables: dict | None = None, verdict: bool = True) -> int:
    """Write the JSON report (and CSV attachments for --format csv); the exit code is 1 on a failed verdict, else 0."""
    # hash the computational configuration: the loaded input documents and the
    # other options.  An option recorded in ``inputs`` is hashed there, so an
    # input file's path drops out while its document stays in.
    config = {"command": command, "inputs": inputs,
              **{k: v for k, v in vars(args).items() if k not in inputs and k not in _UNHASHED}}
    doc = {
        "schema": 1,
        "command": command,
        "manifest": report_mod.manifest(getattr(args, "seed", None), config),
        "inputs": inputs,
        "result": result,
    }
    tables = tables or {}
    if args.format == "csv":
        attachments = {}
        base, _ = os.path.splitext(args.out)
        for name, (header, rows) in tables.items():
            path = f"{base}.{name}.csv"
            report_mod.write_csv(path, header, rows)
            attachments[name] = os.path.basename(path)
        if attachments:
            doc["result"]["attachments"] = attachments
    else:
        for name, (header, rows) in tables.items():
            doc["result"][name] = {"header": header, "rows": rows}
    report_mod.write_json(args.out, doc)
    return 0 if verdict else 1


def _emit_equiv(args, command: str, inputs: dict, report) -> int:
    """Write an equivalence report with its per-direction table; the exit code follows the verdict."""
    return _emit(args, command, inputs, report_mod.equivalence_report_json(report),
                 {"per_direction": report_mod.equivalence_rows(report)}, verdict=report.verdict)


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

def _cmd_support(args) -> int:
    law = _load_law(args.law)
    grid = _build_grid(args.grid, law.dim, args.seed)
    dirs = grid.directions
    if args.kind == "lift":
        dirs = np.column_stack([np.full(len(grid), args.k), dirs])  # rows (k, u)
    ests = support_at(law, dirs, args.kind, args.budget, args.seed)
    rows = list(report_mod.support_table_rows(grid, ests))
    result = {
        "kind": args.kind,
        "k": args.k if args.kind == "lift" else None,
        "grid_size": len(grid),
        "exact": all(e.exact for e in ests),
    }
    return _emit(args, "support", {"law": law.to_json(), **_grid_inputs(grid)}, result,
                 {"estimates": (report_mod.support_table_header(grid.dim), rows)})


def _cmd_equiv(args) -> int:
    law_a, law_b = _load_law(args.law_a), _load_law(args.law_b)
    grid = _build_grid(args.grid, law_a.dim, args.seed)
    report = test_zonoid_equiv(law_a, law_b, grid, _check_budget(args.budget), args.tau,
                               args.seed, bonferroni=args.bonferroni)
    return _emit_equiv(args, "equiv", {"law_a": law_a.to_json(), "law_b": law_b.to_json(), **_grid_inputs(grid)},
                       report)


def _cmd_swap(args) -> int:
    law = _load_law(args.law)
    grid = _build_grid(args.grid, law.dim, args.seed)
    perms = "all" if args.perms == "all" else int(args.perms)
    report = test_swap_invariance(law, perms, grid, _check_budget(args.budget), args.tau, args.seed,
                                  bonferroni=args.bonferroni)
    return _emit_equiv(args, "swap", {"law": law.to_json(), **_grid_inputs(grid)}, report)


def _cmd_lift_swap(args) -> int:
    law = _load_law(args.law)
    grid = _build_grid(args.grid, law.dim + 1, args.seed)
    report = test_lift_swap_invariance(law, grid, _check_budget(args.budget), args.tau, args.seed,
                                       bonferroni=args.bonferroni)
    return _emit_equiv(args, "lift-swap", {"law": law.to_json(), **_grid_inputs(grid)}, report)


def _cmd_stationarity(args) -> int:
    process = process_from_json(_require_schema(_load_json(args.process), args.process))
    times = _parse_floats(args.times)
    grid = _build_grid(args.grid, len(times), args.seed)
    report = test_zonoid_stationarity(process, times, args.shift, grid,
                                      _check_budget(args.budget), args.tau, args.seed,
                                      bonferroni=args.bonferroni)
    return _emit_equiv(args, "stationarity",
                       {"process": process_to_json(process), "times": times, "shift": args.shift,
                        **_grid_inputs(grid)}, report)


def _cmd_levy_check(args) -> int:
    t1 = levy_mod.triplet_from_json(_require_schema(_load_json(args.a), args.a))
    t2 = levy_mod.triplet_from_json(_require_schema(_load_json(args.b), args.b))
    rep = levy_mod.check_log_id_equiv(t1, t2, args.tol)
    failed = [name for name, ok in (("a:variogram", rep.variogram_ok),
                                    ("b:tilted-pushforward", rep.pushforward_ok),
                                    ("c:exponential-moments", rep.expectation_ok)) if ok is False]
    result = {
        "verdict": rep.verdict,
        "conditions": {
            "variogram": rep.variogram_ok,
            "tilted_pushforward": rep.pushforward_ok,
            "exponential_moments": rep.expectation_ok,
        },
        "failed_conditions": failed,
        "max_variogram_dev": rep.max_variogram_dev,
        "max_expectation_dev": rep.max_expectation_dev,
    }
    return _emit(args, "levy-check",
                 {"a": levy_mod.triplet_to_json(t1), "b": levy_mod.triplet_to_json(t2), "tol": args.tol},
                 result, verdict=rep.verdict)


def _cmd_lognormal_check(args) -> int:
    l1, l2 = _load_law(args.a), _load_law(args.b)
    rep = levy_mod.check_lognormal_equiv(l1, l2, args.tol)
    result = {
        "verdict": rep.verdict,
        "log_mean_ok": rep.log_mean_ok,
        "variogram_ok": rep.variogram_ok,
        "max_log_mean_dev": rep.max_log_mean_dev,
        "max_variogram_dev": rep.max_variogram_dev,
    }
    return _emit(args, "lognormal-check", {"a": l1.to_json(), "b": l2.to_json(), "tol": args.tol}, result,
                 verdict=rep.verdict)


def _cmd_elliptical_check(args) -> int:
    e1, e2 = _load_law(args.a), _load_law(args.b)
    rep = levy_mod.check_elliptical_equiv(e1, e2, args.tol)
    result = {"verdict": rep.verdict, "max_dev": rep.max_dev,
              "shape_a": rep.shape_a, "shape_b": rep.shape_b}
    return _emit(args, "elliptical-check", {"a": e1.to_json(), "b": e2.to_json(), "tol": args.tol}, result,
                 verdict=rep.verdict)


def _cmd_cf_check(args) -> int:
    l1, l2 = _load_law(args.a), _load_law(args.b)
    w = None if args.w is None else np.array(_parse_floats(args.w))
    rep = levy_mod.cf_criterion(l1, l2, w=w, tol=args.tol, n_dirs=args.n_dirs, seed=args.seed)
    result = {
        "verdict": rep.verdict,
        "max_abs_diff": rep.max_abs_diff,
        "w": rep.w,
        "n_dirs": int(rep.us.shape[0]),
    }
    return _emit(args, "cf-check", {"a": l1.to_json(), "b": l2.to_json(), "tol": args.tol}, result,
                 verdict=rep.verdict)


def _cmd_lepage(args) -> int:
    driver = _load_law(args.driver)
    cfg = lepage_mod.LePageConfig(driver, args.mode, args.terms, args.paths, args.seed,
                                  driver_bound=args.bound)
    res = lepage_mod.simulate_lepage(cfg, args.workers)
    header = [f"x_{i + 1}" for i in range(driver.dim)] + ["tail_start", "terms_used"]
    rows = [(*v, t, n) for v, t, n in zip(res.values.tolist(), res.tail_start.tolist(), res.terms_used.tolist())]
    # the path matrix always lands in a CSV file; the JSON report only summarizes
    base, _ = os.path.splitext(args.out)
    csv_path = f"{base}.paths.csv"
    report_mod.write_csv(csv_path, header, rows)
    result = {
        "mode": args.mode,
        "paths": args.paths,
        "n_terms": args.terms,
        "tail_start_mean": float(res.tail_start.mean()),
        "tail_start_max": float(res.tail_start.max()),
        "paths_csv": os.path.basename(csv_path),
    }
    return _emit(args, "lepage", {"driver": driver.to_json()}, result)


def _cmd_cf_identity(args) -> int:
    driver = _load_law(args.driver)
    us = _parse_vectors(args.u)
    cfg = lepage_mod.LePageConfig(driver, "sum", args.terms, args.paths, args.seed)
    rep = lepage_mod.cf_check(cfg, us, _check_budget(args.budget), workers=args.workers)
    result = {
        "sup_discrepancy": rep.sup_discrepancy,
        "per_u": {
            "u": rep.us,
            "empirical_re": rep.empirical.real,
            "empirical_im": rep.empirical.imag,
            "predicted": rep.predicted,
            "discrepancy": rep.discrepancy,
            "bootstrap_se": rep.bootstrap_se,
        },
        "threshold": args.threshold,
        "extras": rep.extras,
    }
    return _emit(args, "cf-identity", {"driver": driver.to_json()}, result, verdict=args.threshold is None
                 or _decide(rep.empirical, rep.predicted, threshold=args.threshold)[4])


def _cmd_ergodic(args) -> int:
    model = sequence_model_from_json(_require_schema(_load_json(args.model), args.model))
    checkpoints = [int(c) for c in _parse_floats(args.checkpoints)]
    run = ergodic_mod.run_averages(model, checkpoints, args.paths, args.seed, args.workers)
    header = ["path", "checkpoint", "average", "oracle", "abs_error"]
    rows = []
    for i in range(args.paths):
        for k, c in enumerate(run.checkpoints):
            oracle = None if run.oracles is None else float(run.oracles[i])
            err = None if oracle is None else abs(float(run.averages[i, k]) - oracle)
            rows.append((i, c, float(run.averages[i, k]), oracle, err))
    result = {"checkpoints": list(run.checkpoints), "paths": args.paths,
              "has_oracle": run.oracles is not None}
    if run.oracles is not None:
        diag = ergodic_mod.l1_diagnostic(run)
        result["l1_mean_abs_error"] = diag.mean_abs_error
        result["cross_path_mean"] = diag.cross_path_mean
    else:
        diag = ergodic_mod.convergence_diagnostic(run)
        result["median_gap"] = diag.median_gap
        result["gaps_decreasing"] = diag.decreasing
    return _emit(args, "ergodic", {"model": model.to_json()}, result, {"runs": (header, rows)})


def _cmd_locscale_recover(args) -> int:
    base = scalar_base_from_json(_require_schema(_load_json(args.base), args.base))
    rec = levy_mod.recover_location_scale(base, args.target_mean, args.target_pos_mean,
                                          budget=args.budget, seed=args.seed, rel_tol=args.rel_tol)
    result = {"location": rec.location, "scale": rec.scale,
              "bracket_width": rec.bracket_width, "samples": rec.samples}
    return _emit(args, "locscale-recover",
                 {"base": base.spec, "target_mean": args.target_mean, "target_pos_mean": args.target_pos_mean},
                 result)


def _cmd_zonotope(args) -> int:
    law = _load_law(args.law)
    z = zonotope_2d(law)
    result = {"n_generators": int(z.generators.shape[0]), "n_vertices": int(z.vertices.shape[0])}
    return _emit(args, "zonotope", {"law": law.to_json()}, result, {
        "vertices": (["x", "y"], [tuple(v) for v in z.vertices.tolist()]),
        "generators": (["gx", "gy"], [tuple(g) for g in z.generators.tolist()]),
    })


def _cmd_mean_width(args) -> int:
    law = _load_law(args.law)
    rep = mean_width_check(law, args.nodes, args.budget, args.seed)
    result = {
        "expected_norm": rep.expected_norm,
        "identity_value": rep.identity_value,
        "abs_difference": rep.abs_difference,
        "expected_norm_se": rep.expected_norm_se,
        "nodes": rep.nodes,
        "tol": args.tol,
    }
    return _emit(args, "mean-width", {"law": law.to_json()}, result, verdict=args.tol is None
                 or _decide(rep.expected_norm, rep.identity_value, threshold=args.tol)[4])


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common(p, *, seed_required: bool, budget: bool = True, tau: bool = False, grid: bool = False,
                workers: bool = False):
    p.add_argument("--out", required=True, help="output path for the JSON report")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="inline tables (json) or CSV attachments (csv)")
    p.add_argument("--seed", type=int, required=seed_required, default=None,
                   help="RNG seed (explicit seeds only; no environment fallback)")
    if workers:
        # only the path-parallel commands take it: every option enters the config hash
        p.add_argument("--workers", type=_positive_int, default=os.cpu_count() or 1,
                       help="worker pool size for path-parallel work (LePage max mode runs on one thread)")
    if budget:
        p.add_argument("--budget", type=lambda s: int(float(s)), default=100_000,
                       help="Monte Carlo samples per comparison")
    if tau:
        p.add_argument("--tau", type=float, default=3.0, help="standardized-discrepancy threshold")
        p.add_argument("--bonferroni", action="store_true",
                       help="spread the tau level over all comparisons (directions, x permutations for swap)")
    if grid:
        p.add_argument("--grid", default="default", help="direction grid spec")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every ``main`` call; do not modify it."""
    parser = argparse.ArgumentParser(prog="zonoids", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("support", help="support-function table over a grid")
    p.add_argument("--law", required=True)
    p.add_argument("--kind", choices=("centred", "noncentred", "lift", "max"), default="centred")
    p.add_argument("--k", type=float, default=0.0, help="lift level (kind=lift)")
    _add_common(p, seed_required=False, tau=False, grid=True)
    p.set_defaults(func=_cmd_support)

    p = sub.add_parser("equiv", help="zonoid equivalence of two laws")
    p.add_argument("--law-a", required=True)
    p.add_argument("--law-b", required=True)
    _add_common(p, seed_required=True, tau=True, grid=True)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("swap", help="swap-invariance of a law")
    p.add_argument("--law", required=True)
    p.add_argument("--perms", default="all", help="'all' (d <= 6) or a sample count")
    _add_common(p, seed_required=True, tau=True, grid=True)
    p.set_defaults(func=_cmd_swap)

    p = sub.add_parser("lift-swap", help="swap-invariance of the lifted vector (1, xi)")
    p.add_argument("--law", required=True)
    _add_common(p, seed_required=True, tau=True, grid=True)
    p.set_defaults(func=_cmd_lift_swap)

    p = sub.add_parser("stationarity", help="zonoid stationarity of a process under a shift")
    p.add_argument("--process", required=True)
    p.add_argument("--times", required=True, help="comma-separated times")
    p.add_argument("--shift", type=float, required=True)
    _add_common(p, seed_required=True, tau=True, grid=True)
    p.set_defaults(func=_cmd_stationarity)

    p = sub.add_parser("levy-check", help="triplet conditions for log-infinitely-divisible laws")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    _add_common(p, seed_required=False, budget=False)
    p.set_defaults(func=_cmd_levy_check)

    p = sub.add_parser("lognormal-check", help="closed-form lognormal equivalence")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    _add_common(p, seed_required=False, budget=False)
    p.set_defaults(func=_cmd_lognormal_check)

    p = sub.add_parser("elliptical-check", help="closed-form elliptical equivalence")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    _add_common(p, seed_required=False, budget=False)
    p.set_defaults(func=_cmd_elliptical_check)

    p = sub.add_parser("cf-check", help="characteristic-function criterion on the zero-sum plane")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--w", default=None, help="tilt vector, comma-separated (default barycentric)")
    p.add_argument("--n-dirs", type=int, default=32)
    p.add_argument("--tol", type=float, default=1e-10)
    _add_common(p, seed_required=True, budget=False)
    p.set_defaults(func=_cmd_cf_check)

    p = sub.add_parser("lepage", help="simulate the 1-stable or max-stable series")
    p.add_argument("--driver", required=True)
    p.add_argument("--mode", choices=("sum", "max"), required=True)
    p.add_argument("--terms", type=lambda s: int(float(s)), default=10_000)
    p.add_argument("--paths", type=lambda s: int(float(s)), default=1_000)
    p.add_argument("--bound", type=float, default=None,
                   help="max mode: a true upper bound on every mark coordinate, finite and > 0 (early exit)")
    _add_common(p, seed_required=True, budget=False, workers=True)
    p.set_defaults(func=_cmd_lepage)

    p = sub.add_parser("cf-identity", help="empirical CF of the 1-stable series vs its closed form")
    p.add_argument("--driver", required=True)
    p.add_argument("--u", required=True, help="semicolon-separated directions, e.g. '0.5;1;2'")
    p.add_argument("--terms", type=lambda s: int(float(s)), default=10_000)
    p.add_argument("--paths", type=lambda s: int(float(s)), default=100_000)
    p.add_argument("--threshold", type=float, default=None,
                   help="fail (exit 1) when the sup discrepancy exceeds this")
    _add_common(p, seed_required=True, workers=True)
    p.set_defaults(func=_cmd_cf_identity)

    p = sub.add_parser("ergodic", help="running averages of a swap-invariant sequence")
    p.add_argument("--model", required=True)
    p.add_argument("--checkpoints", default="100,1000,10000,100000")
    p.add_argument("--paths", type=int, default=50)
    _add_common(p, seed_required=True, budget=False, workers=True)
    p.set_defaults(func=_cmd_ergodic)

    p = sub.add_parser("locscale-recover", help="recover location and scale from zonoid data")
    p.add_argument("--base", required=True, help="scalar base spec JSON")
    p.add_argument("--target-mean", type=float, required=True)
    p.add_argument("--target-pos-mean", type=float, required=True)
    p.add_argument("--rel-tol", type=float, default=1e-6)
    _add_common(p, seed_required=True)
    p.set_defaults(func=_cmd_locscale_recover)

    p = sub.add_parser("zonotope", help="vertices of the centred zonogon of a planar discrete law")
    p.add_argument("--law", required=True)
    _add_common(p, seed_required=False, budget=False)
    p.set_defaults(func=_cmd_zonotope)

    p = sub.add_parser("mean-width", help="expected norm against the mean-width functional")
    p.add_argument("--law", required=True)
    p.add_argument("--nodes", type=lambda s: int(float(s)), default=10_000)
    p.add_argument("--tol", type=float, default=None,
                   help="fail (exit 1) when the absolute difference exceeds this")
    _add_common(p, seed_required=False)
    p.set_defaults(func=_cmd_mean_width)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for name in ("threshold", "tol", "rel_tol"):  # a command's raw threshold, refused before anything runs
            if getattr(args, name, None) is not None:
                _decide(threshold=getattr(args, name))
        return args.func(args)
    except DiagnosticError as exc:
        print(f"diagnostic failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
