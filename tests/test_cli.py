import json
import math
import os
import re

import numpy as np
import pytest
from test_report import reference_dumps

import zonoids.cli as cli
import zonoids.report as report_mod
from zonoids.cli import main
from zonoids.laws import law_from_json


@pytest.fixture(autouse=True)
def reports_are_the_reference_encoding(monkeypatch):
    """Every report a command here writes holds the reference encoding of its document."""
    real = report_mod.write_json

    def checked(path, doc):
        real(path, doc)
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == reference_dumps(doc) + "\n"

    monkeypatch.setattr(report_mod, "write_json", checked)


@pytest.fixture
def lognormal_pair(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"schema": 1, "type": "lognormal",
                             "mean": [-0.5, -0.5], "cov": [[1, 0], [0, 1]]}))
    b.write_text(json.dumps({"schema": 1, "type": "lognormal",
                             "mean": [-1, -1], "cov": [[2, 1], [1, 2]]}))
    return a, b


def run(args):
    return main([str(a) for a in args])


def load(path):
    return json.loads(path.read_text())


def strip_timestamp(text):
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', text)


def test_equiv_pass_and_fail_exit_codes(lognormal_pair, tmp_path):
    a, b = lognormal_pair
    out = tmp_path / "rep.json"
    code = run(["equiv", "--law-a", a, "--law-b", b, "--grid", "32",
                "--budget", "1e5", "--tau", "3", "--seed", "7", "--out", out])
    assert code == 0
    doc = load(out)
    assert doc["result"]["verdict"] is True
    assert doc["schema"] == 1

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": 1, "type": "lognormal",
                               "mean": [0.0, 0.0], "cov": [[1, 0], [0, 1]]}))
    code = run(["equiv", "--law-a", a, "--law-b", bad, "--grid", "32",
                "--budget", "1e5", "--tau", "3", "--seed", "7", "--out", out])
    assert code == 1


def test_report_is_deterministic_modulo_timestamp(lognormal_pair, tmp_path):
    a, b = lognormal_pair
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        assert run(["equiv", "--law-a", a, "--law-b", b, "--grid", "16",
                    "--budget", "1e4", "--tau", "3", "--seed", "3", "--out", out]) == 0
    assert strip_timestamp(out1.read_text()) == strip_timestamp(out2.read_text())


def test_report_embeds_round_trippable_law(lognormal_pair, tmp_path):
    a, b = lognormal_pair
    out = tmp_path / "rep.json"
    run(["equiv", "--law-a", a, "--law-b", b, "--grid", "16",
         "--budget", "1e4", "--tau", "3", "--seed", "3", "--out", out])
    doc = load(out)
    embedded = law_from_json(doc["inputs"]["law_a"])
    assert embedded == law_from_json(json.loads(a.read_text()))
    assert doc["manifest"]["config_hash"]
    assert doc["manifest"]["seed"] == 3


GAUSS_2D = {"schema": 1, "type": "gaussian", "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}


def _elliptical(radial: dict) -> dict:
    return {"schema": 1, "type": "elliptical", "radial": radial, "matrix": [[1.0, 0.0], [0.0, 1.0]]}


BAD_INPUTS = {
    "unknown-law-field": ({"schema": 1, "type": "gaussian", "mean": [0.0], "cov": [[1.0]], "extra": True}, None),
    "radial-rate-zero": (_elliptical({"kind": "exponential", "rate": 0}), None),
    "radial-rate-negative": (_elliptical({"kind": "exponential", "rate": -1.0}), None),
    "radial-chi-dof-zero": (_elliptical({"kind": "chi", "dof": 0}), None),
    "radial-chi-dof-infinite": (_elliptical({"kind": "chi", "dof": 1e400}), None),
    "grid-without-directions": (GAUSS_2D, {"schema": 1}),
    "grid-unknown-field": (GAUSS_2D, {"schema": 1, "directions": [[1.0, 0.0]], "extra": True}),
}


def test_unknown_fields_rejected(tmp_path):
    # unknown, missing or out-of-range fields are schema errors: exit 2, no traceback
    law, grid = tmp_path / "law.json", tmp_path / "grid.json"
    for case, (law_doc, grid_doc) in BAD_INPUTS.items():
        law.write_text(json.dumps(law_doc))
        argv = ["support", "--law", law, "--out", tmp_path / "rep.json"]
        if grid_doc is not None:
            grid.write_text(json.dumps(grid_doc))
            argv += ["--grid", grid]
        assert run(argv) == 2, case


def test_chi_radial_mean_past_the_gamma_overflow(tmp_path):
    # the gamma functions overflow past dof 342; the mean comes from lgamma there
    law, out = tmp_path / "law.json", tmp_path / "rep.json"
    law.write_text(json.dumps(_elliptical({"kind": "chi", "dof": 400})))
    assert run(["support", "--law", law, "--grid", "8", "--budget", "1e4", "--seed", "1", "--out", out]) == 0
    got = law_from_json(load(out)["inputs"]["law"]).radial_mean
    want = math.sqrt(2.0) * math.exp(math.lgamma(200.5) - math.lgamma(200.0))
    assert abs(got - want) <= 1e-12 * want


def test_chi_radial_fractional_dof(tmp_path):
    # a fractional dof is used as given, not truncated to chi(2)
    law, out = tmp_path / "law.json", tmp_path / "rep.json"
    law.write_text(json.dumps(_elliptical({"kind": "chi", "dof": 2.5})))
    assert run(["support", "--law", law, "--grid", "8", "--budget", "1e4", "--seed", "1", "--out", out]) == 0
    embedded = law_from_json(load(out)["inputs"]["law"])
    assert embedded.radial_mean == math.sqrt(2.0) * math.gamma(1.75) / math.gamma(1.25)
    assert embedded.to_json()["radial"] == {"kind": "chi", "dof": 2.5}


def test_missing_schema_rejected(tmp_path):
    law = tmp_path / "law.json"
    law.write_text(json.dumps({"type": "gaussian", "mean": [0.0], "cov": [[1.0]]}))
    out = tmp_path / "rep.json"
    assert run(["support", "--law", law, "--out", out]) == 2


def test_budget_floor_enforced(lognormal_pair, tmp_path):
    a, b = lognormal_pair
    out = tmp_path / "rep.json"
    assert run(["equiv", "--law-a", a, "--law-b", b, "--budget", "100",
                "--tau", "3", "--seed", "1", "--out", out]) == 2


def test_tau_must_be_positive(lognormal_pair, tmp_path):
    a, b = lognormal_pair
    out = tmp_path / "rep.json"
    assert run(["equiv", "--law-a", a, "--law-b", b, "--budget", "1e4",
                "--tau", "-1", "--seed", "1", "--out", out]) == 2


def test_seed_required_for_stochastic_commands(lognormal_pair, tmp_path):
    a, b = lognormal_pair
    out = tmp_path / "rep.json"
    assert run(["equiv", "--law-a", a, "--law-b", b, "--out", out]) == 2


def test_support_table_csv_attachment(tmp_path):
    law = tmp_path / "law.json"
    law.write_text(json.dumps({"schema": 1, "type": "discrete",
                               "atoms": [[1, 0], [0, 1]], "weights": [0.5, 0.5]}))
    out = tmp_path / "support.json"
    assert run(["support", "--law", law, "--grid", "8", "--format", "csv", "--out", out]) == 0
    doc = load(out)
    name = doc["result"]["attachments"]["estimates"]
    csv_text = (tmp_path / name).read_text()
    header = csv_text.splitlines()[0].split(",")
    assert header == ["u_1", "u_2", "value", "std_error", "n", "exact"]
    assert doc["result"]["exact"] is True


def test_support_mc_requires_seed(tmp_path):
    law = tmp_path / "law.json"
    law.write_text(json.dumps({"schema": 1, "type": "lognormal", "mean": [-0.5], "cov": [[1.0]]}))
    out = tmp_path / "rep.json"
    assert run(["support", "--law", law, "--out", out]) == 2
    assert run(["support", "--law", law, "--seed", "4", "--out", out]) == 0


def test_swap_exact_mode(tmp_path):
    law = tmp_path / "dac4.json"
    from zonoids.laws import dacunha_prefix_law

    law.write_text(json.dumps(dacunha_prefix_law(4).to_json()))
    out = tmp_path / "rep.json"
    assert run(["swap", "--law", law, "--perms", "all", "--seed", "1", "--out", out]) == 0
    doc = load(out)
    assert doc["result"]["mode"] == "exact"


def test_levy_check_names_failing_condition(tmp_path):
    t1 = {"schema": 1, "A": [[1.0, 0.0], [0.0, 1.0]], "nu": [], "b": [-0.5, -0.5]}
    t2 = {"schema": 1, "A": [[1.0, 0.1], [0.1, 1.0]], "nu": [], "b": [-0.5, -0.5]}
    f1, f2, out = tmp_path / "t1.json", tmp_path / "t2.json", tmp_path / "rep.json"
    f1.write_text(json.dumps(t1))
    f2.write_text(json.dumps(t2))
    assert run(["levy-check", "--a", f1, "--b", f2, "--out", out]) == 1
    doc = load(out)
    assert "a:variogram" in doc["result"]["failed_conditions"]


def test_lognormal_and_elliptical_checks(tmp_path, lognormal_pair):
    a, b = lognormal_pair
    out = tmp_path / "rep.json"
    assert run(["lognormal-check", "--a", a, "--b", b, "--out", out]) == 0
    e1 = tmp_path / "e1.json"
    e2 = tmp_path / "e2.json"
    e1.write_text(json.dumps({"schema": 1, "type": "elliptical",
                              "radial": {"kind": "constant", "value": 1.0},
                              "matrix": [[1.0, 0.0], [0.0, 1.0]]}))
    e2.write_text(json.dumps({"schema": 1, "type": "elliptical",
                              "radial": {"kind": "constant", "value": 2.0},
                              "matrix": [[0.5, 0.0], [0.0, 0.5]]}))
    assert run(["elliptical-check", "--a", e1, "--b", e2, "--out", out]) == 0


def test_cf_check_command(tmp_path, lognormal_pair, capsys):
    g1 = tmp_path / "g1.json"
    g2 = tmp_path / "g2.json"
    g1.write_text(json.dumps({"schema": 1, "type": "gaussian", "mean": [-0.5, -0.5],
                              "cov": [[1.0, 0.0], [0.0, 1.0]]}))
    g2.write_text(json.dumps({"schema": 1, "type": "gaussian", "mean": [-1.0, -1.0],
                              "cov": [[2.0, 1.0], [1.0, 2.0]]}))
    out = tmp_path / "rep.json"
    assert run(["cf-check", "--a", g1, "--b", g2, "--seed", "2", "--out", out]) == 0
    # a lognormal law has no closed-form characteristic function
    assert run(["cf-check", "--a", lognormal_pair[0], "--b", g2, "--seed", "2", "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_stationarity_command(tmp_path):
    proc = tmp_path / "proc.json"
    proc.write_text(json.dumps({"schema": 1, "type": "gbm", "drift_correction": True}))
    out = tmp_path / "rep.json"
    assert run(["stationarity", "--process", proc, "--times", "0,1", "--shift", "2",
                "--budget", "1e5", "--tau", "3", "--seed", "9", "--out", out]) == 0
    proc.write_text(json.dumps({"schema": 1, "type": "gbm", "drift_correction": False}))
    assert run(["stationarity", "--process", proc, "--times", "0,1", "--shift", "2",
                "--budget", "1e5", "--tau", "3", "--seed", "9", "--out", out]) == 1


def test_lepage_and_cf_identity_commands(tmp_path):
    driver = tmp_path / "driver.json"
    driver.write_text(json.dumps({"schema": 1, "type": "discrete",
                                  "atoms": [[-1.0], [1.0]], "weights": [0.5, 0.5]}))
    out = tmp_path / "paths.json"
    assert run(["lepage", "--driver", driver, "--mode", "sum", "--terms", "100",
                "--paths", "50", "--seed", "5", "--out", out]) == 0
    doc = load(out)
    assert doc["result"]["tail_start_mean"] > 0.0
    csv_lines = (tmp_path / doc["result"]["paths_csv"]).read_text().splitlines()
    assert csv_lines[0] == "x_1,tail_start,terms_used"
    assert len(csv_lines) == 51
    out2 = tmp_path / "cf.json"
    assert run(["cf-identity", "--driver", driver, "--u", "0.5;1;2", "--terms", "500",
                "--paths", "5000", "--seed", "5", "--out", out2]) == 0
    doc = load(out2)
    assert doc["result"]["sup_discrepancy"] < 0.1
    assert run(["cf-identity", "--driver", driver, "--u", "1", "--terms", "500",
                "--paths", "5000", "--seed", "5", "--threshold", "1e-9", "--out", out2]) == 1


@pytest.mark.parametrize("mode, bound", [("max", "0"), ("max", "-1"), ("max", "nan"), ("max", "inf"),
                                         ("sum", "-3"), ("sum", "1")])
def test_lepage_refuses_a_bound_that_cannot_hold(tmp_path, capsys, mode, bound):
    atoms = [[1.0]] if mode == "max" else [[-1.0], [1.0]]
    driver = tmp_path / "driver.json"
    driver.write_text(json.dumps({"schema": 1, "type": "discrete", "atoms": atoms,
                                  "weights": [1.0 / len(atoms)] * len(atoms)}))
    out = tmp_path / "paths.json"
    assert run(["lepage", "--driver", driver, "--mode", mode, "--terms", "1000", "--paths", "5",
                "--bound", bound, "--seed", "0", "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_ergodic_command(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"schema": 1, "type": "lognormal-swap", "b": [0.5]}))
    out = tmp_path / "erg.json"
    assert run(["ergodic", "--model", model, "--checkpoints", "100,1000",
                "--paths", "10", "--seed", "3", "--out", out]) == 0
    doc = load(out)
    assert doc["result"]["has_oracle"] is True


def test_locscale_recover_command(tmp_path):
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"schema": 1, "kind": "normal"}))
    out = tmp_path / "rec.json"
    assert run(["locscale-recover", "--base", base, "--target-mean", "0",
                "--target-pos-mean", "0.3989422804014327", "--budget", "2e5",
                "--seed", "1", "--out", out]) == 0
    doc = load(out)
    assert abs(doc["result"]["scale"] - 1.0) < 0.02
    bounded = tmp_path / "bounded.json"
    bounded.write_text(json.dumps({"schema": 1, "kind": "uniform", "halfwidth": 1.0}))
    assert run(["locscale-recover", "--base", bounded, "--target-mean", "1",
                "--target-pos-mean", "1.05", "--budget", "1e4",
                "--seed", "1", "--out", out]) == 2


@pytest.mark.parametrize("budget", ["0", "1"])
def test_locscale_recover_refuses_a_budget_below_two(tmp_path, capsys, budget):
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"schema": 1, "kind": "normal"}))
    out = tmp_path / "rec.json"
    assert run(["locscale-recover", "--base", base, "--target-mean", "0", "--target-pos-mean", "0.4",
                "--budget", budget, "--seed", "1", "--out", out]) == 2
    assert "budget must be >= 2" in capsys.readouterr().err
    assert not out.exists()


def test_zonotope_and_mean_width_commands(tmp_path, capsys):
    law = tmp_path / "law.json"
    law.write_text(json.dumps({"schema": 1, "type": "discrete",
                               "atoms": [[1, 0], [0, 1]], "weights": [0.5, 0.5]}))
    out = tmp_path / "z.json"
    assert run(["zonotope", "--law", law, "--out", out]) == 0
    doc = load(out)
    verts = {tuple(np.round(r, 10)) for r in doc["result"]["vertices"]["rows"]}
    assert verts == {(0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)}
    # the zonogon needs a discrete law in the plane
    for doc in (GAUSS_2D, {"schema": 1, "type": "discrete", "atoms": [[1, 0, 0], [0, 1, 1]], "weights": [0.5, 0.5]}):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["zonotope", "--law", bad, "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error:")
    out2 = tmp_path / "mw.json"
    assert run(["mean-width", "--law", law, "--nodes", "1e4", "--tol", "1e-6", "--out", out2]) == 0
    doc = load(out2)
    assert doc["result"]["abs_difference"] <= 1e-6


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_diagnostic_failure_exit_code(tmp_path):
    # a heavy-tailed base near the integrability boundary trips the
    # diverging-running-mean guard
    law = tmp_path / "heavy.json"
    law.write_text(json.dumps({"schema": 1, "type": "location-scale",
                               "base": {"kind": "student-t", "dof": 1.02},
                               "location": 0.0, "scale": 1.0}))
    out = tmp_path / "rep.json"
    assert run(["support", "--law", law, "--seed", "1", "--budget", "1e5", "--out", out]) == 3


def test_lift_swap_command(tmp_path):
    law = tmp_path / "pm.json"
    law.write_text(json.dumps({"schema": 1, "type": "discrete",
                               "atoms": [[1.0, 1.0]], "weights": [1.0]}))
    out = tmp_path / "rep.json"
    assert run(["lift-swap", "--law", law, "--seed", "2", "--out", out]) == 0


@pytest.mark.parametrize("spec, seed", [
    ({"schema": 1, "type": "discrete", "atoms": [[1.0, -0.5], [-0.3, 2.0], [0.0, 0.0]],
      "weights": [0.2, 0.5, 0.3]}, None),
    ({"schema": 1, "type": "lognormal", "mean": [-0.5, -0.5], "cov": [[1.0, 0.3], [0.3, 1.0]]}, 11),
])
def test_support_lift_rows_match_support_lift(tmp_path, spec, seed):
    from zonoids.zonoid import support_lift

    law_path = tmp_path / "law.json"
    law_path.write_text(json.dumps(spec))
    out = tmp_path / "lift.json"
    k, budget = -0.7, 5_000
    args = ["support", "--law", law_path, "--kind", "lift", "--k", str(k), "--grid", "circle:16",
            "--budget", str(budget), "--out", out]
    assert run(args + (["--seed", str(seed)] if seed is not None else [])) == 0
    doc = load(out)
    law = law_from_json(spec)
    rows = doc["result"]["estimates"]["rows"]
    assert doc["result"]["k"] == k and len(rows) == 16
    for u1, u2, value, se, n, exact in rows:
        want = support_lift(law, k, [u1, u2], budget, seed)
        assert value == pytest.approx(want.value, rel=1e-12, abs=1e-15)
        assert se == pytest.approx(want.std_error, rel=1e-12, abs=1e-15)
        assert (n, exact) == (want.n, want.exact)
    if seed is not None:
        assert run(args) == 2  # a sampled law needs a seed


_DISCRETE_3D = {"schema": 1, "type": "discrete", "atoms": [[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]],
                "weights": [0.5, 0.5]}


@pytest.mark.parametrize("command, tester, doc, extra", [
    ("swap", "test_swap_invariance", _DISCRETE_3D, ["--law"]),
    ("lift-swap", "test_lift_swap_invariance", _DISCRETE_3D, ["--law"]),
    ("stationarity", "test_zonoid_stationarity", {"schema": 1, "type": "gbm", "drift_correction": True},
     ["--times", "0,1", "--shift", "2", "--process"]),
])
@pytest.mark.parametrize("flag", [True, False])
def test_bonferroni_flag_reaches_the_tester(monkeypatch, tmp_path, command, tester, doc, extra, flag):
    import zonoids.cli as cli

    seen = {}
    real = getattr(cli, tester)

    def spy(*args, **kwargs):
        seen.update(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, tester, spy)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    args = [command, *extra, path, "--budget", "2000", "--seed", "3", "--out", tmp_path / "rep.json"]
    assert run(args + (["--bonferroni"] if flag else [])) in (0, 1)
    assert seen["bonferroni"] is flag


_WITHOUT_SCIPY = """
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy is blocked")


sys.meta_path.insert(0, NoScipy())

import zonoids
from zonoids.cli import main
from zonoids.laws import gbm_process
from zonoids.lepage import stationarity_cross_check

law, out = sys.argv[1:]
assert main(["zonotope", "--law", law, "--out", out]) == 0
rep = stationarity_cross_check(gbm_process(True), (0.0, 1.0), (2.0,), n_terms=50, paths=500,
                               budget=20_000, seed=3)
assert all(0.0 <= p <= 1.0 for p in rep.per_shift_min_p), rep
"""


def test_package_runs_without_scipy(tmp_path):
    import subprocess
    import sys

    law = tmp_path / "law.json"
    law.write_text(json.dumps({"schema": 1, "type": "discrete",
                               "atoms": [[1, 0], [0, 2]], "weights": [0.5, 0.5]}))
    out = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(law), str(tmp_path / "z.json")],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert load(tmp_path / "z.json")["result"]["vertices"]["rows"]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_integer_grid_is_the_default_construction_with_that_smooth_count(d):
    from zonoids.cli import _build_grid
    from zonoids.zonoid import DirectionGrid

    grid = _build_grid("40", d, 5)
    extra = DirectionGrid.axes_and_diagonals(d).directions
    smooth = {2: lambda: DirectionGrid.circle(40), 3: lambda: DirectionGrid.fibonacci_sphere(40)}.get(
        d, lambda: DirectionGrid.uniform_sphere(d, 40, 5))().directions
    assert grid.construction == "default:40+axes"
    assert np.array_equal(grid.directions, np.vstack([smooth, extra]))
    assert DirectionGrid.default(d, 5).construction == ("axes:1d" if d == 1 else f"default:{d}d")


_COMMANDS = ("support", "equiv", "swap", "lift-swap", "stationarity", "levy-check", "lognormal-check",
             "elliptical-check", "cf-check", "lepage", "cf-identity", "ergodic", "locscale-recover", "zonotope",
             "mean-width")


# each option is offered exactly where it can change the output: --seed by the commands that draw,
# --format by those whose report holds a table, --workers by the path-parallel ones
_OFFERED = {
    "--seed": set(_COMMANDS) - {"levy-check", "lognormal-check", "elliptical-check", "zonotope"},
    "--format": {"support", "equiv", "swap", "lift-swap", "stationarity", "ergodic", "zonotope"},
    "--workers": {"lepage", "cf-identity", "ergodic"},
}


def test_each_option_is_offered_only_where_it_can_change_the_output(tmp_path, capsys):
    import argparse

    assert main(["--help"]) == 0
    assert "{" + ",".join(_COMMANDS) + "}" in capsys.readouterr().out
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(_COMMANDS)
    assert {option: {command for command, p in sub.choices.items() if option in p._option_string_actions}
            for option in _OFFERED} == _OFFERED
    out = tmp_path / "rep.json"
    for argv in (["zonotope", "--law", "law.json", "--seed", "1"], ["zonotope", "--law", "law.json", "--workers", "2"],
                 ["lepage", "--driver", "d.json", "--mode", "max", "--seed", "1", "--format", "csv"]):
        assert run([*argv, "--out", out]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
@pytest.mark.parametrize("command", ["lepage", "cf-identity", "ergodic"])
def test_workers_below_one_is_a_usage_error(capsys, command, workers):
    required = {"lepage": ["--driver", "d.json", "--mode", "max"], "cf-identity": ["--driver", "d.json", "--u", "1"],
                "ergodic": ["--model", "m.json"]}[command]
    argv = [command, *required, "--seed", "0", "--workers", workers, "--out", "r.json"]
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)  # refused while parsing, before any file is read or thread started
    assert exc.value.code == 2
    assert f"error: argument --workers: must be >= 1, got {workers}" in capsys.readouterr().err
    assert cli.build_parser().parse_args([*argv[:-4], "--workers", "1", "--out", "r.json"]).workers == 1


def test_config_hash_does_not_depend_on_the_core_count(tmp_path, monkeypatch):
    # the --workers default is the core count, and every option enters the hash
    law = tmp_path / "law.json"
    law.write_text(json.dumps({"schema": 1, "type": "discrete", "atoms": [[1, 0], [0, 1]], "weights": [0.5, 0.5]}))
    hashes = set()
    try:
        for cores in (1, 64):
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
            cli.build_parser.cache_clear()
            out = tmp_path / f"z{cores}.json"
            assert run(["zonotope", "--law", law, "--out", out]) == 0
            hashes.add(load(out)["manifest"]["config_hash"])
            assert run(["zonotope", "--law", law, "--workers", "2", "--out", out]) == 2
    finally:
        cli.build_parser.cache_clear()
    assert len(hashes) == 1


def test_commands_in_one_process_match_each_run_first(tmp_path, lognormal_pair):
    # main reuses one parser: no call may leave a default or a flag behind for the next
    from zonoids.laws import dacunha_prefix_law

    dac4, plane, bad = tmp_path / "dac4.json", tmp_path / "plane.json", tmp_path / "bad.json"
    dac4.write_text(json.dumps(dacunha_prefix_law(4).to_json()))
    plane.write_text(json.dumps({"schema": 1, "type": "discrete", "atoms": [[1.0, -0.5], [-0.3, 2.0]],
                                 "weights": [0.4, 0.6]}))
    bad.write_text(json.dumps({"schema": 1, "type": "lognormal", "mean": [0.0, 0.0], "cov": [[1, 0], [0, 1]]}))
    commands = {
        "swap": ["swap", "--law", dac4, "--grid", "16", "--bonferroni", "--seed", "1"],
        "support": ["support", "--law", plane, "--kind", "lift", "--k", "0.5", "--grid", "8"],
        "lognormal-check": ["lognormal-check", "--a", lognormal_pair[0], "--b", bad],
        "swap-default": ["swap", "--law", dac4, "--seed", "2"],
    }

    def call(name):
        out = tmp_path / f"{name}.json"
        code = run([*commands[name], "--out", out])
        return code, strip_timestamp(out.read_text())

    first = {}
    for name in commands:
        cli.build_parser.cache_clear()
        first[name] = call(name)
    assert [code for code, _ in first.values()] == [0, 0, 1, 0]
    cli.build_parser.cache_clear()
    for order in (list(commands), list(reversed(commands))):
        for name in order:
            assert main(["swap", "--no-such-flag"]) == 2
            assert call(name) == first[name], name


_PLANE = {"schema": 1, "type": "discrete", "atoms": [[1.0, 0.5], [0.5, 1.0]], "weights": [0.5, 0.5]}
_LOGNORMAL = {"schema": 1, "type": "lognormal", "mean": [-0.5, -0.5], "cov": [[1.0, 0.0], [0.0, 1.0]]}
_GAUSSIAN = {"schema": 1, "type": "gaussian", "mean": [-0.5, -0.5], "cov": [[1.0, 0.0], [0.0, 1.0]]}
_ELLIPTICAL = {"schema": 1, "type": "elliptical", "radial": {"kind": "constant", "value": 1.0},
               "matrix": [[1.0, 0.0], [0.0, 1.0]]}
_TRIPLET = {"schema": 1, "A": [[1.0, 0.0], [0.0, 1.0]], "nu": [], "b": [-0.5, -0.5]}
_GRID = {"schema": 1, "directions": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]}
_RADEMACHER = {"schema": 1, "type": "discrete", "atoms": [[-1.0], [1.0]], "weights": [0.5, 0.5]}
# every command once, reading each input from a file: (files, argv with file names)
_FILE_COMMANDS = {
    "support": ({"law.json": _PLANE, "grid.json": _GRID}, ["support", "--law", "law.json", "--grid", "grid.json"]),
    "equiv": ({"a.json": _PLANE, "b.json": _PLANE},
              ["equiv", "--law-a", "a.json", "--law-b", "b.json", "--grid", "8", "--seed", "1"]),
    "swap": ({"law.json": _PLANE, "grid.json": _GRID},
             ["swap", "--law", "law.json", "--grid", "grid.json", "--seed", "1"]),
    "lift-swap": ({"law.json": _PLANE}, ["lift-swap", "--law", "law.json", "--grid", "8", "--seed", "1"]),
    "stationarity": ({"proc.json": {"schema": 1, "type": "gbm", "drift_correction": True}},
                     ["stationarity", "--process", "proc.json", "--times", "0,1", "--shift", "2",
                      "--budget", "1e3", "--grid", "8", "--seed", "9"]),
    "levy-check": ({"t1.json": _TRIPLET, "t2.json": _TRIPLET}, ["levy-check", "--a", "t1.json", "--b", "t2.json"]),
    "lognormal-check": ({"a.json": _LOGNORMAL, "b.json": _LOGNORMAL},
                        ["lognormal-check", "--a", "a.json", "--b", "b.json"]),
    "elliptical-check": ({"a.json": _ELLIPTICAL, "b.json": _ELLIPTICAL},
                         ["elliptical-check", "--a", "a.json", "--b", "b.json"]),
    "cf-check": ({"a.json": _GAUSSIAN, "b.json": _GAUSSIAN},
                 ["cf-check", "--a", "a.json", "--b", "b.json", "--seed", "2"]),
    "lepage": ({"driver.json": _PLANE}, ["lepage", "--driver", "driver.json", "--mode", "max", "--terms", "300",
                                         "--paths", "40", "--seed", "5"]),
    "cf-identity": ({"driver.json": _RADEMACHER},
                    ["cf-identity", "--driver", "driver.json", "--u", "1", "--terms", "100", "--paths", "200",
                     "--budget", "1e3", "--seed", "5"]),
    "ergodic": ({"model.json": {"schema": 1, "type": "lognormal-swap", "b": [0.5]}},
                ["ergodic", "--model", "model.json", "--checkpoints", "10,100", "--paths", "4", "--seed", "3"]),
    "locscale-recover": ({"base.json": {"schema": 1, "kind": "normal"}},
                         ["locscale-recover", "--base", "base.json", "--target-mean", "0",
                          "--target-pos-mean", "0.4", "--budget", "1e4", "--seed", "1"]),
    "zonotope": ({"law.json": _PLANE}, ["zonotope", "--law", "law.json"]),
    "mean-width": ({"law.json": _PLANE}, ["mean-width", "--law", "law.json", "--nodes", "1e3"]),
}


def test_every_command_reads_a_file_in_the_directory_test():
    assert set(_FILE_COMMANDS) == set(_COMMANDS)


@pytest.mark.parametrize("command", sorted(_FILE_COMMANDS))
def test_report_does_not_depend_on_where_the_inputs_are(tmp_path, monkeypatch, command):
    # the same documents read by relative path from one directory and by
    # absolute path from another give the same report, config hash included
    files, argv = _FILE_COMMANDS[command]
    reports = []
    for where, relative in (("one", True), ("two", False)):
        workdir = tmp_path / where
        workdir.mkdir()
        for name, doc in files.items():
            (workdir / name).write_text(json.dumps(doc))
        monkeypatch.chdir(workdir if relative else tmp_path)
        args = [a if a not in files or relative else workdir / a for a in argv]
        out = "rep.json" if relative else workdir / "rep.json"
        assert run([*args, "--out", out]) in (0, 1)
        reports.append(strip_timestamp((workdir / "rep.json").read_text()))
    assert reports[0] == reports[1]


def test_config_hash_follows_the_input_documents(tmp_path):
    law, grid, out = tmp_path / "law.json", tmp_path / "grid.json", tmp_path / "rep.json"
    hashes = []
    for atoms in ([[1.0, 0.5], [0.5, 1.0]], [[1.0, 0.5], [0.5, 2.0]]):
        law.write_text(json.dumps({**_PLANE, "atoms": atoms}))
        for directions in (_GRID["directions"], [[0.6, 0.8], [0.8, -0.6]]):
            grid.write_text(json.dumps({"schema": 1, "directions": directions}))
            assert run(["support", "--law", law, "--grid", grid, "--out", out]) == 0
            doc = load(out)
            assert doc["inputs"]["grid"]["directions"] == directions
            hashes.append(doc["manifest"]["config_hash"])
    assert len(set(hashes)) == 4
    # a named grid is hashed by its spec and stays out of the inputs
    assert run(["support", "--law", law, "--grid", "8", "--out", out]) == 0
    assert "grid" not in load(out)["inputs"]


@pytest.mark.parametrize("command", ["lepage", "cf-identity", "ergodic"])
def test_report_does_not_depend_on_the_worker_count(tmp_path, monkeypatch, command):
    files, argv = _FILE_COMMANDS[command]
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    written = []
    for workers in ("1", "2"):
        (tmp_path / workers).mkdir()
        layout = ["--format", "csv"] if command == "ergodic" else []  # the only one of the three with a table
        assert run([*argv, "--workers", workers, *layout, "--out", f"{workers}/rep.json"]) == 0
        written.append({p.name: strip_timestamp(p.read_text()) for p in (tmp_path / workers).iterdir()})
    assert "rep.json" in written[0] and written[0] == written[1]
