"""The one verdict rule, ``invariance._decide``: its thresholds, its refusals and its tie rule.

Every pass/fail of the package comes from this rule, so a report must be
rebuildable from its own rows through it, and a threshold that cannot
separate a pass from a fail is refused before any row is drawn.
"""
import itertools
import json
import math

import numpy as np
import pytest

from zonoids.cli import main
from zonoids.invariance import (
    _decide,
    effective_tau,
    test_even_homogeneous,
    test_lift_swap_invariance,
    test_max_zonoid_equiv,
    test_relations_theorem,
    test_swap_invariance,
    test_zonoid_equiv,
    test_zonoid_stationarity,
)
from zonoids.laws import DiscreteLaw, GaussianLaw, LognormalLaw, SamplerLaw, gbm_process
from zonoids.levy import check_lognormal_equiv, recover_location_scale
from zonoids.zonoid import DirectionGrid

LOGN_A = {"schema": 1, "type": "lognormal", "mean": [-0.5, -0.5], "cov": [[1, 0], [0, 1]]}
LOGN_B = {"schema": 1, "type": "lognormal", "mean": [-1, -1], "cov": [[2, 1], [1, 2]]}
LOGN_3D = {"schema": 1, "type": "lognormal", "mean": [0.0, 0.03, 0.06],
           "cov": [[0.5, 0.1, 0.0], [0.1, 0.5, 0.1], [0.0, 0.1, 0.5]]}
DISCRETE_2D = {"schema": 1, "type": "discrete", "atoms": [[1.0, 2.0], [2.5, 0.5], [0.5, 1.0]],
               "weights": [0.25, 0.25, 0.5]}
DISCRETE_3D = {"schema": 1, "type": "discrete", "atoms": [[1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [2.0, 2.0, 0.5]],
               "weights": [0.25, 0.25, 0.5]}
BAD_TAUS = [math.nan, math.inf, -math.inf, 0.0, -1.0]
BAD_THRESHOLDS = ["nan", "inf", "-1"]


def run(args):
    return main([str(a) for a in args])


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tau", [8.0, 9.0, 20.0, 37.0])
def test_bonferroni_threshold_is_finite_and_grows_with_the_comparison_count(tau):
    ts = [effective_tau(tau, m, True) for m in (1, 72, 3_496)]
    assert all(map(math.isfinite, ts))
    assert ts[0] == pytest.approx(tau, abs=1e-9)
    assert tau < ts[1] < ts[2]


def test_bonferroni_threshold_at_the_swap_null():
    assert effective_tau(3.0, 3_496, True) == pytest.approx(4.9423, abs=5e-5)


def test_a_bonferroni_level_that_underflows_is_refused():
    assert math.isfinite(effective_tau(38.0, 72, True))
    with pytest.raises(ValueError, match="underflows"):
        effective_tau(39.0, 1, True)
    with pytest.raises(ValueError, match="underflows"):
        test_zonoid_equiv(LognormalLaw(GaussianLaw([0.0, 0.0], np.eye(2))),
                          LognormalLaw(GaussianLaw([0.0, 0.0], np.eye(2))), tau=39.0, bonferroni=True)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -1.0])
def test_the_rule_refuses_a_raw_threshold_that_is_not_finite_and_nonnegative(threshold):
    with pytest.raises(ValueError, match="threshold must be finite and >= 0"):
        _decide([1.0], [1.0], threshold=threshold)
    assert _decide([1.0], [1.0], threshold=0.0)[4]


def _counting_law(dim, calls):
    def sampler(rng, n):
        calls.append(n)
        return np.exp(rng.standard_normal((n, dim)))

    return SamplerLaw(dim, sampler, positive=True)


@pytest.mark.parametrize("tau", BAD_TAUS)
@pytest.mark.parametrize("tester", ["equiv", "max-equiv", "swap", "lift-swap", "even-homogeneous"])
def test_testers_refuse_a_bad_tau_before_drawing_a_row(tester, tau):
    calls = []
    a, b = _counting_law(2, calls), _counting_law(2, calls)
    call = {"equiv": lambda: test_zonoid_equiv(a, b, tau=tau, budget=2_000, seed=0),
            "max-equiv": lambda: test_max_zonoid_equiv(a, b, tau=tau, budget=2_000, seed=0),
            "swap": lambda: test_swap_invariance(a, tau=tau, budget=2_000, seed=0),
            "lift-swap": lambda: test_lift_swap_invariance(a, tau=tau, budget=2_000, seed=0),
            "even-homogeneous": lambda: test_even_homogeneous(a, b, tau=tau, budget=2_000, seed=0)}[tester]
    with pytest.raises(ValueError, match="tau must be finite and > 0"):
        call()
    assert calls == []


@pytest.mark.parametrize("tau", BAD_TAUS)
def test_exact_and_process_testers_refuse_a_bad_tau(tau):
    law = DiscreteLaw([[1.0, 2.0], [2.0, 1.0]], [0.5, 0.5])
    for call in (lambda: test_zonoid_equiv(law, law, tau=tau),
                 lambda: test_relations_theorem(law, tau=tau),
                 lambda: test_zonoid_stationarity(gbm_process(True), [0.0, 1.0], 2.0, tau=tau, budget=2_000, seed=0)):
        with pytest.raises(ValueError, match="tau must be finite and > 0"):
            call()


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_closed_form_checks_refuse_a_bad_tolerance(tol):
    law = LognormalLaw(GaussianLaw([0.0, 0.0], np.eye(2)))
    with pytest.raises(ValueError, match="threshold must be finite and >= 0"):
        check_lognormal_equiv(law, law, tol)


def test_rel_tol_zero_ends_the_bisection_at_adjacent_floats():
    from zonoids.laws import scalar_base_from_json

    base = scalar_base_from_json({"schema": 1, "kind": "normal"})
    rec = recover_location_scale(base, 0.5, 1.0, budget=1_000, seed=0, rel_tol=0.0)
    assert rec.bracket_width <= 2.0 * np.spacing(rec.scale)
    assert rec.scale == pytest.approx(recover_location_scale(base, 0.5, 1.0, budget=1_000, seed=0).scale, rel=1e-5)


# ---------------------------------------------------------------------------
# the CLI
# ---------------------------------------------------------------------------

def test_equiv_bonferroni_at_a_large_tau_runs(tmp_path):
    a, b = write(tmp_path, "a.json", LOGN_A), write(tmp_path, "b.json", LOGN_B)
    assert run(["equiv", "--law-a", a, "--law-b", b, "--budget", "1e4", "--tau", "9", "--bonferroni",
                "--seed", "1", "--out", tmp_path / "rep.json"]) in (0, 1)


def _statistical_commands(tmp_path):
    a, b = write(tmp_path, "a.json", LOGN_A), write(tmp_path, "b.json", LOGN_B)
    proc = write(tmp_path, "proc.json", {"schema": 1, "type": "gbm", "drift_correction": True})
    return {"equiv": ["equiv", "--law-a", a, "--law-b", b],
            "swap": ["swap", "--law", a],
            "lift-swap": ["lift-swap", "--law", a],
            "stationarity": ["stationarity", "--process", proc, "--times", "0,1", "--shift", "2"]}


@pytest.mark.parametrize("tau", ["inf", "nan", "0", "-1", "40 --bonferroni"])
@pytest.mark.parametrize("command", ["equiv", "swap", "lift-swap", "stationarity"])
def test_statistical_commands_refuse_a_bad_tau(tmp_path, capsys, command, tau):
    out = tmp_path / "rep.json"
    args = _statistical_commands(tmp_path)[command] + ["--budget", "2e3", "--seed", "1", "--out", out, "--tau"]
    assert run(args + tau.split()) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def _raw_threshold_commands(tmp_path):
    law = write(tmp_path, "law.json", DISCRETE_2D)
    a = write(tmp_path, "a.json", LOGN_A)
    g = write(tmp_path, "g.json", {"schema": 1, "type": "gaussian", "mean": [0.0, 0.0], "cov": [[1, 0], [0, 1]]})
    ell = write(tmp_path, "ell.json", {"schema": 1, "type": "elliptical", "radial": {"kind": "constant", "value": 1.0},
                                       "matrix": [[1.0, 0.0], [0.0, 1.0]]})
    triplet = write(tmp_path, "t.json", {"schema": 1, "A": [[1.0, 0.0], [0.0, 1.0]], "nu": [], "b": [-0.5, -0.5]})
    driver = write(tmp_path, "driver.json", {"schema": 1, "type": "discrete", "atoms": [[-1.0], [1.0]],
                                             "weights": [0.5, 0.5]})
    base = write(tmp_path, "base.json", {"schema": 1, "kind": "normal"})
    return {"cf-identity": ["cf-identity", "--driver", driver, "--u", "1", "--terms", "100", "--paths", "1000",
                            "--budget", "2e3", "--seed", "1", "--threshold"],
            "mean-width": ["mean-width", "--law", law, "--nodes", "1e3", "--tol"],
            "levy-check": ["levy-check", "--a", triplet, "--b", triplet, "--tol"],
            "lognormal-check": ["lognormal-check", "--a", a, "--b", a, "--tol"],
            "elliptical-check": ["elliptical-check", "--a", ell, "--b", ell, "--tol"],
            "cf-check": ["cf-check", "--a", g, "--b", g, "--seed", "1", "--tol"],
            "locscale-recover": ["locscale-recover", "--base", base, "--target-mean", "0", "--target-pos-mean",
                                 "0.4", "--budget", "2e3", "--seed", "1", "--rel-tol"]}


@pytest.mark.parametrize("value", BAD_THRESHOLDS)
@pytest.mark.parametrize("command", ["cf-identity", "mean-width", "levy-check", "lognormal-check",
                                     "elliptical-check", "cf-check", "locscale-recover"])
def test_raw_threshold_options_refuse_a_bad_value(tmp_path, capsys, command, value):
    out = tmp_path / "rep.json"
    assert run(_raw_threshold_commands(tmp_path)[command] + [value, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: threshold must be finite and >= 0")
    assert not out.exists()


@pytest.mark.parametrize("command", ["cf-identity", "mean-width", "levy-check", "lognormal-check",
                                     "elliptical-check", "cf-check", "locscale-recover"])
def test_raw_threshold_options_accept_zero(tmp_path, command):
    # identical sides pass at 0; the Monte Carlo commands differ from their closed form, so they fail
    expected = 1 if command in ("cf-identity", "mean-width") else 0
    assert run(_raw_threshold_commands(tmp_path)[command] + ["0", "--out", tmp_path / "rep.json"]) == expected


# ---------------------------------------------------------------------------
# the tie rule over directions x permutations
# ---------------------------------------------------------------------------

def _swap_23_invariant_law(rng):
    """Atoms (a, b, c), (a, c, b), e and e o (2 3), with paired weights: tied permutations come in pairs."""
    a, b, c = rng.standard_normal(3)
    e = rng.standard_normal(3)
    w = rng.uniform(0.1, 1.0, 2)
    return np.array([[a, b, c], [a, c, b], e, e[[0, 2, 1]]]), np.repeat(w / (2.0 * w.sum()), 2)


def test_reported_worst_permutation_is_the_first_tied_one_whatever_the_atom_order():
    grid = DirectionGrid.default(3)
    perms = [p for p in itertools.permutations(range(3)) if p != (0, 1, 2)]
    rng = np.random.default_rng(1)
    for _ in range(20):
        atoms, weights = _swap_23_invariant_law(rng)
        per_perm = [test_swap_invariance(DiscreteLaw(atoms, weights), [p], grid).max_abs_delta for p in perms]
        top = max(per_perm)
        first = next(p for p, s in zip(perms, per_perm) if s >= top * (1.0 - 1e-12))
        for order in (np.arange(4), np.arange(4)[::-1], rng.permutation(4), rng.permutation(4)):
            rep = test_swap_invariance(DiscreteLaw(atoms[order], weights[order]), "all", grid)
            assert rep.extras["worst_permutation"] == first, (atoms, order)


# ---------------------------------------------------------------------------
# every support-comparison verdict rebuilt from its report
# ---------------------------------------------------------------------------

def _comparison_commands(tmp_path):
    files = {name: write(tmp_path, f"{name}.json", doc) for name, doc in
             (("la", LOGN_A), ("lb", LOGN_B), ("l3", LOGN_3D), ("d2", DISCRETE_2D), ("d3", DISCRETE_3D))}
    d2b = write(tmp_path, "d2b.json", {**DISCRETE_2D, "weights": [0.5, 0.25, 0.25]})
    return [
        ("statistical", ["equiv", "--law-a", files["la"], "--law-b", files["lb"]]),
        ("statistical", ["equiv", "--law-a", files["la"], "--law-b", files["la"]]),
        ("exact", ["equiv", "--law-a", files["d2"], "--law-b", d2b]),
        ("statistical", ["swap", "--law", files["l3"]]),
        ("exact", ["swap", "--law", files["d3"]]),
        ("statistical", ["lift-swap", "--law", files["la"]]),
        ("exact", ["lift-swap", "--law", files["d2"]]),
    ]


@pytest.mark.parametrize("bonferroni", [False, True])
def test_support_comparison_verdicts_rebuild_from_their_reports(tmp_path, bonferroni):
    for mode, args in _comparison_commands(tmp_path):
        out = tmp_path / "rep.json"
        code = run(args + ["--budget", "2e4", "--tau", "2.5", "--seed", "4", "--out", out]
                   + (["--bonferroni"] if bonferroni else []))
        res = json.loads(out.read_text())["result"]
        rows = np.array(res["per_direction"]["rows"], dtype=float)
        d = rows.shape[1] - 4
        h_a, h_b, se = rows[:, d], rows[:, d + 1], rows[:, d + 3]
        m = res["grid_size"] * res["extras"].get("n_permutations", 1)
        assert res["mode"] == mode
        if mode == "exact":
            _, _, worst, _, verdict = _decide(h_a, h_b)
            assert res["max_standardized_discrepancy"] == (0.0 if verdict else "inf")
        else:
            _, top, worst, _, verdict = _decide(h_a, h_b, se, tau=res["tau"], m=m, bonferroni=bonferroni)
            assert top == pytest.approx(res["max_standardized_discrepancy"], rel=1e-12)
        assert verdict == res["verdict"] and code == (0 if verdict else 1), args
        assert rows[worst, :d].tolist() == res["worst_direction"], args


def test_even_homogeneous_verdict_rebuilds_from_its_report():
    a = LognormalLaw(GaussianLaw([-0.5, -0.5], np.eye(2)))
    for b in (a, LognormalLaw(GaussianLaw([-1.0, -1.0], [[2.0, 1.0], [1.0, 2.0]])),
              LognormalLaw(GaussianLaw([0.0, -0.5], np.eye(2)))):
        rep = test_even_homogeneous(a, b, budget=20_000, tau=3.0, seed=2)
        _, top, _, _, verdict = _decide(rep.mean_a, rep.mean_b, rep.pooled_se, tau=rep.tau)
        assert (top, verdict) == (rep.max_standardized, rep.verdict)

