import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import ks_2samp

from zonoids.laws import (
    DiscreteLaw,
    EllipticalLaw,
    GaussianLaw,
    LognormalLaw,
    SamplerLaw,
    gbm_process,
    rademacher_law,
    scale_law,
)
from zonoids.lepage import (
    _BATCH,
    _BLOCK,
    CFReport,
    LePageConfig,
    _ks_2samp,
    _max_paths,
    cf_check,
    simulate_lepage,
    stationarity_cross_check,
)
from zonoids.rng import as_rng, spawn_rngs

POINT_MASS_1D = DiscreteLaw([[1.0]], [1.0])


def test_single_term_base_case():
    cfg = LePageConfig(rademacher_law(), "sum", n_terms=1, paths=500, seed=0)
    res = simulate_lepage(cfg)
    # a single term is the mark over one exponential arrival: check the magnitudes
    assert np.all(np.abs(res.values[:, 0]) == res.tail_start)
    assert np.all(res.terms_used == 1)


def test_max_mode_unit_frechet_marginal():
    cfg = LePageConfig(POINT_MASS_1D, "max", n_terms=400, paths=30_000, seed=1, driver_bound=1.0)
    res = simulate_lepage(cfg)
    p = float((res.values[:, 0] <= 1.0).mean())
    target = math.exp(-1.0)
    se = math.sqrt(target * (1.0 - target) / cfg.paths)
    assert abs(p - target) < 3.0 * se


def test_max_mode_frechet_linearity():
    # -1 / log P(Y <= y) should be linear in y with slope 1/E xi
    cfg = LePageConfig(POINT_MASS_1D, "max", n_terms=400, paths=50_000, seed=2, driver_bound=1.0)
    res = simulate_lepage(cfg)
    ys = np.array([0.5, 1.0, 2.0, 4.0])
    probs = np.array([(res.values[:, 0] <= y).mean() for y in ys])
    transformed = -1.0 / np.log(probs)
    ratio = transformed / ys
    assert np.abs(ratio - 1.0).max() < 0.05


def test_early_exit_with_declared_bound():
    cfg = LePageConfig(POINT_MASS_1D, "max", n_terms=100_000, paths=50, seed=3, driver_bound=1.0)
    res = simulate_lepage(cfg)
    assert res.terms_used.max() <= 256  # the point mass stabilizes within a couple of blocks
    unbounded = LePageConfig(POINT_MASS_1D, "max", n_terms=1_000, paths=50, seed=3)
    assert simulate_lepage(unbounded).terms_used.min() == 1_000


def test_max_mode_monotone_in_truncation_depth():
    driver = LognormalLaw(GaussianLaw([-0.5], [[1.0]]))
    shallow = simulate_lepage(LePageConfig(driver, "max", n_terms=64, paths=100, seed=4))
    deep = simulate_lepage(LePageConfig(driver, "max", n_terms=512, paths=100, seed=4))
    assert np.all(deep.values >= shallow.values - 1e-15)


def test_sum_mode_scaling_is_exact():
    driver = rademacher_law()
    base = simulate_lepage(LePageConfig(driver, "sum", n_terms=500, paths=200, seed=5))
    # power-of-two factors scale bitwise exactly; general factors only up to
    # the non-associativity of float multiplication
    doubled = simulate_lepage(LePageConfig(scale_law(driver, 2.0), "sum", n_terms=500, paths=200, seed=5))
    assert np.array_equal(doubled.values, 2.0 * base.values)
    scaled = simulate_lepage(LePageConfig(scale_law(driver, 2.5), "sum", n_terms=500, paths=200, seed=5))
    assert np.allclose(scaled.values, 2.5 * base.values, rtol=1e-12, atol=0.0)


def test_sum_mode_rejects_asymmetric_drivers():
    with pytest.raises(ValueError):
        simulate_lepage(LePageConfig(DiscreteLaw([[1.0]], [1.0]), "sum", 10, 10, seed=6))
    with pytest.raises(ValueError):
        simulate_lepage(LePageConfig(GaussianLaw([0.5], [[1.0]]), "sum", 10, 10, seed=6))
    with pytest.raises(ValueError):
        simulate_lepage(LePageConfig(LognormalLaw(GaussianLaw([0.0], [[1.0]])), "sum", 10, 10, seed=6))
    with pytest.raises(ValueError):
        simulate_lepage(LePageConfig(SamplerLaw(1, lambda rng, n: rng.standard_normal(n), symmetric=False),
                                     "sum", 10, 10, seed=6))
    # undecided symmetry: the sign-odd pilot on 4,096 rows rejects an exponential driver
    calls = []
    exponential = SamplerLaw(1, lambda rng, n: calls.append(n) or rng.exponential(1.0, n))
    with pytest.raises(ValueError):
        simulate_lepage(LePageConfig(exponential, "sum", 10, 10, seed=6))
    assert calls == [4096]


def test_sum_mode_trusts_decided_symmetry_without_a_pilot(monkeypatch):
    calls = []

    def radial(rng, n):
        calls.append(n)
        return np.ones(n)

    simulate_lepage(LePageConfig(EllipticalLaw(1.0, radial, np.eye(2)), "sum", 10, 5, seed=6))
    assert calls == [10] * 5
    calls.clear()
    draw = DiscreteLaw.sample
    monkeypatch.setattr(DiscreteLaw, "sample", lambda law, n, rng: calls.append(n) or draw(law, n, rng))
    scaled = scale_law(rademacher_law(), 2.0)
    assert scaled.is_symmetric() is True
    simulate_lepage(LePageConfig(scaled, "sum", 10, 5, seed=6))
    assert calls == [10] * 5


def test_max_mode_rejects_signed_drivers():
    with pytest.raises(ValueError):
        simulate_lepage(LePageConfig(rademacher_law(), "max", 10, 10, seed=7))


def test_workers_do_not_change_results():
    driver = rademacher_law()
    cfg = LePageConfig(driver, "sum", n_terms=200, paths=64, seed=8)
    a = simulate_lepage(cfg, workers=1)
    b = simulate_lepage(cfg, workers=4)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.tail_start, b.tail_start)


def _reference_max_path(driver, n_terms, rng, bound):
    """One max-mode path on its own, computed as before paths were batched."""
    value = np.full(driver.dim, -np.inf)
    total = 0.0
    used = 0
    while used < n_terms:
        take = min(_BLOCK, n_terms - used)
        exps = rng.standard_exponential(_BLOCK)
        marks = driver.sample(_BLOCK, rng)
        gamma = total + np.cumsum(exps[:take])
        total = float(total + exps.sum())
        np.maximum(value, (marks[:take] / gamma[:, None]).max(axis=0), out=value)
        used += take
        if bound is not None and bound / gamma[-1] < value.min():
            break
    return value, 1.0 / gamma[take - 1], used


# (driver, a bound on its marks); the lognormal's bound is false, which early
# exit does not check.  The 3-atom law's second coordinate is rarely large, so
# under its bound some paths of a batch stop after one block and others go on.
_MAX_DRIVERS = {
    "point-mass": (DiscreteLaw([[1.0, 1.0, 1.0]], [1.0]), 1.0),
    "3-atom": (DiscreteLaw([[2.0, 0.01], [0.01, 2.0], [1.0, 1.0]], [0.98, 0.01, 0.01]), 2.0),
    "40-atom": (DiscreteLaw(as_rng(30).uniform(0.1, 2.0, (40, 2)), as_rng(31).dirichlet(np.ones(40))), 2.0),
    "lognormal": (LognormalLaw(GaussianLaw([-0.5, -0.3], [[1.0, 0.3], [0.3, 0.6]])), 3.0),
    # no standard driver: each path keeps its own ``sample`` call
    "scaled-sampler": (scale_law(DiscreteLaw([[1.0, 0.5], [0.25, 2.0]], [0.7, 0.3]), 2.0), 4.0),
    "point-mass-1d": (POINT_MASS_1D, 1.0),  # a term-innermost batch of one coordinate
}


@pytest.mark.parametrize("bounded", [False, True])
@pytest.mark.parametrize("n_terms", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 300])
@pytest.mark.parametrize("name", sorted(_MAX_DRIVERS))
def test_max_mode_matches_the_per_path_reference_bit_for_bit(name, n_terms, bounded):
    driver, bound = _MAX_DRIVERS[name]
    bound = bound if bounded else None
    for paths in (1, _BATCH - 1, _BATCH, _BATCH + 1):
        rows = [_reference_max_path(driver, n_terms, rng, bound) for rng in spawn_rngs(40, paths)]
        for workers in (1, 2, 3):
            res = simulate_lepage(LePageConfig(driver, "max", n_terms, paths, 40, bound), workers)
            assert np.array_equal(res.values, np.array([r[0] for r in rows])), (paths, workers)
            assert np.array_equal(res.tail_start, np.array([r[1] for r in rows])), (paths, workers)
            assert np.array_equal(res.terms_used, np.array([r[2] for r in rows])), (paths, workers)


@pytest.mark.parametrize("bound", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_a_mark_bound_must_be_finite_and_positive(bound):
    # 0 or below would stop every path after its first block; NaN would never stop one
    with pytest.raises(ValueError, match="finite and > 0"):
        LePageConfig(POINT_MASS_1D, "max", n_terms=1_000, paths=10, seed=0, driver_bound=bound)


@pytest.mark.parametrize("bound", [1.0, -3.0])
def test_a_mark_bound_applies_to_max_mode_only(bound):
    with pytest.raises(ValueError, match="max mode only"):
        LePageConfig(rademacher_law(), "sum", n_terms=100, paths=10, seed=0, driver_bound=bound)


def test_max_mode_early_exit_leaves_a_batch_path_by_path():
    driver, bound = _MAX_DRIVERS["3-atom"]
    res = simulate_lepage(LePageConfig(driver, "max", 300, _BATCH, 40, bound))
    assert set(res.terms_used.tolist()) == {_BLOCK, 2 * _BLOCK}


def test_max_mode_scratch_memory_is_set_by_the_batch():
    # measured past the streams, whose count is the path count
    driver = DiscreteLaw([[1.0, 1.0, 1.0]], [1.0])

    def scratch_bytes(paths):
        streams = spawn_rngs(41, paths)
        tracemalloc.start()
        try:
            out = _max_paths(driver, _BLOCK + 1, streams, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - sum(a.nbytes for a in out)

    small, large = scratch_bytes(3_000), scratch_bytes(30_000)
    assert abs(large - small) < 16 * 1024, (small, large)
    assert large < 512 * 1024, large


def test_cf_identity_rademacher_grid():
    cfg = LePageConfig(rademacher_law(), "sum", n_terms=2_000, paths=40_000, seed=9)
    rep = cf_check(cfg, [[0.5], [1.0], [2.0]])
    assert isinstance(rep, CFReport)
    predicted = [math.exp(-math.pi / 4.0), math.exp(-math.pi / 2.0), math.exp(-math.pi)]
    assert np.allclose(rep.predicted, predicted, atol=1e-12)
    assert rep.sup_discrepancy < 0.02
    assert np.all(np.abs(rep.empirical) <= 1.0 + 1e-12)
    assert np.all((rep.predicted > 0.0) & (rep.predicted <= 1.0))


def test_cf_identity_u_zero_is_exactly_one():
    cfg = LePageConfig(rademacher_law(), "sum", n_terms=100, paths=2_000, seed=10)
    rep = cf_check(cfg, [[0.0]])
    assert rep.empirical[0] == pytest.approx(1.0 + 0.0j)
    assert rep.predicted[0] == 1.0


def test_cf_identity_degenerate_direction():
    driver = DiscreteLaw([[1.0, 1.0], [-1.0, -1.0]], [0.5, 0.5])
    cfg = LePageConfig(driver, "sum", n_terms=300, paths=3_000, seed=11)
    rep = cf_check(cfg, [[1.0, -1.0]])
    # <u, xi> vanishes identically, so both sides are exactly one
    assert rep.predicted[0] == 1.0
    assert rep.empirical[0] == pytest.approx(1.0 + 0.0j)


def test_zonoid_equivalent_drivers_give_same_stable_law():
    driver_a = LognormalLaw(GaussianLaw([-0.5, -0.5], np.eye(2)))
    driver_b = LognormalLaw(GaussianLaw([-1.0, -1.0], [[2.0, 1.0], [1.0, 2.0]]))
    a = simulate_lepage(LePageConfig(driver_a, "max", 300, 8_000, seed=12))
    b = simulate_lepage(LePageConfig(driver_b, "max", 300, 8_000, seed=13))
    rng = as_rng(14)
    dirs = np.vstack([np.eye(2), rng.standard_normal((4, 2))])
    pvals = [ks_2samp(a.values @ v, b.values @ v).pvalue for v in dirs]
    assert min(pvals) >= 0.01 / len(dirs)


def test_stationarity_cross_check_agrees_both_ways():
    good = stationarity_cross_check(gbm_process(True), (0.0, 1.0), (2.0,),
                                    mode="max", n_terms=200, paths=4_000,
                                    budget=150_000, tau=3.0, seed=15)
    assert good.zonoid_pass and good.simulation_pass and good.consistent
    bad = stationarity_cross_check(gbm_process(False), (0.0, 1.0), (2.0,),
                                   mode="max", n_terms=200, paths=4_000,
                                   budget=150_000, tau=3.0, seed=16)
    assert not bad.zonoid_pass and not bad.simulation_pass and bad.consistent


def test_constant_driver_trivially_stationary():
    from zonoids.laws import SamplerProcess

    proc = SamplerProcess(lambda times, rng, n: np.exp(
        rng.standard_normal((n, 1)) - 0.5) @ np.ones((1, len(times))), positive=True)
    rep = stationarity_cross_check(proc, (0.0, 1.0), (1.0,), mode="max",
                                   n_terms=200, paths=3_000, budget=50_000, tau=3.0, seed=17)
    assert rep.zonoid_pass and rep.simulation_pass


def test_cf_check_draws_the_support_sample_once():
    calls = []

    def sampler(rng, n):
        calls.append(n)
        return rng.standard_normal((n, 2))

    driver = SamplerLaw(2, sampler, symmetric=True)
    cfg = LePageConfig(driver, "sum", n_terms=50, paths=200, seed=12)
    us = [[0.5, 0.0], [0.0, 1.0], [1.0, -1.0]]
    rep = cf_check(cfg, us, budget=7_777)
    assert calls.count(7_777) == 1
    # E|<u, Z>| = |u| sqrt(2 / pi) for a standard normal Z
    truth = np.exp(-0.5 * math.pi * np.linalg.norm(us, axis=1) * math.sqrt(2.0 / math.pi))
    assert np.allclose(rep.predicted, truth, atol=0.05)


@pytest.mark.parametrize("tied", [False, True])
def test_ks_2samp_matches_scipy(tied):
    rng = as_rng(0)
    for n in [*range(1, 201), 500, 1_000, 3_000, 4_000, 8_000, 10_000]:
        if tied:
            x, y = rng.integers(0, 5, n).astype(float), rng.integers(0, 5, n).astype(float)
        else:
            x, y = rng.standard_normal(n), rng.standard_normal(n) + 0.1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ref = ks_2samp(x, y)
        d, p = _ks_2samp(x, y)
        assert d == ref.statistic, n
        if any(issubclass(w.category, RuntimeWarning) for w in caught):
            # scipy's exact sum rounded above 1, so the exact value is 1; scipy's asymptotic
            # fallback can read lower (0.99996 at n = 7 with continuous data and D = 1/7)
            assert p == 1.0 and ref.pvalue > 0.999, (n, ref.pvalue)
        else:
            assert p == ref.pvalue, n


@pytest.mark.parametrize("n", range(1, 8))
def test_ks_2samp_pvalue_is_the_lattice_path_probability(n):
    # every arrangement of n x's and n y's in pooled order is equally likely under the null
    gaps = []
    for xs in itertools.combinations(range(2 * n), n):
        walk = np.cumsum(np.where(np.isin(np.arange(2 * n), xs), 1, -1))
        gaps.append(int(np.abs(walk).max()))
    gaps = np.array(gaps)
    x = np.arange(n, dtype=float)
    assert _ks_2samp(x, x) == (0.0, 1.0)
    for h in range(1, n + 1):
        d, p = _ks_2samp(x, x + h - 0.5)  # at x = h - 1 the x count leads the y count by h
        assert d == h / n
        assert p == pytest.approx((gaps >= h).mean(), rel=1e-13, abs=1e-15)


def test_ks_2samp_refuses_unequal_sizes():
    with pytest.raises(ValueError, match="equal sizes"):
        _ks_2samp(np.zeros(3), np.zeros(4))
