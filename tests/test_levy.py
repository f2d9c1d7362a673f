import math

import numpy as np
import pytest

from zonoids.errors import BoundedSupportError
from zonoids.invariance import test_zonoid_equiv, test_zonoid_stationarity
from zonoids.laws import (
    EllipticalLaw,
    ExpGaussianProcess,
    GaussianLaw,
    GaussianProcess,
    LognormalLaw,
    ScalarBase,
    SupportFlags,
    brownian_cov,
    gbm_process,
    scalar_base_from_json,
)
from zonoids.levy import (
    LevyTriplet,
    brown_resnick_condition,
    cf_criterion,
    check_elliptical_equiv,
    check_log_id_equiv,
    check_lognormal_equiv,
    expectation_condition,
    log_id_sampler_law,
    lognormal_to_triplet,
    recover_location_scale,
    tilted_pushforward,
    triplet_from_json,
    triplet_to_json,
    u_matrix,
    variogram,
)
from zonoids.rng import as_rng

E = math.e
PAIR_A = LognormalLaw(GaussianLaw([-0.5, -0.5], np.eye(2)))
PAIR_B = LognormalLaw(GaussianLaw([-1.0, -1.0], [[2.0, 1.0], [1.0, 2.0]]))


def pure_gaussian_triplet(mean, cov) -> LevyTriplet:
    mean = np.asarray(mean, dtype=float)
    return LevyTriplet(np.asarray(cov, dtype=float), np.zeros((0, mean.size)), np.zeros(0), mean)


# ---------------------------------------------------------------------------
# variogram and the difference map
# ---------------------------------------------------------------------------

def test_variogram_examples():
    assert variogram(np.eye(2)).tolist() == [[0.0, 2.0], [2.0, 0.0]]
    assert variogram([[2.0, 1.0], [1.0, 2.0]])[0, 1] == 2.0
    assert variogram([[1.0, 1.0], [1.0, 1.0]])[0, 1] == 0.0


def test_variogram_properties():
    rng = as_rng(1)
    for _ in range(20):
        b = rng.uniform(-1.0, 1.0, size=(3, 3))
        a = b @ b.T
        g = variogram(a)
        assert np.allclose(np.diag(g), 0.0)
        assert np.allclose(g, g.T)
        assert g.min() >= -1e-12
        # adding a common component to all coordinates leaves gamma unchanged
        c = float(rng.uniform(0.0, 2.0))
        assert np.allclose(variogram(a + c), g, atol=1e-12)


def test_u_matrix_kernel():
    u = u_matrix(4)
    assert u.shape == (3, 4)
    assert np.allclose(u @ np.ones(4), 0.0)
    assert np.linalg.matrix_rank(u) == 3


def test_tilted_pushforward_examples():
    atoms, masses = tilted_pushforward([[1.0, 1.0]], [0.3])
    assert atoms.shape == (0, 1) and masses.size == 0

    atoms, masses = tilted_pushforward([[1.0, 0.0]], [1.0])
    assert atoms.ravel().tolist() == [1.0] and masses.tolist() == [1.0]

    atoms, masses = tilted_pushforward([[0.0, 1.0]], [1.0])
    assert atoms.ravel().tolist() == [-1.0]
    assert masses[0] == pytest.approx(E)


def test_tilted_pushforward_mass_conservation():
    rng = as_rng(2)
    atoms = rng.uniform(-1.0, 1.0, size=(6, 3))
    atoms[0] = [0.7, 0.7, 0.7]  # constant atom: dropped
    masses = rng.uniform(0.1, 1.0, size=6)
    out_atoms, out_masses = tilted_pushforward(atoms, masses)
    expected = (masses[1:] * np.exp(atoms[1:, -1])).sum()
    assert out_masses.sum() == pytest.approx(expected)
    assert out_atoms.shape[1] == 2


# ---------------------------------------------------------------------------
# exponential-moment condition
# ---------------------------------------------------------------------------

def test_expectation_condition_examples():
    t = pure_gaussian_triplet([-0.5], [[1.0]])
    assert expectation_condition(t, 0) == pytest.approx(0.0)

    t = LevyTriplet(np.zeros((1, 1)), [[2.0]], [1.0], [0.0])
    assert expectation_condition(t, 0) == pytest.approx(E**2 - 1.0)

    t = LevyTriplet(np.zeros((1, 1)), [[0.5]], [1.0], [0.0])
    assert expectation_condition(t, 0) == pytest.approx(math.exp(0.5) - 1.5)


def test_expectation_condition_overflow_guard():
    t = LevyTriplet(np.zeros((1, 1)), [[800.0]], [1.0], [0.0])
    with pytest.raises(ValueError):
        expectation_condition(t, 0)


# ---------------------------------------------------------------------------
# triplet equivalence checker
# ---------------------------------------------------------------------------

def test_log_id_pure_gaussian_pair_passes():
    t1 = pure_gaussian_triplet([-0.5, -0.5], np.eye(2))
    t2 = pure_gaussian_triplet([-1.0, -1.0], [[2.0, 1.0], [1.0, 2.0]])
    rep = check_log_id_equiv(t1, t2)
    assert rep.verdict and rep.variogram_ok and rep.pushforward_ok and rep.expectation_ok


def test_log_id_kernel_atom_rebalanced_passes():
    # one jump atom with equal components is invisible to the difference map;
    # rebalancing the drift restores the exponential moments
    mass = 0.1
    b = np.array([-0.5, -0.5]) - mass * (E - 1.0)
    t1 = LevyTriplet(np.eye(2), [[1.0, 1.0]], [mass], b)
    t2 = pure_gaussian_triplet([-0.5, -0.5], np.eye(2))
    rep = check_log_id_equiv(t1, t2)
    assert rep.verdict


def test_log_id_variogram_perturbation_fails_condition_a():
    t1 = pure_gaussian_triplet([-0.5, -0.5], np.eye(2))
    cov = np.array([[1.0, 0.05], [0.05, 1.0]])
    t2 = LevyTriplet(cov, np.zeros((0, 2)), np.zeros(0), np.array([-0.5, -0.5]))
    rep = check_log_id_equiv(t1, t2)
    assert not rep.verdict and rep.variogram_ok is False


def test_log_id_d1_uses_only_exponential_moments():
    t1 = pure_gaussian_triplet([-0.5], [[1.0]])
    t2 = pure_gaussian_triplet([-2.0], [[4.0]])
    rep = check_log_id_equiv(t1, t2)
    assert rep.verdict and rep.variogram_ok is None and rep.pushforward_ok is None


def test_log_id_json_round_trip():
    t = LevyTriplet(np.eye(2), [[1.0, 0.5]], [0.2], [-0.1, 0.3])
    assert triplet_from_json(triplet_to_json(t)) == t


# ---------------------------------------------------------------------------
# lognormal corollary
# ---------------------------------------------------------------------------

def test_lognormal_corollary_examples():
    assert check_lognormal_equiv(PAIR_A, PAIR_B).verdict
    assert check_lognormal_equiv(PAIR_A, PAIR_A).verdict
    bad = check_lognormal_equiv(
        LognormalLaw(GaussianLaw([0.0, 0.0], np.eye(2))),
        LognormalLaw(GaussianLaw([0.0, 0.0], 2.0 * np.eye(2))),
    )
    assert not bad.verdict and not bad.log_mean_ok


def test_lognormal_matches_triplet_checker_on_random_pairs():
    rng = as_rng(3)
    agree = 0
    for _ in range(200):
        d = 2
        b1 = rng.uniform(-1.0, 1.0, size=(d, d))
        a1 = b1 @ b1.T + 0.1 * np.eye(d)
        mu1 = rng.uniform(-1.0, 0.5, size=d)
        l1 = LognormalLaw(GaussianLaw(mu1, a1))
        if rng.random() < 0.5:
            c = float(rng.uniform(0.05, 0.8))
            l2 = LognormalLaw(GaussianLaw(mu1 - 0.5 * c, a1 + c))
        else:
            mu2 = mu1 + rng.uniform(-0.3, 0.3, size=d)
            l2 = LognormalLaw(GaussianLaw(mu2, a1))
        v1 = check_lognormal_equiv(l1, l2).verdict
        v2 = check_log_id_equiv(lognormal_to_triplet(l1), lognormal_to_triplet(l2)).verdict
        agree += v1 == v2
    assert agree == 200


# ---------------------------------------------------------------------------
# characteristic-function criterion
# ---------------------------------------------------------------------------

def test_cf_criterion_passing_pair_explicit_u():
    rep = cf_criterion(PAIR_A.gaussian, PAIR_B.gaussian, u=[[1.0, -1.0]], w=[0.5, 0.5])
    assert rep.verdict
    assert rep.values_a[0] == pytest.approx(rep.values_b[0], abs=1e-12)
    assert rep.values_a[0] == pytest.approx(math.exp(-1.25) + 0.0j, abs=1e-12)


def test_cf_criterion_u_zero_reduces_to_tilted_moment():
    rep = cf_criterion(PAIR_A.gaussian, PAIR_B.gaussian, u=[[0.0, 0.0]], w=[0.5, 0.5])
    # both equal E exp((xi_1 + xi_2) / 2)
    assert rep.values_a[0] == pytest.approx(math.exp(-0.25) + 0.0j, abs=1e-12)
    assert rep.verdict


def test_cf_criterion_detects_variogram_mismatch():
    bad = GaussianLaw([-0.5, -0.5], [[1.0, 0.3], [0.3, 1.0]])
    rep = cf_criterion(PAIR_A.gaussian, bad, n_dirs=32, seed=5)
    assert not rep.verdict and rep.max_abs_diff > 1e-6


def test_cf_criterion_validates_constraints():
    with pytest.raises(ValueError):
        cf_criterion(PAIR_A.gaussian, PAIR_B.gaussian, u=[[1.0, 0.0]])
    with pytest.raises(ValueError):
        cf_criterion(PAIR_A.gaussian, PAIR_B.gaussian, w=[0.7, 0.7])


def test_cf_criterion_passes_for_all_w_on_equivalent_pair():
    for w in ([1.0, 0.0], [0.25, 0.75], [2.0, -1.0]):
        rep = cf_criterion(PAIR_A.gaussian, PAIR_B.gaussian, w=w, n_dirs=16, seed=6)
        assert rep.verdict


# ---------------------------------------------------------------------------
# elliptical laws
# ---------------------------------------------------------------------------

def chi_mean(d: int) -> float:
    return math.sqrt(2.0) * math.gamma((d + 1) / 2.0) / math.gamma(d / 2.0)


def test_elliptical_examples():
    const = {"kind": "constant", "value": 1.0}
    e1 = EllipticalLaw(1.0, lambda rng, n: np.ones(n), np.eye(2), const)
    e2 = EllipticalLaw(2.0, lambda rng, n: np.full(n, 2.0), 0.5 * np.eye(2), const)
    assert check_elliptical_equiv(e1, e2).verdict
    e3 = EllipticalLaw(1.0, lambda rng, n: np.ones(n), np.diag([1.0, 2.0]), const)
    assert not check_elliptical_equiv(e1, e3).verdict


def test_gaussian_as_elliptical_cross_check():
    d = 2
    m = chi_mean(d)
    ell = EllipticalLaw(m, lambda rng, n: np.sqrt(rng.chisquare(d, n)), np.eye(d))
    gauss = GaussianLaw(np.zeros(d), np.eye(d))
    rep = test_zonoid_equiv(ell, gauss, budget=200_000, tau=4.0, seed=7)
    assert rep.verdict
    ell_bad = EllipticalLaw(m, lambda rng, n: np.sqrt(rng.chisquare(d, n)), 1.5 * np.eye(d))
    rep_bad = test_zonoid_equiv(ell_bad, gauss, budget=200_000, tau=4.0, seed=7)
    assert not rep_bad.verdict
    # analytic verdicts agree
    as_ell = EllipticalLaw(m, lambda rng, n: np.sqrt(rng.chisquare(d, n)), np.eye(d))
    assert check_elliptical_equiv(ell, as_ell).verdict
    assert not check_elliptical_equiv(ell_bad, as_ell).verdict


# ---------------------------------------------------------------------------
# location-scale recovery
# ---------------------------------------------------------------------------

NORMAL_BASE = ScalarBase(lambda rng, n: rng.standard_normal(n), SupportFlags(False, False))


def normal_pos_mean(mu: float, sigma: float) -> float:
    z = mu / sigma
    return sigma * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) + mu * 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def test_recover_standard_normal():
    rec = recover_location_scale(NORMAL_BASE, 0.0, 1.0 / math.sqrt(2.0 * math.pi),
                                 budget=10**6, seed=8)
    assert rec.location == 0.0
    assert 0.99 <= rec.scale <= 1.01


def test_recover_shifted_scaled_normal():
    mu, sigma = 1.0, 2.0
    rec = recover_location_scale(NORMAL_BASE, mu, normal_pos_mean(mu, sigma), budget=10**6, seed=9)
    assert rec.location == mu
    assert abs(rec.scale - sigma) / sigma < 0.02


def test_recover_refuses_bounded_base():
    bounded = scalar_base_from_json({"kind": "uniform", "halfwidth": 1.0})
    with pytest.raises(BoundedSupportError):
        recover_location_scale(bounded, 1.0, 1.05, budget=10_000, seed=10)


# ---------------------------------------------------------------------------
# drift condition for stationary exponentials
# ---------------------------------------------------------------------------

def brownian_inputs(times):
    mu = [-0.5 * abs(t) for t in times]
    s2 = [abs(t) for t in times]
    cov = [[brownian_cov(s, t) for t in times] for s in times]
    return mu, s2, cov


def test_brown_resnick_brownian_case():
    times = [0.0, 0.5, 1.0, 2.0]
    mu, s2, cov = brownian_inputs(times)
    rep = brown_resnick_condition(times, mu, s2, cov=cov)
    assert rep.verdict and rep.constant == pytest.approx(0.0) and rep.lag_ok


def test_brown_resnick_missing_drift_fails():
    times = [0.0, 0.5, 1.0, 2.0]
    _, s2, cov = brownian_inputs(times)
    rep = brown_resnick_condition(times, [0.0] * 4, s2, cov=cov)
    assert not rep.verdict and rep.max_deviation > 0.1


def test_brown_resnick_identity_drift_passes():
    rng = as_rng(11)
    times = [0.0, 1.0, 2.0]
    s2 = rng.uniform(0.5, 2.0, size=3).tolist()
    mu = [1.0 - 0.5 * v for v in s2]
    rep = brown_resnick_condition(times, mu, s2, increments_stationary=True)
    assert rep.verdict and rep.constant == pytest.approx(1.0)


def test_brown_resnick_pass_implies_zonoid_stationarity():
    rep = brown_resnick_condition([0.0, 1.0], [-0.0, -0.5], [0.0, 1.0],
                                  cov=[[0.0, 0.0], [0.0, 1.0]])
    assert rep.verdict
    stat = test_zonoid_stationarity(gbm_process(True), (0.0, 1.0), 2.0,
                                    budget=200_000, tau=3.0, seed=12)
    assert stat.verdict


def test_brown_resnick_requires_cov_or_certificate():
    with pytest.raises(ValueError):
        brown_resnick_condition([0.0, 1.0], [0.0, -0.5], [0.0, 1.0])


def _pairwise_lag_ok(times, cov, tol):
    """The lag check as a loop over the i < j pairs: each variogram value against the first one at its lag."""
    gamma = variogram(cov)
    first, ok = {}, True
    for i in range(len(times)):
        for j in range(i + 1, len(times)):
            lag = round(abs(times[i] - times[j]), 12)
            if lag in first and abs(first[lag] - gamma[i, j]) > tol:
                ok = False
            first.setdefault(lag, gamma[i, j])
    return ok


def test_brown_resnick_lag_check_matches_the_pairwise_loop():
    rng = as_rng(21)
    outcomes = set()
    for trial in range(80):
        n = 1 if trial == 0 else int(rng.integers(2, 7))
        times = rng.choice(np.arange(8) * 0.1, size=n, replace=False)  # lattice times: lags repeat, off by an ulp
        noise = rng.standard_normal((n, n))
        # Brownian covariance (a lag-only variogram), perturbed at, below or well above the tolerance
        cov = np.minimum.outer(times, times) + rng.choice([0.0, 1e-10, 1e-6]) * (noise + noise.T)
        rep = brown_resnick_condition(times, -0.5 * times, times, cov=cov)
        assert rep.lag_ok is _pairwise_lag_ok(times, cov, 1e-9), (times, cov)
        outcomes.add(rep.lag_ok)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# exp-triplet sampling (finite jump measures)
# ---------------------------------------------------------------------------

def test_log_id_sampler_matches_lognormal_mean():
    # kernel atom plus rebalanced drift: unchanged exponential moments
    mass = 0.1
    b = np.array([-0.5, -0.5]) - mass * (E - 1.0)
    t = LevyTriplet(np.eye(2), [[1.0, 1.0]], [mass], b)
    law = log_id_sampler_law(t)
    samples = law.sample(400_000, as_rng(13))
    means = samples.mean(axis=0)
    ses = samples.std(axis=0, ddof=1) / math.sqrt(samples.shape[0])
    assert np.all(np.abs(means - 1.0) < 4.0 * ses)
