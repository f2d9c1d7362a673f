import itertools
import math

import numpy as np
import pytest

from zonoids.errors import InternalConsistencyError
from zonoids.invariance import (
    check_positivity_necessity,
    discrete_equal_in_distribution,
    is_exchangeable_discrete,
    measure_change,
    test_even_homogeneous,
    test_lift_swap_invariance,
    test_max_zonoid_equiv,
    test_relations_theorem,
    test_swap_invariance,
    test_zonoid_equiv,
    test_zonoid_stationarity,
)
from zonoids.laws import (
    DiscreteLaw,
    GaussianLaw,
    LognormalLaw,
    dacunha_prefix_law,
    gbm_process,
    law_mean,
    lognormal_swap_law,
    merge_atoms,
    permute_law,
)
from zonoids.levy import check_lognormal_equiv
from zonoids.rng import as_rng
from zonoids.zonoid import DirectionGrid, support_centred

SWAPPY = DiscreteLaw([[1.0, 2.0], [2.0, 1.0]], [0.5, 0.5])
CORO_A = LognormalLaw(GaussianLaw([-0.5, -0.5], np.eye(2)))
CORO_B = LognormalLaw(GaussianLaw([-1.0, -1.0], [[2.0, 1.0], [1.0, 2.0]]))


# ---------------------------------------------------------------------------
# zonoid equivalence
# ---------------------------------------------------------------------------

def test_identical_gaussians_pass_exact():
    g = GaussianLaw([0.0, 0.0], np.eye(2))
    rep = test_zonoid_equiv(g, GaussianLaw([0.0, 0.0], np.eye(2)))
    assert rep.mode == "exact" and rep.verdict
    assert rep.max_abs_delta == 0.0


def test_scaled_gaussian_fails_with_ratio_two():
    g1 = GaussianLaw([0.0, 0.0], np.eye(2))
    g2 = GaussianLaw([0.0, 0.0], 4.0 * np.eye(2))
    rep = test_zonoid_equiv(g1, g2)
    assert rep.mode == "exact" and not rep.verdict
    assert np.allclose(rep.h_b, 2.0 * rep.h_a)


def test_corollary_lognormal_pair_passes_statistically():
    rep = test_zonoid_equiv(CORO_A, CORO_B, budget=300_000, tau=3.0, seed=101)
    assert rep.mode == "statistical" and rep.crn
    assert rep.verdict, f"max standardized {rep.max_standardized}"


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        test_zonoid_equiv(GaussianLaw([0.0], [[1.0]]), GaussianLaw([0.0, 0.0], np.eye(2)))


def test_mean_equality_consequence_for_positive_laws():
    # an exact pass of positive discrete laws forces equal component means
    a = DiscreteLaw([[1.0, 2.0], [3.0, 1.0]], [0.5, 0.5])
    b = DiscreteLaw([[3.0, 1.0], [1.0, 2.0]], [0.5, 0.5])
    rep = test_zonoid_equiv(a, b)
    assert rep.verdict and rep.mode == "exact"
    assert np.abs(law_mean(a) - law_mean(b)).max() <= 1e-10


def test_bonferroni_option_relaxes_per_direction_threshold():
    from zonoids.invariance import effective_tau

    assert effective_tau(3.0, 1, True) == pytest.approx(3.0, abs=1e-9)
    assert effective_tau(3.0, 72, True) > 3.5
    rep = test_zonoid_equiv(CORO_A, CORO_B, budget=50_000, tau=3.0, seed=71, bonferroni=True)
    assert rep.verdict


def test_linear_transform_consistency_exact():
    rng = as_rng(31)
    a = DiscreteLaw([[1.0, 2.0], [2.0, 1.0], [0.5, 0.5]], [0.25, 0.25, 0.5])
    b = permute_law(a, [1, 0])
    assert test_zonoid_equiv(a, b).verdict
    for _ in range(5):
        m = rng.uniform(-1.0, 1.0, size=(2, 2))
        assert test_zonoid_equiv(a.transform(m), b.transform(m)).verdict


# ---------------------------------------------------------------------------
# max-zonoid equivalence
# ---------------------------------------------------------------------------

def test_max_zonoid_self_is_exact_pass():
    rep = test_max_zonoid_equiv(SWAPPY, SWAPPY)
    assert rep.verdict and rep.mode == "exact"
    assert rep.extras["zonoid_verdict"] is True


def test_max_zonoid_detects_difference_at_axis():
    other = DiscreteLaw([[1.0, 2.0]], [1.0])
    rep = test_max_zonoid_equiv(SWAPPY, other, grid=DirectionGrid.axes_and_diagonals(2))
    assert not rep.verdict
    idx = [tuple(np.round(u, 6)) for u in rep.grid.directions].index((1.0, 0.0))
    assert rep.h_a[idx] == pytest.approx(1.5)
    assert rep.h_b[idx] == pytest.approx(1.0)


def test_max_zonoid_rejects_signed_laws():
    with pytest.raises(ValueError):
        test_max_zonoid_equiv(GaussianLaw([0.0, 0.0], np.eye(2)), SWAPPY)


def test_max_zonoid_agrees_with_zonoid_on_lognormal_pair():
    rep = test_max_zonoid_equiv(CORO_A, CORO_B, budget=300_000, tau=3.0, seed=7)
    assert rep.verdict and rep.extras["zonoid_verdict"] is True
    assert rep.extras["consistency"] == "ok"


def test_max_zonoid_agreement_on_random_positive_discrete():
    rng = as_rng(37)
    for _ in range(25):
        atoms = rng.uniform(0.2, 3.0, size=(4, 2))
        w = rng.uniform(0.1, 1.0, size=4)
        law = DiscreteLaw(atoms, w / w.sum())
        sym = permute_law(law, [1, 0])
        rep = test_max_zonoid_equiv(law, sym)
        assert rep.verdict == rep.extras["zonoid_verdict"]


# ---------------------------------------------------------------------------
# swap invariance
# ---------------------------------------------------------------------------

def test_dacunha_prefix_swap_invariant_exact():
    law = dacunha_prefix_law(4)
    rep = test_swap_invariance(law, "all")
    assert rep.verdict and rep.mode == "exact"
    rng = as_rng(5)
    for _ in range(20):
        u = rng.uniform(-2.0, 2.0, size=4)
        assert abs(support_centred(law, u).value - np.abs(u).sum()) < 1e-12


def test_lognormal_swap_law_passes_statistically():
    law = lognormal_swap_law([0.5, 0.0, 0.0], d=3)
    rep = test_swap_invariance(law, "all", budget=150_000, tau=3.0, seed=2024)
    assert rep.mode == "statistical"
    assert rep.verdict, f"max standardized {rep.max_standardized}"


def test_perturbed_lognormal_fails_swap():
    g = GaussianLaw([0.2, 0.0], np.eye(2))
    rep = test_swap_invariance(LognormalLaw(g), "all", budget=100_000, tau=3.0, seed=3)
    assert not rep.verdict


def test_swap_methods_agree():
    # the orbit evaluation h(pi^-1 u) against the permuted laws, enumerated
    for law in (SWAPPY, DiscreteLaw([[1.0, 2.0], [2.0, 1.2]], [0.5, 0.5])):
        rep = test_swap_invariance(law, "all")
        dirs = rep.grid.directions
        h = law.support(dirs)
        ref = max(float(np.abs(h - permute_law(law, p).support(dirs)).max())
                  for p in itertools.permutations(range(law.dim)))
        assert rep.mode == "exact"
        assert rep.verdict == (ref <= 1e-10)
        assert abs(rep.max_abs_delta - ref) <= 1e-12


def test_exact_swap_directions_fixed_or_negated_by_the_permutation_get_zero_delta():
    rng = as_rng(7)
    law = DiscreteLaw(rng.uniform(-2.0, 2.0, size=(9, 4)), np.full(9, 1.0 / 9.0))
    perm = (1, 0, 2, 3)
    generic = rng.standard_normal((20, 4))
    fixed = rng.standard_normal((20, 4))
    fixed[:, 1] = fixed[:, 0]
    negated = np.zeros((20, 4))
    negated[:, 0] = rng.standard_normal(20)
    negated[:, 1] = -negated[:, 0]
    dirs = np.vstack([generic, fixed, negated])
    rep = test_swap_invariance(law, [perm], DirectionGrid(dirs / np.linalg.norm(dirs, axis=1, keepdims=True)))
    assert rep.mode == "exact" and not rep.verdict
    u = rep.grid.directions
    image = u[:, np.argsort(perm)]
    assert np.array_equal(image[20:40], u[20:40]) and np.array_equal(image[40:], -u[40:])
    assert np.all(rep.delta[20:] == 0.0)
    assert np.all(rep.delta[:20] != 0.0)


@pytest.mark.parametrize("seed", range(8))
def test_invariant_lognormal_swap_law_not_rejected(seed):
    # a direction fixed by a permutation once got a roundoff delta divided by a
    # roundoff SE, which rejected this invariant law on most seeds
    rep = test_swap_invariance(lognormal_swap_law([0.5], 4), "all", budget=20_000, seed=seed,
                               bonferroni=True)
    assert rep.mode == "statistical"
    assert rep.verdict, f"max standardized {rep.max_standardized}"


# Calibration on true nulls under Bonferroni: the family-wise level of tau = 3 is
# erfc(3 / sqrt(2)) ~ 0.0027, so two or more rejections among 16 seeds have
# probability below 1e-3.
CALIBRATION_SEEDS = range(16)


def test_swap_calibration_on_an_invariant_lognormal_law():
    law = lognormal_swap_law([0.5], 3)
    rejected = [seed for seed in CALIBRATION_SEEDS
                if not test_swap_invariance(law, "all", budget=20_000, seed=seed, bonferroni=True).verdict]
    assert len(rejected) <= 1, rejected


def test_equiv_calibration_on_certified_lognormal_pairs():
    # (mu, A) and (mu - c/2, A + c) share mu_i + a_ii / 2 and the variogram
    rng = as_rng(2024)
    rejected = []
    for seed in CALIBRATION_SEEDS:
        f = 0.5 * rng.standard_normal((2, 2))
        mu, cov, c = 0.3 * rng.standard_normal(2), f @ f.T + 0.1 * np.eye(2), rng.uniform(0.1, 1.0)
        law_a, law_b = LognormalLaw(GaussianLaw(mu, cov)), LognormalLaw(GaussianLaw(mu - c / 2.0, cov + c))
        assert check_lognormal_equiv(law_a, law_b).verdict
        if not test_zonoid_equiv(law_a, law_b, budget=100_000, seed=seed, bonferroni=True).verdict:
            rejected.append(seed)
    assert len(rejected) <= 1, rejected


def test_swap_directions_fixed_by_the_permutation_get_zero_delta():
    perm = (1, 0, 2, 3)
    rep = test_swap_invariance(lognormal_swap_law([0.5], 4), [perm], budget=20_000, seed=0)
    dirs = rep.grid.directions
    inv = np.argsort(perm)
    fixed = np.all(dirs[:, inv].view(np.int64) == dirs.view(np.int64), axis=1)
    assert fixed.any() and not fixed.all()
    assert np.all(rep.delta[fixed] == 0.0)
    assert np.all(rep.pooled_se[fixed] == 0.0)
    assert np.all(rep.pooled_se[~fixed] > 0.0)


def test_permutation_as_direction_identity_exact():
    rng = as_rng(41)
    for _ in range(40):
        d = int(rng.integers(2, 5))
        atoms = rng.uniform(-2.0, 2.0, size=(4, d))
        w = rng.uniform(0.1, 1.0, size=4)
        law = DiscreteLaw(atoms, w / w.sum())
        perm = rng.permutation(d)
        inv = np.empty(d, dtype=int)
        inv[perm] = np.arange(d)
        u = rng.uniform(-1.0, 1.0, size=d)
        lhs = support_centred(permute_law(law, perm), u).value
        rhs = support_centred(law, u[inv]).value
        assert abs(lhs - rhs) < 1e-12


def test_swap_rejects_bad_permutations():
    with pytest.raises(ValueError):
        test_swap_invariance(SWAPPY, [[0, 0]])
    with pytest.raises(ValueError):
        test_swap_invariance(DiscreteLaw([[1.0]], [1.0]))


# ---------------------------------------------------------------------------
# lift swap invariance and positivity
# ---------------------------------------------------------------------------

def test_point_mass_at_ones_lift_swap_invariant():
    law = DiscreteLaw([[1.0, 1.0]], [1.0])
    rep = test_lift_swap_invariance(law)
    assert rep.verdict and rep.mode == "exact"


def test_iid_positive_law_fails_lift_swap():
    law = lognormal_swap_law([0.0], d=2)  # i.i.d. unit-mean lognormal coordinates
    rep = test_lift_swap_invariance(law, budget=100_000, tau=3.0, seed=12)
    assert not rep.verdict


def test_measure_changed_swap_invariant_law_is_lift_swap_invariant():
    changed = measure_change(SWAPPY, 0)
    rep = test_lift_swap_invariance(changed)
    assert rep.verdict and rep.mode == "exact"


def test_positivity_diagnostic_cases():
    ok = check_positivity_necessity(DiscreteLaw([[1.0]], [1.0]))
    assert not ok.fired
    zero_atom = check_positivity_necessity(DiscreteLaw([[0.0], [2.0]], [0.5, 0.5]))
    assert zero_atom.fired and not zero_atom.positive_ok
    signed = GaussianLaw([1.0], [[0.25]])
    fired = check_positivity_necessity(signed, budget=50_000, seed=4)
    assert fired.fired and fired.negative_fraction > 0.0


# ---------------------------------------------------------------------------
# measure change and the relations between characterisations
# ---------------------------------------------------------------------------

def test_measure_change_examples():
    mc = measure_change(SWAPPY, 0)
    assert mc.atoms.ravel().tolist() == [0.5, 2.0]
    assert np.allclose(np.sort(mc.weights), [1.0 / 3.0, 2.0 / 3.0])

    point = measure_change(DiscreteLaw([[3.0, 3.0]], [1.0]), 0)
    assert point.atoms.tolist() == [[1.0]]
    assert point.weights.tolist() == [1.0]

    three = measure_change(DiscreteLaw([[1.0, 1.0, 2.0], [1.0, 2.0, 1.0]], [0.5, 0.5]), 0)
    assert sorted(three.atoms.tolist()) == [[1.0, 2.0], [2.0, 1.0]]
    assert np.allclose(three.weights, 0.5)


def test_measure_change_rejects_non_positive_pivot():
    with pytest.raises(ValueError):
        measure_change(DiscreteLaw([[0.0, 1.0]], [1.0]), 0)


def test_relations_theorem_swap_invariant_law():
    rep = test_relations_theorem(SWAPPY)
    assert rep.swap_invariant and rep.ratio_lift_swap
    assert rep.ratio_exchangeable is None  # d = 2
    assert rep.consistent


def test_relations_theorem_asymmetric_law():
    law = DiscreteLaw([[1.0, 2.0], [2.0, 1.0]], [0.9, 0.1])
    rep = test_relations_theorem(law)
    assert not rep.swap_invariant and not rep.ratio_lift_swap
    assert rep.consistent


def test_relations_theorem_d3_orbit():
    base = np.array([1.0, 2.0, 3.0])
    atoms = np.array([np.array(p) for p in itertools.permutations(base)])
    law = DiscreteLaw(atoms, np.full(6, 1.0 / 6.0))
    rep = test_relations_theorem(law)
    assert rep.swap_invariant and rep.ratio_lift_swap and rep.ratio_exchangeable
    assert rep.per_pivot_exchangeable[0] and rep.per_pivot_exchangeable[1]


def test_merge_atoms_merges_duplicates():
    law = DiscreteLaw([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0.25, 0.25, 0.5])
    atoms, weights = merge_atoms(law.atoms, law.weights)
    assert atoms.shape == (2, 2)
    assert weights.sum() == pytest.approx(1.0)
    assert discrete_equal_in_distribution(law, DiscreteLaw([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5]))


def test_exchangeability_detection():
    assert is_exchangeable_discrete(SWAPPY)
    assert not is_exchangeable_discrete(DiscreteLaw([[1.0, 2.0]], [1.0]))


def test_discrete_verdicts_pair_atoms_by_distance_not_by_lexicographic_position():
    # the 1e-12 offset puts (1e-12, .) after (0, .), which its permuted or unjittered twin does not
    assert is_exchangeable_discrete(DiscreteLaw([[1e-12, 0.0], [0.0, 5.0], [5.0, 0.0]], [1 / 3] * 3))
    assert discrete_equal_in_distribution(DiscreteLaw([[1e-12, -1.0], [0.0, 0.0], [0.0, 1.0]], [1 / 3] * 3),
                                          DiscreteLaw([[0.0, -1.0], [0.0, 0.0], [0.0, 1.0]], [1 / 3] * 3))


def test_merge_atoms_joins_a_chain_of_atoms_within_the_tolerance():
    atoms, masses = merge_atoms(np.array([[1.6e-9, 0.0], [0.0, 0.0], [0.8e-9, 5e-10], [3.0, 0.0]]),
                                np.array([0.1, 0.2, 0.3, 0.4]))
    assert atoms.tolist() == [[0.0, 0.0], [3.0, 0.0]]
    assert masses.tolist() == [0.2 + 0.3 + 0.1, 0.4]


# ---------------------------------------------------------------------------
# zonoid stationarity
# ---------------------------------------------------------------------------

def test_gbm_zonoid_stationarity():
    rep = test_zonoid_stationarity(gbm_process(True), (0.0, 1.0), 2.0,
                                   budget=300_000, tau=3.0, seed=51)
    assert rep.verdict, f"max standardized {rep.max_standardized}"


def test_gbm_without_drift_fails():
    rep = test_zonoid_stationarity(gbm_process(False), (0.0, 1.0), 2.0,
                                   budget=300_000, tau=3.0, seed=51)
    assert not rep.verdict
    assert rep.max_standardized > 10.0


def test_constant_log_mean_process_is_stationary():
    # mu_t + sigma_t^2/2 constant with stationary increments
    from zonoids.laws import ExpGaussianProcess, GaussianProcess, brownian_cov

    proc = ExpGaussianProcess(GaussianProcess(lambda t: 1.0 - 0.5 * abs(t), brownian_cov))
    rep = test_zonoid_stationarity(proc, (0.0, 0.5, 1.0), 1.5, budget=200_000, tau=3.0, seed=52)
    assert rep.verdict


# ---------------------------------------------------------------------------
# even homogeneous functionals
# ---------------------------------------------------------------------------

def test_even_homogeneous_equivalent_pair_agrees():
    rep = test_even_homogeneous(CORO_A, CORO_B, budget=200_000, tau=4.0, seed=61)
    assert rep.crn and rep.verdict, f"max standardized {rep.max_standardized}"


def test_even_homogeneous_identical_laws_exact_agreement():
    g = GaussianLaw([0.0, 0.0], np.eye(2))
    rep = test_even_homogeneous(g, GaussianLaw([0.0, 0.0], np.eye(2)), budget=20_000, seed=62)
    assert rep.crn
    assert np.abs(rep.delta).max() == 0.0


def test_even_homogeneous_detects_scaling():
    g1 = GaussianLaw([0.0, 0.0], np.eye(2))
    g2 = GaussianLaw([0.0, 0.0], 4.0 * np.eye(2))
    rep = test_even_homogeneous(g1, g2, budget=50_000, tau=3.0, seed=63)
    assert not rep.verdict
    i = rep.names.index("norm-1")
    assert rep.mean_b[i] / rep.mean_a[i] == pytest.approx(2.0, rel=0.05)


def test_even_homogeneous_samples_do_not_depend_on_the_functionals():
    # the spot checks draw from a child stream, so an appended functional leaves
    # the samples, and with them the other columns, as they were; 4,000 rows fit
    # in one block of the reduction on both calls
    norms = [("norm-1", lambda x: np.abs(x).sum(axis=1)), ("norm-2", lambda x: np.linalg.norm(x, axis=1)),
             ("norm-inf", lambda x: np.abs(x).max(axis=1))]
    extra = ("norm-3", lambda x: (np.abs(x) ** 3).sum(axis=1) ** (1.0 / 3.0))
    for fns in (norms, norms[:1]):
        one = test_even_homogeneous(CORO_A, CORO_B, fns, budget=4_000, seed=65)
        two = test_even_homogeneous(CORO_A, CORO_B, fns + [extra], budget=4_000, seed=65)
        k = len(fns)
        assert two.mean_a[:k].tobytes() == one.mean_a.tobytes()
        assert two.mean_b[:k].tobytes() == one.mean_b.tobytes()


def test_even_homogeneous_rejects_bad_functional():
    with pytest.raises(ValueError):
        test_even_homogeneous(CORO_A, CORO_B, functions=[("affine", lambda x: np.abs(x).sum(axis=1) + 1.0)],
                              budget=10_000, seed=64)
    # even and 1-homogeneous, but signed: the guard's max-term share needs f >= 0
    with pytest.raises(ValueError, match="nonnegativity"):
        test_even_homogeneous(CORO_A, CORO_B, functions=[("signed", lambda x: np.abs(x[:, 0]) - np.abs(x[:, 1]))],
                              budget=10_000, seed=64)


# ---------------------------------------------------------------------------
# sign-lifted uniqueness: the falsifiable direction
# ---------------------------------------------------------------------------

def test_sign_lift_separates_distinct_symmetric_laws():
    # two symmetric scalar laws with the same E|xi| but different distributions:
    # the lifted (eps, xi) zonoids must differ somewhere on a searched grid
    xi1 = DiscreteLaw([[-1.0], [1.0]], [0.5, 0.5])
    xi2 = DiscreteLaw([[-2.0], [0.0], [2.0]], [0.25, 0.5, 0.25])
    assert support_centred(xi1, [1.0]).value == support_centred(xi2, [1.0]).value
    eps = [[-1.0], [1.0]]
    lifted1 = DiscreteLaw([[e[0], x[0]] for e in eps for x in xi1.atoms.tolist()],
                          [0.25, 0.25, 0.25, 0.25])
    w2 = [0.5 * w for w in xi2.weights.tolist()] * 2
    lifted2 = DiscreteLaw([[e[0], x[0]] for e in eps for x in xi2.atoms.tolist()], w2)
    rep = test_zonoid_equiv(lifted1, lifted2, grid=DirectionGrid.circle(64))
    assert not rep.verdict


def test_swap_bonferroni_spreads_level_over_directions_and_permutations():
    from statistics import NormalDist

    from zonoids.invariance import effective_tau

    law = LognormalLaw(GaussianLaw([0.0, 0.03, 0.06], 0.5 * np.eye(3)))
    grid = DirectionGrid.axes_and_diagonals(3)
    rep = test_swap_invariance(law, "all", grid, budget=5_000, tau=3.0, seed=0, bonferroni=True)
    comparisons = len(grid) * rep.extras["n_permutations"]
    score = rep.max_standardized
    assert rep.verdict == (score <= effective_tau(3.0, comparisons, True))

    # a tau whose Bonferroni threshold over m x P comparisons passes the score,
    # while the threshold over the m directions alone would reject it
    nd = NormalDist()
    tail = 1.0 - nd.cdf(score)
    window = [nd.inv_cdf(1.0 - c * tail) for c in (comparisons, len(grid))]
    tau = sum(window) / 2.0
    assert effective_tau(tau, len(grid), True) < score <= effective_tau(tau, comparisons, True)
    again = test_swap_invariance(law, "all", grid, budget=5_000, tau=tau, seed=0, bonferroni=True)
    assert again.max_standardized == score and again.verdict
    plain = test_swap_invariance(law, "all", grid, budget=5_000, tau=tau, seed=0)
    assert plain.verdict == (score <= tau)


def test_se_floor_silences_a_near_axis_roundoff_delta():
    # coupled samples of laws that differ only in mu_0, with b's second
    # coordinate one ulp above a's in every row: at the circle's direction
    # (6e-17, 1) the supports differ by a few ulps, and the paired SE is of the
    # same roundoff order, so the raw ratio reads as a huge discrepancy.  The
    # nudge goes into every row because a few nudged rows move a mean of
    # 1e6 rows by less than its own rounding.
    cov = [[0.5, 0.1], [0.1, 0.5]]
    a = LognormalLaw(GaussianLaw([0.0, -3.0], cov))
    b = LognormalLaw(GaussianLaw([0.2, -3.0], cov))
    grid = DirectionGrid.circle(64)
    z = as_rng(2).standard_normal((1_000_000, 2))
    sa, sb = a.sample_with_driver(z), b.sample_with_driver(z)
    sb[:, 1] = np.nextafter(sb[:, 1], np.inf)

    def compare(g):
        return test_zonoid_equiv(a, b, g, samples_a=sa, samples_b=sb, samples_coupled=True)

    rep = compare(grid)
    assert rep.crn and not rep.verdict
    near_axis = np.abs(grid.directions[:, 0]) < 1e-15
    ulps = np.abs(rep.delta) / np.spacing(np.maximum(np.abs(rep.h_a), np.abs(rep.h_b)))
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = np.abs(rep.delta) / rep.pooled_se
    roundoff = np.flatnonzero(near_axis & (ulps >= 1) & (ulps <= 4) & (raw >= 1000.0))
    assert roundoff.size, (rep.delta[near_axis], raw[near_axis])
    assert not near_axis[rep.worst_index]
    for j in roundoff:
        one = compare(DirectionGrid(grid.directions[[j]]))
        assert one.max_standardized < 1.0 and one.verdict


@pytest.mark.parametrize("case,crn,mode", [
    ("one-injected-matrix", False, "statistical"),
    ("row-counts-differ", False, "statistical"),
    ("coupled-matrices", True, "statistical"),
    ("lognormal-pair", True, "statistical"),
    ("exact-pair", False, "exact"),
])
def test_crn_flag_is_true_only_when_both_sides_are_read_from_one_source(case, crn, mode):
    z = as_rng(4).standard_normal((5_000, 2))
    sa, sb = CORO_A.sample_with_driver(z), CORO_B.sample_with_driver(z)
    a, b = (SWAPPY, permute_law(SWAPPY, (1, 0))) if case == "exact-pair" else (CORO_A, CORO_B)
    given = {"one-injected-matrix": {"samples_a": sa}, "row-counts-differ": {"samples_a": sa, "samples_b": sb[1:]},
             "coupled-matrices": {"samples_a": sa, "samples_b": sb}}.get(case, {})
    grid = DirectionGrid.circle(8)
    rep = test_zonoid_equiv(a, b, grid, budget=5_000, seed=0, samples_coupled=True, **given)
    assert (rep.crn, rep.mode) == (crn, mode)
    if given and not crn:  # reduced as if uncoupled, bit for bit
        unpaired = test_zonoid_equiv(a, b, grid, budget=5_000, seed=0, **given)
        assert rep.pooled_se.tobytes() == unpaired.pooled_se.tobytes() and not unpaired.crn


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_worst_index_is_the_first_of_scores_tied_to_a_relative_1e_12(order):
    from zonoids.invariance import _build_report

    tied = (7.0, 7.0 * (1.0 + 1e-15))
    scores = np.array([1.0, tied[order[0]], tied[order[1]], 3.0, 7.0 * (1.0 - 1e-11)])
    rep = _build_report(DirectionGrid.circle(5), scores, np.zeros(5), np.ones(5), "statistical",
                        3.0, False, False)
    assert rep.worst_index == 1
    assert rep.max_standardized == max(tied) and not rep.verdict
