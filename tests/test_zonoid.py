import math

import numpy as np
import pytest

from zonoids.errors import DiagnosticError
from zonoids.laws import DiscreteLaw, GaussianLaw, LognormalLaw, SamplerLaw, gaussian_abs_moment, law_mean
from zonoids.rng import as_rng
from zonoids.zonoid import (
    DirectionGrid,
    MeanWidthReport,
    SupportEstimate,
    grid_support,
    mean_width_check,
    support_centred,
    support_lift,
    support_max,
    support_noncentred,
    zonotope_2d,
)

TWO_ATOM = DiscreteLaw([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
STD_GAUSS2 = GaussianLaw([0.0, 0.0], np.eye(2))


def random_discrete(rng, d=2, m=5):
    atoms = rng.uniform(-2.0, 2.0, size=(m, d))
    w = rng.uniform(0.1, 1.0, size=m)
    return DiscreteLaw(atoms, w / w.sum())


def random_gaussian(rng, d=2):
    mu = rng.uniform(-1.0, 1.0, size=d)
    b = rng.uniform(-1.0, 1.0, size=(d, d))
    return GaussianLaw(mu, b @ b.T + 0.1 * np.eye(d))


# ---------------------------------------------------------------------------
# support values
# ---------------------------------------------------------------------------

def test_centred_two_atom_example():
    est = support_centred(TWO_ATOM, [1.0, 1.0])
    assert est.exact and est.std_error == 0.0
    assert est.value == pytest.approx(1.0, abs=1e-15)


def test_centred_zero_direction():
    for law in (TWO_ATOM, STD_GAUSS2):
        assert support_centred(law, [0.0, 0.0]).value == 0.0


def test_injected_rows_are_reduced_for_exact_laws_too():
    x = 3.0 * as_rng(3).standard_normal((2_000, 2))
    est = support_centred(STD_GAUSS2, [1.0, 0.0], samples=x)
    assert (est.value, est.n, est.exact) == (pytest.approx(np.abs(x[:, 0]).mean(), rel=1e-12), 2_000, False)
    assert est.value > 2.0  # the closed form of STD_GAUSS2 is 0.798
    rows = TWO_ATOM.sample(500, as_rng(4))
    est = support_noncentred(TWO_ATOM, [1.0, -1.0], samples=rows)
    mean = np.maximum(rows @ [1.0, -1.0], 0.0).mean()
    assert (est.value, est.n, est.exact) == (pytest.approx(mean, rel=1e-12), 500, False)
    lifted = support_lift(TWO_ATOM, 0.5, [1.0, -1.0], samples=rows[:7])
    mean = np.maximum(0.5 + rows[:7] @ [1.0, -1.0], 0.0).mean()
    assert (lifted.value, lifted.n, lifted.exact) == (pytest.approx(mean, rel=1e-12), 7, False)
    assert support_lift(TWO_ATOM, 0.5, [1.0, -1.0]).exact


def test_centred_gaussian_closed_form_vs_mc():
    exact = support_centred(STD_GAUSS2, [1.0, 0.0])
    assert exact.value == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-15)
    samples = STD_GAUSS2.sample(10**6, as_rng(0))
    mc = support_centred(SamplerLaw(2, lambda rng, n: rng.standard_normal((n, 2))),
                         [1.0, 0.0], samples=samples)
    assert abs(mc.value - exact.value) < 4.0 * mc.std_error


def test_noncentred_examples():
    assert support_noncentred(TWO_ATOM, [1.0, -1.0]).value == pytest.approx(0.5)
    point = DiscreteLaw([[2.0, -1.0]], [1.0])
    assert support_noncentred(point, [1.0, 1.0]).value == pytest.approx(1.0)
    assert support_noncentred(point, [-1.0, 0.0]).value == 0.0
    deterministic_one = GaussianLaw([1.0], [[0.0]])
    assert support_noncentred(deterministic_one, [-1.0]).value == 0.0


def test_lift_examples():
    assert support_lift(TWO_ATOM, 1.0, [0.0, 0.0]).value == pytest.approx(1.0)
    scalar = DiscreteLaw([[1.0], [3.0]], [0.5, 0.5])
    assert support_lift(scalar, -2.0, [1.0]).value == pytest.approx(0.5)
    u = [0.7, -0.2]
    assert support_lift(TWO_ATOM, 0.0, u).value == support_noncentred(TWO_ATOM, u).value


def test_max_examples():
    law = DiscreteLaw([[1.0, 2.0]], [1.0])
    assert support_max(law, [1.0, 1.0]).value == pytest.approx(2.0)
    assert support_max(law, [-1.0, -0.5]).value == 0.0
    scalar = DiscreteLaw([[0.5], [1.5]], [0.5, 0.5])
    for u in (0.8, -0.3):
        expect = max(u, 0.0) * float(law_mean(scalar)[0])
        assert support_max(scalar, [u]).value == pytest.approx(expect)


def test_max_rejects_non_positive():
    with pytest.raises(ValueError):
        support_max(DiscreteLaw([[0.0, 1.0]], [1.0]), [1.0, 1.0])
    with pytest.raises(ValueError):
        support_max(STD_GAUSS2, [1.0, 1.0])


def test_mc_matches_exact_for_lognormal_axis():
    # axis-direction support of a positive law is its component mean
    law = LognormalLaw(GaussianLaw([-0.5, -0.5], np.eye(2)))
    est = support_centred(law, [1.0, 0.0], budget=200_000, seed=3)
    assert not est.exact and est.std_error > 0.0
    assert abs(est.value - 1.0) < 4.0 * est.std_error


def test_integrability_guard_fires_on_cauchy():
    cauchy = SamplerLaw(1, lambda rng, n: rng.standard_cauchy((n, 1)))
    with pytest.raises(DiagnosticError):
        support_centred(cauchy, [1.0], budget=100_000, seed=5)


def test_exact_estimate_invariant():
    with pytest.raises(ValueError):
        SupportEstimate(1.0, 0.5, 0, True)


# ---------------------------------------------------------------------------
# invariants on exact paths
# ---------------------------------------------------------------------------

def test_homogeneity_subadditivity_symmetry_random_exact():
    rng = as_rng(11)
    for trial in range(60):
        law = random_discrete(rng) if trial % 2 == 0 else random_gaussian(rng)
        u = rng.uniform(-1.0, 1.0, size=2)
        v = rng.uniform(-1.0, 1.0, size=2)
        h = lambda w: support_centred(law, w).value
        for c in (0.5, 2.0, 7.0):
            assert abs(h(c * u) - c * h(u)) < 1e-12
        assert h(u + v) <= h(u) + h(v) + 1e-12
        assert abs(h(u) - h(-u)) < 1e-12


def test_decomposition_identity_exact():
    rng = as_rng(12)
    for trial in range(60):
        law = random_discrete(rng) if trial % 2 == 0 else random_gaussian(rng)
        u = rng.uniform(-1.5, 1.5, size=2)
        lhs = support_noncentred(law, u).value - 0.5 * float(law_mean(law) @ u)
        rhs = 0.5 * support_centred(law, u).value
        assert abs(lhs - rhs) < 1e-12


def test_subadditivity_with_mc_tolerance():
    law = LognormalLaw(GaussianLaw([-0.5, -0.5], [[1.0, 0.3], [0.3, 0.8]]))
    samples = law.sample(50_000, as_rng(29))
    rng = as_rng(30)
    for _ in range(20):
        u = rng.uniform(-1.0, 1.0, size=2)
        v = rng.uniform(-1.0, 1.0, size=2)
        eu = support_centred(law, u, samples=samples)
        ev = support_centred(law, v, samples=samples)
        euv = support_centred(law, u + v, samples=samples)
        slack = 4.0 * (eu.std_error + ev.std_error + euv.std_error)
        assert euv.value <= eu.value + ev.value + slack


def test_max_monotonicity_positive_exact():
    rng = as_rng(13)
    for _ in range(40):
        atoms = rng.uniform(0.1, 3.0, size=(4, 2))
        w = rng.uniform(0.1, 1.0, size=4)
        law = DiscreteLaw(atoms, w / w.sum())
        u = rng.uniform(0.0, 1.0, size=2)
        v = u + rng.uniform(0.0, 1.0, size=2)
        assert support_max(law, u).value <= support_max(law, v).value + 1e-15


# ---------------------------------------------------------------------------
# direction grids
# ---------------------------------------------------------------------------

def test_grids_are_unit_norm():
    for grid in (
        DirectionGrid.circle(64),
        DirectionGrid.uniform_sphere(4, 32, seed=0),
        DirectionGrid.fibonacci_sphere(128),
        DirectionGrid.axes_and_diagonals(3),
        DirectionGrid.default(2),
        DirectionGrid.default(3),
        DirectionGrid.default(5),
    ):
        assert np.abs(np.linalg.norm(grid.directions, axis=1) - 1.0).max() <= 1e-12


def test_grid_rejects_non_unit():
    with pytest.raises(ValueError):
        DirectionGrid(np.array([[1.0, 1.0]]))


def test_grid_support_uses_one_sample_matrix():
    law = LognormalLaw(GaussianLaw([-0.5, -0.5], np.eye(2)))
    grid = DirectionGrid.circle(8)
    ests = grid_support(law, grid, "centred", budget=5_000, seed=21)
    assert len(ests) == 8
    assert all(not e.exact for e in ests)


# ---------------------------------------------------------------------------
# zonotopes
# ---------------------------------------------------------------------------

def test_zonotope_parallelogram():
    z = zonotope_2d(TWO_ATOM)
    verts = {tuple(np.round(v, 12)) for v in z.vertices}
    assert verts == {(0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)}


def test_zonotope_single_atom_segment():
    z = zonotope_2d(DiscreteLaw([[1.0, 0.0]], [1.0]))
    assert sorted(z.vertices.tolist()) == [[-1.0, 0.0], [1.0, 0.0]]


def test_zonotope_collinear_merge():
    z = zonotope_2d(DiscreteLaw([[1.0, 0.0], [2.0, 0.0]], [0.5, 0.5]))
    assert z.generators.shape[0] == 1
    assert sorted(z.vertices.tolist()) == [[-1.5, 0.0], [1.5, 0.0]]


def test_zonotope_support_matches_exact():
    rng = as_rng(17)
    for _ in range(25):
        law = random_discrete(rng, m=int(rng.integers(1, 7)))
        z = zonotope_2d(law)
        for u in DirectionGrid.circle(32).directions:
            assert abs(z.support(u) - support_centred(law, u).value) <= 1e-10


def test_zonotope_central_symmetry_and_convexity():
    rng = as_rng(18)
    law = random_discrete(rng, m=6)
    z = zonotope_2d(law)
    v = z.vertices
    # symmetric vertex set
    as_set = {tuple(np.round(p, 10)) for p in v}
    assert {tuple(np.round(-p, 10)) for p in v} == as_set
    # convex, counterclockwise boundary: all cross products of successive edges >= 0
    edges = np.roll(v, -1, axis=0) - v
    cross = edges[:, 0] * np.roll(edges, -1, axis=0)[:, 1] - edges[:, 1] * np.roll(edges, -1, axis=0)[:, 0]
    assert np.all(cross >= -1e-12)


# ---------------------------------------------------------------------------
# mean width
# ---------------------------------------------------------------------------

def test_mean_width_two_atom():
    rep = mean_width_check(TWO_ATOM, nodes=10_000)
    assert rep.expected_norm == pytest.approx(1.0, abs=1e-15)
    assert rep.abs_difference <= 1e-6


def test_mean_width_origin_point_mass():
    rep = mean_width_check(DiscreteLaw([[0.0, 0.0]], [1.0]), nodes=1_000)
    assert rep.expected_norm == 0.0
    assert rep.identity_value == 0.0


def test_mean_width_gaussian_matches_chi_mean():
    rep = mean_width_check(STD_GAUSS2, nodes=20_000, budget=400_000, seed=19)
    expected = math.sqrt(math.pi / 2.0)
    assert abs(rep.expected_norm - expected) < 4.0 * rep.expected_norm_se
    assert abs(rep.identity_value - expected) < 1e-5
    assert rep.abs_difference < 4.0 * rep.expected_norm_se + 1e-5


def test_mean_width_d3_discrete():
    rng = as_rng(23)
    atoms = rng.uniform(-1.0, 1.0, size=(4, 3))
    w = rng.uniform(0.1, 1.0, size=4)
    law = DiscreteLaw(atoms, w / w.sum())
    rep = mean_width_check(law, nodes=40_000)
    assert isinstance(rep, MeanWidthReport)
    assert rep.abs_difference < 5e-3 * max(1.0, rep.expected_norm)


def test_mean_width_rejects_unsupported_dimension():
    with pytest.raises(ValueError):
        mean_width_check(DiscreteLaw([[1.0, 0.0, 0.0, 0.0]], [1.0]), nodes=100)


def test_gaussian_abs_moment_degenerate():
    assert gaussian_abs_moment(-2.5, 0.0) == 2.5
