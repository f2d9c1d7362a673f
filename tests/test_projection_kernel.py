"""The blocked projection-moment kernel against a direct two-pass reference."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zonoids.zonoid as zonoid_mod
from zonoids.errors import DiagnosticError
from zonoids.invariance import test_even_homogeneous, test_zonoid_equiv
from zonoids.laws import DiscreteLaw, GaussianLaw, LognormalLaw, SamplerLaw
from zonoids.rng import as_rng
from zonoids.zonoid import (
    DirectionGrid,
    _GUARD_CHUNKS,
    _GUARD_MIN_ROWS,
    _guard_verdict,
    functional_moments,
    grid_support,
    mean_width_check,
    projection_moments,
    sphere_quadrature,
    support_centred,
    support_lift,
    support_max,
    support_noncentred,
    unit_ball_volume,
)

REL = 1e-12


def reference_values(x, dirs, kind):
    """f(<x, u>) per row and direction, computed directly."""
    if kind == "max":
        return np.maximum((x[:, None, :] * dirs[None, :, :]).max(axis=2), 0.0)
    proj = x @ dirs.T
    return np.abs(proj) if kind == "centred" else np.maximum(proj, 0.0)


def reference_se(values):
    return values.std(axis=0, ddof=1) / math.sqrt(values.shape[0])


def assert_close(got, want, floor=0.0):
    """Agreement within REL relative; ``floor`` absorbs the reference's own roundoff near 0."""
    assert np.all(np.abs(got - want) <= REL * np.abs(want) + floor), (got, want)


@st.composite
def problems(draw):
    n = draw(st.integers(2, 300))
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = np.exp(rng.standard_normal((n, d)))
    if draw(st.booleans()):
        x[:, 0] = x[0, 0]  # a constant coordinate
    dirs = rng.standard_normal((k, d))
    return x, dirs, draw(st.sampled_from(["centred", "noncentred", "max"])), rng


# A small block size walks even small samples in several blocks, most of them
# ending off a multiple of the block size; the module value runs them in one.
BLOCK_SIZES = [7, 61, zonoid_mod.BLOCK_ELEMENTS]


def _bits(v):
    return v.tobytes()


def roundoff(values):
    return 1e-15 * np.abs(values).max()


def column_functions(dirs, kind):
    """f(<x, u>) for each direction row u, as callables for the callable front end."""
    return [lambda x, u=u: reference_values(x, u[None], kind)[:, 0] for u in dirs]


@st.composite
def paired_problems(draw):
    """A problem with random column pairs, plus an orbit with the pairs of a swap test.

    The orbit {pi^-1 u} stacks m base rows and their images under p coordinate
    permutations; the swap pairs (tile(arange(m)), arange(m, (p + 1) m)) are
    runs of m consecutive columns at offsets m, 2m, ...  Duplicate, reversed
    and one-column pairs ride along, and a stray pair may break the first run.
    """
    x, dirs, kind, rng = draw(problems())
    k = dirs.shape[0]
    a, b = rng.integers(0, k, size=5), rng.integers(0, k, size=5)
    m, p = draw(st.integers(2, 12)), draw(st.integers(1, 3))
    d = x.shape[1]
    base = rng.standard_normal((m, d))
    orbit = np.vstack([base] + [base[:, rng.permutation(d)] for _ in range(p)])
    oa, ob = np.tile(np.arange(m), p), np.arange(m, (p + 1) * m)
    if draw(st.booleans()):
        ob[draw(st.integers(0, m - 2))] += 1  # offset m + 1 inside the run at offset m
    dup, rev = rng.integers(0, oa.size, size=2), rng.integers(0, oa.size, size=2)
    same = rng.integers(0, orbit.shape[0], size=2)
    orbit_pairs = np.r_[oa, oa[dup], ob[rev], same], np.r_[ob, ob[dup], oa[rev], same]
    return x, dirs, kind, (a, b), (orbit, orbit_pairs)


@pytest.mark.parametrize("block", BLOCK_SIZES)
@settings(max_examples=40, deadline=None)
@given(problem=paired_problems())
def test_kernel_matches_two_pass_reference(block, problem):
    x, dirs, kind, (a, b), (orbit, (oa, ob)) = problem
    fns = column_functions(dirs, kind)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zonoid_mod, "BLOCK_ELEMENTS", block)
        mom = projection_moments(x, dirs, kind, pairs=(a, b))
        again = projection_moments(x, dirs, kind, pairs=(a, b))
        called = functional_moments(x, fns, pairs=(a, b))
        on_orbit = projection_moments(x, orbit, kind, pairs=(oa, ob))
        called_on_orbit = functional_moments(x, column_functions(orbit, kind), pairs=(oa, ob))
        plain = projection_moments(x, dirs, kind)
        plain_again = projection_moments(x, dirs, kind)
        unpaired = functional_moments(x, fns)
    values = reference_values(x, dirs, kind)
    for got in (mom, called, plain, unpaired):
        assert got.n == x.shape[0]
        assert_close(got.mean, values.mean(axis=0))
    for got in (plain, unpaired):
        assert_close(got.se, reference_se(values), roundoff(values))
        assert got.paired_se.size == 0
    for got in (mom, called):
        assert got.se is None  # a paired call forms no per-column second moment
        assert_close(got.paired_se, reference_se(values[:, a] - values[:, b]), roundoff(values))
        assert np.all(got.paired_se[a == b] == 0.0)
    orbit_values = reference_values(x, orbit, kind)
    for got in (on_orbit, called_on_orbit):
        assert got.n == x.shape[0] and got.se is None
        assert_close(got.mean, orbit_values.mean(axis=0))
        assert_close(got.paired_se, reference_se(orbit_values[:, oa] - orbit_values[:, ob]), roundoff(orbit_values))
        assert np.all(got.paired_se[oa == ob] == 0.0)
    for field in ("mean", "paired_se"):
        assert getattr(again, field).tobytes() == getattr(mom, field).tobytes()
    for field in ("mean", "se"):
        assert getattr(plain_again, field).tobytes() == getattr(plain, field).tobytes()


@pytest.mark.parametrize("block", BLOCK_SIZES)
@settings(max_examples=25, deadline=None)
@given(problem=problems())
def test_kernel_coupled_sides_and_weighted_atoms(block, problem):
    x, dirs, kind, rng = problem
    k = dirs.shape[0]
    y = x * np.exp(0.1 * rng.standard_normal(x.shape))
    w = rng.uniform(0.1, 1.0, size=x.shape[0])
    w /= w.sum()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zonoid_mod, "BLOCK_ELEMENTS", block)
        mom = projection_moments((x, y), dirs, kind, pairs=(np.arange(k), np.arange(k, 2 * k)))
        called = functional_moments((x, y), column_functions(dirs, kind), pairs=(np.arange(k), np.arange(k, 2 * k)))
        exact = DiscreteLaw(x, w).support(dirs, kind)
    vx, vy = reference_values(x, dirs, kind), reference_values(y, dirs, kind)
    for got in (mom, called):
        assert_close(got.mean, np.concatenate([vx.mean(axis=0), vy.mean(axis=0)]))
        assert_close(got.paired_se, reference_se(vx - vy), roundoff(np.concatenate([vx, vy])))
    assert_close(exact, w @ vx)


@pytest.mark.parametrize("block", BLOCK_SIZES)
@settings(max_examples=25, deadline=None)
@given(problem=problems())
def test_exact_values_do_not_depend_on_the_other_rows(block, problem):
    x, dirs, kind, rng = problem
    k = dirs.shape[0]
    w = rng.uniform(0.1, 1.0, size=x.shape[0])
    law = DiscreteLaw(x, w / w.sum())
    # past one chunk of direction rows, so some rows sit in a later chunk
    dirs = np.vstack([dirs, rng.standard_normal((zonoid_mod._WEIGHTED_ROWS + 9, x.shape[1]))])
    rows = np.r_[np.arange(k), rng.integers(k, dirs.shape[0], size=6)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zonoid_mod, "BLOCK_ELEMENTS", block)
        values = law.support(dirs, kind)
        for i in rows:
            assert _bits(law.support(dirs[i:i + 1], kind)) == _bits(values[i:i + 1])
    assert_close(values, law.weights @ reference_values(x, dirs, kind))


def test_kernel_constant_columns_have_zero_se():
    x = np.column_stack([np.full(10_007, 0.1), np.full(10_007, 0.3)])
    dirs = np.array([[0.6, 0.8], [1.0, 0.0], [0.0, -1.0]])
    mom = projection_moments(x, dirs, pairs=([0, 1], [1, 2]))
    plain = projection_moments(x, dirs)
    for got in (mom, plain):
        assert got.mean.tolist() == pytest.approx([0.3, 0.1, 0.3], rel=REL)
    assert np.all(mom.paired_se == 0.0) and np.all(plain.se == 0.0)


def _norm(s):
    return np.linalg.norm(s, axis=1)


@pytest.mark.parametrize("k", [6, 7])  # block rows 2 and 3 mod 4, where a BLAS row sum rounds the last rows apart
def test_kernel_bitwise_equal_columns_get_bitwise_equal_moments(k):
    middle = [lambda s, j=j: (j + 1.0) * np.abs(s[:, j % 3]) for j in range(k - 2)]
    for seed in range(10):
        x = np.exp(as_rng(seed).standard_normal((50_000, 3)))
        # the same callable first and last: k value rows; then k - 2 value rows and
        # two pair rows, the second pair's difference the first one's negation
        plain = functional_moments(x, [_norm] + middle + [_norm])
        paired = functional_moments(x, [_norm] + middle[:-2] + [_norm], pairs=([0, 1], [1, k - 3]))
        assert _bits(plain.mean[0]) == _bits(plain.mean[-1]) and _bits(plain.se[0]) == _bits(plain.se[-1])
        assert _bits(paired.mean[0]) == _bits(paired.mean[-1])
        assert _bits(paired.paired_se[0]) == _bits(paired.paired_se[1])


def test_kernel_rejects_bad_input():
    with pytest.raises(ValueError):
        projection_moments(np.ones((3, 2)), np.eye(2), "lift")
    with pytest.raises(ValueError):
        projection_moments((np.ones((3, 2)), np.ones((4, 2))), np.eye(2))


def test_equiv_with_one_exact_side_matches_reference():
    gauss = GaussianLaw([0.2, -0.1], [[1.0, 0.3], [0.3, 0.5]])
    logn = LognormalLaw(GaussianLaw([-0.5, -0.5], np.eye(2)))
    rep = test_zonoid_equiv(gauss, logn, budget=30_000, seed=5)
    dirs = rep.grid.directions
    samples = logn.sample(30_000, as_rng(5))
    values = np.abs(samples @ dirs.T)
    assert_close(rep.h_a, gauss.support(dirs))
    assert_close(rep.h_b, values.mean(axis=0))
    assert_close(rep.pooled_se, reference_se(values), roundoff(values))


def test_equiv_crn_matches_reference():
    a = LognormalLaw(GaussianLaw([-0.5, -0.5], np.eye(2)))
    b = LognormalLaw(GaussianLaw([-1.0, -1.0], [[2.0, 1.0], [1.0, 2.0]]))
    rep = test_zonoid_equiv(a, b, budget=50_000, seed=9)
    assert rep.crn
    z = as_rng(9).standard_normal((50_000, 2))
    va = np.abs(a.sample_with_driver(z) @ rep.grid.directions.T)
    vb = np.abs(b.sample_with_driver(z) @ rep.grid.directions.T)
    assert_close(rep.h_a, va.mean(axis=0))
    assert_close(rep.h_b, vb.mean(axis=0))
    assert_close(rep.pooled_se, reference_se(va - vb), roundoff(va))
    assert np.all(np.abs(rep.delta - (va.mean(axis=0) - vb.mean(axis=0))) <= REL * np.abs(rep.h_a).max())


# ---------------------------------------------------------------------------
# one-direction views of the grid evaluator
# ---------------------------------------------------------------------------

@st.composite
def support_problems(draw):
    d = draw(st.integers(1, 3))
    family = draw(st.sampled_from(["discrete", "gaussian", "lognormal"]))
    kind = draw(st.sampled_from(["centred", "noncentred", "lift"] + (["max"] if family != "gaussian" else [])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "discrete":
        atoms = rng.standard_normal((draw(st.integers(1, 5)), d))
        law = DiscreteLaw(np.abs(atoms) if kind == "max" else atoms, rng.dirichlet(np.ones(atoms.shape[0])))
    elif family == "gaussian":
        a = rng.standard_normal((d, d))
        law = GaussianLaw(rng.standard_normal(d), a @ a.T)
    else:
        law = LognormalLaw(GaussianLaw(rng.standard_normal(d) - 0.5, 0.5 * np.eye(d)))
    dim = d + 1 if kind == "lift" else d  # lift rows are (k, u)
    dirs = rng.standard_normal((draw(st.integers(1, 6)), dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return law, DirectionGrid(dirs), kind, draw(st.sampled_from([50, 2_000, 5_000])), draw(st.integers(0, 99))


@settings(max_examples=60, deadline=None)
@given(problem=support_problems())
def test_support_functions_are_grid_rows(problem):
    law, grid, kind, budget, seed = problem
    single = {"centred": support_centred, "noncentred": support_noncentred, "max": support_max}

    def guarded(fn, *args):
        try:
            return fn(*args)
        except DiagnosticError:
            return None  # the integrability guard fired

    rows = guarded(grid_support, law, grid, kind, budget, seed)
    if kind == "lift":
        ests = [guarded(support_lift, law, v[0], v[1:], budget, seed) for v in grid.directions]
    else:
        ests = [guarded(single[kind], law, v, budget, seed) for v in grid.directions]
    if rows is None:  # a sparse column; its one-direction view fires too
        assert None in ests
        return
    for est, row in zip(ests, rows):
        assert (est.n, est.exact) == (row.n, row.exact)
        assert est.value == pytest.approx(row.value, rel=REL, abs=1e-15)
        assert est.std_error == pytest.approx(row.std_error, rel=REL, abs=1e-15)


# ---------------------------------------------------------------------------
# integrability guard
# ---------------------------------------------------------------------------

def _integrability_guard(values):
    """The divergence guard on one stream held in memory: the kernel guard's reference."""
    n = values.shape[0]
    if n < _GUARD_MIN_ROWS:
        return
    small = values[: n - n % _GUARD_CHUNKS[0]].reshape(_GUARD_CHUNKS[0], -1).mean(axis=1)
    big = values[: n - n % _GUARD_CHUNKS[1]].reshape(_GUARD_CHUNKS[1], -1).mean(axis=1)
    _guard_verdict(small[:, None], big[:, None], np.array([values.max()]), np.array([values.sum()]),
                   np.array([np.count_nonzero(values[: n // _GUARD_CHUNKS[0]])]))


@pytest.mark.parametrize("seed", range(8))
def test_kernel_guard_agrees_with_in_memory_guard(seed):
    x = as_rng(seed).standard_cauchy((100_003, 1))

    def outcome(fn):
        try:
            fn()
        except DiagnosticError as exc:
            return str(exc)
        return None

    direct = outcome(lambda: _integrability_guard(np.abs(x[:, 0])))
    blocked = outcome(lambda: projection_moments(x, np.array([[1.0]])))
    # the norm of a one-coordinate row is |x|, so the callable front end sees the same column
    norms = outcome(lambda: functional_moments(x, [lambda s: np.linalg.norm(s, axis=1)]))
    assert blocked == direct and norms == direct


@pytest.mark.parametrize("seed", range(10))
def test_guard_quiet_on_sparse_integrable_stream(seed):
    # P(<xi, u> > 0) is about 0.0063: a small chunk of 20,000 rows holds about
    # two nonzero values, too few for a median of chunk means
    law = LognormalLaw(GaussianLaw([-0.5, -0.5], np.eye(2)))
    est = support_noncentred(law, [0.0202, -0.6931], budget=20_000, seed=seed)
    assert est.n == 20_000 and est.value > 0.0


def test_equiv_guard_fires_on_cauchy_pair():
    cauchy = SamplerLaw(2, lambda rng, n: rng.standard_cauchy((n, 2)))
    with pytest.raises(DiagnosticError):
        test_zonoid_equiv(cauchy, cauchy, budget=100_000, seed=5)
    with pytest.raises(DiagnosticError):  # the even-homogeneous columns pass the same guard
        test_even_homogeneous(cauchy, cauchy, budget=100_000, seed=5)


# ---------------------------------------------------------------------------
# mean width memory
# ---------------------------------------------------------------------------

def test_mean_width_monte_carlo_memory_is_bounded():
    import tracemalloc

    law = LognormalLaw(GaussianLaw([-0.5, -0.2], [[1.0, 0.3], [0.3, 0.8]]))
    nodes, budget = 1_000, 20_000
    tracemalloc.start()
    try:
        rep = mean_width_check(law, nodes=nodes, budget=budget, seed=13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"
    # the dense nodes x budget evaluation, on the same sample
    pts, w = sphere_quadrature(2, nodes)
    samples = law.sample(budget, as_rng(13))
    dense = float(w @ np.abs(pts @ samples.T).mean(axis=1)) / (2.0 * unit_ball_volume(1))
    assert abs(rep.identity_value - dense) <= REL * dense


# ---------------------------------------------------------------------------
# repeated and antipodal directions
# ---------------------------------------------------------------------------

@st.composite
def folded_problems(draw):
    """A sample and directions built from a few base rows, their copies and negations."""
    n = draw(st.integers(2, 300))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.exp(rng.standard_normal((n, d)))
    base = rng.standard_normal((draw(st.integers(1, 4)), d))
    if d > 1 and draw(st.booleans()):
        base[0, 0] = 0.0  # the sign of a row is read from its first nonzero coordinate
    picks = draw(st.lists(st.tuples(st.integers(0, base.shape[0] - 1), st.booleans()), min_size=1, max_size=10))
    dirs = np.array([-base[i] if neg else base[i] for i, neg in picks])
    return x, dirs, draw(st.sampled_from(["centred", "noncentred", "max"])), rng


@pytest.mark.parametrize("block", BLOCK_SIZES)
@settings(max_examples=40, deadline=None)
@given(problem=folded_problems())
def test_kernel_shares_columns_of_duplicates_and_centred_antipodes(block, problem):
    x, dirs, kind, rng = problem
    k = dirs.shape[0]
    same = np.array([[np.array_equal(u, v) for v in dirs] for u in dirs])
    if kind == "centred":
        same |= np.array([[np.array_equal(u, -v) for v in dirs] for u in dirs])
    a = np.r_[np.nonzero(same)[0], rng.integers(0, k, size=4)]
    b = np.r_[np.nonzero(same)[1], rng.integers(0, k, size=4)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zonoid_mod, "BLOCK_ELEMENTS", block)
        mom = projection_moments(x, dirs, kind, pairs=(a, b))
        flipped = projection_moments(x, dirs, kind, pairs=(b, a))
        plain = projection_moments(x, dirs, kind)
    for i, j in zip(*np.nonzero(same)):
        assert _bits(mom.mean[i]) == _bits(mom.mean[j])
        assert _bits(plain.mean[i]) == _bits(plain.mean[j]) and _bits(plain.se[i]) == _bits(plain.se[j])
    shared = same[a, b]
    assert np.all(mom.paired_se[shared] == 0.0)
    assert _bits(flipped.paired_se) == _bits(mom.paired_se)
    values = reference_values(x, dirs, kind)
    assert_close(mom.mean, values.mean(axis=0))
    assert_close(plain.mean, values.mean(axis=0))
    assert_close(plain.se, reference_se(values), roundoff(values))
    assert_close(mom.paired_se, reference_se(values[:, a] - values[:, b]), roundoff(values))


@pytest.mark.parametrize("m", [2, 8, 64, 72, 1000, 4096])
def test_even_circle_has_exact_antipodes(m):
    pts = DirectionGrid.circle(m).directions
    theta = 2.0 * np.pi * np.arange(m) / m
    assert _bits(pts[m // 2:]) == _bits(-pts[: m // 2])
    assert np.abs(pts - np.column_stack([np.cos(theta), np.sin(theta)])).max() <= 1e-15
