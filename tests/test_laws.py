import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from zonoids.errors import SchemaError
from zonoids.laws import (
    _DRAWS_PER_COUNTED_ATOM,
    DacunhaCastelleModel,
    DiscreteLaw,
    EllipticalLaw,
    GaussianLaw,
    IidExchangeableModel,
    LocationScaleLaw,
    LognormalLaw,
    LognormalSwapModel,
    SamplerLaw,
    ScalarBase,
    SupportFlags,
    _cdf_index,
    dacunha_prefix_law,
    law_from_json,
    lognormal_swap_law,
    measures_close,
    merge_atoms,
    permute_law,
    rademacher_law,
    sample,
    sequence_model_from_json,
    sequence_prefix,
)
from zonoids.rng import as_rng, spawn_rngs


def test_point_mass_sampling():
    law = DiscreteLaw([[1.0, 0.0]], [1.0])
    out = sample(law, 3, seed=0)
    assert out.shape == (3, 2)
    assert np.array_equal(out, np.tile([1.0, 0.0], (3, 1)))


def test_gaussian_sample_mean_clt_bound():
    law = GaussianLaw([0.0, 0.0], np.eye(2))
    out = sample(law, 10**6, seed=1)
    bound = 4.0 / math.sqrt(10**6)
    assert np.abs(out.mean(axis=0)).max() < bound


def test_gaussian_sample_covariance_within_4se():
    cov = np.array([[1.5, 0.4], [0.4, 0.8]])
    law = GaussianLaw([0.2, -0.3], cov)
    n = 200_000
    out = sample(law, n, seed=2)
    emp = np.cov(out.T, ddof=1)
    for i in range(2):
        for j in range(2):
            se = math.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2) / n)
            assert abs(emp[i, j] - cov[i, j]) < 4.0 * se


def test_lognormal_swap_unit_means():
    # every component of the coupled lognormal model has mean exactly one
    law = lognormal_swap_law([0.5], d=3)
    n = 200_000
    out = sample(law, n, seed=3)
    means = out.mean(axis=0)
    ses = out.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(means - 1.0) < 4.0 * ses)
    assert np.allclose(law.mean(), 1.0, atol=1e-12)


def test_lognormal_swap_unit_means_random_b():
    rng = as_rng(10)
    for _ in range(5):
        b = rng.uniform(-0.5, 0.5, size=rng.integers(1, 4))
        law = lognormal_swap_law(b, d=4)
        assert np.allclose(law.mean(), 1.0, atol=1e-12)


def test_discrete_frequencies_chisquare():
    weights = np.array([0.1, 0.25, 0.65])
    law = DiscreteLaw([[0.0], [1.0], [2.0]], weights)
    n = 100_000
    out = sample(law, n, seed=4).ravel()
    counts = np.array([(out == v).sum() for v in (0.0, 1.0, 2.0)])
    assert chisquare(counts, n * weights).pvalue >= 0.01


def test_discrete_rejects_bad_weights():
    with pytest.raises(ValueError):
        DiscreteLaw([[0.0], [1.0]], [0.6, 0.6])
    with pytest.raises(ValueError):
        DiscreteLaw([[0.0], [1.0]], [-0.2, 1.2])


def test_gaussian_rejects_non_psd():
    with pytest.raises(ValueError):
        GaussianLaw([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError):
        GaussianLaw([0.0, 0.0], [[1.0, 0.5], [0.4, 1.0]])


def test_gaussian_accepts_eigenvalue_noise():
    # slightly negative eigenvalues from float noise are clipped, not rejected
    cov = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-12]])
    law = GaussianLaw([0.0, 0.0], cov)
    out = sample(law, 10, seed=0)
    assert out.shape == (10, 2)


def test_dacunha_path_injection():
    model = DacunhaCastelleModel()
    path, aux = sequence_prefix(model, 5, seed=0, omega=0.3)
    assert path.tolist() == [0.0, 0.0, 12.0, 0.0, 0.0]
    assert aux["k"] == 3
    path, aux = sequence_prefix(model, 5, seed=0, omega=0.9)
    assert path.tolist() == [2.0, 0.0, 0.0, 0.0, 0.0]
    # boundary omega = 1/4 belongs to the k = 4 bin
    path, _ = sequence_prefix(model, 5, seed=0, omega=0.25)
    assert path[3] == 20.0


def test_dacunha_single_nonzero_entry():
    model = DacunhaCastelleModel()
    for s in range(64):
        path, aux = sequence_prefix(model, 50, seed=s)
        nonzero = np.flatnonzero(path)
        k = aux["k"]
        if k <= 50:
            assert nonzero.tolist() == [k - 1]
            assert path[k - 1] == k * (k + 1)
        else:
            assert nonzero.size == 0


def test_lognormal_swap_b_zero_is_iid_lognormal():
    law = lognormal_swap_law([0.0], d=2)
    g = law.gaussian
    assert np.allclose(g.mean_vec, [-0.5, -0.5])
    assert np.allclose(g.cov, np.eye(2))
    path, aux = sequence_prefix(LognormalSwapModel([0.0]), 4, seed=5)
    assert aux["coupling"] == 0.0
    assert np.all(path > 0)


def test_dacunha_prefix_law_support_values():
    law = dacunha_prefix_law(4)
    assert law.atoms.shape == (5, 4)
    assert np.isclose(law.weights.sum(), 1.0)
    # atom k has value k(k+1) at coordinate k and weight 1/(k(k+1))
    for k in range(1, 5):
        assert law.atoms[k - 1, k - 1] == k * (k + 1)
        assert math.isclose(law.weights[k - 1], 1.0 / (k * (k + 1)), rel_tol=1e-12)


def test_reproducibility_and_stream_independence():
    law = GaussianLaw([0.0], [[1.0]])
    a = sample(law, 1000, seed=42)
    b = sample(law, 1000, seed=42)
    assert np.array_equal(a, b)
    r1, r2 = spawn_rngs(42, 2)
    x1, x2 = law.sample(1000, r1), law.sample(1000, r2)
    assert not np.array_equal(x1, x2)


def test_permute_law_families():
    perm = [1, 0]
    d = DiscreteLaw([[1.0, 2.0]], [1.0])
    assert permute_law(d, perm).atoms.tolist() == [[2.0, 1.0]]
    g = GaussianLaw([1.0, 2.0], [[1.0, 0.3], [0.3, 2.0]])
    pg = permute_law(g, perm)
    assert pg.mean_vec.tolist() == [2.0, 1.0]
    assert pg.cov[0, 0] == 2.0
    ln = LognormalLaw(g)
    assert permute_law(ln, perm).gaussian == pg
    # elliptical: the rows of A are permuted, the radial part carries over
    e = law_from_json(JSON_DOCS[3] | {"matrix": [[1.0, 2.0], [3.0, 4.0]]})
    pe = permute_law(e, perm)
    assert pe.matrix.tolist() == [[3.0, 4.0], [1.0, 2.0]]
    assert (pe.radial_mean, pe.radial_spec) == (e.radial_mean, e.radial_spec)
    assert np.allclose(pe.sample(64, 3), e.sample(64, 3)[:, perm], rtol=1e-14, atol=0.0)
    # sampled: base samples with columns permuted, declarations carried over, mean permuted
    s = SamplerLaw(3, lambda rng, n: rng.exponential(1.0, (n, 3)) + [1.0, 2.0, 3.0], name="shifted",
                   symmetric=False, positive=True, mean_vec=np.array([2.0, 3.0, 4.0]))
    ps = permute_law(s, [2, 0, 1])
    assert np.array_equal(ps.sample(16, 5), s.sample(16, 5)[:, [2, 0, 1]])
    assert (ps.dim, ps.name, ps.symmetric, ps.positive) == (3, "shifted[permuted]", False, True)
    assert ps.mean_vec.tolist() == [4.0, 2.0, 3.0]


JSON_DOCS = [
    {"schema": 1, "type": "discrete", "atoms": [[1.0, 0.0], [0.0, 1.0]], "weights": [0.5, 0.5]},
    {"schema": 1, "type": "gaussian", "mean": [0.0, 1.0], "cov": [[1.0, 0.0], [0.0, 2.0]]},
    {"schema": 1, "type": "lognormal", "mean": [-0.5], "cov": [[1.0]]},
    {"schema": 1, "type": "elliptical", "radial": {"kind": "chi", "dof": 2},
     "matrix": [[1.0, 0.0], [0.0, 1.0]]},
    {"schema": 1, "type": "location-scale", "base": {"kind": "normal"}, "location": 1.0, "scale": 2.0},
]


@pytest.mark.parametrize("doc", JSON_DOCS, ids=[d["type"] for d in JSON_DOCS])
def test_law_json_round_trip(doc):
    law = law_from_json(doc)
    again = law_from_json(law.to_json())
    assert again == law
    out = sample(law, 16, seed=0)
    assert out.shape == (16, law.dim)


BARE_BASE = ScalarBase(lambda rng, n: rng.standard_normal(n), SupportFlags(False, False))


@pytest.mark.parametrize("law", [
    SamplerLaw(1, lambda rng, n: rng.standard_normal(n)),
    EllipticalLaw(1.0, lambda rng, n: np.ones(n), np.eye(2)),
    LocationScaleLaw(BARE_BASE, 0.0, 1.0),
], ids=["sampler", "elliptical-callable", "location-scale-callable"])
def test_law_to_json_needs_a_spec(law):
    with pytest.raises(SchemaError):
        law.to_json()


def _ones(rng, n):
    return np.ones(n)


@pytest.mark.parametrize("a,b,equal", [
    (EllipticalLaw(1.0, _ones, np.eye(2)), EllipticalLaw(1.0, _ones, np.eye(2)), True),
    # one radial mean and matrix, different bare radial samplers
    (EllipticalLaw(1.0, lambda r, n: np.ones(n), np.eye(2)),
     EllipticalLaw(1.0, lambda r, n: r.exponential(1.0, n), np.eye(2)), False),
], ids=["elliptical-same-sampler", "elliptical-other-sampler"])  # one spec, two samplers: test_law_json_round_trip
def test_law_equality(a, b, equal):
    assert (a == b) is equal and (b == a) is equal


POSITIVITY = [
    (DiscreteLaw([[1.0, 2.0], [-1.0, 3.0]], [1.0, 0.0]), True),  # the negative atom has no mass
    (DiscreteLaw([[1.0], [-1.0]], [0.5, 0.5]), False),
    (GaussianLaw([1.0, 2.0], np.zeros((2, 2))), True),
    (GaussianLaw([1.0, 0.0], np.zeros((2, 2))), False),
    (GaussianLaw([1.0, 2.0], np.eye(2)), False),
    (LognormalLaw(GaussianLaw([-5.0], [[4.0]])), True),
    (SamplerLaw(1, lambda rng, n: rng.random(n), positive=True), True),
    (SamplerLaw(1, lambda rng, n: rng.random(n), positive=False), False),
    (SamplerLaw(1, lambda rng, n: rng.random(n)), None),
    (law_from_json(JSON_DOCS[3]), None),
    # supported on [3, 7], yet no closed form decides it
    (law_from_json(JSON_DOCS[4] | {"base": {"kind": "uniform", "halfwidth": 1.0}, "location": 5.0}), None),
]


@pytest.mark.parametrize("law,expected", POSITIVITY,
                         ids=[f"{type(law).__name__}-{i}" for i, (law, _) in enumerate(POSITIVITY)])
def test_is_positive(law, expected):
    assert law.is_positive() is expected


SYMMETRY = [
    (DiscreteLaw([[1.0, 2.0], [-1.0, -2.0]], [0.5, 0.5]), True),
    (DiscreteLaw([[0.0, 0.0]], [1.0]), True),
    (DiscreteLaw([[1.0, 2.0], [-1.0, -2.0]], [0.6, 0.4]), False),  # sign-symmetric atoms, unequal weights
    (DiscreteLaw([[1.0, 2.0], [-1.0, 2.0]], [0.5, 0.5]), False),
    (GaussianLaw([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]]), True),
    (GaussianLaw([0.0, 1e-3], np.eye(2)), False),
    (LognormalLaw(GaussianLaw([-5.0], [[4.0]])), False),
    (law_from_json(JSON_DOCS[3]), True),
    (EllipticalLaw(1.0, lambda rng, n: np.ones(n), [[1.0, 2.0], [0.0, 1.0]]), True),
    (SamplerLaw(1, lambda rng, n: rng.random(n), symmetric=True), True),
    (SamplerLaw(1, lambda rng, n: rng.random(n), symmetric=False), False),
    (SamplerLaw(1, lambda rng, n: rng.random(n)), None),
    # N(0, 4) in law, yet no closed form decides it
    (law_from_json(JSON_DOCS[4] | {"location": 0.0}), None),
    # an offset far below the atom tolerance reorders the atoms lexicographically
    (DiscreteLaw([[1e-12, -1.0], [0.0, 0.0], [0.0, 1.0]], [1 / 3] * 3), True),
]


@pytest.mark.parametrize("law,expected", SYMMETRY,
                         ids=[f"{type(law).__name__}-{i}" for i, (law, _) in enumerate(SYMMETRY)])
def test_is_symmetric(law, expected):
    assert law.is_symmetric() is expected


def test_law_json_rejects_unknown_fields():
    with pytest.raises(SchemaError):
        law_from_json({"schema": 1, "type": "gaussian", "mean": [0.0], "cov": [[1.0]], "spurious": 1})
    with pytest.raises(SchemaError):
        law_from_json({"schema": 2, "type": "gaussian", "mean": [0.0], "cov": [[1.0]]})
    with pytest.raises(SchemaError):
        law_from_json({"schema": 1, "type": "gaussian", "mean": [0.0]})


def test_sequence_model_json_round_trip():
    for doc in (
        {"schema": 1, "type": "dacunha-castelle"},
        {"schema": 1, "type": "lognormal-swap", "b": [0.5, -0.1]},
        {"schema": 1, "type": "iid-exchangeable",
         "base": {"type": "gaussian", "mean": [1.0], "cov": [[1.0]]}},
    ):
        model = sequence_model_from_json(doc)
        assert sequence_model_from_json(model.to_json()) == model


def test_rademacher_is_symmetric_unit():
    law = rademacher_law()
    out = sample(law, 1000, seed=9).ravel()
    assert set(np.unique(out)) == {-1.0, 1.0}


def test_iid_model_needs_scalar_base():
    with pytest.raises(ValueError):
        IidExchangeableModel(GaussianLaw([0.0, 0.0], np.eye(2)))


def _cdf(weights) -> np.ndarray:
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    return cum


def _edge_uniforms(cum: np.ndarray, n: int, rng) -> np.ndarray:
    """n uniforms in [0, 1): every cdf value below one, its floating neighbours, 0 and the top, then random."""
    marks = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 2.0), [0.0, np.nextafter(1.0, 0.0)]])
    marks = np.unique(marks[(marks >= 0.0) & (marks < 1.0)])
    u = rng.random(n)
    k = min(n, marks.size)
    u[rng.choice(n, k, replace=False)] = rng.choice(marks, k, replace=False)
    return u


@st.composite
def discrete_draws(draw):
    m = draw(st.integers(1, 64))
    weights = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 0.5, 1e-9, 0.3, 2.0 / 3.0]),
                                     min_size=m, max_size=m)))
    if weights.sum() == 0.0:
        weights[draw(st.integers(0, m - 1))] = 1.0
    weights /= weights.sum()  # zero weights make the cdf values repeat
    n = draw(st.sampled_from([1, 2, 128, 1_000, 2_048, 10_000]))
    return weights, n, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def _assert_draws_are_searchsorted(weights, u):
    m = weights.shape[0]
    law = DiscreteLaw(np.arange(float(m))[:, None] * [1.0, -1.0], weights)
    want = np.searchsorted(_cdf(law.weights), u, side="left")
    got = law.sample_with_driver(u)
    assert got.tobytes() == law.atoms[want].tobytes()


@settings(max_examples=120, deadline=None)
@given(case=discrete_draws())
def test_discrete_draw_indices_are_searchsorted(case):
    # the count of cdf values below u is the left insertion point, on either
    # side of the draw rule, on a cdf value and next to it
    weights, n, rng = case
    _assert_draws_are_searchsorted(weights, _edge_uniforms(_cdf(weights), n, rng))


@pytest.mark.parametrize("weights", [
    [1.0],
    [0.5, 0.5],
    [0.0, 1.0, 0.0],
    [0.3, 0.7 + 4e-13, 0.0],  # the cdf passes one before the guard sets its last value
    [0.3, 0.7 - 4e-13],       # the guard lifts the last value to one
    [0.25, 0.0, 0.0, 0.25, 0.5],
])
@pytest.mark.parametrize("n", [1, 128, 10_000])
def test_discrete_draw_indices_at_the_cdf_guard(weights, n):
    weights = np.array(weights)
    _assert_draws_are_searchsorted(weights, _edge_uniforms(_cdf(weights), n, np.random.default_rng(n)))


@pytest.mark.parametrize("m", [1, 3, 33, 40])
def test_cdf_index_of_a_batch_of_blocks_is_the_index_row_by_row(m):
    # batched max-mode LePage maps (paths, 128) uniforms at once, so the draw
    # rule sees paths x 128 draws; at 3 atoms the batch counts and a row
    # searches, past 32 atoms both search
    rng = np.random.default_rng(m)
    weights = rng.dirichlet(np.ones(m))
    law = DiscreteLaw(np.arange(float(m))[:, None] * [1.0, -1.0], weights)
    u = np.stack([_edge_uniforms(law._cum, 128, rng) for _ in range(40)])
    if m == 3:
        assert u.shape[1] < (m - 1) * _DRAWS_PER_COUNTED_ATOM <= u.size
    got = _cdf_index(law._cum, u)
    assert got.shape == u.shape
    for row, draws in zip(got, u):
        assert np.array_equal(row, _cdf_index(law._cum, draws))
    assert law.sample_with_driver(u).tobytes() == np.stack([law.sample_with_driver(r) for r in u]).tobytes()


@pytest.mark.parametrize("b", [[0.5], [0.3, -0.2, 0.1], [-0.0, 0.25, 1e-300, 0.4]])
def test_mean_corrections_are_mu_byte_for_byte(b):
    model = LognormalSwapModel(b)
    for n in sorted({1, len(b) - 1, len(b), len(b) + 1, 50} - {0}):
        want = np.array([model.mu(i) for i in range(1, n + 1)], dtype=float)
        assert model.mean_corrections(n).tobytes() == want.tobytes()
        assert lognormal_swap_law(b, n).gaussian.mean_vec.tobytes() == want.tobytes()


def _chi_law(dof):
    return law_from_json({"schema": 1, "type": "elliptical", "radial": {"kind": "chi", "dof": dof},
                          "matrix": [[1.0, 0.0], [0.0, 1.0]]})


def test_chi_radial_honours_a_fractional_dof():
    law = _chi_law(2.5)
    assert law.radial_mean == math.sqrt(2.0) * math.gamma(1.75) / math.gamma(1.25)
    assert law.to_json()["radial"]["dof"] == 2.5
    # E R^2 = dof: chi(2) would sit about 70 standard errors away
    r2 = law.radial_sampler(as_rng(5), 100_000) ** 2
    assert abs(r2.mean() - 2.5) < 4.0 * math.sqrt(2.0 * 2.5 / r2.size)


@pytest.mark.parametrize("dof", [1, 2, 3, 100, 342])
def test_chi_radial_integral_dof_unchanged(dof):
    law = _chi_law(dof)
    assert law.radial_mean == math.sqrt(2.0) * math.gamma((dof + 1) / 2) / math.gamma(dof / 2)
    draws = np.sqrt(as_rng(3).chisquare(dof, 64))
    assert law.radial_sampler(as_rng(3), 64).tobytes() == draws.tobytes()


# E chi_dof = sqrt(2) Gamma((dof + 1) / 2) / Gamma(dof / 2), from mpmath 1.3 at 700 digits
CHI_MEANS = {
    343: 18.50676538354970419718282,
    400: 19.9875039184489253233046,
    1e3: 31.61487189698008008849748,
    1e6: 999.9997500000312500390625,
    1e9: 31622.7765937780991705562,
    1e12: 999999.99999975,
    1e15: 31622776.60168378541429479,
    1e300: 1.0e150,
}


@pytest.mark.parametrize("dof", list(CHI_MEANS))
def test_chi_radial_mean_against_reference(dof):
    want = CHI_MEANS[dof]
    assert abs(_chi_law(dof).radial_mean - want) <= 1e-14 * want


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_measures_within_the_atom_tolerance_are_close_whatever_the_atom_order(d, k, seed):
    rng = np.random.default_rng(seed)
    atoms = rng.integers(-3, 4, size=(k, d)) * 1e-6  # distinct grid atoms lie at least 1e-6 apart
    masses = rng.random(k) + 0.1
    distinct = np.unique(atoms, axis=0).shape[0]
    assert merge_atoms(atoms, masses)[0].shape[0] == distinct
    shuffled = rng.permutation(k)
    jittered = atoms[shuffled] + rng.uniform(-1e-12, 1e-12, size=(k, d))
    assert measures_close(atoms, masses, jittered, masses[shuffled], mass_tol=1e-12)
    moved = atoms.copy()
    moved[0, rng.integers(d)] += 1e-6
    assert not measures_close(atoms, masses, moved, masses, mass_tol=1e-12)
