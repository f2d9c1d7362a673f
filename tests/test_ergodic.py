import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonoids.errors import NoOracleError
from zonoids.ergodic import (
    _checkpoint_averages,
    convergence_diagnostic,
    l1_diagnostic,
    limit_formula_check,
    model_average_moments,
    run_averages,
)
from zonoids.laws import (
    DacunhaCastelleModel,
    DiscreteLaw,
    GaussianLaw,
    IidExchangeableModel,
    LognormalSwapModel,
    sequence_prefix,
)
from zonoids.rng import as_rng


def test_dacunha_hand_path_averages():
    path, aux = sequence_prefix(DacunhaCastelleModel(), 120, seed=0, omega=0.3)
    sums = np.cumsum(path)
    assert aux["k"] == 3
    assert [sums[n - 1] / n for n in (4, 12, 120)] == [3.0, 1.0, 0.1]


def test_dacunha_average_is_c_over_n_past_activation():
    model = DacunhaCastelleModel()
    run = run_averages(model, (10, 100, 1000), paths=20, seed=1)
    for i, aux in enumerate(run.aux):
        k = aux["k"]
        for j, n in enumerate(run.checkpoints):
            expect = k * (k + 1) / n if k <= n else 0.0
            assert run.averages[i, j] == pytest.approx(expect, abs=1e-14)


def test_iid_strong_law():
    model = IidExchangeableModel(GaussianLaw([2.0], [[1.0]]))
    run = run_averages(model, (100, 10_000), paths=30, seed=2)
    assert np.allclose(run.oracles, 2.0)
    assert np.abs(run.averages[:, -1] - 2.0).max() < 0.1


def test_oracle_values():
    assert DacunhaCastelleModel().oracle({"k": 3}) == 0.0
    model = LognormalSwapModel([0.5])
    assert model.oracle({"coupling": 0.0}) == pytest.approx(math.exp(-0.125))
    assert model.oracle({"coupling": 0.5}) == pytest.approx(math.exp(0.375))
    iid = IidExchangeableModel(DiscreteLaw([[1.0], [3.0]], [0.5, 0.5]))
    assert iid.oracle({}) == 2.0


def test_lognormal_swap_average_approaches_oracle():
    model = LognormalSwapModel([0.5])
    run = run_averages(model, (100, 10_000), paths=30, seed=3)
    rel = np.abs(run.averages - run.oracles[:, None]) / run.oracles[:, None]
    assert np.median(rel[:, 1]) < 0.05
    assert np.median(rel[:, 1]) < np.median(rel[:, 0])


def test_oracle_mean_is_one_for_lognormal_swap():
    # E X = 1 by the usual exponential-moment identity; check the sample mean
    model = LognormalSwapModel([0.5, -0.3])
    run = run_averages(model, (10,), paths=4_000, seed=4)
    se = run.oracles.std(ddof=1) / math.sqrt(len(run.oracles))
    assert abs(run.oracles.mean() - 1.0) < 4.0 * se


def test_l1_diagnostic_directions():
    swap = LognormalSwapModel([0.5])
    run = run_averages(swap, (100, 10_000), paths=40, seed=5)
    diag = l1_diagnostic(run)
    assert diag.mean_abs_error[1] < diag.mean_abs_error[0]

    dac = run_averages(DacunhaCastelleModel(), (100, 1_000), paths=40, seed=6)
    d2 = l1_diagnostic(dac)
    # the averages head to zero pathwise while the exact mean stays at one
    assert d2.exact_mean == 1.0
    assert np.median(dac.averages[:, -1]) < 0.1
    assert d2.exact_mean_se is not None and d2.exact_mean_se[0] > 0.0


def test_dacunha_exact_average_moments():
    mean, sd = model_average_moments(DacunhaCastelleModel(), 100)
    assert mean == 1.0
    second = sum(k * (k + 1) for k in range(1, 101)) / 100**2
    assert sd == pytest.approx(math.sqrt(second - 1.0))


def test_iid_l1_rate_matches_root_n():
    model = IidExchangeableModel(GaussianLaw([0.0], [[1.0]]))
    run = run_averages(model, (100, 1_000, 10_000), paths=400, seed=7)
    diag = l1_diagnostic(run)
    slope = np.polyfit(np.log(run.checkpoints), np.log(diag.mean_abs_error), 1)[0]
    assert -0.6 < slope < -0.4


def test_median_error_nonincreasing_across_decade_checkpoints():
    model = LognormalSwapModel([0.4])
    run = run_averages(model, (100, 1_000, 10_000), paths=20, seed=13)
    med = np.median(np.abs(run.averages - run.oracles[:, None]), axis=0)
    assert np.all(np.diff(med) <= 0.0)


def test_limit_formula_identity_examples():
    rep = limit_formula_check(LognormalSwapModel([0.5]), paths=100, n=100, seed=8)
    assert rep.max_identity_error < 1e-12
    # b = 0 collapses the ratio form to the constant one
    rep0 = limit_formula_check(LognormalSwapModel([0.0]), paths=50, n=100, seed=9)
    assert np.allclose(rep0.rhs, 1.0, atol=1e-14)
    assert np.allclose(rep0.oracle, 1.0, atol=1e-14)


def test_limit_formula_identity_random_b():
    rng = as_rng(10)
    for _ in range(10):
        b = rng.uniform(-0.6, 0.6, size=int(rng.integers(1, 5)))
        if b @ b > 0.5:
            b = b * math.sqrt(0.5 / (b @ b))
        rep = limit_formula_check(LognormalSwapModel(b), paths=50, n=50, seed=int(rng.integers(1 << 30)))
        assert rep.max_identity_error < 1e-12


def test_reproducibility_bitwise():
    model = LognormalSwapModel([0.25])
    a = run_averages(model, (100, 1_000), paths=10, seed=11)
    b = run_averages(model, (100, 1_000), paths=10, seed=11)
    assert np.array_equal(a.averages, b.averages)
    c = run_averages(model, (100, 1_000), paths=10, seed=11, workers=4)
    assert np.array_equal(a.averages, c.averages)


def test_checkpoint_validation():
    with pytest.raises(ValueError):
        run_averages(DacunhaCastelleModel(), (100, 100), paths=2, seed=0)
    with pytest.raises(ValueError):
        run_averages(DacunhaCastelleModel(), (), paths=2, seed=0)


def test_convergence_diagnostic_without_oracle():
    from zonoids.laws import SamplerLaw

    base = SamplerLaw(1, lambda rng, n: rng.uniform(0.0, 2.0, (n, 1)))
    model = IidExchangeableModel(base)
    run = run_averages(model, (100, 1_000, 10_000), paths=30, seed=12)
    assert run.oracles is None
    with pytest.raises(NoOracleError):
        l1_diagnostic(run)
    diag = convergence_diagnostic(run)
    assert diag.median_gap.shape == (2,)
    assert diag.decreasing


def _fsum_every_term(path, checkpoints):
    """The checkpoint averages with each chunk summed by math.fsum over all of its terms."""
    sums = []
    prev = 0
    for c in checkpoints:
        sums.append(math.fsum(path[prev:c]))
        prev = c
    return np.array([math.fsum(sums[: k + 1]) / c for k, c in enumerate(checkpoints)])


def _assert_same_as_fsum_every_term(path, checkpoints):
    try:
        want = _fsum_every_term(path, checkpoints)
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            _checkpoint_averages(path, checkpoints)
        return
    assert _checkpoint_averages(path, checkpoints).tobytes() == want.tobytes()


TERMS = [-0.0, 5e-324, -5e-324, 2.5e-308, -1e-310, 1.0, -1.0, 1e16, -1e16, 1e308, -1e308, 0.1, 3.0,
         math.inf, -math.inf, math.nan]


@st.composite
def sparse_paths(draw):
    n = draw(st.integers(1, 300))
    path = np.zeros(n)
    for i, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(TERMS)), max_size=12)):
        path[i] = v
    checkpoints = sorted(draw(st.sets(st.integers(1, n), min_size=1, max_size=5)))
    return path, tuple(checkpoints)


@settings(max_examples=300, deadline=None)
@given(case=sparse_paths())
def test_checkpoint_averages_equal_fsum_of_every_term(case):
    # skipping exact zeros leaves every exactly rounded chunk sum, its specials
    # and its errors as they are
    _assert_same_as_fsum_every_term(*case)


CHUNKS = {
    "all-plus-zero": [0.0] * 8,
    "all-minus-zero": [-0.0] * 8,
    "signed-zeros": [0.0, -0.0, -0.0, 0.0],
    "subnormals": [5e-324, 0.0, -0.0, 5e-324, 2.2e-308, -1e-310],
    "cancelling": [1e308, 0.0, 1.0, -1e308, -0.0, 1e-300],
    "inf": [0.0, math.inf, -0.0, 1.0],
    "nan": [-0.0, math.nan, 0.0],
    "inf-minus-inf": [math.inf, 0.0, -math.inf],
    "overflow": [1e308, 1e308, 0.0],
}


@pytest.mark.parametrize("name", list(CHUNKS))
def test_checkpoint_averages_special_chunks(name):
    chunk = CHUNKS[name]
    path = np.array([1.0] + chunk + [-0.0] * 3 + chunk)
    n = path.size
    _assert_same_as_fsum_every_term(path, (1, 1 + len(chunk), n - len(chunk), n))
    if name == "inf-minus-inf":
        with pytest.raises(ValueError):
            _checkpoint_averages(path, (n,))
