"""Memory of the streamed kernel, and the steps ``support_at`` takes per chunk.

Laws with a standard driver are drawn chunk by chunk as the kernel reads them,
so the memory of a Monte Carlo verdict does not grow with the budget; the rows
and every number are those of the sample drawn at once.  A read draws its
chunks on a helper thread, one ahead of the caller; the last tests pin what the
caller sees of it: the generator's state, exceptions, threads and numpy's
error state.
"""
import threading
import tracemalloc

import numpy as np
import pytest

import zonoids.zonoid as zonoid_mod
from zonoids.errors import DiagnosticError
from zonoids.invariance import (test_even_homogeneous, test_lift_swap_invariance, test_swap_invariance,
                                test_zonoid_equiv)
from zonoids.laws import DiscreteLaw, EllipticalLaw, GaussianLaw, LognormalLaw, SamplerLaw
from zonoids.rng import as_rng
from zonoids.zonoid import DirectionGrid, law_rows, projection_moments, support_at

LN_A = LognormalLaw(GaussianLaw([-0.5, -0.5], np.eye(2)))
LN_B = LognormalLaw(GaussianLaw([-1.0, -1.0], [[2.0, 1.0], [1.0, 2.0]]))
SMALL_GRID = DirectionGrid.circle(4)


def _bits(v):
    return np.asarray(v).tobytes()


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("call", [
    lambda n: test_zonoid_equiv(LN_A, LN_B, SMALL_GRID, n, seed=1),
    lambda n: test_swap_invariance(LN_B, "all", SMALL_GRID, n, seed=1),
    lambda n: support_at(LN_A, SMALL_GRID.directions, "noncentred", n, seed=1),
], ids=["equiv", "swap", "support"])
def test_streamed_peak_memory_does_not_grow_with_the_budget(call):
    call(10**5)  # first-call allocations stay out of the comparison
    small = _peak_bytes(lambda: call(10**5))
    big = _peak_bytes(lambda: call(10**7))
    # a sample of 1e7 rows in R^2 alone is 153 MiB
    assert big <= small + 2**20, f"peak {big / 2**20:.2f} MiB at 1e7 rows, {small / 2**20:.2f} MiB at 1e5"


def test_max_kind_raises_on_negativity_in_any_chunk():
    dirs = np.array([[0.6, 0.8], [1.0, 0.0], [0.0, 1.0]])  # no column is the lone negative value
    x = LN_A.sample(50_000, as_rng(0))
    assert len(support_at(LN_A, dirs, "max", samples=x)) == len(dirs)
    x[-1, 1] = -1e-3  # in the last chunk
    with pytest.raises(DiagnosticError):
        support_at(LN_A, dirs, "max", samples=x)
    x[-1, 1] = -1e-13  # within the tolerance
    support_at(LN_A, dirs, "max", samples=x)
    signed = SamplerLaw(2, lambda rng, n: rng.standard_normal((n, 2)))  # positivity unknown, sample held whole
    with pytest.raises(DiagnosticError):
        support_at(signed, dirs, "max", 20_000, seed=0)


@pytest.mark.parametrize("budget", [1_000, 3 * zonoid_mod._CHUNK_MIN_ROWS + 17, 100_003])
def test_lift_rows_equal_the_injected_sample_path(budget):
    rng = as_rng(budget)
    dirs = rng.standard_normal((9, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    streamed = support_at(LN_A, dirs, "lift", budget, seed=3)
    x = LN_A.sample(budget, as_rng(3))
    injected = support_at(LN_A, dirs, "lift", samples=x)
    whole = projection_moments(np.column_stack([np.ones(budget), x]), dirs, "noncentred")
    for got in (streamed, injected):
        assert _bits([e.value for e in got]) == _bits(whole.mean)
        assert _bits([e.std_error for e in got]) == _bits(whole.se)


ELLIPTICAL = EllipticalLaw(1.0, lambda rng, n: np.ones(n), np.array([[1.0, 0.2], [0.0, 0.8]]))
DISCRETE_A = DiscreteLaw([[1.0, 2.0], [0.5, 0.1], [2.0, 0.3]], [0.2, 0.5, 0.3])
DISCRETE_B = DiscreteLaw([[1.1, 2.0], [0.5, 0.2], [2.0, 0.3]], [0.25, 0.45, 0.3])


def _numbers(result):
    fields = ("h_a", "h_b", "pooled_se", "max_standardized", "worst_index", "verdict", "crn",
              "mean_a", "mean_b", "value", "std_error")
    if isinstance(result, list):
        return [_numbers(e) for e in result]
    return {f: _bits(getattr(result, f)) for f in fields if hasattr(result, f)}


CALLS = {
    "equiv-crn": lambda n: test_zonoid_equiv(LN_A, LN_B, budget=n, seed=2),
    "equiv-unpaired": lambda n: test_zonoid_equiv(LN_A, ELLIPTICAL, budget=n, seed=2),
    "equiv-exact-side": lambda n: test_zonoid_equiv(GaussianLaw([0.0, 0.1], np.eye(2)), LN_B, budget=n, seed=2),
    "swap": lambda n: test_swap_invariance(LN_B, budget=n, seed=2),
    "lift-swap": lambda n: test_lift_swap_invariance(LN_A, budget=n, seed=2),
    "even-homogeneous-uniform-driver": lambda n: test_even_homogeneous(DISCRETE_A, DISCRETE_B, budget=n, seed=2),
    "even-homogeneous-unpaired": lambda n: test_even_homogeneous(LN_A, ELLIPTICAL, budget=n, seed=2),
    "support-centred": lambda n: support_at(LN_B, SMALL_GRID.directions, "centred", n, seed=2),
    "support-max": lambda n: support_at(LN_B, SMALL_GRID.directions, "max", n, seed=2),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_streamed_numbers_equal_one_chunk_numbers(name, monkeypatch):
    n = 7 * zonoid_mod._CHUNK_MIN_ROWS + 1001
    streamed = _numbers(CALLS[name](n))
    monkeypatch.setattr(zonoid_mod, "_CHUNK_MIN_ROWS", 10**9)  # the whole sample in one chunk, as drawn at once
    assert _numbers(CALLS[name](n)) == streamed


FLOOR = zonoid_mod._CHUNK_MIN_ROWS


@pytest.mark.parametrize("laws", [(LN_A,), (LN_A, LN_B), (DISCRETE_A,)], ids=["one", "crn", "uniform-driver"])
def test_a_full_read_leaves_the_generator_where_one_sample_leaves_it(laws):
    n = 7 * FLOOR + 1001
    rng = as_rng(5)
    source = law_rows(n, rng, *laws)
    assert len(zonoid_mod._chunk_sizes(n, 1000)) > 2
    assert sum(block[0].shape[0] for _, block in source.blocks(1000)) == n
    alone = as_rng(5)
    laws[0].sample(n, alone)
    assert rng.bit_generator.state == alone.bit_generator.state


class _Boom(Exception):
    pass


class _FailsOnChunk:
    """A normal-driver law whose ``fail_at``-th map (1-based; 0 for none) raises ``_Boom``."""

    driver_kind = "normal"
    dim = 2

    def __init__(self, fail_at):
        self.fail_at = fail_at
        self.calls = 0

    def sample_with_driver(self, z):
        self.calls += 1
        if self.calls == self.fail_at:
            raise _Boom(f"chunk {self.calls}")
        return z


def test_a_helper_exception_reaches_the_caller_at_its_chunk_and_no_thread_outlives_a_read():
    baseline = threading.active_count()
    sizes = [FLOOR] * 5
    assert len(list(law_rows(sum(sizes), as_rng(0), _FailsOnChunk(0)).read(sizes))) == 5
    assert threading.active_count() == baseline

    got = []
    with pytest.raises(_Boom, match="chunk 3"):
        for chunk in law_rows(sum(sizes), as_rng(0), _FailsOnChunk(3)).read(sizes):
            got.append(chunk)
    assert len(got) == 2
    assert threading.active_count() == baseline

    reading = law_rows(sum(sizes), as_rng(0), LN_A).read(sizes)
    next(reading)
    assert threading.active_count() == baseline + 1  # the helper, drawing the second chunk
    reading.close()
    assert threading.active_count() == baseline


def test_the_helper_draws_under_the_callers_numpy_error_state():
    overflowing = LognormalLaw(GaussianLaw([800.0, 0.0], np.eye(2)))  # exp(800) overflows
    sizes = [FLOOR] * 3
    with pytest.raises(RuntimeWarning, match="overflow"):  # warns by default; pytest makes it an error
        list(law_rows(sum(sizes), as_rng(0), overflowing).read(sizes))
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            list(law_rows(sum(sizes), as_rng(0), overflowing).read(sizes))
    with np.errstate(over="ignore"):
        chunks = list(law_rows(sum(sizes), as_rng(0), overflowing).read(sizes))
    assert len(chunks) == 3 and np.isinf(chunks[-1][0][:, 0]).all()
