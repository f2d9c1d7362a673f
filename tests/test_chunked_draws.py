"""Chunked draws equal one-shot draws, bit for bit.

The kernel draws the samples of laws with a standard driver chunk by chunk
(``zonoid.law_rows``).  Fixed seeds keep their numbers only because a sample
drawn in the kernel's chunks is the sample drawn at once: the generator draws
in stream order, and a law's driver-to-sample map (a BLAS product for the
Gaussian families) gives each row the same bits in a chunk of at least
``_CHUNK_MIN_ROWS`` rows as in the whole product.  These tests pin that, at
d = 1-8 and seeds 0-4; CI runs them with BLAS on one thread and on many.
"""
import numpy as np
import pytest

from zonoids.laws import DiscreteLaw, GaussianLaw, LognormalLaw, draw_driver, symmetrized_psd_factor
from zonoids.rng import as_rng
from zonoids.zonoid import _CHUNK_MIN_ROWS, _chunk_sizes, law_rows

FLOOR = _CHUNK_MIN_ROWS
SEEDS = range(5)
DIMS = range(1, 9)
N = 5 * FLOOR + 1234
# block row counts of the kernel: one column of many, a few columns, many columns
BLOCK_ROWS = [1, 7, 61, 1213, FLOOR + 1, 3 * FLOOR]


def _plans(n=N):
    """Chunk sizes to draw n rows in: the kernel's plans, and hand-picked ones from the floor up."""
    plans = [_chunk_sizes(n, rows) for rows in BLOCK_ROWS]
    plans.append([FLOOR, FLOOR + 1, 2 * FLOOR + 7, n - 4 * FLOOR - 8])
    plans.append([FLOOR] * (n // FLOOR - 1) + [n - FLOOR * (n // FLOOR - 1)])  # a folded tail
    for sizes in plans:
        assert sum(sizes) == n and min(sizes) >= FLOOR
    return plans


def _law(family: str, d: int):
    rng = as_rng(100 + d)
    a = rng.standard_normal((d, d))
    if family == "gaussian":
        return GaussianLaw(rng.standard_normal(d), a @ a.T)
    if family == "lognormal":
        return LognormalLaw(GaussianLaw(0.2 * rng.standard_normal(d) - 0.5, 0.5 * a @ a.T / d))
    m = int(family.split("-")[1])  # few atoms are found by counting, many by binary search
    return DiscreteLaw(rng.standard_normal((m, d)), rng.dirichlet(np.ones(m)))


FAMILIES = ["gaussian", "lognormal", "discrete-3", "discrete-40"]


@pytest.mark.parametrize("rows", BLOCK_ROWS)
def test_chunk_plan_holds_whole_blocks_and_folds_a_short_tail(rows):
    step = -(-FLOOR // rows) * rows
    for n in [1, FLOOR - 1, FLOOR, step, 3 * step, 3 * step + 1, 3 * step + FLOOR - 1, 3 * step + FLOOR, 10**7]:
        sizes = _chunk_sizes(n, rows)
        assert sum(sizes) == n
        if n < FLOOR:
            assert sizes == [n]  # the whole sample, as drawn at once
            continue
        assert min(sizes) >= FLOOR
        assert all(r % rows == 0 for r in sizes[:-1])  # so the blocks are those of the whole sample
        assert sizes[-1] < step + FLOOR  # a tail below the floor joins the last chunk


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("seed", SEEDS)
def test_chunked_generator_draws_equal_one_shot(seed, d):
    whole_normal = as_rng(seed).standard_normal((N, d))
    whole_uniform = as_rng(seed).random(N)
    for sizes in _plans():
        rng = as_rng(seed)
        assert np.concatenate([rng.standard_normal((r, d)) for r in sizes]).tobytes() == whole_normal.tobytes()
        rng = as_rng(seed)
        assert np.concatenate([rng.random(r) for r in sizes]).tobytes() == whole_uniform.tobytes()


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("family", FAMILIES)
def test_chunked_law_draws_equal_one_shot(family, d):
    law = _law(family, d)
    for seed in SEEDS:
        whole = law.sample(N, as_rng(seed))
        for sizes in _plans():
            rng = as_rng(seed)
            chunks = [law.sample_with_driver(draw_driver(law.driver_kind, r, d, rng)) for r in sizes]
            assert np.concatenate(chunks).tobytes() == whole.tobytes()


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("family", FAMILIES)
def test_law_rows_read_equals_one_shot_coupled_samples(family, d):
    law, other = _law(family, d), _law(family, d).permute(np.arange(d)[::-1])
    for seed in SEEDS:
        driver = draw_driver(law.driver_kind, N, d, as_rng(seed))
        for sizes in _plans()[:3]:
            source = law_rows(N, as_rng(seed), law, other)
            sides = [np.concatenate(side) for side in zip(*source.read(sizes))]
            assert sides[0].tobytes() == law.sample_with_driver(driver).tobytes()
            assert sides[1].tobytes() == other.sample_with_driver(driver).tobytes()


@pytest.mark.parametrize("d", DIMS)
def test_draw_setup_kept_per_law_gives_the_same_samples(d):
    gauss, discrete = _law("gaussian", d), _law("discrete-40", d)
    z = as_rng(d).standard_normal((1000, d))
    assert gauss.sample_with_driver(z).tobytes() == (gauss.mean_vec + z @ symmetrized_psd_factor(gauss.cov).T).tobytes()
    u = as_rng(d).random(1000)
    cum = np.cumsum(discrete.weights)
    cum[-1] = 1.0
    assert discrete.sample_with_driver(u).tobytes() == discrete.atoms[np.searchsorted(cum, u)].tobytes()
