"""Seed handling: one entry point for turning user seeds into generators.

All stochastic routines accept either an integer seed, a ``SeedSequence`` or a
ready ``Generator``.  Parallel work (paths, workers) must use ``spawn_rngs`` so
that results are reproducible and independent of worker count.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

RngLike = "int | np.random.SeedSequence | np.random.Generator | None"


def as_rng(seed) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for ``seed``.

    An existing generator is passed through unchanged, so callers can thread
    one stream through several calls.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed, n: int) -> list[np.random.Generator]:
    """Split ``seed`` into ``n`` independent, reproducible child generators."""
    if isinstance(seed, np.random.Generator):
        # Generators spawned from a live generator stay reproducible given the
        # generator's own seed; this supports nested parallel sections.
        return [np.random.default_rng(s) for s in seed.bit_generator.seed_seq.spawn(n)]
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in seq.spawn(n)]


def run_chunked(work, n: int, workers: int) -> None:
    """Call ``work`` on the indices 0..n-1, split into ``workers`` contiguous chunks on a thread pool.

    Runs inline when there is one worker or fewer than two indices per worker.
    Each index should draw from its own ``spawn_rngs`` stream, so results do not
    depend on the chunking.
    """
    if workers <= 1 or n < 2 * workers:
        work(range(n))
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(lambda c: work(c.tolist()), np.array_split(np.arange(n), workers)))
