"""Seed handling: one entry point for turning user seeds into generators.

All stochastic routines accept either an integer seed, a ``SeedSequence`` or a
ready ``Generator``.  Parallel work (paths, workers) must use ``spawn_rngs`` so
that results are reproducible and independent of worker count: path i draws
from child i of ``SeedSequence(seed)``, bitwise the stream that
``default_rng(SeedSequence(seed).spawn(n)[i])`` gives.
"""
from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor

import numpy as np

RngLike = "int | np.random.SeedSequence | np.random.Generator | None"

# Constants of O'Neill's seed_seq hash (PCG, HMC-CS-2014-0905) as numpy's
# SeedSequence uses them: the pool-mixing and output hash multipliers.
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def as_rng(seed) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for ``seed``.

    An existing generator is passed through unchanged, so callers can thread
    one stream through several calls.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class _SpawnedSeedSequence:
    """``SeedSequence(entropy, spawn_key=spawn_key, pool_size=pool_size)`` with its PCG64 seed words given.

    ``generate_state(4, np.uint64)``, the one request ``PCG64`` makes, returns
    ``words``, a read-only array; any other request, ``spawn`` and
    ``n_children_spawned`` go to that ``SeedSequence``, built on first use.
    It is a numpy ``ISpawnableSeedSequence`` once ``_register`` has run.
    """

    def __init__(self, entropy, spawn_key: tuple, pool_size: int, words: np.ndarray):
        self.entropy, self.spawn_key, self.pool_size = entropy, spawn_key, pool_size
        self._words = words

    @functools.cached_property
    def _sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(self.entropy, spawn_key=self.spawn_key, pool_size=self.pool_size)

    @property
    def n_children_spawned(self) -> int:
        return self._sequence.n_children_spawned

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and dtype is np.uint64:
            return self._words
        return self._sequence.generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self._sequence.spawn(n_children)


@functools.cache
def _register() -> None:
    # on first use, not at import: numpy.random, which numpy loads lazily,
    # takes about 12 ms to import
    from numpy.random.bit_generator import ISpawnableSeedSequence

    ISpawnableSeedSequence.register(_SpawnedSeedSequence)


def _words(value) -> list[int]:
    """The little-endian uint32 words that ``SeedSequence`` reads from integer entropy or a spawn key."""
    if isinstance(value, (int, np.integer)):
        value = int(value)
        return [value >> s & _MASK for s in range(0, max(value.bit_length(), 1), 32)]
    if isinstance(value, (list, tuple, range, np.ndarray)):
        return [w for v in value for w in _words(v)]
    raise TypeError(f"spawn_rngs reads integer entropy only, not {type(value).__name__}")


def _child_words(seq, first: int, n: int) -> np.ndarray:
    """PCG64 seed words, shape (n, 4), of children ``first`` .. ``first + n - 1`` of ``seq``.

    Each child's entropy is the parent's, padded with zeros to the pool size,
    then the parent's spawn key and the child's index.  Only that last word
    differs between children, so the hash runs once over uint64 arrays of
    32-bit values, one entry per child, and stays in plain ints before it.
    """
    p = seq.pool_size
    run = _words(seq.entropy)
    entropy = [*run, *[0] * (p - len(run)), *_words(seq.spawn_key), np.arange(first, first + n, dtype=np.uint64)]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK
        value = value * hash_const & _MASK
        return value ^ value >> 16

    def mix(x, y):
        value = (_MIX_L * x - _MIX_R * y) & _MASK
        return value ^ value >> 16

    pool = [hashmix(w) for w in entropy[:p]]
    for src in range(p):
        for dst in range(p):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[p:]:
        for dst in range(p):
            pool[dst] = mix(pool[dst], hashmix(w))
    # generate_state(4, np.uint64): eight output words cycling over the pool, paired low word first
    out, hash_const = [], _INIT_B
    for k in range(8):
        value = pool[k % p] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK
        value = value * hash_const & _MASK
        out.append(value ^ value >> 16)
    words = np.stack([out[2 * k] | out[2 * k + 1] << 32 for k in range(4)], axis=1)
    words.flags.writeable = False  # each child hands out its row as is
    return words


def spawn_rngs(seed, n: int) -> list[np.random.Generator]:
    """Split ``seed`` into ``n`` independent, reproducible child generators.

    Generator i is bitwise ``default_rng(children[i])``, where ``children`` is
    ``SeedSequence(seed).spawn(n)``; for a ``SeedSequence`` or a ``Generator``
    it is the next ``n`` children of that sequence or of the generator's
    ``seed_seq``, whose spawn counter advances by ``n`` as with ``spawn``.
    A generator's ``bit_generator.seed_seq.spawn`` gives the grandchildren
    that the child's ``spawn`` gives.  The seed words of all children are
    hashed in one array pass instead of one ``SeedSequence`` each.
    """
    _register()
    seq = seed.bit_generator.seed_seq if isinstance(seed, np.random.Generator) else seed
    if isinstance(seq, (np.random.SeedSequence, _SpawnedSeedSequence)):
        # Generators spawned from a live generator stay reproducible given the
        # generator's own seed; this supports nested parallel sections.
        first = seq.n_children_spawned
        seq.spawn(n)  # advances the caller's counter
    else:
        seq, first = np.random.SeedSequence(seq), 0
    words = _child_words(seq, first, n)
    return [np.random.Generator(np.random.PCG64(_SpawnedSeedSequence(
        seq.entropy, (*seq.spawn_key, i), seq.pool_size, words[i - first])))
        for i in range(first, first + n)]


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
