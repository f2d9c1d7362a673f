"""Support functions of centred, non-centred, lift and max zonoids.

Values are exact for discrete laws (enumeration over atoms) and for Gaussian
laws (folded-normal moments); for every other law they are Monte Carlo
estimates with a standard error.  One evaluator, ``side_moments``, picks one:
an exact law goes through its own ``law.support``, any other side through one
blocked kernel, ``projection_moments``, which projects each block of sample
rows onto every direction at once.  ``support_at`` and the testers call it;
``grid_support`` and the ``support_*`` functions are views of ``support_at``.
The kernel's reduction core also takes callables (``functional_moments``).
The kernel reads its rows from a ``RowSource``: laws with a standard driver
are drawn chunk by chunk as the kernel reads them (``law_rows``), so memory
does not grow with the budget; other laws and given matrices are held whole.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DiagnosticError
from .laws import DiscreteLaw, draw_driver
from .rng import as_rng

DEFAULT_BUDGET = 100_000
EXACT_TOL = 1e-10
_COLLINEAR_TOL = 1e-10  # radians
# One block of the projection kernel holds about this many values, whatever the
# budget and the grid; rows per block follow from the number of columns.
BLOCK_ELEMENTS = 1 << 17
_GUARD_MIN_ROWS = 4096
_GUARD_CHUNKS = (64, 4)  # chunk counts of the guard's small and big chunk means
_GUARD_DENSE = 64  # nonzero values the first small chunk needs before growth is read
_WEIGHTED_ROWS = 64  # direction rows per product on the exact (weighted) path
# Pairs a run of consecutive columns at one offset needs to be subtracted as one
# slice; shorter runs join the gather of the stray pairs.  On the swap orbit any
# value from 1 to 32 measured the same, and gathering every pair 25% slower; on
# scattered pairs, slicing every run took twice the time of one gather
# (BENCH_pair_reduction.json, "pair_layout").
_RUN_MIN = 8
# Sampled rows reach the kernel in chunks of whole blocks, each of at least
# this many rows; a shorter tail joins the chunk before it.  A law maps its
# driver to its sample by a BLAS product, and a product of one row rounded most
# of its rows apart from the one-shot product (BENCH_streaming.json,
# "chunk_scan"); chunks from this floor up draw the one-shot rows bitwise
# (tests/test_chunked_draws.py).  Floors from 64 to 65536 rows measured the
# same time; this one holds about 3 MiB at the bench's largest job.
_CHUNK_MIN_ROWS = 4096


@dataclass(frozen=True)
class SupportEstimate:
    """A support-function value: exact (std_error 0) or Monte Carlo."""

    value: float
    std_error: float
    n: int
    exact: bool

    def __post_init__(self):
        if self.exact and self.std_error != 0.0:
            raise ValueError("exact estimates must carry zero standard error")


@dataclass(frozen=True, eq=False)
class DirectionGrid:
    """Finite set of unit directions used to compare support functions."""

    directions: np.ndarray
    construction: str = "user-supplied"

    def __post_init__(self):
        dirs = np.asarray(self.directions, dtype=float)
        if dirs.ndim != 2 or dirs.shape[0] < 1:
            raise ValueError("directions must be a non-empty (m, d) array")
        norms = np.linalg.norm(dirs, axis=1)
        if np.abs(norms - 1.0).max() > 1e-12:
            raise ValueError("all grid directions must have unit norm within 1e-12")
        dirs = dirs.copy()
        dirs.flags.writeable = False
        object.__setattr__(self, "directions", dirs)

    def __len__(self) -> int:
        return self.directions.shape[0]

    @property
    def dim(self) -> int:
        return self.directions.shape[1]

    @classmethod
    def circle(cls, m: int) -> "DirectionGrid":
        """m equally spaced directions on the unit circle.

        For even m the second half is the exact negation of the first, so every
        antipodal pair is bitwise antipodal.
        """
        theta = 2.0 * np.pi * np.arange(m) / m
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        if m % 2 == 0:
            pts[m // 2:] = -pts[: m // 2]
        return cls(pts, f"circle:{m}")

    @classmethod
    def uniform_sphere(cls, d: int, m: int, seed) -> "DirectionGrid":
        """m directions drawn uniformly on the unit sphere in R^d."""
        z = as_rng(seed).standard_normal((m, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        return cls(z, f"uniform-sphere:{m}")

    @classmethod
    def fibonacci_sphere(cls, m: int) -> "DirectionGrid":
        """Fibonacci lattice on the 2-sphere (d = 3)."""
        i = np.arange(m)
        z = 1.0 - (2.0 * i + 1.0) / m
        phi = np.pi * (3.0 - np.sqrt(5.0)) * i
        r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        return cls(pts, f"fibonacci:{m}")

    @classmethod
    def axes_and_diagonals(cls, d: int) -> "DirectionGrid":
        """All +-e_i plus normalized sign diagonals (64 seeded ones past d = 6)."""
        axes = np.vstack([np.eye(d), -np.eye(d)])
        if d <= 6:
            signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * d)).T.reshape(-1, d)
        else:
            signs = as_rng(0).choice([-1.0, 1.0], size=(64, d))
        diag = signs / math.sqrt(d)
        return cls(np.vstack([axes, diag]), "axis-and-diagonals")

    @classmethod
    def default(cls, d: int, seed=0, smooth: int | None = None) -> "DirectionGrid":
        """House grid: dense smooth cover plus axes and diagonals.

        The coordinate-aligned part is always appended because violations of
        permutation symmetry tend to show up there first.  The smooth cover is
        a circle for d = 2, a Fibonacci lattice for d = 3 and uniform points
        past that; ``smooth`` sets its size (64, 256 and 128 by default).
        """
        if d == 1 and smooth is None:
            return cls(np.array([[1.0], [-1.0]]), "axes:1d")
        n = smooth if smooth is not None else {2: 64, 3: 256}.get(d, 128)
        extra = cls.axes_and_diagonals(d).directions
        if d == 2:
            cover = cls.circle(n).directions
        elif d == 3:
            cover = cls.fibonacci_sphere(n).directions
        else:
            cover = cls.uniform_sphere(d, n, seed).directions
        return cls(np.vstack([cover, extra]), f"default:{d}d" if smooth is None else f"default:{n}+axes")


def _guard_verdict(small: np.ndarray, big: np.ndarray, vmax: np.ndarray, total: np.ndarray,
                   nonzero: np.ndarray) -> None:
    """Raise when any stream's running mean is visibly diverging.

    One column per stream: ``small`` and ``big`` hold the means of 64 and of 4
    consecutive equal chunks of the stream, ``vmax`` and ``total`` its largest
    value and its sum, ``nonzero`` the count of nonzero values in its first
    small chunk.  Heuristic with two signatures of a non-integrable stream: the
    median chunk mean keeps growing with the chunk size, or a single draw
    carries a macroscopic share of the whole sum.  Thresholds are set so
    integrable heavy-tailed laws (finite mean, infinite variance) do not
    false-fire.  Small chunks that hold only a few nonzero values have a median
    mean biased low, so growth is read only where ``nonzero`` reaches
    ``_GUARD_DENSE``.
    """
    med_small = np.median(small, axis=0)
    dense = nonzero >= _GUARD_DENSE
    with np.errstate(divide="ignore", invalid="ignore"):
        growth = np.where(dense & (med_small > 0), np.median(big, axis=0) / med_small, 1.0)
        dominance = np.where(total > 0, vmax / total, 0.0)
    bad = np.flatnonzero((growth > 1.25) | (dominance > 0.2))
    if bad.size:
        i = bad[0]
        raise DiagnosticError(
            "running mean diverges across sample blocks; the law looks non-integrable "
            f"(median block growth {growth[i]:.3f}, max-term share {dominance[i]:.3f})"
        )


def _seeded(seed) -> np.random.Generator:
    if seed is None:
        raise ValueError("a seed or generator is required for Monte Carlo support evaluation")
    return as_rng(seed)


# ---------------------------------------------------------------------------
# row sources
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RowSource:
    """The n rows of one sample, or of several samples coupled row by row, read once.

    ``read(sizes)`` yields, for each chunk size r in turn, a tuple holding the
    next r rows of each of the ``sides`` samples.
    """

    n: int
    sides: int
    read: Callable

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("every side needs the same, positive number of rows")

    def map(self, fn) -> "RowSource":
        """The same rows, with ``fn`` applied to each side's chunk as it is read."""
        return RowSource(self.n, self.sides, lambda sizes: (tuple(fn(x) for x in c) for c in self.read(sizes)))

    def blocks(self, rows: int):
        """(first row, one array per side) for each block of ``rows`` rows, the last one shorter.

        The source is read in chunks of whole blocks (``_chunk_sizes``), so
        the blocks are those of the sample read at once.
        """
        start = 0
        for chunk in self.read(_chunk_sizes(self.n, rows)):
            for at in range(0, chunk[0].shape[0], rows):
                block = tuple(x[at:at + rows] for x in chunk)
                yield start, block
                start += block[0].shape[0]


def matrix_rows(*matrices: np.ndarray) -> RowSource:
    """A source over whole (n, d) sample matrices, one per side, coupled row by row."""
    n = matrices[0].shape[0]
    if any(x.shape[0] != n for x in matrices):
        raise ValueError("every side needs the same, positive number of rows")

    def read(sizes):
        start = 0
        for r in sizes:
            yield tuple(x[start:start + r] for x in matrices)
            start += r

    return RowSource(n, len(matrices), read)


def law_rows(n: int, rng, *laws) -> RowSource:
    """n rows of each law in ``laws``, drawn from ``rng`` as the source is read.

    A law with a standard driver (``driver_kind``) draws it one chunk at a
    time and maps it by ``sample_with_driver``, so its rows are bitwise those
    of ``law.sample(n, rng)`` and never held whole; several such laws, of one
    driver kind, share each driver chunk (common random numbers).  Any other
    law keeps the whole sample, drawn at the first read.
    """
    kind = laws[0].driver_kind
    if kind is None:
        (law,) = laws  # only laws with a driver can be coupled
        return RowSource(n, 1, lambda sizes: matrix_rows(law.sample(n, rng)).read(sizes))
    dim = laws[0].dim

    def read(sizes):
        for r in sizes:
            driver = draw_driver(kind, r, dim, rng)
            yield tuple(law.sample_with_driver(driver) for law in laws)

    return RowSource(n, len(laws), read)


def _as_source(samples) -> RowSource:
    """A row source as is; a sample matrix, or a tuple of coupled ones, as a ``matrix_rows`` source."""
    if isinstance(samples, RowSource):
        return samples
    return matrix_rows(*samples) if isinstance(samples, tuple) else matrix_rows(samples)


def _chunk_sizes(n: int, rows: int) -> list[int]:
    """Row counts of the chunks in which n rows are read, for kernel blocks of ``rows`` rows.

    Each chunk holds whole blocks and at least ``_CHUNK_MIN_ROWS`` rows, and a
    tail below the floor joins the last chunk, so the blocks are those of a
    sample read at once.
    """
    step = -(-_CHUNK_MIN_ROWS // rows) * rows
    sizes = [step] * (n // step)
    tail = n - step * len(sizes)
    if sizes and tail < _CHUNK_MIN_ROWS:
        sizes[-1] += tail
    elif tail:
        sizes.append(tail)
    return sizes


# ---------------------------------------------------------------------------
# blocked projection-moment kernel
# ---------------------------------------------------------------------------

_FUNCTIONALS = ("centred", "noncentred", "max")


@dataclass(frozen=True, eq=False)
class ProjectionMoments:
    """Per-column means over sample rows, with standard errors.

    ``mean`` has one entry per column.  A call without pairs returns each
    column's standard error in ``se`` and an empty ``paired_se``.  A paired
    call returns only what its pairs need: ``paired_se`` has one entry per
    requested column pair, the standard error of the mean of the row-wise
    difference of the two columns, and ``se`` is None, as no per-column
    second moment is formed.  An unpaired call's means are corrected two-pass
    means, exact on a constant column; a paired call's are the column sums
    over ``n``, and may differ from them by a few ulps.  ``n`` is the row count,
    0 for the closed-form values of an exact law (``side_moments``).
    """

    mean: np.ndarray
    se: np.ndarray | None
    paired_se: np.ndarray
    n: int


def _project(x: np.ndarray, directions: np.ndarray, kind: str, out: np.ndarray) -> None:
    """Write f(<x, u>) into ``out``: one row per direction u, one column per row x."""
    if kind == "max":
        np.multiply(directions[:, :1], x[:, 0], out=out)
        for j in range(1, x.shape[1]):
            np.maximum(out, directions[:, j:j + 1] * x[:, j], out=out)
    else:
        np.matmul(directions, x.T, out=out)
        if kind == "centred":
            np.abs(out, out=out)
            return
    np.maximum(out, 0.0, out=out)


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bitwise-distinct rows in order of first appearance, and each row's index among them."""
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rows[first[order]], rank[inverse.ravel()]


def _fold(dirs: np.ndarray) -> np.ndarray:
    """Each row or its negation, whichever has its first nonzero coordinate positive."""
    lead = dirs[np.arange(dirs.shape[0]), (dirs != 0.0).argmax(axis=1)]
    return np.where(lead[:, None] < 0.0, -dirs, dirs) + 0.0  # + 0.0 turns -0.0 into 0.0


def _pair_layout(lo: np.ndarray, hi: np.ndarray, width: int):
    """Lay out the distinct column pairs (lo < hi) of ``width`` columns for subtraction.

    The distinct pairs are ordered by (hi - lo, lo).  A run of at least
    ``_RUN_MIN`` of them at one offset with consecutive ``lo`` takes one slice
    of columns from another, so it is subtracted without a gather; the runs
    come first and the pairs outside them follow, gathered.  Returns each
    given pair's difference column, the runs as (minuend, subtrahend,
    difference) slices and the gathered pairs' columns.
    """
    keys, inverse = np.unique((hi - lo) * width + lo, return_inverse=True)
    first, offset = keys % width, keys // width
    starts = np.r_[0, np.flatnonzero((np.diff(first) != 1) | (np.diff(offset) != 0)) + 1]
    lengths = np.diff(np.r_[starts, keys.size])
    long = lengths >= _RUN_MIN
    order = np.argsort(~np.repeat(long, lengths), kind="stable")  # the runs' pairs first, in key order
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    runs, at = [], 0
    for start, length in zip(starts[long].tolist(), lengths[long].tolist()):
        i, j = int(first[start]), int(first[start] + offset[start])
        runs.append((slice(i, i + length), slice(j, j + length), slice(at, at + length)))
        at += length
    rest = order[at:]
    return position[inverse.ravel()], runs, (first[rest], first[rest] + offset[rest])


def _merge_pairwise(parts, combine):
    """Fold a stream of partial results as a balanced binary tree.

    Two partials of equal depth are combined as soon as both exist, so the
    result depends only on the number of parts, and rounding grows with the
    log of that number.
    """
    stack = []  # (depth, partial), depths strictly decreasing
    for part in parts:
        depth = 0
        while stack and stack[-1][0] == depth:
            part = combine(stack.pop()[1], part)
            depth += 1
        stack.append((depth, part))
    result = stack.pop()[1]
    while stack:
        result = combine(stack.pop()[1], result)
    return result


def _chan_merge(a, b):
    """Combine two (count, sums, mean, M2) summaries: sums add, mean and M2 merge
    as in Chan, Golub & LeVeque (1983)."""
    na, sums_a, mean_a, m2_a = a
    nb, sums_b, mean_b, m2_b = b
    n = na + nb
    delta = mean_b - mean_a
    return n, sums_a + sums_b, mean_a + delta * (nb / n), m2_a + m2_b + delta * delta * (na * nb / n)


class _GuardStats:
    """Chunk sums and maxima of each column, kept for the integrability guard."""

    def __init__(self, n: int, k: int):
        self.chunks = [(np.zeros((c, k)), n // c) for c in _GUARD_CHUNKS]
        self.top = None  # elementwise running maximum over blocks, reduced at the end
        self.nonzero = np.zeros(k, dtype=np.intp)  # in the first small chunk

    def add(self, values: np.ndarray, start: int, sums_in_block: np.ndarray) -> None:
        """Take in one block: one row per column, one entry per sample row from ``start``."""
        r = values.shape[1]
        stop = start + r
        for sums, width in self.chunks:
            end = min(stop, sums.shape[0] * width)  # rows past the last whole chunk are left out
            if end <= start:
                continue
            first, last = start // width, (end - 1) // width
            if first == last and end == stop:
                sums[first] += sums_in_block
            else:
                cuts = np.arange(first + 1, last + 1) * width - start
                sums[first:last + 1] += np.add.reduceat(values[:, : end - start], np.r_[0, cuts], axis=1).T
        first_chunk = self.chunks[0][1]
        if start < first_chunk:
            self.nonzero += np.count_nonzero(values[:, : first_chunk - start], axis=1)
        if self.top is None:
            self.top = values.copy()
        else:
            np.maximum(self.top[:, :r], values, out=self.top[:, :r])

    def check(self, mean: np.ndarray, n: int) -> None:
        (small, w_small), (big, w_big) = self.chunks
        _guard_verdict(small / w_small, big / w_big, self.top.max(axis=1), mean * n, self.nonzero)


def _weighted_means(x: np.ndarray, dirs: np.ndarray, kind: str, weights: np.ndarray) -> np.ndarray:
    """sum_j w_j f(<x_j, u>) for every direction row u, each independent of the other rows:
    the exact support of the discrete law with atoms x and weights w.

    f is positively homogeneous, so the weights scale the atoms once.  Direction
    rows go in zero-padded chunks of ``_WEIGHTED_ROWS`` and atoms in blocks
    whose size follows from ``BLOCK_ELEMENTS`` alone, so every matrix product
    has one shape whatever the rows.  A product has one row per atom and one
    column per direction, the orientation in which BLAS computes every
    direction with the same code wherever it sits (a single-row product, or
    directions as product rows, can round differently); the sums over atoms
    run down each column in order, and the block sums merge pairwise.
    """
    if kind not in _FUNCTIONALS:
        raise ValueError(f"unknown support kind {kind!r}")
    atoms = x * weights[:, None]
    step = max(1, BLOCK_ELEMENTS // _WEIGHTED_ROWS)
    chunk = np.zeros((_WEIGHTED_ROWS, dirs.shape[1]))
    out = np.empty(dirs.shape[0])
    for lo in range(0, dirs.shape[0], _WEIGHTED_ROWS):
        r = min(_WEIGHTED_ROWS, dirs.shape[0] - lo)
        chunk[:r] = dirs[lo:lo + r]
        chunk[r:] = 0.0
        sums = (_atom_block_sums(chunk, atoms[s:s + step], kind) for s in range(0, atoms.shape[0], step))
        out[lo:lo + r] = _merge_pairwise(sums, np.add)[:r]
    return out


def _atom_block_sums(chunk: np.ndarray, atoms: np.ndarray, kind: str) -> np.ndarray:
    """Per-direction sums of f(<a, u>) over one block of atoms a."""
    values = np.empty((atoms.shape[0], chunk.shape[0]))
    _project(chunk, atoms, kind, values)  # f(<a, u>) is symmetric in a and u: one row per atom
    return values.sum(axis=0)


def _reduce_columns(source: RowSource, k: int, write, pairs, col=None) -> ProjectionMoments:
    """Means and standard errors of the columns that ``write`` produces.

    ``source`` holds the rows of one sample or of coupled ones (common random
    numbers); ``write(x, out)`` writes k columns for a block x of one side's
    rows, one row of ``out`` each, and the sides' columns follow one another.
    Results come back per caller's column; ``col`` maps a side's caller
    columns to the written ones (default: one to one).  ``pairs`` = (a, b)
    names caller's column pairs whose row-wise difference gets a paired SE: a
    pair's SE ignores its order, a pair of one written column gets exactly 0,
    and each distinct pair is reduced once.  Every written column passes the
    integrability guard, from chunk sums and maxima, once n reaches
    ``_GUARD_MIN_ROWS``.

    Rows are walked in blocks of about ``BLOCK_ELEMENTS`` values, read from
    the source in chunks of whole blocks (``RowSource.blocks``): memory is set
    by the chunk and the block, not by n, and the blocks are those of the
    sample read at once.  A second moment (M2) is formed only for the columns whose SE
    the call returns: every written column on a call without pairs, only the
    pair differences on a paired call, whose written columns get block sums
    alone and, as means, their merged sums over n.  Per-block (count, sums,
    mean, M2) summaries are merged pairwise (Chan, Golub & LeVeque, 1983): no
    raw sums of squares are formed.  Pair differences are taken by runs of
    columns (``_pair_layout``), and every row of a block is summed with the
    same arithmetic, so bitwise-equal columns get bitwise-equal results
    wherever they sit.
    """
    n = source.n
    col = np.arange(k) if col is None else col
    cols = (np.arange(source.sides)[:, None] * k + col).ravel()  # the written column of each caller's column
    width = k * source.sides
    paired = pairs is not None
    a, b = (np.asarray(p, dtype=np.intp) for p in (pairs if paired else ((), ())))
    lo, hi = np.minimum(cols[a], cols[b]), np.maximum(cols[a], cols[b])
    live = np.flatnonzero(lo != hi)
    pair_col, runs, (ga, gb) = _pair_layout(lo[live], hi[live], width)
    total = width + ga.size + sum(dst.stop - dst.start for _, _, dst in runs)
    m2_from = width if paired else 0  # the block rows whose SE the call returns
    rows = max(1, BLOCK_ELEMENTS // total)
    guard = _GuardStats(n, width) if n >= _GUARD_MIN_ROWS else None
    # every block is written into this one buffer: a fresh array of a block's
    # size per block is mapped and unmapped by malloc, and page-faults each time
    buf = np.empty(total * min(rows, n))

    def blocks():
        # a block holds one row per column and one entry per sample row, so each
        # column's values are contiguous for the reductions
        for start, sides in source.blocks(rows):
            r = sides[0].shape[0]
            block = buf[:total * r].reshape(total, r)
            values, diffs = block[:width], block[width:]
            for s, x in enumerate(sides):
                write(x, values[s * k:(s + 1) * k])
            for i, j, at in runs:
                np.subtract(values[i], values[j], out=diffs[at])
            if ga.size:
                np.subtract(values[ga], values[gb], out=diffs[diffs.shape[0] - ga.size:])
            # row sums by einsum, which sums every row alike; a BLAS product
            # with ones rounds the last rows differently
            sums = np.einsum("ij->i", block)
            if guard is not None:
                guard.add(values, start, sums[:width])
            moment = block[m2_from:]
            mean = sums[m2_from:] / r
            moment -= mean[:, None]
            # corrected two-pass step: the residual sum removes the rounding of
            # the first mean, so a constant column gets its value and M2 = 0
            # exactly; on a paired call only the pair differences take this step
            resid = np.einsum("ij->i", moment)
            m2 = np.einsum("ij,ij->i", moment, moment) - resid * resid / r
            yield r, sums[:m2_from], mean + resid / r, np.maximum(m2, 0.0)

    _, sums, mean, m2 = _merge_pairwise(blocks(), _chan_merge)
    se = np.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else np.zeros(m2.size)
    if paired:  # the merged mean is the pair differences'; the written columns' are their sums over n
        mean = sums / n
    if guard is not None:
        guard.check(mean, n)
    if not paired:
        return ProjectionMoments(mean[cols], se[cols], np.zeros(0), n)
    paired_se = np.zeros(a.size)
    paired_se[live] = se[pair_col]
    return ProjectionMoments(mean[cols], None, paired_se, n)


def projection_moments(samples, directions, kind: str = "centred", *, pairs=None) -> ProjectionMoments:
    """Moments of f(<x, u>) over the rows x of a sample, for every direction u.

    f is |.| (``"centred"``), (.)_+ (``"noncentred"``) or the max functional
    max(0, u_1 x_1, ..., u_d x_d) (``"max"``).  ``samples`` is a
    ``RowSource``, an (n, d) matrix or a tuple of coupled ones; it and
    ``pairs`` are as for ``_reduce_columns``, with one column per direction
    and side.  A source from ``law_rows`` is drawn chunk by chunk as it is
    reduced, so the call holds a chunk and a block of rows, not the sample.

    A sample is projected once per distinct direction, one matrix product per
    side and block: bitwise-equal rows share one column, and so, for the even
    |.|, do a row and its exact negation.  A pair whose two directions share a
    column gets delta and paired SE exactly 0.  Results keep the caller's order.
    """
    if kind not in _FUNCTIONALS:
        raise ValueError(f"unknown support kind {kind!r}")
    dirs = np.asarray(directions, dtype=float)
    dirs, col = _distinct_rows(_fold(dirs) if kind == "centred" else dirs)
    return _reduce_columns(_as_source(samples), dirs.shape[0], lambda x, out: _project(x, dirs, kind, out),
                           pairs, col)


def functional_moments(samples, functions, *, pairs=None) -> ProjectionMoments:
    """Moments of f(x) over the rows x of a sample, for every callable f in ``functions``.

    Each f maps an (r, d) block of rows to r nonnegative values (the guard
    weighs a column's largest value against its sum).  ``samples`` and
    ``pairs`` are as for ``projection_moments``, with one column per function
    and side.
    """
    def write(x, out):
        for j, f in enumerate(functions):
            out[j] = f(x)

    return _reduce_columns(_as_source(samples), len(functions), write, pairs)


def is_exact_law(law) -> bool:
    """Whether support functions of this law are evaluated in closed form, by ``law.support``."""
    return hasattr(law, "support")


def side_moments(side, directions, kind: str = "centred", *, pairs=None) -> ProjectionMoments:
    """Moments of f(<xi, u>) for one side: closed form or samples, decided here alone.

    An exact law (``is_exact_law``) gives its closed-form values with every SE
    0 and n = 0.  Any other side is a row source, a sample matrix or a tuple of
    coupled ones, for ``projection_moments``; ``kind`` and ``pairs`` are as there.
    """
    if is_exact_law(side):
        h = side.support(directions, kind)
        return ProjectionMoments(h, np.zeros(h.size), np.zeros(0 if pairs is None else len(pairs[0])), 0)
    return projection_moments(side, directions, kind, pairs=pairs)


def support_at(law, directions, kind: str = "centred", budget: int = DEFAULT_BUDGET, seed=None, *,
               samples=None) -> list[SupportEstimate]:
    """One support kind at every row of ``directions``, sampling at most once.

    ``kind`` is a kernel functional or ``"lift"``: the lift-zonoid support
    h(k, u) = E(k + <u, xi>)_+ is the non-centred support of (1, xi) at (k, u),
    so its rows are (k, u) in R^{d+1}.  ``side_moments`` evaluates one side:
    the rows of ``samples`` (a matrix, held whole) whenever it is given, for
    an exact law too; else an exact law, lifted by ``law.lift()``; else
    ``budget`` draws of the law (``law_rows``: chunk by chunk for a law with a
    driver).  Rows are checked for negativity (max kind) or given a column of
    ones in front (lift).  Estimates from rows have ``exact`` False and ``n``
    the row count.
    """
    dirs = np.asarray(directions, dtype=float)
    lift = kind == "lift"
    if lift:
        kind = "noncentred"
    if samples is None and is_exact_law(law):
        side = law.lift() if lift else law
    else:
        if kind == "max" and law.is_positive() is False:
            raise ValueError("max-zonoid support requires a positive law")
        side = matrix_rows(samples) if samples is not None else law_rows(int(budget), _seeded(seed), law)
        if kind == "max":
            side = side.map(_nonnegative)
        if lift:
            side = side.map(lambda x: np.column_stack([np.ones(x.shape[0]), x]))
    mom = side_moments(side, dirs, kind)
    return [SupportEstimate(float(h), float(se), mom.n, mom.n == 0) for h, se in zip(mom.mean, mom.se)]


def _nonnegative(x: np.ndarray) -> np.ndarray:
    if x.min() < -1e-12:
        raise DiagnosticError("sampled negativity beyond tolerance in a max-zonoid evaluation")
    return x


def grid_support(law, grid: DirectionGrid, kind: str = "centred", budget: int = DEFAULT_BUDGET,
                 seed=None, *, samples=None) -> list[SupportEstimate]:
    """Evaluate one support kind over a whole grid, sampling at most once."""
    return support_at(law, grid.directions, kind, budget, seed, samples=samples)


# The per-direction evaluators are one-row views of ``support_at``.  ``samples``
# lets a caller reuse one sample matrix across many directions.

def support_centred(law, u, budget: int = DEFAULT_BUDGET, seed=None, *, samples=None) -> SupportEstimate:
    """Support of the centred zonoid: E|<u, xi>|."""
    return support_at(law, [np.ravel(u)], "centred", budget, seed, samples=samples)[0]


def support_noncentred(law, u, budget: int = DEFAULT_BUDGET, seed=None, *, samples=None) -> SupportEstimate:
    """Support of the (non-centred) zonoid: E<u, xi>_+ = (E|<u, xi>| + <E xi, u>) / 2."""
    return support_at(law, [np.ravel(u)], "noncentred", budget, seed, samples=samples)[0]


def support_lift(law, k: float, u, budget: int = DEFAULT_BUDGET, seed=None, *, samples=None) -> SupportEstimate:
    """Lift-zonoid support h(k, u) = E(k + <u, xi>)_+."""
    return support_at(law, [np.r_[float(k), np.ravel(u)]], "lift", budget, seed, samples=samples)[0]


def support_max(law, u, budget: int = DEFAULT_BUDGET, seed=None, *, samples=None) -> SupportEstimate:
    """Max-zonoid support E max(0, u_1 eta_1, ..., u_d eta_d) for positive laws."""
    return support_at(law, [np.ravel(u)], "max", budget, seed, samples=samples)[0]


# ---------------------------------------------------------------------------
# zonotope geometry (d = 2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Zonotope2D:
    """Centred zonogon: Minkowski sum of segments [-g_i, g_i].

    ``generators`` holds the merged generator vectors g_i oriented into the
    upper half-plane; ``vertices`` walks the boundary counterclockwise.
    """

    generators: np.ndarray
    vertices: np.ndarray

    def support(self, u) -> float:
        u = np.asarray(u, dtype=float).ravel()
        return float((self.vertices @ u).max())


def zonotope_2d(law: DiscreteLaw) -> Zonotope2D:
    """Vertices of the centred zonoid of a discrete planar law.

    Generators p_i x_i are oriented into the upper half-plane, merged when
    collinear, sorted by angle, and the boundary is emitted by cumulative
    sums (the standard zonogon sweep).
    """
    if not isinstance(law, DiscreteLaw):
        raise TypeError("zonotope_2d needs a discrete law")
    if law.dim != 2:
        raise ValueError("zonotope_2d is defined for d = 2 only")
    gens = law.weights[:, None] * law.atoms
    keep = np.linalg.norm(gens, axis=1) > 0.0
    gens = gens[keep]
    if gens.shape[0] == 0:
        origin = np.zeros((1, 2))
        return Zonotope2D(np.zeros((0, 2)), origin)
    # orient into [0, pi): flip anything below the x-axis (or on the negative x-axis)
    flip = (gens[:, 1] < 0) | ((gens[:, 1] == 0) & (gens[:, 0] < 0))
    gens = np.where(flip[:, None], -gens, gens)
    angles = np.arctan2(gens[:, 1], gens[:, 0])
    order = np.argsort(angles, kind="stable")
    gens, angles = gens[order], angles[order]
    merged = [gens[0].copy()]
    last_angle = angles[0]
    for g, a in zip(gens[1:], angles[1:]):
        if a - last_angle <= _COLLINEAR_TOL:
            merged[-1] += g
        else:
            merged.append(g.copy())
            last_angle = a
    gens = np.array(merged)
    if gens.shape[0] == 1:
        g = gens[0]
        return Zonotope2D(gens, np.array([-g, g]))
    start = -gens.sum(axis=0)
    chain = start + 2.0 * np.vstack([np.zeros(2), np.cumsum(gens, axis=0)])
    vertices = np.vstack([chain[:-1], -chain[:-1]])  # chain end equals -start
    _check_zonotope(law, vertices)
    return Zonotope2D(gens, vertices)


def _check_zonotope(law: DiscreteLaw, vertices: np.ndarray) -> None:
    dirs = DirectionGrid.circle(64).directions
    poly = (vertices @ dirs.T).max(axis=0)
    exact = law.support(dirs)
    bad = np.flatnonzero(np.abs(poly - exact) > 1e-10)
    if bad.size:
        i = bad[0]
        raise DiagnosticError(f"zonogon support mismatch at direction {dirs[i]}: {poly[i]!r} vs {exact[i]!r}")


# ---------------------------------------------------------------------------
# mean width
# ---------------------------------------------------------------------------

def unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def sphere_quadrature(d: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature (points, weights) for integrals over the unit sphere.

    d = 2 uses the trapezoid rule on the angle (spectrally accurate for smooth
    integrands, O(n^-2) across the kinks of |cos|); d = 3 uses a Fibonacci
    lattice with equal weights.
    """
    if d == 2:
        pts = DirectionGrid.circle(nodes).directions
        w = np.full(nodes, 2.0 * np.pi / nodes)
        return pts, w
    if d == 3:
        pts = DirectionGrid.fibonacci_sphere(nodes).directions
        w = np.full(nodes, 4.0 * np.pi / nodes)
        return pts, w
    raise ValueError("sphere quadrature is provided for d in {2, 3} only")


@dataclass(frozen=True)
class MeanWidthReport:
    expected_norm: float
    identity_value: float
    abs_difference: float
    expected_norm_se: float
    nodes: int


def mean_width_check(law, nodes: int = 10_000, budget: int = DEFAULT_BUDGET, seed=None) -> MeanWidthReport:
    """Compare E||xi|| against the mean-width functional of the centred zonoid.

    The second quantity is b(Z) d kappa_d / (4 kappa_{d-1}) where the mean
    width b comes from integrating the support function over the sphere with
    the stated quadrature; the identity reduces to (integral) / (2 kappa_{d-1}).
    """
    d = law.dim
    pts, w = sphere_quadrature(d, nodes)
    if isinstance(law, DiscreteLaw):  # exact: a weighted sum over the atoms
        enorm, enorm_se = float(law.weights @ np.linalg.norm(law.atoms, axis=1)), 0.0
    else:
        samples = law.sample(int(budget), _seeded(seed))  # held whole: both integrals read it
        mom = functional_moments(samples, [lambda x: np.linalg.norm(x, axis=1)])
        enorm, enorm_se = float(mom.mean[0]), float(mom.se[0])
    hvals = side_moments(law if is_exact_law(law) else samples, pts).mean
    integral = float(w @ hvals)
    identity = integral / (2.0 * unit_ball_volume(d - 1))
    return MeanWidthReport(enorm, identity, abs(enorm - identity), enorm_se, nodes)
