"""LePage series: 1-stable sums and max-stable maxima driven by i.i.d. marks.

Each path draws arrival times Gamma_k as cumulative sums of unit exponentials
and combines the marks xi^(k) either as sum_k xi^(k) / Gamma_k (symmetric
marks; the sum converges conditionally and is taken in arrival order) or as
the coordinatewise max (positive marks, unit Frechet marginals when the mark
means are one).  Paths use independent spawned RNG streams, so results are
reproducible and independent of worker count, and max-mode values are
non-decreasing in the truncation depth for a fixed seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .invariance import test_zonoid_stationarity
from .laws import draw_driver, require_positive, require_symmetric
from .rng import as_rng, run_chunked, spawn_rngs
from .zonoid import DEFAULT_BUDGET, DirectionGrid, support_at

_BLOCK = 128  # draw granularity in max mode; fixed so prefixes agree across depths
# Max-mode paths whose blocks are combined at once.  For a 3-d discrete driver
# the scratch arrays hold 10 values per path and term (exponentials, Gamma,
# uniforms, cdf indices, mapped marks and term-innermost marks), 320 KiB at 32
# paths (a traced peak of 324 KiB; 494 KiB at 48, 650 KiB at 64).  On a 2-core
# x86-64 host, 3,000 one-block paths of that driver took a median 0.053 s at 8
# paths per batch, 0.041 s at 16 and 0.033-0.036 s from 32 to 128
# (BENCH_lepage_layout.json, "batch_size").
_BATCH = 32
_N_BOOT = 200  # bootstrap resamples behind each cf_check SE
_KS_PROJECTIONS, _KS_ALPHA = 6, 0.01  # stationarity_cross_check: random projections past the axes, and their level


@dataclass(frozen=True)
class LePageConfig:
    driver: object
    mode: str  # "sum" | "max"
    n_terms: int
    paths: int
    seed: int
    driver_bound: float | None = None  # max mode: a true upper bound on every mark coordinate (early exit)

    def __post_init__(self):
        if self.mode not in ("sum", "max"):
            raise ValueError("mode must be 'sum' or 'max'")
        if self.n_terms < 1:
            raise ValueError("n_terms must be >= 1")
        if self.paths < 1:
            raise ValueError("paths must be >= 1")
        if self.driver_bound is not None:
            # a bound of 0 or below would stop every path after one block, NaN would never stop one
            if self.mode != "max":
                raise ValueError("a mark bound (driver_bound) applies to max mode only")
            if not (math.isfinite(self.driver_bound) and self.driver_bound > 0):
                raise ValueError(f"the mark bound must be finite and > 0, got {self.driver_bound!r}")


@dataclass(frozen=True)
class LePageResult:
    values: np.ndarray      # (paths, d)
    tail_start: np.ndarray  # (paths,) 1/Gamma at the last consumed term
    terms_used: np.ndarray  # (paths,)


def _sum_path(driver, n_terms: int, rng) -> tuple[np.ndarray, float, int]:
    exps = rng.standard_exponential(n_terms)
    gamma = np.cumsum(exps)
    marks = driver.sample(n_terms, rng)
    value = (1.0 / gamma) @ marks
    return value, 1.0 / gamma[-1], n_terms


def _max_paths(driver, n_terms: int, streams, bound: float | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max-mode values, tail starts and terms used of the paths drawn from ``streams``.

    Every path draws full ``_BLOCK``-term blocks from its own stream, so the
    stream layout is the same at every truncation depth.  The arithmetic of
    one block runs at once over ``_BATCH`` paths; a path leaves its batch at
    the depth or, under a declared ``bound``, as soon as no later term can
    raise any coordinate.  A driver with a standard driver (``driver_kind``)
    draws each path's block into a batch buffer, by the calls of
    ``draw_driver``, and maps the whole batch with one ``sample_with_driver``;
    any other law samples path by path.  The marks are then held
    term-innermost, ``(paths, d, _BLOCK)``, so the division by Gamma and the
    running maximum run along contiguous terms.  The scratch arrays hold one
    batch, whatever the number of paths.
    """
    n, d, kind = len(streams), driver.dim, driver.driver_kind
    values = np.empty((n, d))
    tail = np.empty(n)
    used = np.empty(n, dtype=int)
    exps = np.empty((_BATCH, _BLOCK))
    if kind is not None:
        draws = np.empty((_BATCH, _BLOCK) if kind == "uniform" else (_BATCH, _BLOCK, d))
    marks = np.empty((_BATCH, d, _BLOCK))  # term-innermost: Gamma divides and the max runs along terms
    for start in range(0, n, _BATCH):
        rows = np.arange(start, min(start + _BATCH, n))  # paths still drawing, as output rows
        value = np.full((rows.size, d), -np.inf)
        total = np.zeros(rows.size)
        drawn = 0
        while rows.size:
            take = min(_BLOCK, n_terms - drawn)
            k = rows.size
            for j, r in enumerate(rows.tolist()):
                streams[r].standard_exponential(_BLOCK, out=exps[j])
                if kind is None:
                    marks[j] = driver.sample(_BLOCK, streams[r]).T
                else:
                    draw_driver(kind, _BLOCK, d, streams[r], out=draws[j])
            if kind is not None:
                marks[:k] = driver.sample_with_driver(draws[:k]).transpose(0, 2, 1)  # one mapping per batch
            e, m = exps[:k], marks[:k, :, :take]
            gamma = np.cumsum(e[:, :take], axis=1)
            gamma += total[:, None]
            total += e.sum(axis=1)
            np.divide(m, gamma[:, None, :], out=m)
            np.maximum(value, m.max(axis=2), out=value)
            drawn += take
            last = gamma[:, -1]
            stop = np.full(k, drawn == n_terms)
            if bound is not None:
                stop |= bound / last < value.min(axis=1)
            done = rows[stop]
            values[done], tail[done], used[done] = value[stop], 1.0 / last[stop], drawn
            rows, value, total = rows[~stop], value[~stop], total[~stop]
    return values, tail, used


def simulate_lepage(cfg: LePageConfig, workers: int = 1) -> LePageResult:
    """Simulate all paths of the configured series.

    Returns the path values together with the tail-start magnitude
    1/Gamma_last per path, a direct diagnostic for how much of the series the
    truncation discarded.  Sum mode spreads its paths over ``workers``
    threads; max mode runs on the calling thread whatever ``workers`` is.
    """
    check_rng = np.random.default_rng((cfg.seed, 0x5EED))
    if cfg.mode == "sum":
        require_symmetric(cfg.driver, 4096, check_rng, "sum mode")
    else:
        require_positive(cfg.driver, 4096, check_rng, "max mode")

    streams = spawn_rngs(cfg.seed, cfg.paths)
    if cfg.mode == "max":
        # on the calling thread: the per-path draws of a block hold the
        # interpreter lock, so a second worker only adds switching
        return LePageResult(*_max_paths(cfg.driver, cfg.n_terms, streams, cfg.driver_bound))

    values = np.empty((cfg.paths, cfg.driver.dim))
    tail = np.empty(cfg.paths)
    used = np.empty(cfg.paths, dtype=int)

    def run(block) -> None:
        for i in block:
            values[i], tail[i], used[i] = _sum_path(cfg.driver, cfg.n_terms, streams[i])

    run_chunked(run, cfg.paths, workers)
    return LePageResult(values, tail, used)


# ---------------------------------------------------------------------------
# characteristic-function identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CFReport:
    us: np.ndarray
    empirical: np.ndarray   # complex
    predicted: np.ndarray   # real, exp(-pi/2 * h(u))
    discrepancy: np.ndarray
    bootstrap_se: np.ndarray
    sup_discrepancy: float
    extras: dict = field(default_factory=dict)


def cf_check(cfg: LePageConfig, u_grid, budget: int = DEFAULT_BUDGET, workers: int = 1) -> CFReport:
    """Empirical CF of the simulated 1-stable sum against exp(-pi/2 E|<u, xi>|)."""
    if cfg.mode != "sum":
        raise ValueError("the CF identity applies to sum mode")
    us = np.atleast_2d(np.asarray(u_grid, dtype=float))
    if us.shape[1] != cfg.driver.dim:
        raise ValueError("u grid dimension does not match the driver")
    result = simulate_lepage(cfg, workers)
    x = result.values
    proj = x @ us.T  # (paths, m)
    phases = np.exp(1j * proj)
    empirical = phases.mean(axis=0)

    support_seed = np.random.default_rng((cfg.seed, 0xCF))
    predicted = np.array([math.exp(-0.5 * math.pi * est.value)
                          for est in support_at(cfg.driver, us, "centred", budget, support_seed)])
    disc = np.abs(empirical - predicted)

    boot_rng = np.random.default_rng((cfg.seed, 0xB007))
    n = phases.shape[0]
    boots = np.empty((_N_BOOT, us.shape[0]))
    for b in range(_N_BOOT):
        idx = boot_rng.integers(0, n, n)
        boots[b] = np.abs(phases[idx].mean(axis=0) - predicted)
    se = boots.std(axis=0, ddof=1)
    return CFReport(us, empirical, predicted, disc, se, float(disc.max()),
                    {"paths": cfg.paths, "n_terms": cfg.n_terms, "tail_start_mean": float(result.tail_start.mean())})


# ---------------------------------------------------------------------------
# stationarity cross-check
# ---------------------------------------------------------------------------

def _ks_2samp(x, y) -> tuple[float, float]:
    """Two-sided two-sample KS statistic D and its exact p-value, for two samples of one size n.

    D = h / n, where h is the largest gap between the two empirical counts at
    the pooled values.  The p-value P(D_{n,n} >= D) is Hodges' lattice-path sum
    (Ark. Mat. 1958) in Horner form, P = 2 A_0 (1 - A_1 (1 - A_2 (1 - ...))),
    taken in the operation order of the reference ``ks_2samp`` in its exact
    mode, so that the two agree bit for bit; a sum that rounds above 1 is
    clipped to 1.
    """
    x, y = np.sort(x), np.sort(y)
    n = len(x)
    if len(y) != n:
        raise ValueError(f"KS samples must have equal sizes, got {n} and {len(y)}")
    pooled = np.concatenate([x, y])
    h = int(np.abs(np.searchsorted(x, pooled, side="right") - np.searchsorted(y, pooled, side="right")).max())
    if h == 0:
        return 0.0, 1.0
    p = 0.0
    for k in range(n // h, -1, -1):
        a_k = 1.0  # binom(2n, n - (k+1) h) / binom(2n, n - k h), one factor per step
        for j in range(h):
            a_k = (n - k * h - j) * a_k / (n + k * h + j + 1)
        p = a_k * (1.0 - p)
    return h / n, min(2 * p, 1.0)  # every nested factor is in [0, 1], so 2 p >= 0; it can round above 1


@dataclass(frozen=True)
class StationarityCrossCheck:
    zonoid_pass: bool
    simulation_pass: bool
    per_shift_zonoid: tuple
    per_shift_min_p: tuple
    alpha: float

    @property
    def consistent(self) -> bool:
        return self.zonoid_pass == self.simulation_pass


def stationarity_cross_check(
    process,
    times,
    shifts,
    *,
    mode: str = "max",
    n_terms: int = 200,
    paths: int = 4000,
    grid: DirectionGrid | None = None,
    budget: int = DEFAULT_BUDGET,
    tau: float = 3.0,
    seed: int = 0,
    workers: int = 1,
) -> StationarityCrossCheck:
    """Two routes to the same stationarity question, which must agree.

    Route one tests zonoid stationarity of the driving process.  Route two
    simulates the induced stable (sum) or max-stable (max) vectors before and
    after the shift and compares their empirical distributions with
    two-sample KS tests on random projections (Bonferroni across projections).
    The KS p-values are exact at every path count.  Up to 10,000 paths they
    equal the reference ``ks_2samp``'s; above, where ``ks_2samp`` switches to
    its asymptotic formula by default, they stay exact and may differ from it
    in the third digit.
    """
    times = [float(t) for t in times]
    shifts = [float(s) for s in shifts]
    zonoid_verdicts = []
    min_ps = []
    rng = as_rng(seed)
    for k, s in enumerate(shifts):
        rep = test_zonoid_stationarity(process, times, s, grid, budget, tau, rng)
        zonoid_verdicts.append(rep.verdict)

        law_a = process.law_at(times)
        law_b = process.law_at([t + s for t in times])
        sim_a = simulate_lepage(LePageConfig(law_a, mode, n_terms, paths, seed * 1000 + 2 * k), workers)
        sim_b = simulate_lepage(LePageConfig(law_b, mode, n_terms, paths, seed * 1000 + 2 * k + 1), workers)
        d = law_a.dim
        dirs = as_rng((seed, k)).standard_normal((_KS_PROJECTIONS, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        dirs = np.vstack([np.eye(d), dirs])
        pvals = [_ks_2samp(sim_a.values @ v, sim_b.values @ v)[1] for v in dirs]
        min_ps.append(float(min(pvals)))
    zonoid_pass = all(zonoid_verdicts)
    sim_pass = all(p >= _KS_ALPHA / (_KS_PROJECTIONS + len(times)) for p in min_ps)
    return StationarityCrossCheck(zonoid_pass, sim_pass, tuple(zonoid_verdicts), tuple(min_ps), _KS_ALPHA)
