"""Equivalence and invariance testers built on support-function comparison.

Each side of a comparison is an exact law or a source of sample rows, and one
evaluator, ``zonoid.side_moments``, reduces every side.  When every side is
exact the verdict is exact (pass means max |delta| <= 1e-10).  Otherwise it is
statistical: pass means the largest per-direction discrepancy, standardized by
its Monte Carlo standard error, stays below a threshold tau.  Laws from the
same driver family are drawn from one source under common random numbers,
which cancels most of the shared noise in the differences; a report's ``crn``
is true exactly when both sides were read from one source.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .errors import InternalConsistencyError
from .laws import DiscreteLaw, measures_close, merge_atoms, permute_law, require_positive
from .rng import as_rng, spawn_rngs
from .zonoid import (DEFAULT_BUDGET, EXACT_TOL, DirectionGrid, functional_moments, is_exact_law, law_rows,
                     matrix_rows, side_moments)

# A statistical score divides each delta by max(pooled SE, SE_FLOOR * max(|h_a|, |h_b|)).
# The floor is far above the roundoff of a blocked mean and far below the SE
# that any budget up to 1e8 produces, so it only stops a roundoff delta over a
# roundoff SE from reading as a discrepancy.
SE_FLOOR = 1e-13
# Scores within this relative distance of the maximum tie for the reported worst index.
_TIE_RTOL = 1e-12

__all__ = [
    "EquivalenceReport",
    "test_zonoid_equiv",
    "test_max_zonoid_equiv",
    "test_swap_invariance",
    "test_lift_swap_invariance",
    "check_positivity_necessity",
    "measure_change",
    "test_relations_theorem",
    "test_zonoid_stationarity",
    "test_even_homogeneous",
    "discrete_equal_in_distribution",
    "is_exchangeable_discrete",
]


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """Per-direction support comparison with a pass/fail verdict."""

    grid: DirectionGrid
    h_a: np.ndarray
    h_b: np.ndarray
    delta: np.ndarray
    pooled_se: np.ndarray
    max_standardized: float
    worst_index: int
    verdict: bool
    mode: str  # "exact" | "statistical"
    tau: float
    crn: bool = False
    extras: dict = field(default_factory=dict)

    @property
    def max_abs_delta(self) -> float:
        return float(np.abs(self.delta).max())

    @property
    def worst_direction(self) -> np.ndarray:
        return self.grid.directions[self.worst_index]

    def rows(self):
        """Per-direction tuples (u..., h_a, h_b, delta, pooled_se)."""
        for u, a, b, d, s in zip(self.grid.directions, self.h_a, self.h_b, self.delta, self.pooled_se):
            yield (*u.tolist(), float(a), float(b), float(d), float(s))


def _log_upper_tail(z: float) -> tuple[float, float]:
    """log Q(z) for the standard normal upper tail Q, and its slope, from the Mills-ratio series to z^-8 (z > 37)."""
    r = z ** -2
    series = 1.0 - r * (1.0 - 3.0 * r * (1.0 - 5.0 * r * (1.0 - 7.0 * r)))
    return -0.5 * z * z - math.log(z * math.sqrt(2.0 * math.pi)) + math.log(series), -z / series


def effective_tau(tau: float, m: int, bonferroni: bool) -> float:
    """Per-comparison threshold; Bonferroni spreads the two-sided level of tau over m comparisons."""
    if not bonferroni:
        return tau
    level = math.erfc(tau / math.sqrt(2.0)) / (2.0 * m)
    if level == 0.0:
        raise ValueError(f"tau = {tau!r} is too large to spread over {m} comparisons: its level underflows")
    if level >= sys.float_info.min:
        return -NormalDist().inv_cdf(level)  # from the lower tail: 1 - level rounds to 1 once tau reaches 8
    # a subnormal level has lost digits: solve log Q(z) = log Q(tau) - log m by Newton's method instead
    target, z = _log_upper_tail(tau)[0] - math.log(m), tau
    for _ in range(8):  # a nonzero level keeps z within 1 of tau, where 3 steps reach the last digit
        log_q, slope = _log_upper_tail(z)
        z -= (log_q - target) / slope
    return z


def _decide(a=None, b=None, se=None, *, tau=None, m=None, bonferroni=False, threshold=EXACT_TOL):
    """The one verdict rule: (scores, largest, worst, threshold, verdict) of the comparisons of ``a`` with ``b``.

    A score is |a - b|, held to ``threshold``; with ``tau`` it is |a - b| over ``se`` floored at SE_FLOOR *
    max(|a|, |b|), held to effective_tau(tau, m, bonferroni), m counting the comparisons (default: those given).
    A tau not finite and > 0, or a threshold not finite and >= 0, is refused; without ``a`` the rule returns
    the checked threshold.  The worst index is the first whose score ties the largest within _TIE_RTOL.
    """
    if tau is not None and not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be finite and > 0, got {tau!r}")
    if tau is None and not (math.isfinite(threshold) and threshold >= 0.0):
        raise ValueError(f"threshold must be finite and >= 0, got {threshold!r}")
    limit = threshold if tau is None else effective_tau(tau, m or np.size(a), bonferroni)
    if a is None:
        return limit
    scores = np.atleast_1d(np.abs(np.subtract(a, b)))
    if tau is not None:
        se = np.maximum(se, SE_FLOOR * np.maximum(np.abs(a), np.abs(b)))
        scores = np.divide(scores, se, out=np.zeros_like(scores), where=se > 0)  # se is 0 only where a = b = 0
    top = float(scores.max())
    worst = int(np.argmax(scores >= top * (1.0 - _TIE_RTOL)))
    return scores, top, worst, limit, bool(top <= limit)


def _draw_pair(law_a, law_b, budget: int, rng):
    """Row sources for samples of two laws of one dimension.

    Laws with the same kind of driver (``"normal"`` or ``"uniform"``) share
    one driver, chunk by chunk, as common random numbers: one source holds
    both sides.  Any other pair gets one source per law, drawn independently
    as it is read, a before b.
    """
    kind = law_a.driver_kind
    if kind is not None and kind == law_b.driver_kind:
        return (law_rows(budget, rng, law_a, law_b),)
    return law_rows(budget, rng, law_a), law_rows(budget, rng, law_b)


def _compare(reduce, k: int, sides):
    """h_a, h_b, the SE of h_a - h_b over k columns, and the mode: exact when no side read rows (n = 0).

    ``reduce(side, pairs=None)`` is a kernel front end.  ``sides`` is one
    source of both sides' coupled rows, reduced in one call, whose pairs get
    the SE of the row-wise difference; or the two sides a and b, each reduced
    alone, a first, and the two SEs add in quadrature.
    """
    if len(sides) == 1:
        mom = reduce(sides[0], pairs=(np.arange(k), np.arange(k, 2 * k)))
        return mom.mean[:k], mom.mean[k:], mom.paired_se, "statistical"
    mom_a, mom_b = reduce(sides[0]), reduce(sides[1])
    mode = "exact" if mom_a.n == mom_b.n == 0 else "statistical"
    return mom_a.mean, mom_b.mean, np.hypot(mom_a.se, mom_b.se), mode


def _build_report(grid, h_a, h_b, pooled, mode, tau, crn, bonferroni, perms=None) -> EquivalenceReport:
    """Report over the grid; ``h_b`` may hold one block per permutation in ``perms``: the worst one's is kept."""
    m = len(grid)
    h_a = np.tile(h_a, len(h_b) // m)
    _, max_std, worst, _, verdict = _decide(h_a, h_b, pooled, tau=tau if mode == "statistical" else None,
                                            bonferroni=bonferroni)
    if mode == "exact":
        max_std = 0.0 if verdict else math.inf  # an exact delta has SE 0
    block, worst = divmod(worst, m)
    at = slice(block * m, (block + 1) * m)
    extras = {} if perms is None else {"worst_permutation": perms[block], "n_permutations": len(perms)}
    return EquivalenceReport(grid, h_a[at], h_b[at], h_a[at] - h_b[at], pooled[at], max_std, worst, verdict,
                             mode, tau, crn, extras)


def test_zonoid_equiv(
    law_a,
    law_b,
    grid: DirectionGrid | None = None,
    budget: int = DEFAULT_BUDGET,
    tau: float = 3.0,
    seed=None,
    *,
    kind: str = "centred",
    bonferroni: bool = False,
    samples_a: np.ndarray | None = None,
    samples_b: np.ndarray | None = None,
    samples_coupled: bool = False,
) -> EquivalenceReport:
    """Compare support functions of two laws over a direction grid.

    ``samples_a``/``samples_b`` let a caller inject pre-drawn sample matrices;
    ``samples_coupled`` marks two of one row count as pathwise-coupled, so the
    difference is standardized as a paired sample.  A single injected matrix,
    or two with different row counts, is reduced unpaired and reported as
    unpaired (``crn`` false).  Other sides are an exact law, in closed form, or
    drawn as the kernel reads them (``law_rows``, ``_draw_pair``).
    """
    if law_a.dim != law_b.dim:
        raise ValueError(f"dimension mismatch: {law_a.dim} vs {law_b.dim}")
    if grid is None:
        grid = DirectionGrid.default(law_a.dim)
    if grid.dim != law_a.dim:
        raise ValueError(f"grid dimension {grid.dim} does not match laws of dimension {law_a.dim}")
    if kind not in ("centred", "max"):
        raise ValueError(f"unknown kind {kind!r}")
    _decide(tau=tau, m=len(grid), bonferroni=bonferroni)  # before a row is drawn
    rng = as_rng(seed)
    given = [x for x in (samples_a, samples_b) if x is not None]
    if samples_coupled and len(given) == 2 and samples_a.shape[0] == samples_b.shape[0]:
        sides = (matrix_rows(samples_a, samples_b),)
    elif not given and not is_exact_law(law_a) and not is_exact_law(law_b):
        sides = _draw_pair(law_a, law_b, budget, rng)
    else:  # an exact side is its law; a sampled one is drawn as it is read, a before b
        sides = tuple(matrix_rows(x) if x is not None else law if is_exact_law(law) else law_rows(budget, rng, law)
                      for law, x in ((law_a, samples_a), (law_b, samples_b)))
    h_a, h_b, pooled, mode = _compare(lambda s, pairs=None: side_moments(s, grid.directions, kind, pairs=pairs),
                                      len(grid), sides)
    return _build_report(grid, h_a, h_b, pooled, mode, tau, len(sides) == 1, bonferroni)


def test_max_zonoid_equiv(
    law_a,
    law_b,
    grid: DirectionGrid | None = None,
    budget: int = DEFAULT_BUDGET,
    tau: float = 3.0,
    seed=None,
    *,
    bonferroni: bool = False,
) -> EquivalenceReport:
    """Compare max-zonoids of two positive laws.

    For positive laws this must agree with the centred-zonoid verdict; a
    decisive disagreement is an implementation bug and raises.
    """
    if grid is None:
        grid = DirectionGrid.default(law_a.dim)
    limit = _decide(tau=tau, m=len(grid), bonferroni=bonferroni)  # before a row is drawn
    rng = as_rng(seed)
    for law in (law_a, law_b):
        require_positive(law, min(budget, 4096), rng, "max-zonoid comparison")
    report = test_zonoid_equiv(law_a, law_b, grid, budget, tau, rng, kind="max", bonferroni=bonferroni)
    zono = test_zonoid_equiv(law_a, law_b, grid, budget, tau, rng, kind="centred", bonferroni=bonferroni)
    consistency = "ok"
    if report.verdict != zono.verdict:
        if report.mode == "exact" and zono.mode == "exact":
            raise InternalConsistencyError(
                "max-zonoid and centred-zonoid verdicts disagree on exact laws"
            )
        passing, failing = sorted((report.max_standardized, zono.max_standardized))
        if failing > 2.0 * limit and passing < limit:
            raise InternalConsistencyError(
                "max-zonoid and centred-zonoid verdicts disagree beyond statistical tolerance"
            )
        consistency = "boundary-disagreement"
    report.extras["zonoid_verdict"] = zono.verdict
    report.extras["consistency"] = consistency
    return report


# ---------------------------------------------------------------------------
# permutation invariance
# ---------------------------------------------------------------------------

def _resolve_permutations(d: int, permutations, rng) -> list[tuple[int, ...]]:
    identity = tuple(range(d))
    if permutations == "all":
        if d > 6:
            raise ValueError("'all' permutations supported only for d <= 6; pass a list or a count")
        perms = [p for p in itertools.permutations(range(d)) if p != identity]
    elif isinstance(permutations, int):
        if permutations < 1:
            raise ValueError("permutation count must be >= 1")
        if d <= 8:
            permutations = min(permutations, math.factorial(d) - 1)
        seen = set()
        perms = []
        while len(perms) < permutations:
            p = tuple(rng.permutation(d).tolist())
            if p != identity and p not in seen:
                seen.add(p)
                perms.append(p)
    else:
        perms = []
        for p in permutations:
            p = tuple(int(i) for i in p)
            if sorted(p) != list(range(d)):
                raise ValueError(f"invalid permutation {p}")
            if p != identity:
                perms.append(p)
    if not perms:
        raise ValueError("no non-identity permutations to test")
    return perms


def test_swap_invariance(
    law,
    permutations="all",
    grid: DirectionGrid | None = None,
    budget: int = DEFAULT_BUDGET,
    tau: float = 3.0,
    seed=None,
    *,
    bonferroni: bool = False,
) -> EquivalenceReport:
    """Worst-case zonoid comparison of a law against its coordinate permutations.

    The permuted vector xi o pi projects onto u as xi onto pi^-1 u, so every
    comparison is h(u) against h(pi^-1 u) of one law, and the support is
    evaluated once, on the orbit {pi^-1 u} of the grid: in closed form for an
    exact law, else on one sample, where the kernel projects it once per
    distinct direction and standardizes each pair (u, pi^-1 u) by its paired
    standard error.  Either way a direction that pi fixes, or maps to its
    antipode, gets delta exactly 0.  All directions x permutations are decided
    together, ``bonferroni`` spreading the level over all of them, and the
    report keeps the permutation of the first comparison tied to the worst.
    """
    if law.dim < 2:
        raise ValueError("swap-invariance needs d >= 2")
    rng = as_rng(seed)
    perms = _resolve_permutations(law.dim, permutations, rng)
    if grid is None:
        grid = DirectionGrid.default(law.dim)
    dirs = grid.directions
    m, p = len(grid), len(perms)
    _decide(tau=tau, m=m * p, bonferroni=bonferroni)  # before a row is drawn
    inverses = np.argsort(np.array(perms), axis=1)
    # rows [0, m) are the grid, rows [(i + 1) m, (i + 2) m) its image under pi_i^-1
    orbit = np.concatenate([dirs[None], dirs[:, inverses].transpose(1, 0, 2)]).reshape(-1, law.dim)
    mom = side_moments(law if is_exact_law(law) else law_rows(budget, rng, law), orbit,
                       pairs=(np.tile(np.arange(m), p), np.arange(m, (p + 1) * m)))
    mode = "exact" if mom.n == 0 else "statistical"
    return _build_report(grid, mom.mean[:m], mom.mean[m:], mom.paired_se, mode, tau, mom.n > 0, bonferroni, perms)


def test_lift_swap_invariance(
    law,
    grid: DirectionGrid | None = None,
    budget: int = DEFAULT_BUDGET,
    tau: float = 3.0,
    seed=None,
    *,
    permutations="all",
    bonferroni: bool = False,
) -> EquivalenceReport:
    """Swap-invariance of the lifted vector (1, xi); the grid lives in R^{d+1}."""
    lifted = law.lift()
    if grid is None:
        grid = DirectionGrid.default(lifted.dim)
    return test_swap_invariance(lifted, permutations, grid, budget, tau, seed, bonferroni=bonferroni)


@dataclass(frozen=True)
class PositivityDiagnostic:
    positive_ok: bool
    mean_ok: bool
    component_means: np.ndarray
    mean_ses: np.ndarray
    negative_fraction: float

    @property
    def fired(self) -> bool:
        return not (self.positive_ok and self.mean_ok)


def check_positivity_necessity(law, budget: int = DEFAULT_BUDGET, seed=None) -> PositivityDiagnostic:
    """Check the consequences of a passing lift-swap verdict on a candidate law.

    A law that passes the lift test must have almost surely positive
    components with unit means; a violation here means the earlier verdict was
    a false positive (too loose a tau or too small a budget).
    """
    if isinstance(law, DiscreteLaw):
        live = law.weights > 1e-15
        bad_mass = float(law.weights[live][np.any(law.atoms[live] <= 1e-12, axis=1)].sum())
        means = law.mean()
        return PositivityDiagnostic(
            bad_mass == 0.0,
            bool(np.abs(means - 1.0).max() <= EXACT_TOL),
            means,
            np.zeros_like(means),
            bad_mass,
        )
    samples = law.sample(budget, as_rng(seed))
    neg = float((samples <= 1e-12).any(axis=1).mean())
    means = samples.mean(axis=0)
    ses = samples.std(axis=0, ddof=1) / math.sqrt(samples.shape[0])
    mean_ok = bool(np.all(np.abs(means - 1.0) <= 4.0 * ses))
    return PositivityDiagnostic(neg == 0.0, mean_ok, means, ses, neg)


# ---------------------------------------------------------------------------
# measure change and the ratio-vector equivalences
# ---------------------------------------------------------------------------

def discrete_equal_in_distribution(a: DiscreteLaw, b: DiscreteLaw) -> bool:
    return measures_close(a.atoms, a.weights, b.atoms, b.weights, mass_tol=1e-12)


def is_exchangeable_discrete(law: DiscreteLaw) -> bool:
    """Exact distributional invariance under every coordinate permutation."""
    if law.dim == 1:
        return True
    for perm in itertools.permutations(range(law.dim)):
        if perm == tuple(range(law.dim)):
            continue
        permuted = permute_law(law, perm)
        if not measures_close(law.atoms, law.weights, permuted.atoms, permuted.weights, mass_tol=1e-10):
            return False
    return True


def measure_change(base: DiscreteLaw, pivot: int) -> DiscreteLaw:
    """The ratio vector under the pivot-reweighted measure: reweight by
    eta_pivot / E eta_pivot and map atoms to ratios.

    The pivot coordinate is dropped; coincident ratio atoms merge.  ``pivot``
    is a 0-based index.
    """
    if not isinstance(base, DiscreteLaw):
        raise TypeError("measure_change is defined for discrete laws")
    d = base.dim
    if not 0 <= pivot < d:
        raise ValueError(f"pivot {pivot} out of range for d = {d}")
    if d < 2:
        raise ValueError("measure change needs d >= 2")
    col = base.atoms[:, pivot]
    live = base.weights > 1e-15
    if np.any(col[live] <= 0.0):
        raise ValueError("every atom must have a positive pivot coordinate")
    mean_pivot = float(base.weights @ col)
    new_w = base.weights * col / mean_pivot
    others = [i for i in range(d) if i != pivot]
    ratios = base.atoms[:, others] / col[:, None]
    total = new_w.sum()
    if abs(total - 1.0) > 1e-12:
        raise InternalConsistencyError(f"reweighted mass {total!r} deviates from 1")
    atoms, weights = merge_atoms(ratios, new_w / total)
    return DiscreteLaw(atoms, weights / weights.sum())


@dataclass(frozen=True)
class RelationsReport:
    """Verdicts for the three equivalent swap-invariance characterisations."""

    swap_invariant: bool
    ratio_lift_swap: bool
    ratio_exchangeable: bool | None
    per_pivot_lift: tuple
    per_pivot_exchangeable: tuple

    @property
    def consistent(self) -> bool:
        ok = self.swap_invariant == self.ratio_lift_swap
        if self.ratio_exchangeable is not None:
            ok = ok and self.swap_invariant == self.ratio_exchangeable
        return ok


def test_relations_theorem(base: DiscreteLaw) -> RelationsReport:
    """Exact verdicts for: (a) swap-invariance of the positive vector, (b) lift
    swap-invariance of each ratio vector under its reweighted measure, both
    over the default grid, and, for d >= 3, (c) exchangeability of the ratio
    vectors for at least two pivots.  The three must agree; disagreement
    raises loudly.
    """
    d = base.dim
    if d < 2:
        raise ValueError("relations need d >= 2")
    if not base.is_positive():
        raise ValueError("the base law must be positive")
    verdict_a = test_swap_invariance(base, "all").verdict

    lifts = []
    exch = []
    for j in range(d):
        changed = measure_change(base, j)
        lifts.append(test_lift_swap_invariance(changed).verdict)
        exch.append(is_exchangeable_discrete(changed))
    if len(set(lifts)) > 1:
        raise InternalConsistencyError(
            f"ratio-vector lift verdicts differ across pivots: {lifts}"
        )
    verdict_b = lifts[0]
    verdict_c = (sum(exch) >= 2) if d >= 3 else None
    report = RelationsReport(verdict_a, verdict_b, verdict_c, tuple(lifts), tuple(exch))
    if not report.consistent:
        raise InternalConsistencyError(
            f"swap-invariance characterisations disagree: (a)={verdict_a} (b)={verdict_b} (c)={verdict_c}"
        )
    return report


# ---------------------------------------------------------------------------
# processes and homogeneous functionals
# ---------------------------------------------------------------------------

def test_zonoid_stationarity(
    process,
    times,
    shift: float,
    grid: DirectionGrid | None = None,
    budget: int = DEFAULT_BUDGET,
    tau: float = 3.0,
    seed=None,
    *,
    bonferroni: bool = False,
) -> EquivalenceReport:
    """Zonoid comparison of the joint law at ``times`` and at ``times + shift``."""
    times = [float(t) for t in times]
    law_a = process.law_at(times)
    law_b = process.law_at([t + shift for t in times])
    report = test_zonoid_equiv(law_a, law_b, grid, budget, tau, seed, bonferroni=bonferroni)
    report.extras["times"] = times
    report.extras["shift"] = shift
    return report


def builtin_even_homogeneous_family(d: int, seed=0) -> list[tuple[str, callable]]:
    """Library of even 1-homogeneous test functionals on R^d.

    The 1-, 2- and inf-norms, and symmetrized support functions of two random
    polytopes.
    """
    fns = [("norm-1", lambda x: np.abs(x).sum(axis=1)), ("norm-2", lambda x: np.linalg.norm(x, axis=1)),
           ("norm-inf", lambda x: np.abs(x).max(axis=1))]
    rng = as_rng(seed)
    for i in range(2):
        verts = rng.standard_normal((d + 3, d))
        # h_P(x) + h_P(-x) = max_v <x, v> - min_v <x, v>
        fns.append((f"sym-polytope-{i}", lambda x, v=verts: np.ptp(x @ v.T, axis=1)))
    return fns


def _spot_check_even_homogeneous(name: str, fn, d: int, rng) -> None:
    x = rng.standard_normal((16, d))
    base = fn(x)
    tol = 1e-9 * max(1.0, np.abs(base).max())
    for check, ok in (("nonnegativity", np.all(base >= 0.0)),  # split a signed f into max(f, 0) and max(-f, 0)
                      ("homogeneity", all(np.abs(fn(c * x) - c * base).max() <= tol for c in (0.5, 2.0, 7.0))),
                      ("evenness", np.abs(fn(-x) - base).max() <= tol)):
        if not ok:
            raise ValueError(f"functional {name!r} failed the {check} spot-check")


@dataclass(frozen=True)
class EvenHomogeneousReport:
    names: tuple
    mean_a: np.ndarray
    mean_b: np.ndarray
    delta: np.ndarray
    pooled_se: np.ndarray
    max_standardized: float
    verdict: bool
    tau: float
    crn: bool


def test_even_homogeneous(
    law_a,
    law_b,
    functions=None,
    budget: int = DEFAULT_BUDGET,
    tau: float = 3.0,
    seed=None,
) -> EvenHomogeneousReport:
    """Compare E f(xi) across a family of even 1-homogeneous functionals.

    Zonoid-equivalent laws must agree on every such expectation.  Each f is
    spot-checked for nonnegativity, homogeneity and evenness on rows from a
    child stream (as are the built-in polytopes), so the samples do not depend
    on the functionals.  The guard weighs a column's largest value against its
    sum, hence f >= 0; no power is lost, as f = max(f, 0) - max(-f, 0) with
    both parts even, 1-homogeneous and nonnegative.  The columns share the
    kernel's reduction core and guard (``functional_moments``), the CRN paired
    SE (else the SEs in quadrature) and the SE floor with ``test_zonoid_equiv``.
    """
    if law_a.dim != law_b.dim:
        raise ValueError("dimension mismatch")
    d = law_a.dim
    _decide(tau=tau)  # before a row is drawn
    rng = as_rng(seed)
    checks = spawn_rngs(rng, 1)[0]  # a child stream: the samples do not depend on the functionals
    if functions is None:
        functions = builtin_even_homogeneous_family(d, checks)
    for name, fn in functions:
        _spot_check_even_homogeneous(name, fn, d, checks)

    sides = _draw_pair(law_a, law_b, budget, rng)
    fns = [fn for _, fn in functions]
    mean_a, mean_b, pooled, _ = _compare(lambda s, pairs=None: functional_moments(s, fns, pairs=pairs),
                                         len(fns), sides)
    _, max_std, _, _, verdict = _decide(mean_a, mean_b, pooled, tau=tau)
    return EvenHomogeneousReport(tuple(n for n, _ in functions), mean_a, mean_b, mean_a - mean_b, pooled,
                                 max_std, verdict, tau, len(sides) == 1)


# these testers are library API, not pytest cases; stop pytest from collecting
# them when they are imported into test modules
for _fn in (test_zonoid_equiv, test_max_zonoid_equiv, test_swap_invariance,
            test_lift_swap_invariance, test_relations_theorem,
            test_zonoid_stationarity, test_even_homogeneous):
    _fn.__test__ = False
del _fn
