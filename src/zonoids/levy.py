"""Analytic equivalence criteria for exponentiated infinitely divisible laws.

A triplet (A, nu, b) with a finite discrete jump measure nu pins down an
infinitely divisible log-vector.  Equality of the zonoids of the exponentials
reduces to three checkable conditions: equal variograms, equal exponentially
tilted pushforwards of nu under the difference map, and equal componentwise
exponential moments.  This module implements those checks plus the related
closed-form criteria (lognormal, elliptical, characteristic function,
location-scale recovery, and the drift condition that makes exp(xi_t)
zonoid stationary).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundedSupportError, SchemaError
from .invariance import _decide
from .laws import (
    LognormalLaw,
    SamplerLaw,
    ScalarBase,
    _check_fields,
    measures_close,
    merge_atoms,
    symmetrized_psd_factor,
)
from .rng import as_rng

PSD_TOL = 1e-10
ATOM_MERGE_TOL = 1e-9
_EXP_ARG_MAX = 700.0  # exp overflows past this in float64


@dataclass(frozen=True, eq=False)
class LevyTriplet:
    """(A, nu, b): Gaussian part, finite discrete jump measure, drift."""

    A: np.ndarray
    nu_atoms: np.ndarray
    nu_masses: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float).ravel()
        d = b.shape[0]
        if A.shape != (d, d):
            raise ValueError(f"A must be ({d}, {d}), got {A.shape}")
        if np.abs(A - A.T).max() > PSD_TOL:
            raise ValueError("A must be symmetric within 1e-10")
        A = 0.5 * (A + A.T)
        if np.linalg.eigvalsh(A).min() < -PSD_TOL:
            raise ValueError("A must be positive semidefinite within 1e-10")
        atoms = np.asarray(self.nu_atoms, dtype=float)
        if atoms.size == 0:
            atoms = np.zeros((0, d))
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        if atoms.shape[1] != d:
            raise ValueError(f"jump atoms must have dimension {d}")
        masses = np.asarray(self.nu_masses, dtype=float).ravel()
        if masses.shape[0] != atoms.shape[0]:
            raise ValueError("one mass per jump atom required")
        if atoms.shape[0] and np.linalg.norm(atoms, axis=1).min() <= 1e-12:
            raise ValueError("jump measure must not charge the origin")
        if masses.size and masses.min() <= 0.0:
            raise ValueError("jump masses must be > 0")
        for name, val in (("A", A), ("nu_atoms", atoms), ("nu_masses", masses), ("b", b)):
            val = val.copy()
            val.flags.writeable = False
            object.__setattr__(self, name, val)

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, LevyTriplet)
            and np.array_equal(self.A, other.A)
            and np.array_equal(self.nu_atoms, other.nu_atoms)
            and np.array_equal(self.nu_masses, other.nu_masses)
            and np.array_equal(self.b, other.b)
        )


def triplet_from_json(doc: dict) -> LevyTriplet:
    _check_fields(doc, {"A", "nu", "b"}, "levy triplet")
    nu = doc["nu"]
    if not isinstance(nu, list):
        raise SchemaError("levy triplet: 'nu' must be a list of {x, mass} objects")
    atoms, masses = [], []
    for entry in nu:
        _check_fields(entry, {"x", "mass"}, "levy atom")
        atoms.append(entry["x"])
        masses.append(entry["mass"])
    d = len(doc["b"])
    atoms_arr = np.asarray(atoms, dtype=float) if atoms else np.zeros((0, d))
    return LevyTriplet(np.asarray(doc["A"], dtype=float), atoms_arr,
                       np.asarray(masses, dtype=float), np.asarray(doc["b"], dtype=float))


def triplet_to_json(t: LevyTriplet) -> dict:
    return {
        "schema": 1,
        "A": t.A.tolist(),
        "nu": [{"x": x.tolist(), "mass": float(m)} for x, m in zip(t.nu_atoms, t.nu_masses)],
        "b": t.b.tolist(),
    }


def lognormal_to_triplet(law: LognormalLaw) -> LevyTriplet:
    """Pure-Gaussian triplet of the log-vector: (A, empty, mu)."""
    g = law.gaussian
    return LevyTriplet(g.cov, np.zeros((0, g.dim)), np.zeros(0), g.mean_vec)


# ---------------------------------------------------------------------------
# the three conditions
# ---------------------------------------------------------------------------

def variogram(A) -> np.ndarray:
    """gamma_ij = a_ii + a_jj - 2 a_ij; zero diagonal, symmetric."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if np.abs(A - A.T).max() > PSD_TOL:
        raise ValueError("A must be symmetric within 1e-10")
    diag = np.diag(A)
    return diag[:, None] + diag[None, :] - 2.0 * A


def u_matrix(d: int) -> np.ndarray:
    """(d-1) x d difference map with rows e_i - e_d; kernel = constants."""
    if d < 2:
        raise ValueError("u_matrix needs d >= 2")
    u = np.zeros((d - 1, d))
    u[:, :-1] = np.eye(d - 1)
    u[:, -1] = -1.0
    return u


def tilted_pushforward(nu_atoms, nu_masses, *, merge_tol: float = ATOM_MERGE_TOL):
    """Image of e^{x_d} d nu(x) under the difference map, away from the origin.

    Each atom x with mass m maps to U x with mass m e^{x_d}; atoms with all
    equal components land at the origin of R^{d-1} and are dropped; coincident
    images merge by mass addition.
    """
    atoms = np.asarray(nu_atoms, dtype=float)
    masses = np.asarray(nu_masses, dtype=float).ravel()
    if atoms.ndim == 1:
        atoms = atoms[:, None]
    d = atoms.shape[1]
    if d < 2:
        raise ValueError("tilted pushforward needs d >= 2")
    if atoms.shape[0] == 0:
        return np.zeros((0, d - 1)), np.zeros(0)
    images = atoms[:, :-1] - atoms[:, -1:]
    tilted = masses * np.exp(atoms[:, -1])
    keep = np.abs(images).max(axis=1) > 1e-12 if images.size else np.zeros(0, bool)
    return merge_atoms(images[keep], tilted[keep], merge_tol)


def expectation_condition(t: LevyTriplet, i: int) -> float:
    """log E e^{xi_i}: b_i + a_ii/2 + sum of compensated exponential jump terms.

    The small-jump compensation x_i 1{||x|| <= 1} follows the usual truncation
    at the unit ball; the drift b is relative to that convention.
    """
    if not 0 <= i < t.dim:
        raise ValueError(f"component {i} out of range")
    total = float(t.b[i]) + 0.5 * float(t.A[i, i])
    if t.nu_atoms.shape[0]:
        x_i = t.nu_atoms[:, i]
        if x_i.max() > _EXP_ARG_MAX:
            raise ValueError(
                f"jump atom with x_i = {x_i.max():g} overflows exp; condition not evaluable"
            )
        inside = np.linalg.norm(t.nu_atoms, axis=1) <= 1.0
        total += float(t.nu_masses @ (np.exp(x_i) - 1.0 - x_i * inside))
    return total


@dataclass(frozen=True)
class LogIdEquivReport:
    verdict: bool
    variogram_ok: bool | None
    pushforward_ok: bool | None
    expectation_ok: bool
    max_variogram_dev: float
    max_expectation_dev: float


def check_log_id_equiv(t1: LevyTriplet, t2: LevyTriplet, tol: float = 1e-9) -> LogIdEquivReport:
    """Zonoid equality of exp(xi) and exp(xi*) read off the triplets.

    d >= 2 needs all three conditions; on the line only the exponential
    moments matter.
    """
    if t1.dim != t2.dim:
        raise ValueError("dimension mismatch")
    d = t1.dim
    _, exp_dev, _, _, expectation_ok = _decide([expectation_condition(t1, i) for i in range(d)],
                                                [expectation_condition(t2, i) for i in range(d)], threshold=tol)
    if d == 1:
        return LogIdEquivReport(expectation_ok, None, None, expectation_ok, 0.0, exp_dev)
    _, gdev, _, _, variogram_ok = _decide(variogram(t1.A), variogram(t2.A), threshold=tol)
    push_ok = measures_close(
        *tilted_pushforward(t1.nu_atoms, t1.nu_masses),
        *tilted_pushforward(t2.nu_atoms, t2.nu_masses),
        mass_tol=tol,
    )
    verdict = bool(variogram_ok and push_ok and expectation_ok)
    return LogIdEquivReport(verdict, variogram_ok, push_ok, expectation_ok, gdev, exp_dev)


@dataclass(frozen=True)
class LognormalEquivReport:
    verdict: bool
    log_mean_ok: bool
    variogram_ok: bool
    max_log_mean_dev: float
    max_variogram_dev: float


def check_lognormal_equiv(l1: LognormalLaw, l2: LognormalLaw, tol: float = 1e-9) -> LognormalEquivReport:
    """Zonoid equality of two lognormal vectors.

    Holds exactly when mu_i + a_ii/2 agree componentwise and the variograms
    coincide; agrees with the triplet check on pure-Gaussian triplets.
    """
    g1, g2 = l1.gaussian, l2.gaussian
    if g1.dim != g2.dim:
        raise ValueError("dimension mismatch")
    _, mdev, _, _, mean_ok = _decide(g1.mean_vec + 0.5 * np.diag(g1.cov), g2.mean_vec + 0.5 * np.diag(g2.cov),
                                     threshold=tol)
    _, gdev, _, _, variogram_ok = _decide(variogram(g1.cov), variogram(g2.cov), threshold=tol)
    return LognormalEquivReport(mean_ok and variogram_ok, mean_ok, variogram_ok, mdev, gdev)


# ---------------------------------------------------------------------------
# characteristic-function criterion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CFCriterionReport:
    us: np.ndarray
    w: np.ndarray
    values_a: np.ndarray
    values_b: np.ndarray
    max_abs_diff: float
    verdict: bool


def cf_criterion(law_a, law_b, u=None, w=None, tol: float = 1e-10,
                 n_dirs: int = 32, seed=0) -> CFCriterionReport:
    """Compare phi(u - i w) over zero-sum u at a fixed unit-sum tilt w.

    Equality for all such u (at one admissible w, equivalently all) is the
    same as zonoid equality of the exponentials.  With no explicit u a seeded
    sample of zero-sum directions is scanned; w defaults to the barycentric
    tilt (1/d, ..., 1/d).
    """
    d = law_a.dim
    if law_b.dim != d:
        raise ValueError("dimension mismatch")
    if w is None:
        w = np.full(d, 1.0 / d)
    w = np.asarray(w, dtype=float).ravel()
    if abs(w.sum() - 1.0) > 1e-12:
        raise ValueError("w must sum to 1 within 1e-12")
    if u is None:
        rng = as_rng(seed)
        us = rng.standard_normal((n_dirs, d))
        us -= us.mean(axis=1, keepdims=True)
        us = np.vstack([np.zeros(d), us])
    else:
        us = np.atleast_2d(np.asarray(u, dtype=float))
    if us.shape[1] != d or np.abs(us.sum(axis=1)).max() > 1e-12:
        raise ValueError("every u must lie in the zero-sum hyperplane within 1e-12")
    va = np.array([law_a.cf(uu - 1j * w) for uu in us])
    vb = np.array([law_b.cf(uu - 1j * w) for uu in us])
    scale = max(1.0, float(np.abs(va).max()), float(np.abs(vb).max()))
    _, diff, _, _, verdict = _decide(va, vb, threshold=tol * scale)
    return CFCriterionReport(us, w, va, vb, diff, verdict)


# ---------------------------------------------------------------------------
# elliptical laws and location-scale recovery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EllipticalEquivReport:
    verdict: bool
    max_dev: float
    shape_a: np.ndarray
    shape_b: np.ndarray


def check_elliptical_equiv(e1, e2, tol: float = 1e-9) -> EllipticalEquivReport:
    """Zonoid equality of centred elliptical laws: (E R)^2 A A^T must match."""
    if e1.dim != e2.dim:
        raise ValueError("dimension mismatch")
    s1 = (e1.radial_mean ** 2) * (e1.matrix @ e1.matrix.T)
    s2 = (e2.radial_mean ** 2) * (e2.matrix @ e2.matrix.T)
    _, dev, _, _, verdict = _decide(s1, s2, threshold=tol)
    return EllipticalEquivReport(verdict, dev, s1, s2)


@dataclass(frozen=True)
class LocScaleRecovery:
    location: float
    scale: float
    bracket_width: float
    samples: int


def recover_location_scale(base: ScalarBase, zonoid_mean: float, zonoid_pos_mean: float,
                           *, budget: int = 10 ** 6, seed=0, rel_tol: float = 1e-6) -> LocScaleRecovery:
    """Recover (mu, sigma) of mu + sigma X from E xi and E(xi)_+.

    The location is E xi directly (the base is centred).  The scale solves
    E(mu + sigma X)_+ = target by bisection against one frozen sample of X,
    along which the empirical objective is exactly nondecreasing in sigma.
    The frozen sample is recentred to mean zero, enforcing the declared
    E X = 0 on the empirical measure.

    Refuses bases with a finite essential bound: there the positive-part
    expectation is flat in sigma over a whole range and recovery is hopeless.
    """
    if base.support.bounded:
        raise BoundedSupportError(
            "base law declares a finite essential bound; the zonoid does not determine the scale"
        )
    mu = float(zonoid_mean)
    target = float(zonoid_pos_mean)
    if not target > max(mu, 0.0):
        raise ValueError("E(xi)_+ must exceed max(E xi, 0) for an unbounded base")
    if budget < 2:
        raise ValueError(f"budget must be >= 2, got {budget}")  # a recentred single row is constant
    x = base.sample(int(budget), as_rng(seed))
    x = x - x.mean()

    def objective(sigma: float) -> float:
        return float(np.maximum(mu + sigma * x, 0.0).mean())

    lo, hi = 1e-6, 1.0
    while objective(hi) < target:
        hi *= 2.0
        if hi > 1e12:
            raise ValueError("bisection bracket exploded; targets look inconsistent with the base")
    # the bisection also stops at two adjacent floats, which no midpoint splits, so any rel_tol >= 0 ends it
    while hi - lo > rel_tol * hi and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if objective(mid) < target:
            lo = mid
        else:
            hi = mid
    return LocScaleRecovery(mu, 0.5 * (lo + hi), hi - lo, int(budget))


# ---------------------------------------------------------------------------
# drift condition for stationary exponentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BrownResnickReport:
    verdict: bool
    constant: float
    max_deviation: float
    lag_ok: bool


def brown_resnick_condition(times, mu, sigma2, *, cov=None, increments_stationary: bool | None = None,
                            tol: float = 1e-9) -> BrownResnickReport:
    """Check that mu_t + sigma_t^2 / 2 is constant and increments are stationary.

    Both together make exp(xi_t) zonoid stationary for a Gaussian xi.  The
    increment check needs either a covariance matrix on the grid (the pair
    variogram must depend on the lag only) or an explicit certificate.
    """
    times = np.asarray(times, dtype=float).ravel()
    mu = np.asarray(mu, dtype=float).ravel()
    sigma2 = np.asarray(sigma2, dtype=float).ravel()
    if not (times.shape == mu.shape == sigma2.shape):
        raise ValueError("times, mu and sigma2 must have matching lengths")
    if sigma2.size == 0:
        raise ValueError("variance values are required")
    vals = mu + 0.5 * sigma2
    c = float(vals.mean())
    _, dev, _, _, constant = _decide(vals, c, threshold=tol)

    if cov is not None:
        cov = np.asarray(cov, dtype=float)
        gamma = variogram(cov)
        lags: dict[float, float] = {}
        lag_ok = True
        for i in range(len(times)):
            for j in range(i + 1, len(times)):
                lag = round(abs(times[i] - times[j]), 12)
                g = gamma[i, j]
                if lag in lags and abs(lags[lag] - g) > tol:
                    lag_ok = False
                lags.setdefault(lag, g)
    elif increments_stationary is not None:
        lag_ok = bool(increments_stationary)
    else:
        raise ValueError("provide a covariance matrix or an increments-stationarity certificate")
    return BrownResnickReport(constant and lag_ok, c, dev, lag_ok)


# ---------------------------------------------------------------------------
# sampling exponentials of finite triplets (Gaussian + compound Poisson)
# ---------------------------------------------------------------------------

def log_id_sampler_law(t: LevyTriplet) -> SamplerLaw:
    """Exact sampler for eta = exp(xi) when xi has a finite jump measure.

    xi splits into a Gaussian part and a compound Poisson sum of the jump
    atoms, with the drift shifted by the small-jump compensators.  This covers
    the finite-activity case only; infinite jump measures are out of scope.
    """
    d = t.dim
    factor = symmetrized_psd_factor(t.A)
    shift = t.b.copy()
    total_mass = float(t.nu_masses.sum()) if t.nu_masses.size else 0.0
    if t.nu_atoms.shape[0]:
        inside = np.linalg.norm(t.nu_atoms, axis=1) <= 1.0
        if inside.any():
            shift = shift - t.nu_masses[inside] @ t.nu_atoms[inside]
        probs = t.nu_masses / total_mass
    else:
        probs = None

    def sampler(rng, n):
        xi = shift + rng.standard_normal((n, d)) @ factor.T
        if total_mass > 0.0:
            counts = rng.poisson(total_mass, n)
            top = int(counts.max())
            for _ in range(top):
                active = counts > 0
                idx = rng.choice(len(probs), size=int(active.sum()), p=probs)
                xi[active] += t.nu_atoms[idx]
                counts = counts - active
        return np.exp(xi)

    return SamplerLaw(d, sampler, name="exp-levy", positive=True)
