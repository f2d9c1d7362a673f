"""Random-vector law models: validation, sampling, closed-form moments, JSON I/O.

Every law is an immutable value object with a ``dim`` property and a
``sample(n, rng)`` method returning an ``(n, dim)`` array.  Laws driven by a
standard source (normal or uniform) additionally expose ``driver_kind`` and
``sample_with_driver``, and sample as ``sample_with_driver`` of
``draw_driver``: two laws of the same driver kind can be compared under common
random numbers, and a sample can be drawn in chunks of rows.  Each family
carries its own ``is_positive``, ``is_symmetric``, ``permute``, ``transform``,
``lift`` and ``to_json``; the discrete and Gaussian families also carry their
closed forms, ``support`` and ``cf``.  Sequence models carry ``prefix``,
``oracle`` and ``to_json``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NoOracleError, SchemaError
from .rng import as_rng

WEIGHT_TOL = 1e-12
SYM_TOL = 1e-12
EIG_FLOOR = -1e-10
_ATOM_TOL = 1e-9  # atoms of a discrete measure this close (max norm) are one atom


def _as_array(x, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _freeze(obj, **fields) -> None:
    for k, v in fields.items():
        object.__setattr__(obj, k, v)


def gaussian_abs_moment(m: float, s: float) -> float:
    """E|m + s Z| for standard normal Z (folded-normal mean)."""
    if s == 0.0:
        return abs(m)
    return s * math.sqrt(2.0 / math.pi) * math.exp(-m * m / (2.0 * s * s)) + m * math.erf(
        m / (s * math.sqrt(2.0))
    )


_folded_normal_mean = np.frompyfunc(gaussian_abs_moment, 2, 1)


def draw_driver(kind: str, n: int, dim: int, rng, out=None) -> np.ndarray:
    """n rows of a standard driver: (n, dim) standard normals, or n uniforms on [0, 1).

    Both are drawn element by element in stream order, so n rows drawn in
    consecutive chunks are the n rows drawn at once.  ``out``, of the result's
    shape, receives the draws in place of a new array.
    """
    return rng.standard_normal((n, dim), out=out) if kind == "normal" else rng.random(n, out=out)


def symmetrized_psd_factor(cov: np.ndarray) -> np.ndarray:
    """Factor L with L L^T = cov, clipping eigenvalues in [EIG_FLOOR, 0) to zero.

    Rejects matrices whose smallest eigenvalue is below the floor.
    """
    w, v = np.linalg.eigh(cov)
    if w.min() < EIG_FLOOR:
        raise ValueError(f"covariance is not positive semidefinite (min eigenvalue {w.min():.3e})")
    w = np.clip(w, 0.0, None)
    return v * np.sqrt(w)


# ---------------------------------------------------------------------------
# vector laws
# ---------------------------------------------------------------------------

def _pathwise(law, dim: int, fn, name: str, **declared):
    """Law of fn(xi) for xi ~ ``law``, drawn by applying ``fn`` to base samples."""
    return SamplerLaw(dim, lambda rng, n: fn(law.sample(n, rng)), name=name, **declared)


class _PathwiseDefaults:
    """Family methods of a law without closed forms: positivity and symmetry
    unknown, lift and linear images drawn pathwise, no characteristic function
    and no JSON document.  Families override what they have in closed form."""

    def is_positive(self) -> bool | None:
        """True/False where decidable exactly, else None."""
        return None

    def is_symmetric(self) -> bool | None:
        """Whether -xi ~ xi: True/False where decidable exactly, else None."""
        return None

    def cf(self, z):
        raise TypeError("closed-form characteristic functions cover Gaussian and discrete laws")

    def transform(self, m):
        """Law of M xi for a deterministic matrix M."""
        m = np.asarray(m, dtype=float)
        return _pathwise(self, m.shape[0], lambda x: x @ m.T, "transformed")

    def lift(self):
        """Law of the lifted vector (1, xi) in one more dimension."""
        return _pathwise(self, self.dim + 1, lambda x: np.hstack([np.ones((x.shape[0], 1)), x]), "lifted",
                         positive=self.is_positive())

    def to_json(self) -> dict:
        raise SchemaError(f"law of type {type(self).__name__} is not serializable")


# Counting the cdf values below each uniform costs one array pass per atom past
# the first, with a fixed overhead per pass; a binary search costs more per
# draw.  Measured on a 2-core x86-64 host, the count wins at one atom for any
# draw count, and at m atoms once there are 1024 draws per extra atom, up to
# about 32 atoms.
_COUNT_MAX_ATOMS = 32
_DRAWS_PER_COUNTED_ATOM = 1024


def _cdf_index(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cum, u, side="left")`` for u in [0, 1) and a cdf ending in 1.0.

    Below ``cum[-1]`` the left insertion point is the number of cdf values
    strictly below u, which the count takes directly.
    """
    m = cum.shape[0]
    if m == 1 or (m <= _COUNT_MAX_ATOMS and (m - 1) * _DRAWS_PER_COUNTED_ATOM <= u.size):
        idx = np.zeros(u.shape, dtype=np.intp)
        for c in cum[:-1]:
            idx += u > c
        return idx
    return np.searchsorted(cum, u, side="left")


@dataclass(frozen=True, eq=False)
class DiscreteLaw:
    """Finitely supported law: ``atoms`` is (m, d), ``weights`` sums to one."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        if atoms.ndim != 2 or atoms.shape[0] < 1 or atoms.shape[1] < 1:
            raise ValueError(f"atoms must be a non-empty (m, d) array, got shape {atoms.shape}")
        weights = np.asarray(self.weights, dtype=float).ravel()
        if weights.shape[0] != atoms.shape[0]:
            raise ValueError("one weight per atom required")
        if weights.min() < -1e-15:
            raise ValueError("weights must be non-negative")
        weights = np.clip(weights, 0.0, None)
        total = weights.sum()
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_TOL}, got {total!r}")
        if total == 0.0:
            raise ValueError("weights sum to zero")
        atoms = atoms.copy()
        atoms.flags.writeable = False
        weights = weights.copy()
        weights.flags.writeable = False
        cum = np.cumsum(weights)
        cum[-1] = 1.0  # guard roundoff so u close to 1 stays in range
        cum.flags.writeable = False
        _freeze(self, atoms=atoms, weights=weights, _cum=cum)

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    driver_kind = "uniform"

    def sample(self, n: int, rng) -> np.ndarray:
        return self.sample_with_driver(draw_driver(self.driver_kind, n, self.dim, as_rng(rng)))

    def sample_with_driver(self, u: np.ndarray) -> np.ndarray:
        """Atom i for each uniform u in [0, 1), where i counts the cdf values below u."""
        return self.atoms.take(_cdf_index(self._cum, u), axis=0)

    def mean(self) -> np.ndarray:
        return self.weights @ self.atoms

    def is_positive(self) -> bool:
        live = self.weights > 1e-15
        return bool(np.all(self.atoms[live] > 0.0))

    def is_symmetric(self) -> bool:
        # the atom set is sign-symmetric with equal weights
        return measures_close(self.atoms, self.weights, -self.atoms, self.weights, mass_tol=1e-12)

    def support(self, directions, kind: str = "centred") -> np.ndarray:
        """Closed-form support values, one per direction row: weighted sums over
        the atoms, each bitwise independent of the other rows."""
        from .zonoid import _weighted_means  # at call time: zonoid imports this module

        if kind == "max" and not self.is_positive():
            raise ValueError("max-zonoid support requires a law with positive atoms")
        return _weighted_means(self.atoms, np.asarray(directions, dtype=float), kind, self.weights)

    def cf(self, z) -> complex:
        """Characteristic function at the complex argument z."""
        return complex(self.weights @ np.exp(1j * (self.atoms @ np.asarray(z, dtype=complex))))

    def permute(self, perm):
        return DiscreteLaw(self.atoms[:, perm], self.weights)

    def transform(self, m):
        return DiscreteLaw(self.atoms @ np.asarray(m, dtype=float).T, self.weights)

    def lift(self):
        return DiscreteLaw(np.hstack([np.ones((self.atoms.shape[0], 1)), self.atoms]), self.weights)

    def to_json(self) -> dict:
        return {"schema": 1, "type": "discrete", "atoms": self.atoms.tolist(), "weights": self.weights.tolist()}

    def __eq__(self, other):
        return (
            isinstance(other, DiscreteLaw)
            and np.array_equal(self.atoms, other.atoms)
            and np.array_equal(self.weights, other.weights)
        )


@dataclass(frozen=True, eq=False)
class GaussianLaw:
    """Normal law N(mean, cov); cov symmetric PSD up to small float noise."""

    mean_vec: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _as_array(self.mean_vec, "mean", 1)
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (mean.shape[0], mean.shape[0]):
            raise ValueError(f"cov must be ({mean.shape[0]}, {mean.shape[0]}), got {cov.shape}")
        if np.abs(cov - cov.T).max() > SYM_TOL:
            raise ValueError("cov must be symmetric within 1e-12")
        cov = 0.5 * (cov + cov.T)
        factor = symmetrized_psd_factor(cov)  # fails fast on indefinite input
        factor.flags.writeable = False
        cov = cov.copy()
        cov.flags.writeable = False
        _freeze(self, mean_vec=mean, cov=cov, _factor=factor)

    @property
    def dim(self) -> int:
        return self.mean_vec.shape[0]

    driver_kind = "normal"

    def sample(self, n: int, rng) -> np.ndarray:
        return self.sample_with_driver(draw_driver(self.driver_kind, n, self.dim, as_rng(rng)))

    def sample_with_driver(self, z: np.ndarray) -> np.ndarray:
        return self.mean_vec + z @ self._factor.T

    def mean(self) -> np.ndarray:
        return self.mean_vec

    def is_positive(self) -> bool:
        # positive only when degenerate at a positive point
        return bool(np.all(self.mean_vec > 0)) if np.abs(self.cov).max() == 0.0 else False

    def is_symmetric(self) -> bool:
        return bool(np.abs(self.mean_vec).max() <= 1e-12)

    def support(self, directions, kind: str = "centred") -> np.ndarray:
        """Closed-form support values, one per direction row: folded-normal
        moments; the max kind needs a degenerate (point-mass) law."""
        if kind == "max":
            if np.abs(self.cov).max() != 0.0:
                raise ValueError("max-zonoid support requires a positive law")
            return DiscreteLaw(self.mean_vec[None, :], np.array([1.0])).support(directions, kind)
        if kind not in ("centred", "noncentred"):
            raise ValueError(f"unknown support kind {kind!r}")
        dirs = np.asarray(directions, dtype=float)
        # row-wise sums, not matrix products: each value is independent of the other rows
        m = (dirs * self.mean_vec).sum(axis=1)
        q = sum(dirs[:, j] * (dirs * self.cov[j]).sum(axis=1) for j in range(self.dim))
        h = _folded_normal_mean(m, np.sqrt(np.maximum(q, 0.0))).astype(float)
        return h if kind == "centred" else 0.5 * (h + m)

    def cf(self, z) -> complex:
        """Characteristic function at the complex argument z (analytic extension)."""
        z = np.asarray(z, dtype=complex)
        return complex(np.exp(1j * (self.mean_vec @ z) - 0.5 * (z @ self.cov @ z)))

    def permute(self, perm):
        return GaussianLaw(self.mean_vec[perm], self.cov[np.ix_(perm, perm)])

    def transform(self, m):
        m = np.asarray(m, dtype=float)
        return GaussianLaw(m @ self.mean_vec, m @ self.cov @ m.T)

    def lift(self):
        return self._prepend(1.0)

    def _prepend(self, value: float):
        """Law of (value, xi): a constant coordinate in front."""
        d = self.dim
        cov = np.zeros((d + 1, d + 1))
        cov[1:, 1:] = self.cov
        return GaussianLaw(np.concatenate([[value], self.mean_vec]), cov)

    def to_json(self) -> dict:
        return {"schema": 1, "type": "gaussian", "mean": self.mean_vec.tolist(), "cov": self.cov.tolist()}

    def __eq__(self, other):
        return (
            isinstance(other, GaussianLaw)
            and np.array_equal(self.mean_vec, other.mean_vec)
            and np.array_equal(self.cov, other.cov)
        )


@dataclass(frozen=True, eq=False)
class LognormalLaw(_PathwiseDefaults):
    """Componentwise exponential of a Gaussian vector; strictly positive."""

    gaussian: GaussianLaw

    @property
    def dim(self) -> int:
        return self.gaussian.dim

    driver_kind = "normal"

    def sample(self, n: int, rng) -> np.ndarray:
        return np.exp(self.gaussian.sample(n, rng))

    def sample_with_driver(self, z: np.ndarray) -> np.ndarray:
        return np.exp(self.gaussian.sample_with_driver(z))

    def mean(self) -> np.ndarray:
        g = self.gaussian
        return np.exp(g.mean_vec + 0.5 * np.diag(g.cov))

    def is_positive(self) -> bool:
        return True

    def is_symmetric(self) -> bool:
        return False  # strictly positive

    def permute(self, perm):
        return LognormalLaw(self.gaussian.permute(perm))

    def lift(self):
        # exp of (0, log xi) is (1, xi)
        return LognormalLaw(self.gaussian._prepend(0.0))

    def to_json(self) -> dict:
        return {**self.gaussian.to_json(), "type": "lognormal"}

    def __eq__(self, other):
        return isinstance(other, LognormalLaw) and self.gaussian == other.gaussian


@dataclass(frozen=True, eq=False)
class EllipticalLaw(_PathwiseDefaults):
    """Scale mixture R * (A U) with U uniform on the unit sphere, R > 0.

    ``radial_mean`` is E R and must be finite and positive.  ``radial_spec``
    keeps the JSON description when the law was built from one, so reports can
    round-trip; laws built from a bare callable are not serializable.
    """

    radial_mean: float
    radial_sampler: Callable[[np.random.Generator, int], np.ndarray]
    matrix: np.ndarray
    radial_spec: dict | None = None

    def __post_init__(self):
        if not (math.isfinite(self.radial_mean) and self.radial_mean > 0):
            raise ValueError("radial_mean must be finite and > 0")
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("matrix must be square (d, d)")
        mat = mat.copy()
        mat.flags.writeable = False
        _freeze(self, matrix=mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    driver_kind = None

    def sample(self, n: int, rng) -> np.ndarray:
        rng = as_rng(rng)
        z = rng.standard_normal((n, self.dim))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        r = np.asarray(self.radial_sampler(rng, n), dtype=float)
        return r[:, None] * (z @ self.matrix.T)

    def mean(self) -> np.ndarray:
        return np.zeros(self.dim)

    def is_symmetric(self) -> bool:
        return True  # -U ~ U

    def permute(self, perm):
        return EllipticalLaw(self.radial_mean, self.radial_sampler, self.matrix[perm, :], self.radial_spec)

    def to_json(self) -> dict:
        if self.radial_spec is None:
            raise SchemaError("elliptical law with a bare radial callable is not serializable")
        return {"schema": 1, "type": "elliptical", "radial": dict(self.radial_spec), "matrix": self.matrix.tolist()}

    def __eq__(self, other):
        return (
            isinstance(other, EllipticalLaw)
            and self.radial_mean == other.radial_mean
            and np.array_equal(self.matrix, other.matrix)
            and self.radial_spec == other.radial_spec
            and (self.radial_spec is not None or self.radial_sampler is other.radial_sampler)
        )


@dataclass(frozen=True)
class SupportFlags:
    """Declared finiteness of the essential infimum / supremum of a scalar law."""

    inf_finite: bool
    sup_finite: bool

    @property
    def bounded(self) -> bool:
        return self.inf_finite or self.sup_finite


@dataclass(frozen=True, eq=False)
class ScalarBase:
    """Centred scalar base X (E X = 0) for a location-scale family."""

    sampler: Callable[[np.random.Generator, int], np.ndarray]
    support: SupportFlags
    spec: dict | None = None

    def sample(self, n: int, rng) -> np.ndarray:
        return np.asarray(self.sampler(as_rng(rng), n), dtype=float).ravel()

    def __eq__(self, other):
        return (
            isinstance(other, ScalarBase)
            and self.support == other.support
            and self.spec == other.spec
            and (self.spec is not None or self.sampler is other.sampler)
        )


@dataclass(frozen=True, eq=False)
class LocationScaleLaw(_PathwiseDefaults):
    """Scalar law location + scale * X for a centred base X."""

    base: ScalarBase
    location: float
    scale: float

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("scale must be > 0")

    @property
    def dim(self) -> int:
        return 1

    driver_kind = None

    def sample(self, n: int, rng) -> np.ndarray:
        x = self.base.sample(n, rng)
        return (self.location + self.scale * x)[:, None]

    def mean(self) -> np.ndarray:
        return np.array([self.location])

    def to_json(self) -> dict:
        if self.base.spec is None:
            raise SchemaError("location-scale law with a bare base callable is not serializable")
        return {"schema": 1, "type": "location-scale", "base": dict(self.base.spec),
                "location": self.location, "scale": self.scale}

    def __eq__(self, other):
        return (
            isinstance(other, LocationScaleLaw)
            and self.base == other.base
            and self.location == other.location
            and self.scale == other.scale
        )


@dataclass(frozen=True, eq=False)
class SamplerLaw(_PathwiseDefaults):
    """Law known only through a sampling callable.

    ``symmetric``/``positive``/``mean_vec`` are optional declarations used by
    routines that would otherwise have to spot-check those properties.
    """

    dim: int
    sampler: Callable[[np.random.Generator, int], np.ndarray]
    name: str = "custom"
    symmetric: bool | None = None
    positive: bool | None = None
    mean_vec: np.ndarray | None = None

    driver_kind = None

    def sample(self, n: int, rng) -> np.ndarray:
        out = np.asarray(self.sampler(as_rng(rng), n), dtype=float)
        if out.ndim == 1:
            out = out[:, None]
        if out.shape != (n, self.dim):
            raise ValueError(f"sampler for {self.name!r} returned shape {out.shape}, expected ({n}, {self.dim})")
        return out

    def mean(self):
        return self.mean_vec

    def is_positive(self) -> bool | None:
        return self.positive

    def is_symmetric(self) -> bool | None:
        return self.symmetric

    def permute(self, perm):
        return _pathwise(self, self.dim, lambda x: x[:, perm], f"{self.name}[permuted]", symmetric=self.symmetric,
                         positive=self.positive, mean_vec=None if self.mean_vec is None else self.mean_vec[perm])


def sample(law, n: int, seed) -> np.ndarray:
    """Draw ``n`` rows from ``law``; reproducible for a fixed seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return law.sample(n, as_rng(seed))


def law_mean(law) -> np.ndarray | None:
    """Exact mean vector where the family provides one, else None."""
    m = law.mean() if hasattr(law, "mean") else None
    return None if m is None else np.asarray(m, dtype=float)


def require_positive(law, pilot: int, rng, what: str) -> None:
    """Raise unless ``law`` is positive: decided exactly where possible, else by
    the minimum of a pilot sample of ``pilot`` rows drawn from ``rng``."""
    known = law.is_positive()
    if known is None:
        known = bool(law.sample(pilot, rng).min() > 0.0)
    if not known:
        raise ValueError(f"{what} needs a positive law")


def require_symmetric(law, pilot: int, rng, what: str) -> None:
    """Raise unless ``law`` is symmetric: decided exactly where possible, else
    by a pilot sample of ``pilot`` rows drawn from ``rng``, on which sign-odd
    functionals must have mean zero within four standard errors."""
    known = law.is_symmetric()
    if known is None:
        x = law.sample(pilot, rng)
        known = not any(abs(vals.mean()) > 4.0 * (vals.std(ddof=1) / math.sqrt(pilot)) + 1e-12
                        for v in as_rng(1).standard_normal((3, law.dim))
                        for vals in (x @ v, np.sign(x @ v) * np.linalg.norm(x, axis=1)))
    if not known:
        raise ValueError(f"{what} needs a symmetric law")


def _cluster_roots(atoms: np.ndarray) -> np.ndarray:
    """For lexicographically sorted atoms, the index of the first atom of each one's cluster.

    Atoms joined by a chain of steps within _ATOM_TOL (max norm) are one
    cluster, whatever their order.  Sorted atoms ascend in the first
    coordinate, so each atom need only be held against the atoms after it
    that lie within _ATOM_TOL in that coordinate.
    """
    root = list(range(atoms.shape[0]))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    reach = np.searchsorted(atoms[:, 0], atoms[:, 0] + _ATOM_TOL, side="right")
    for i in range(atoms.shape[0] - 1):
        near = np.abs(atoms[i + 1:reach[i]] - atoms[i]).max(axis=1) <= _ATOM_TOL
        for j in i + 1 + np.flatnonzero(near):
            a, b = sorted((find(i), find(int(j))))
            root[b] = a
    for i in range(len(root)):  # root[i] <= i, so one pass in order flattens every chain
        root[i] = root[root[i]]
    return np.array(root)


def merge_atoms(atoms: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One atom per cluster of atoms within _ATOM_TOL of each other (``_cluster_roots``):
    its lexicographically first atom, with the cluster's mass added in
    lexicographic order; the merged atoms are sorted lexicographically."""
    if atoms.shape[0] == 0:
        return atoms, masses
    order = np.lexsort(atoms.T[::-1])
    atoms, masses = atoms[order], masses[order]
    root = _cluster_roots(atoms)
    first = root == np.arange(root.size)
    return atoms[first], np.bincount(root, weights=masses)[np.flatnonzero(first)]


def measures_close(atoms_a, masses_a, atoms_b, masses_b, mass_tol: float) -> bool:
    """Whether two finite discrete measures agree once merged: clustered together
    (``_cluster_roots``), the merged atoms of the two form pairs, one atom of
    each within _ATOM_TOL of the other, whose masses lie within ``mass_tol``."""
    atoms_a, masses_a = merge_atoms(np.asarray(atoms_a, float), np.asarray(masses_a, float))
    atoms_b, masses_b = merge_atoms(np.asarray(atoms_b, float), np.asarray(masses_b, float))
    if atoms_a.shape != atoms_b.shape:
        return False
    if atoms_a.shape[0] == 0:
        return True
    both = np.concatenate([atoms_a, atoms_b])
    order = np.lexsort(both.T[::-1])
    root = _cluster_roots(both[order])
    side = np.repeat([1.0, -1.0], atoms_a.shape[0])[order]
    members = np.bincount(root)
    gap = np.bincount(root, weights=side * np.concatenate([masses_a, masses_b])[order])
    return bool((members[members > 0] == 2).all() and not np.bincount(root, weights=side).any()
                and np.abs(gap).max() <= mass_tol)


def permute_law(law, perm):
    """Law of the coordinate-permuted vector: component i becomes component perm[i]."""
    perm = np.asarray(perm, dtype=int)
    d = law.dim
    if sorted(perm.tolist()) != list(range(d)):
        raise ValueError(f"invalid permutation of {d} coordinates: {perm.tolist()}")
    return law.permute(perm)


def scale_law(law, c: float):
    """Law of c * xi, sampled pathwise as c times the base samples."""
    if c <= 0:
        raise ValueError("c must be > 0")
    mean = law_mean(law)
    return _pathwise(law, law.dim, lambda x: c * x, "scaled", symmetric=law.is_symmetric(),
                     positive=law.is_positive(), mean_vec=None if mean is None else c * mean)


def rademacher_law() -> DiscreteLaw:
    """Scalar +-1 with equal probability."""
    return DiscreteLaw(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# sequence models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DacunhaCastelleModel:
    """Sparse sequence xi_n = n(n+1) on the event omega in (1/(n+1), 1/n].

    At most one entry of any path is nonzero; every entry has unit mean.
    """

    def prefix(self, n: int, rng, omega: float | None = None):
        if omega is None:
            omega = 1.0 - rng.random()  # uniform on (0, 1]
        if not 0.0 < omega <= 1.0:
            raise ValueError("omega must lie in (0, 1]")
        k = int(math.floor(1.0 / omega))
        while omega > 1.0 / k:
            k -= 1
        while omega <= 1.0 / (k + 1):
            k += 1
        path = np.zeros(n)
        if k <= n:
            path[k - 1] = k * (k + 1)
        return path, {"omega": omega, "k": k}

    def oracle(self, aux: dict) -> float:
        return 0.0

    def to_json(self) -> dict:
        return {"schema": 1, "type": "dacunha-castelle"}


@dataclass(frozen=True, eq=False)
class LognormalSwapModel:
    """Positive sequence eta_i = exp(Z_i + sum_k b_k Z_k + mu_i).

    The coupling coefficients ``b`` are taken as the exact (finite) model; the
    mean corrections mu_i use the same finite sum so that E eta_i = 1 holds
    exactly for every i.
    """

    b: np.ndarray

    def __post_init__(self):
        b = _as_array(self.b, "b", 1)
        if b.shape[0] < 1:
            raise ValueError("b must have at least one coefficient")
        _freeze(self, b=b)

    @property
    def coupling_mass(self) -> float:
        """Sum of squared coefficients actually used by the model."""
        return float(self.b @ self.b)

    def mu(self, i: int) -> float:
        """Mean correction for component i (1-based); -Var(xi_i)/2."""
        b_i = self.b[i - 1] if i <= self.b.shape[0] else 0.0
        return -0.5 * (1.0 + self.coupling_mass + 2.0 * b_i)

    def _padded_b(self, n: int) -> np.ndarray:
        """b_1..b_n, with b_i = 0 past the given coefficients."""
        out = np.zeros(n)
        kk = min(n, self.b.shape[0])
        out[:kk] = self.b[:kk]
        return out

    def mean_corrections(self, n: int) -> np.ndarray:
        """``[mu(1), ..., mu(n)]`` by the same IEEE operations, in one array pass."""
        return -0.5 * (1.0 + self.coupling_mass + 2.0 * self._padded_b(n))

    def prefix(self, n: int, rng):
        b = self.b
        kk = b.shape[0]
        z = rng.standard_normal(max(n, kk))
        coupling = float(b @ z[:kk])
        path = np.exp(z[:n] + coupling + self.mean_corrections(n))
        return path, {"z": z[:kk].copy(), "coupling": coupling}

    def oracle(self, aux: dict) -> float:
        return math.exp(aux["coupling"] - 0.5 * self.coupling_mass)

    def to_json(self) -> dict:
        return {"schema": 1, "type": "lognormal-swap", "b": self.b.tolist()}

    def __eq__(self, other):
        return isinstance(other, LognormalSwapModel) and np.array_equal(self.b, other.b)


@dataclass(frozen=True, eq=False)
class IidExchangeableModel:
    """I.i.d. draws from a scalar base law."""

    base: object

    def __post_init__(self):
        if self.base.dim != 1:
            raise ValueError("iid-exchangeable base must be a scalar law")

    def prefix(self, n: int, rng):
        return self.base.sample(n, rng).ravel(), {}

    def oracle(self, aux: dict) -> float:
        mean = law_mean(self.base)
        if mean is None:
            raise NoOracleError("iid base law has no closed-form mean")
        return float(mean[0])

    def to_json(self) -> dict:
        return {"schema": 1, "type": "iid-exchangeable", "base": self.base.to_json()}

    def __eq__(self, other):
        return isinstance(other, IidExchangeableModel) and self.base == other.base


def sequence_prefix(model, n: int, seed, *, omega: float | None = None):
    """One path (xi_1, ..., xi_n) plus the auxiliary state driving it.

    For the sparse model the auxiliary state carries omega and the active
    index; for the lognormal coupling model it carries the shared normal
    drivers, so closed-form limits (``model.oracle(aux)``) are computed from
    it exactly.  ``omega`` fixes the sparse model's event.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return model.prefix(n, as_rng(seed), **({} if omega is None else {"omega": omega}))


def dacunha_prefix_law(n: int) -> DiscreteLaw:
    """Exact joint law of the first n sparse-sequence coordinates.

    Atom k (k = 1..n) is k(k+1) e_k with probability 1/(k(k+1)); the
    remaining mass 1/(n+1) sits at the origin.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    atoms = np.zeros((n + 1, n))
    weights = np.empty(n + 1)
    for k in range(1, n + 1):
        atoms[k - 1, k - 1] = k * (k + 1)
        weights[k - 1] = 1.0 / (k * (k + 1))
    weights[n] = 1.0 / (n + 1)
    weights = weights / weights.sum()  # exact up to one rounding of the unit total
    return DiscreteLaw(atoms, weights)


def lognormal_swap_law(b, d: int) -> LognormalLaw:
    """Joint law of the first d coordinates of the lognormal coupling model.

    The log-vector is Gaussian with cov_ij = delta_ij + b_i + b_j + sum b^2
    and the mean corrections of the model, so the law sits in the exact
    lognormal family.
    """
    model = LognormalSwapModel(np.asarray(b, dtype=float))
    if d < 1:
        raise ValueError("d must be >= 1")
    bfull = model._padded_b(d)
    s2 = model.coupling_mass
    cov = np.add.outer(bfull, bfull) + s2 + np.eye(d)
    return LognormalLaw(GaussianLaw(model.mean_corrections(d), cov))


# ---------------------------------------------------------------------------
# processes (families of laws indexed by time)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianProcess:
    """Gaussian process given by mean and covariance functions of time."""

    mean_fn: Callable[[float], float]
    cov_fn: Callable[[float, float], float]

    def law_at(self, times) -> GaussianLaw:
        times = [float(t) for t in times]
        mean = np.array([self.mean_fn(t) for t in times])
        cov = np.array([[self.cov_fn(s, t) for t in times] for s in times])
        return GaussianLaw(mean, cov)


@dataclass(frozen=True)
class ExpGaussianProcess:
    """Positive process exp(xi_t) for a Gaussian xi; joint laws are lognormal."""

    base: GaussianProcess
    spec: dict | None = None

    def law_at(self, times) -> LognormalLaw:
        return LognormalLaw(self.base.law_at(times))


@dataclass(frozen=True)
class SamplerProcess:
    """Process known only through a joint sampler over finite time sets."""

    sample_at: Callable[[tuple, np.random.Generator, int], np.ndarray]
    name: str = "custom"
    positive: bool | None = None

    def law_at(self, times) -> SamplerLaw:
        times = tuple(float(t) for t in times)
        return SamplerLaw(
            len(times),
            lambda rng, n: self.sample_at(times, rng, n),
            name=f"{self.name}@{times}",
            positive=self.positive,
        )


def brownian_cov(s: float, t: float) -> float:
    """Covariance of double-sided Brownian motion pinned at zero."""
    return 0.5 * (abs(s) + abs(t) - abs(t - s))


def gbm_process(drift_correction: bool = True) -> ExpGaussianProcess:
    """exp(W_t - |t|/2) for double-sided Brownian W (or exp(W_t) without the drift)."""
    mean_fn = (lambda t: -0.5 * abs(t)) if drift_correction else (lambda t: 0.0)
    spec = {"schema": 1, "type": "gbm", "drift_correction": bool(drift_correction)}
    return ExpGaussianProcess(GaussianProcess(mean_fn, brownian_cov), spec)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

_RADIAL_KINDS = ("constant", "chi", "exponential", "uniform")
_BASE_KINDS = ("normal", "laplace", "student-t", "uniform")


def _check_fields(doc: dict, required: set[str], what: str, optional: set[str] = frozenset()) -> None:
    if not isinstance(doc, dict):
        raise SchemaError(f"{what}: expected a JSON object")
    if "schema" in doc and doc["schema"] != 1:
        raise SchemaError(f"{what}: unsupported schema version {doc['schema']!r}")
    unknown = set(doc) - set(required) - set(optional) - {"schema"}
    if unknown:
        raise SchemaError(f"{what}: unknown fields {sorted(unknown)}")
    missing = set(required) - set(doc)
    if missing:
        raise SchemaError(f"{what}: missing fields {sorted(missing)}")


# E chi_dof / sqrt(dof) = sum_j c_j dof^-j; the first omitted term is below 1e-18 past dof 342
_CHI_MEAN_SERIES = (1.0, -1 / 4, 1 / 32, 5 / 128, -21 / 2048, -399 / 8192, 869 / 65536)


def _chi_mean(dof: float) -> float:
    """E R for R ~ chi(dof), a real dof >= 1: sqrt(2) Gamma((dof + 1) / 2) / Gamma(dof / 2)."""
    try:
        return math.sqrt(2.0) * math.gamma((dof + 1) / 2) / math.gamma(dof / 2)
    except OverflowError:  # the gammas overflow past dof 342; their ratio, about sqrt(dof / 2), does not
        t = 1.0 / dof
        series = 0.0
        for c in reversed(_CHI_MEAN_SERIES):
            series = series * t + c
        return math.sqrt(dof) * series


def _radial_from_spec(spec: dict):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SchemaError("radial spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "constant":
        _check_fields(spec, {"kind", "value"}, "radial")
        value = float(spec["value"])
        if value <= 0:
            raise SchemaError("radial constant must be > 0")
        return value, lambda rng, n: np.full(n, value)
    if kind == "chi":
        _check_fields(spec, {"kind", "dof"}, "radial")
        dof = float(spec["dof"])
        if not (math.isfinite(dof) and dof >= 1):
            raise SchemaError("radial chi needs a finite dof >= 1")
        return _chi_mean(dof), lambda rng, n: np.sqrt(rng.chisquare(dof, n))
    if kind == "exponential":
        _check_fields(spec, {"kind", "rate"}, "radial")
        rate = float(spec["rate"])
        if rate <= 0:
            raise SchemaError("radial exponential rate must be > 0")
        return 1.0 / rate, lambda rng, n: rng.exponential(1.0 / rate, n)
    if kind == "uniform":
        _check_fields(spec, {"kind", "low", "high"}, "radial")
        low, high = float(spec["low"]), float(spec["high"])
        if not 0 < low < high:
            raise SchemaError("radial uniform requires 0 < low < high")
        return 0.5 * (low + high), lambda rng, n: rng.uniform(low, high, n)
    raise SchemaError(f"unknown radial kind {kind!r}; expected one of {_RADIAL_KINDS}")


def scalar_base_from_json(spec: dict) -> ScalarBase:
    """Parse a scalar base spec ({"kind": "normal"} and friends)."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SchemaError("base spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "normal":
        _check_fields(spec, {"kind"}, "base")
        return ScalarBase(lambda rng, n: rng.standard_normal(n), SupportFlags(False, False), dict(spec))
    if kind == "laplace":
        _check_fields(spec, {"kind"}, "base")
        return ScalarBase(lambda rng, n: rng.laplace(0.0, 1.0, n), SupportFlags(False, False), dict(spec))
    if kind == "student-t":
        _check_fields(spec, {"kind", "dof"}, "base")
        dof = float(spec["dof"])
        if dof <= 1:
            raise SchemaError("student-t base needs dof > 1 to be integrable")
        return ScalarBase(lambda rng, n: rng.standard_t(dof, n), SupportFlags(False, False), dict(spec))
    if kind == "uniform":
        _check_fields(spec, {"kind", "halfwidth"}, "base")
        h = float(spec["halfwidth"])
        if h <= 0:
            raise SchemaError("uniform base needs halfwidth > 0")
        return ScalarBase(lambda rng, n: rng.uniform(-h, h, n), SupportFlags(True, True), dict(spec))
    raise SchemaError(f"unknown base kind {kind!r}; expected one of {_BASE_KINDS}")


def law_from_json(doc: dict):
    """Parse a law document; unknown fields are rejected."""
    if not isinstance(doc, dict) or "type" not in doc:
        raise SchemaError("law document must be an object with a 'type' field")
    t = doc["type"]
    if t == "discrete":
        _check_fields(doc, {"type", "atoms", "weights"}, "discrete law")
        return DiscreteLaw(np.asarray(doc["atoms"], dtype=float), np.asarray(doc["weights"], dtype=float))
    if t == "gaussian":
        _check_fields(doc, {"type", "mean", "cov"}, "gaussian law")
        return GaussianLaw(np.asarray(doc["mean"], dtype=float), np.asarray(doc["cov"], dtype=float))
    if t == "lognormal":
        _check_fields(doc, {"type", "mean", "cov"}, "lognormal law")
        return LognormalLaw(GaussianLaw(np.asarray(doc["mean"], dtype=float), np.asarray(doc["cov"], dtype=float)))
    if t == "elliptical":
        _check_fields(doc, {"type", "radial", "matrix"}, "elliptical law")
        mean, sampler = _radial_from_spec(doc["radial"])
        return EllipticalLaw(mean, sampler, np.asarray(doc["matrix"], dtype=float), dict(doc["radial"]))
    if t == "location-scale":
        _check_fields(doc, {"type", "base", "location", "scale"}, "location-scale law")
        return LocationScaleLaw(scalar_base_from_json(doc["base"]), float(doc["location"]), float(doc["scale"]))
    raise SchemaError(f"unknown law type {t!r}")


def sequence_model_from_json(doc: dict):
    if not isinstance(doc, dict) or "type" not in doc:
        raise SchemaError("sequence model document must be an object with a 'type' field")
    t = doc["type"]
    if t == "dacunha-castelle":
        _check_fields(doc, {"type"}, "dacunha-castelle model")
        return DacunhaCastelleModel()
    if t == "lognormal-swap":
        _check_fields(doc, {"type", "b"}, "lognormal-swap model")
        return LognormalSwapModel(np.asarray(doc["b"], dtype=float))
    if t == "iid-exchangeable":
        _check_fields(doc, {"type", "base"}, "iid-exchangeable model")
        return IidExchangeableModel(law_from_json(doc["base"]))
    raise SchemaError(f"unknown sequence model type {t!r}")


def process_from_json(doc: dict):
    if not isinstance(doc, dict) or "type" not in doc:
        raise SchemaError("process document must be an object with a 'type' field")
    if doc["type"] == "gbm":
        _check_fields(doc, {"type"}, "gbm process", optional={"drift_correction"})
        return gbm_process(bool(doc.get("drift_correction", True)))
    raise SchemaError(f"unknown process type {doc['type']!r}")


def process_to_json(process) -> dict:
    spec = getattr(process, "spec", None)
    if spec is None:
        raise SchemaError(f"process of type {type(process).__name__} is not serializable")
    return dict(spec)
