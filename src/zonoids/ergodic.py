"""Partial-sum averages of swap-invariant sequences and their limit oracles.

The averages of a swap-invariant sequence converge almost surely; depending on
the model the limit is zero (the sparse unit-mean sequence), a lognormal
functional of the shared drivers, or the base mean (i.i.d.).  Where a closed
form exists it is computed exactly from the stored auxiliary state, never
estimated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoOracleError
from .laws import DacunhaCastelleModel, LognormalSwapModel, sequence_prefix
from .rng import run_chunked, spawn_rngs

DEFAULT_CHECKPOINTS = (100, 1_000, 10_000, 100_000)


@dataclass(frozen=True)
class ErgodicRun:
    model: object
    checkpoints: tuple
    averages: np.ndarray          # (paths, len(checkpoints))
    oracles: np.ndarray | None    # (paths,), None when the model has no closed form
    aux: tuple                    # per-path auxiliary state dicts


def _exact_sum(chunk: np.ndarray) -> float:
    """``math.fsum(chunk)``, over the nonzero terms only: exact zeros never change
    an exact sum, and fsum of zeros alone, -0.0 among them, is +0.0 like the
    empty sum."""
    return math.fsum(chunk[chunk != 0.0].tolist())


def _checkpoint_averages(path: np.ndarray, checkpoints) -> np.ndarray:
    """Running averages at the checkpoints via exactly accumulated chunk sums."""
    sums = []
    prev = 0
    for c in checkpoints:
        sums.append(_exact_sum(path[prev:c]))
        prev = c
    out = np.empty(len(checkpoints))
    for k, c in enumerate(checkpoints):
        out[k] = math.fsum(sums[: k + 1]) / c
    return out


def run_averages(model, checkpoints=DEFAULT_CHECKPOINTS, paths: int = 50, seed=0,
                 workers: int = 1) -> ErgodicRun:
    """Evolve one prefix per path and record its average at each checkpoint."""
    checkpoints = tuple(int(c) for c in checkpoints)
    if not checkpoints or any(c < 1 for c in checkpoints):
        raise ValueError("checkpoints must be positive")
    if list(checkpoints) != sorted(set(checkpoints)):
        raise ValueError("checkpoints must be strictly increasing")
    n_max = checkpoints[-1]
    averages = np.empty((paths, len(checkpoints)))
    aux_states: list[dict | None] = [None] * paths
    streams = spawn_rngs(seed, paths)

    def run(block) -> None:
        for i in block:
            path, aux = sequence_prefix(model, n_max, streams[i])
            averages[i] = _checkpoint_averages(path, checkpoints)
            aux_states[i] = aux

    run_chunked(run, paths, workers)

    try:
        oracles = np.array([model.oracle(a) for a in aux_states])
    except NoOracleError:
        oracles = None
    return ErgodicRun(model, checkpoints, averages, oracles, tuple(aux_states))


def model_average_moments(model, n: int) -> tuple[float, float]:
    """Exact (mean, sd) of the n-term average where the model admits them.

    For the sparse sequence the mean is one at every n while the variance
    grows like n/3, which is exactly the mechanism that breaks L^1
    convergence.
    """
    if isinstance(model, DacunhaCastelleModel):
        ks = np.arange(1, n + 1, dtype=float)
        second = float(np.sum(ks * (ks + 1.0))) / (n * n)
        return 1.0, math.sqrt(max(second - 1.0, 0.0))
    raise NoOracleError(f"no exact average moments for {type(model).__name__}")


@dataclass(frozen=True)
class L1Diagnostic:
    checkpoints: tuple
    mean_abs_error: np.ndarray     # E|avg_n - X| per checkpoint (across paths)
    mean_abs_error_se: np.ndarray
    cross_path_mean: np.ndarray    # mean of avg_n across paths
    cross_path_se: np.ndarray      # sample standard error of that mean
    exact_mean: float | None       # model value of E avg_n, when available
    exact_mean_se: np.ndarray | None  # exact sd / sqrt(paths), when available


def l1_diagnostic(run: ErgodicRun) -> L1Diagnostic:
    """Per-checkpoint L1 distances to the oracle, plus cross-path mean levels.

    For models with exact average moments the cross-path mean also gets the
    model-exact standard error; the sample standard error is unreliable
    exactly when L^1 convergence fails (the heavy tail goes unsampled).
    """
    if run.oracles is None:
        raise NoOracleError("the run has no oracle limits")
    paths = run.averages.shape[0]
    err = np.abs(run.averages - run.oracles[:, None])
    mean_err = err.mean(axis=0)
    mean_err_se = err.std(axis=0, ddof=1) / math.sqrt(paths)
    cp_mean = run.averages.mean(axis=0)
    cp_se = run.averages.std(axis=0, ddof=1) / math.sqrt(paths)
    exact_mean = None
    exact_se = None
    try:
        moments = [model_average_moments(run.model, n) for n in run.checkpoints]
        exact_mean = moments[0][0]
        exact_se = np.array([sd / math.sqrt(paths) for _, sd in moments])
    except NoOracleError:
        pass
    return L1Diagnostic(run.checkpoints, mean_err, mean_err_se, cp_mean, cp_se, exact_mean, exact_se)


@dataclass(frozen=True)
class ConvergenceDiagnostic:
    checkpoints: tuple
    median_gap: np.ndarray  # median over paths of |avg at c_{k+1} - avg at c_k|

    @property
    def decreasing(self) -> bool:
        return bool(np.all(np.diff(self.median_gap) <= 0.0))


def convergence_diagnostic(run: ErgodicRun) -> ConvergenceDiagnostic:
    """Cauchy-style check for models without an oracle: successive-average gaps."""
    gaps = np.abs(np.diff(run.averages, axis=1))
    return ConvergenceDiagnostic(run.checkpoints, np.median(gaps, axis=0))


@dataclass(frozen=True)
class LimitFormulaReport:
    rhs: np.ndarray            # ratio-form limit built from the conditional expectations
    oracle: np.ndarray         # exp(sum b_i Z_i - sum b_i^2 / 2)
    max_identity_error: float
    averages: np.ndarray       # avg_n per path
    mean_abs_error: float      # E|avg_n - oracle|


def limit_formula_check(model: LognormalSwapModel, paths: int = 100, n: int = 10_000,
                        seed=0, workers: int = 1) -> LimitFormulaReport:
    """Evaluate the ratio form of the positive-sequence limit per path.

    The first component over its conditional expectation, times the
    conditional expectation of the second, must equal the closed-form limit
    exactly (an algebraic identity in the drivers); the running average is
    then compared against it.
    """
    if not isinstance(model, LognormalSwapModel):
        raise NoOracleError("the ratio-form limit is implemented for the lognormal coupling model")
    run = run_averages(model, (n,), paths, seed, workers)
    b1 = float(model.b[0])
    rhs = np.empty(paths)
    for i, aux in enumerate(run.aux):
        z1 = float(aux["z"][0])
        eta1 = math.exp(z1 + aux["coupling"] + model.mu(1))
        cond1 = math.exp((1.0 + b1) * z1 - 0.5 * (1.0 + b1 * b1 + 2.0 * b1))
        cond2 = math.exp(b1 * z1 - 0.5 * b1 * b1)
        rhs[i] = eta1 / cond1 * cond2
    err = float(np.abs(rhs - run.oracles).max())
    avg = run.averages[:, 0]
    return LimitFormulaReport(rhs, run.oracles, err, avg, float(np.abs(avg - run.oracles).mean()))
