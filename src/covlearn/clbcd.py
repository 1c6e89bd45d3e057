"""Covariance-learning power iteration with a support noise refit, and the
iteration driver, problem validator and result type every solver shares.

cl-bcd starts from the noise-only model and alternates IAA's power
recursion gamma_i <- a_i^H Theta Shat Theta a_i / (a_i^H Theta a_i)^2 over
all atoms (against the inverse covariance of the previous iterate) with the
closed-form noise-variance refit on the current top-K support, until the
power iterates stop moving in relative sup-norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    CovarianceState,
    Dictionary,
    NumericError,
    atom_quadratic_forms,
    build_covariance,
    noise_mle,
    sample_covariance,
)
from .sparsity import SupportSet, hard_threshold

__all__ = [
    "ClBcdConfig",
    "SolverConfig",
    "SolverResult",
    "check_problem",
    "iaa_update",
    "iterate",
    "relative_change",
    "run_clbcd",
    "noise_mle",
]


@dataclass(frozen=True)
class SolverConfig:
    """Settings of every iterative solver, cl-bcd and the baselines alike.

    max_iter caps the iterations; the iteration stops once the powers move
    less than tol in relative sup-norm. peak selects top-K local peaks
    instead of top-K entries for the reported support. known_sigma2
    supplies the noise variance to the methods that do not estimate it
    (M-SBL, CWO); when given it must be positive.
    """

    max_iter: int = 500
    tol: float = 0.5e-4
    peak: bool = False
    known_sigma2: float | None = None

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.known_sigma2 is not None and not self.known_sigma2 > 0:
            raise ValueError("known_sigma2 must be positive")


ClBcdConfig = SolverConfig  # a second name, kept for the callers that use it


@dataclass(frozen=True)
class SolverResult:
    """Outcome of one method on one problem: estimates plus telemetry.

    Grid methods report a support and, where they estimate them, the powers
    gamma over the whole dictionary. The off-grid single-source searcher
    reports its directions in theta_deg and their powers in powers instead.
    """

    support: SupportSet | None
    gamma: np.ndarray | None
    sigma2: float
    iterations: int
    converged: bool
    theta_deg: tuple | None = None
    powers: np.ndarray | None = None


def check_problem(scm, dictionary: Dictionary, k: int) -> np.ndarray:
    """Validate a K-sparse fit of ``scm`` over ``dictionary``; return scm as complex.

    Raises ValueError unless scm is N x N for the dictionary's N sensors,
    1 <= k < N, k does not exceed the number of atoms, and tr(scm) > 0.
    """
    n = dictionary.n_sensors
    scm = np.asarray(scm, dtype=np.complex128)
    if scm.shape != (n, n):
        raise ValueError("sample covariance shape does not match the dictionary")
    if not 1 <= k < n:
        raise ValueError(f"sparsity k={k} must satisfy 1 <= k < n_sensors={n}")
    if k > dictionary.n_atoms:
        raise ValueError(f"sparsity k={k} exceeds the number of atoms {dictionary.n_atoms}")
    if not np.trace(scm).real > 0:
        raise ValueError("sample covariance has no energy")
    return scm


def relative_change(new: np.ndarray, old: np.ndarray) -> float:
    """Sup-norm relative step ||new - old||_inf / ||new||_inf (0 if new == 0)."""
    scale = max(new.max(), -new.min())
    if scale == 0.0:
        return 0.0
    step = new - old
    return float(np.abs(step, out=step).max() / scale)


def _support_noise_refit(scm: np.ndarray, dictionary: Dictionary):
    """:func:`noise_mle` on a support, memoised by the support's indices.

    noise_mle is a pure function of scm and the support, and the top-K
    support of successive iterates rarely changes, so one solve refits each
    distinct support once. Create one per solve: the memo holds that solve's
    scm and dictionary.
    """
    n = dictionary.n_sensors
    memo = {}

    def refit(support: SupportSet) -> float:
        sigma2 = memo.get(support.indices)
        if sigma2 is None:
            sigma2 = memo[support.indices] = noise_mle(scm, dictionary.take(support.indices), n)
        return sigma2

    return refit


def iaa_update(state: CovarianceState, scm: np.ndarray) -> np.ndarray:
    """IAA power recursion: gamma_i <- a_i^H Theta Shat Theta a_i / (a_i^H Theta a_i)^2."""
    q, r = atom_quadratic_forms(state, scm)
    return np.maximum(r, 0.0) / q**2


def iterate(dictionary: Dictionary, step, gamma0, sigma2_0: float, max_iter: int, tol: float):
    """Fixed-point iteration of (gamma, sigma2) shared by every iterative solver.

    Each iteration builds the model covariance at the current iterate and
    calls ``step(state) -> (gamma_new, sigma2_new)``; it stops once
    :func:`relative_change` of the powers falls below tol. Returns
    (gamma, sigma2, iterations, converged); at the cap the last iterate
    comes back with iterations = max_iter and converged = False.

    Raises NumericError if a step returns a negative power.
    """
    gamma, sigma2 = gamma0, sigma2_0
    for it in range(1, max_iter + 1):
        # Keep the state bound until the next one is built: freeing it inside
        # the iteration shifted glibc's heap trimming and nearly doubled the
        # page faults of a Gaussian N=32, M=256 run.
        state = build_covariance(dictionary, gamma, sigma2)
        gamma_new, sigma2 = step(state)
        if gamma_new.min() < 0.0:
            raise NumericError("power iterate went negative")
        done = relative_change(gamma_new, gamma) < tol
        gamma = gamma_new
        if done:
            return gamma, sigma2, it, True
    return gamma, sigma2, max_iter, False


def run_clbcd(
    Y: np.ndarray,
    dictionary: Dictionary,
    k: int,
    config: SolverConfig | None = None,
) -> SolverResult:
    """Recover a K-sparse power vector and its support from snapshots Y."""
    scm = check_problem(sample_covariance(Y), dictionary, k)
    config = config or SolverConfig()
    n = dictionary.n_sensors
    m = dictionary.n_atoms
    support = None
    refit = _support_noise_refit(scm, dictionary)

    def step(state):
        nonlocal support
        gamma = iaa_update(state, scm)
        support = hard_threshold(gamma, k, config.peak)
        return gamma, refit(support)

    # noise-only start: gamma = 0, Theta = (n / tr(Shat)) I; the last step's
    # support is the support of the returned powers
    gamma, sigma2, iterations, converged = iterate(
        dictionary, step, np.zeros(m), np.trace(scm).real / n, config.max_iter, config.tol
    )
    return SolverResult(support, gamma, sigma2, iterations, converged)
