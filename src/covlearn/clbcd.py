"""Covariance-learning power iteration with a support noise refit, and the
problem, iteration loop and result type every solver shares.

cl-bcd starts from the noise-only model and alternates IAA's power
recursion gamma_i <- a_i^H Theta Shat Theta a_i / (a_i^H Theta a_i)^2 over
all atoms (against the inverse covariance of the previous iterate) with the
closed-form noise-variance refit on the current top-K support, until the
power iterates stop moving in relative sup-norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (
    CovarianceState,
    Dictionary,
    NumericError,
    atom_forms,
    atom_quadratic_forms,
    build_covariance,
    noise_mle,
    sample_covariance,
)
from .sparsity import SupportSet, hard_threshold

__all__ = [
    "ClBcdConfig",
    "Problem",
    "SolverConfig",
    "SolverResult",
    "check_problem",
    "iaa_update",
    "iterate",
    "matched_filter_powers",
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


def _check_scm(scm, dictionary: Dictionary) -> np.ndarray:
    """scm as complex after checking it is N x N for the dictionary's N
    sensors, finite, and has tr(scm) > 0 (else ValueError)."""
    n = dictionary.n_sensors
    scm = np.asarray(scm, dtype=np.complex128)
    if scm.shape != (n, n):
        raise ValueError("sample covariance shape does not match the dictionary")
    if not np.isfinite(scm).all():
        raise ValueError("sample covariance entries must be finite")
    if not np.trace(scm).real > 0:
        raise ValueError("sample covariance has no energy")
    return scm


def _check_sparsity(dictionary: Dictionary, k: int) -> None:
    n = dictionary.n_sensors
    if not 1 <= k < n:
        raise ValueError(f"sparsity k={k} must satisfy 1 <= k < n_sensors={n}")
    if k > dictionary.n_atoms:
        raise ValueError(f"sparsity k={k} exceeds the number of atoms {dictionary.n_atoms}")


def check_problem(scm, dictionary: Dictionary, k: int) -> np.ndarray:
    """Validate a K-sparse fit of ``scm`` over ``dictionary``; return scm as complex.

    Raises ValueError unless scm is N x N for the dictionary's N sensors,
    finite and with tr(scm) > 0, 1 <= k < N, and k does not exceed the
    number of atoms.
    """
    scm = _check_scm(scm, dictionary)
    _check_sparsity(dictionary, k)
    return scm


def _matched_filter(dictionary: Dictionary, forms: np.ndarray) -> np.ndarray:
    return np.maximum(forms, 0.0) / dictionary._norms2**2


def matched_filter_powers(dictionary: Dictionary, scm: np.ndarray) -> np.ndarray:
    """Matched-filter spectrum a_i^H Shat a_i / ||a_i||^4 (strictly positive init)."""
    return _matched_filter(dictionary, atom_forms(dictionary, scm[None])[0])


class Problem:
    """Snapshots Y over a dictionary, with what every method reads of them.

    The methods see the data through Y itself (somp) or through the sample
    covariance Shat = Y Y^H / L, which the constructor forms once and
    validates: N x N for the dictionary's N sensors, finite, and with
    tr(Shat) > 0 (else ValueError). Three things are evaluated on first use
    and then kept: the per-atom forms a_i^H Shat a_i (:attr:`forms`), the
    matched-filter spectrum derived from them (:attr:`matched_filter`) and
    the noise-variance refit of each support asked for (:meth:`noise_mle`).
    Y, scm and the cached arrays are read-only, so every method of a
    Monte-Carlo cell can solve one Problem and get the results it gets
    from Y alone.
    """

    def __init__(self, Y, dictionary: Dictionary):
        Y = np.asarray(Y, dtype=np.complex128).view()
        Y.flags.writeable = False
        scm = _check_scm(sample_covariance(Y), dictionary)
        scm.flags.writeable = False
        self.Y = Y
        self.dictionary = dictionary
        self.scm = scm
        self._noise = {}

    @classmethod
    def of(cls, data, dictionary: Dictionary, k: int) -> Problem:
        """``data`` as a Problem over ``dictionary``, checked for a K-sparse fit.

        ``data`` is an N x L snapshot matrix, wrapped here, or a Problem
        built over this same dictionary object. Raises ValueError otherwise,
        or unless 1 <= k < N and k does not exceed the number of atoms.
        """
        problem = data if isinstance(data, Problem) else cls(data, dictionary)
        if problem.dictionary is not dictionary:
            raise ValueError("the problem was built over another dictionary")
        _check_sparsity(dictionary, k)
        return problem

    @cached_property
    def forms(self) -> np.ndarray:
        """Re a_i^H Shat a_i for every atom, through :func:`atom_forms`."""
        forms = atom_forms(self.dictionary, self.scm[None])[0]
        forms.flags.writeable = False
        return forms

    @cached_property
    def matched_filter(self) -> np.ndarray:
        """The spectrum of :func:`matched_filter_powers`, from :attr:`forms`."""
        powers = _matched_filter(self.dictionary, self.forms)
        powers.flags.writeable = False
        return powers

    def noise_mle(self, support: SupportSet) -> float:
        """:func:`noise_mle` on a support, memoised by the support's indices.

        noise_mle is a pure function of scm and the support, and the top-K
        support of successive iterates rarely changes, so each distinct
        support is refit once per Problem. A refit that raises is not
        memoised: it raises again for every caller.
        """
        sigma2 = self._noise.get(support.indices)
        if sigma2 is None:
            atoms = self.dictionary.take(support.indices)
            sigma2 = self._noise[support.indices] = noise_mle(
                self.scm, atoms, self.dictionary.n_sensors
            )
        return sigma2


def relative_change(new: np.ndarray, old: np.ndarray) -> float:
    """Sup-norm relative step ||new - old||_inf / ||new||_inf (0 if new == 0)."""
    scale = max(new.max(), -new.min())
    if scale == 0.0:
        return 0.0
    step = new - old
    return float(np.abs(step, out=step).max() / scale)


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
    """Recover a K-sparse power vector and its support from snapshots Y
    (an N x L matrix or a :class:`Problem` over ``dictionary``)."""
    problem = Problem.of(Y, dictionary, k)
    config = config or SolverConfig()
    scm = problem.scm

    # Iteration 1, in closed form: from the noise-only start Theta = I / s2
    # (gamma = 0), q_i = ||a_i||^2 / s2 and r_i = a_i^H Shat a_i / s2^2, so
    # the power step r_i / q_i^2 is the matched filter for any s2. It stops
    # as :func:`iterate` would against the zero start.
    gamma = problem.matched_filter
    support = hard_threshold(gamma, k, config.peak)
    sigma2 = problem.noise_mle(support)
    converged = relative_change(gamma, np.zeros_like(gamma)) < config.tol
    if converged or config.max_iter == 1:
        return SolverResult(support, np.array(gamma), sigma2, 1, converged)

    def step(state):
        nonlocal support
        gamma = iaa_update(state, scm)
        support = hard_threshold(gamma, k, config.peak)
        return gamma, problem.noise_mle(support)

    # the last step's support is the support of the returned powers
    gamma, sigma2, iterations, converged = iterate(
        dictionary, step, gamma, sigma2, config.max_iter - 1, config.tol
    )
    return SolverResult(support, gamma, sigma2, iterations + 1, converged)
