"""Greedy covariance-learning pursuit.

Grows the support one atom per step: a sweep evaluates, for every remaining
atom, the exact drop in the conditional negative log-likelihood achievable
by activating that atom alone; the best atom is added and the powers plus
noise variance are refit in closed form on the grown support. Selected
atoms are excluded from later sweeps, so no atom is ever chosen twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clbcd import SolverResult, check_problem
from .model import (
    CovarianceState,
    Dictionary,
    NumericError,
    atom_quadratic_forms,
    build_covariance,
    provisional_mle,
    sample_covariance,
)
from .sparsity import SupportSet

__all__ = [
    "SweepResult",
    "conditional_gamma_star",
    "sweep_errors",
    "provisional_mle",
    "run_clomp",
    "run_clomp_scm",
]


@dataclass(frozen=True)
class SweepResult:
    """Per-atom sweep outcome.

    gamma_candidates[i] is the conditionally optimal power for atom i;
    errors[i] is the corresponding negative log-likelihood change
    (always <= 0, and exactly 0 when the candidate power is 0). Excluded
    atoms carry a +inf error sentinel and a zero candidate, so they can
    never win the argmin.
    """

    gamma_candidates: np.ndarray
    errors: np.ndarray


def conditional_gamma_star(state: CovarianceState, scm: np.ndarray, i: int) -> float:
    """Optimal power for atom i with every other parameter held fixed.

    Evaluates max(a_i^H Theta (Shat - Sigma) Theta a_i / (a_i^H Theta a_i)^2, 0)
    on the current state. This is the exact conditional minimizer when
    gamma_i = 0 in the state (the only way the greedy sweep uses it).
    """
    a = state.dictionary.atom(i)
    ta = state.theta @ a
    q = np.vdot(a, ta).real
    if q <= 0.0:
        raise NumericError("a^H Theta a must be positive for a PD model covariance")
    r = np.vdot(ta, scm @ ta).real
    return float(max((r - q) / q**2, 0.0))


def sweep_errors(state: CovarianceState, scm: np.ndarray, excluded=()) -> SweepResult:
    """Conditional-likelihood sweep over all atoms outside ``excluded``.

    For each candidate atom the optimal power gamma_i and the resulting
    likelihood change epsilon_i = log(1 + gamma_i q_i) - gamma_i q_i are
    returned (q_i = a_i^H Theta a_i).
    """
    q, r = atom_quadratic_forms(state, scm)
    gamma = np.maximum((r - q) / q**2, 0.0)
    u = gamma * q
    errors = np.log1p(u) - u
    idx = list(excluded.indices if isinstance(excluded, SupportSet) else excluded)
    if idx:
        gamma[idx] = 0.0
        errors[idx] = np.inf
    return SweepResult(gamma_candidates=gamma, errors=errors)


def run_clomp_scm(
    scm: np.ndarray,
    dictionary: Dictionary,
    k: int,
    sigma2_floor: float | None = None,
) -> SolverResult:
    """Greedy pursuit directly from a sample (or population) covariance."""
    scm = check_problem(scm, dictionary, k)
    n = dictionary.n_sensors
    m = dictionary.n_atoms

    # noise-only start: Sigma = (tr(Shat)/n) I, empty support
    state = build_covariance(dictionary, np.zeros(m), np.trace(scm).real / n)
    chosen: list[int] = []
    gamma = np.zeros(m)
    sigma2 = state.sigma2

    for _ in range(k):
        sweep = sweep_errors(state, scm, chosen)
        if not np.any(np.isfinite(sweep.errors)):
            raise ValueError("no candidate atoms remain for the sweep")
        best = int(np.argmin(sweep.errors))  # lowest index wins ties
        chosen.append(best)
        gamma_sub, sigma2 = provisional_mle(scm, dictionary.take(chosen), n)
        gamma = np.zeros(m)
        gamma[chosen] = gamma_sub
        state = build_covariance(dictionary, gamma, sigma2)
        if sigma2_floor is not None and sigma2 < sigma2_floor:
            break

    return SolverResult(
        support=SupportSet(tuple(chosen)),
        gamma=gamma,
        sigma2=sigma2,
        iterations=len(chosen),
        converged=True,
    )


def run_clomp(
    Y: np.ndarray,
    dictionary: Dictionary,
    k: int,
    sigma2_floor: float | None = None,
) -> SolverResult:
    """Recover a K-sparse support from snapshots Y by greedy pursuit."""
    return run_clomp_scm(sample_covariance(Y), dictionary, k, sigma2_floor)
