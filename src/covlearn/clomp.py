"""Greedy covariance-learning pursuit.

Grows the support one atom per step: a sweep evaluates, for every remaining
atom, the exact drop in the conditional negative log-likelihood achievable
by activating that atom alone; the best atom is added and the powers plus
noise variance are refit in closed form on the grown support. Selected
atoms are excluded from later sweeps, so no atom is ever chosen twice.

The sweeps never build the model covariance: the model has at most K nonzero
powers, so :func:`covlearn.model.support_atom_forms` evaluates the per-atom
forms from the support's Gram rows, one row pair appended per chosen atom.
A solve costs O(N^2 M + KNM) on a dense dictionary (O(N^2 + KNM) on a
steering grid) instead of K dense form passes and K + 1 covariance inverses.
The problems of a stack take their K steps in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clbcd import Problem, SolverResult
from .model import (
    CovarianceState,
    Dictionary,
    InvalidDataError,
    _one_atom_forms,
    atom_quadratic_forms,
    provisional_mle,
    support_atom_forms,
)
from .sparsity import SupportSet


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
    _, q, r = _one_atom_forms(state.theta, state.dictionary.atom(i), scm)
    return float(_power_star(q, r))


def _power_star(q, r):
    """Conditionally optimal power max((r - q) / q^2, 0) of an atom with zero power."""
    return np.maximum((r - q) / q**2, 0.0)


def sweep_errors(state: CovarianceState, scm: np.ndarray, excluded=()) -> SweepResult:
    """Conditional-likelihood sweep over all atoms outside ``excluded``.

    For each candidate atom the optimal power gamma_i and the resulting
    likelihood change epsilon_i = log(1 + gamma_i q_i) - gamma_i q_i are
    returned (q_i = a_i^H Theta a_i).
    """
    return _sweep(*atom_quadratic_forms(state, scm), excluded)


def _sweep(q: np.ndarray, r: np.ndarray, excluded) -> SweepResult:
    """The sweep of :func:`sweep_errors` from the per-atom forms (q, r)."""
    gamma = _power_star(q, r)
    u = gamma * q
    errors = np.log1p(u) - u
    idx = list(excluded)
    if idx:
        gamma[idx] = 0.0
        errors[idx] = np.inf
    return SweepResult(gamma_candidates=gamma, errors=errors)


def run_clomp(Y: np.ndarray, dictionary: Dictionary, k: int) -> SolverResult:
    """Recover a K-sparse support from snapshots Y (an N x L matrix or a
    :class:`~covlearn.clbcd.Problem` over ``dictionary``) by greedy pursuit.

    A Problem reads the row a stacked solve kept for it, if any (see
    :meth:`~covlearn.clbcd.Problem.solve`); the result is the one it gets
    alone."""
    return Problem.of(Y, dictionary, k).solve(_clomp, k)


def _clomp(problems, k: int) -> list:
    """cl-omp on a stack of problems over one dictionary, one result per problem.

    The K greedy steps run in lockstep: each evaluates every row's forms from
    its support's Gram rows in one stacked call, sweeps and picks row by
    row, and refits every row's grown support in one stacked call. The first
    step evaluates the noise-only start, an empty support, the same way.
    """
    dictionary = problems[0].dictionary
    n = dictionary.n_sensors
    scm = np.array([p.scm for p in problems])
    forms = np.array([p.forms for p in problems])

    # noise-only start: Sigma = s2 I with s2 = tr(Shat)/n on the empty support
    chosen = [[] for _ in problems]
    gamma_sub = np.empty((len(problems), 0))
    sigma2 = np.array([p.trace / n for p in problems])
    rows = None

    for _ in range(k):
        q, r, rows = support_atom_forms(dictionary, scm, chosen, gamma_sub, sigma2, rows, forms)
        for support, q_row, r_row in zip(chosen, q, r):
            sweep = _sweep(q_row, r_row, support)
            if not np.any(np.isfinite(sweep.errors)):
                raise InvalidDataError("no candidate atoms remain for the sweep")
            support.append(int(np.argmin(sweep.errors)))  # lowest index wins ties
        gamma_sub, sigma2 = provisional_mle(scm, dictionary.take(chosen), n)

    results = []
    for support, g, s2 in zip(chosen, gamma_sub, sigma2):
        gamma = np.zeros(dictionary.n_atoms)
        gamma[support] = g
        results.append(SolverResult(SupportSet(tuple(support)), gamma, float(s2), k, True))
    return results
