"""Covariance-learning power iteration with a support noise refit, and the
problem, iteration loop and result type every solver shares.

cl-bcd starts from the noise-only model and alternates IAA's power
recursion gamma_i <- a_i^H Theta Shat Theta a_i / (a_i^H Theta a_i)^2 over
all atoms (against the inverse covariance of the previous iterate) with the
closed-form noise-variance refit on the current top-K support, until the
power iterates stop moving in relative sup-norm. iaa, samv2, sbl, sbl1, msbl
and cwo run the same power iteration with their own (power rule, noise rule)
pair, which :data:`_POWER_RULES` names.

Problems over one dictionary can be solved as one stack: :func:`iterate`
runs every row together and drops each row once it has converged, and
:func:`covlearn.methods.solve_stack` keeps each row on its problem until
that problem's :meth:`Problem.solve` asks for it, each row with the bits
it gets alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (
    CovarianceState,
    Dictionary,
    NumericError,
    _noise_floor,
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
    "iaa_update",
    "iterate",
    "matched_filter_powers",
    "relative_change",
    "run_clbcd",
]


@dataclass(frozen=True)
class SolverConfig:
    """Settings of every iterative solver, cl-bcd and the baselines alike.

    max_iter caps the iterations; the iteration stops once the powers move
    less than tol in relative sup-norm. peak selects top-K local peaks
    instead of top-K entries for the reported support. known_sigma2
    supplies the noise variance to the methods that do not estimate it
    (M-SBL, CWO); when given it must be positive and finite.
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
        if self.known_sigma2 is not None and not 0 < self.known_sigma2 < np.inf:
            raise ValueError(f"known_sigma2={self.known_sigma2} must be positive and finite")


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


def _matched_filter(dictionary: Dictionary, forms: np.ndarray) -> np.ndarray:
    return np.maximum(forms, 0.0) / dictionary._norms2**2


def matched_filter_powers(dictionary: Dictionary, scm: np.ndarray) -> np.ndarray:
    """Matched-filter spectrum a_i^H Shat a_i / ||a_i||^4 (strictly positive init)."""
    return _matched_filter(dictionary, atom_forms(dictionary, scm[None])[0])


# The exceptions a solve may raise for its data: the engine counts each as a
# failed cell, and a stacked solve that raises one keeps no row, so each of
# its problems is solved alone.
_COUNTED = (ArithmeticError, np.linalg.LinAlgError, ValueError)


class Problem:
    """Snapshots Y over a dictionary, with what every method reads of them.

    The methods see the data through Y itself (somp) or through the sample
    covariance Shat = Y Y^H / L, which the constructor forms once and
    validates: N x N for the dictionary's N sensors, finite, and with
    tr(Shat) > 0 (else ValueError). The trace that check computes is kept
    as :attr:`trace`, which the solvers read for their noise-only starts
    and noise floors. Three things are evaluated on first use
    and then kept: the per-atom forms a_i^H Shat a_i (:attr:`forms`), the
    matched-filter spectrum derived from them (:attr:`matched_filter`) and
    the noise-variance refit of each support asked for (see
    :func:`_noise_refits`). :func:`covlearn.baselines.somp` keeps the
    least-squares fit of its final support, keyed by the support's indices.
    Y, scm and the cached arrays are read-only, so every method of a
    Monte-Carlo cell can solve one Problem and get the results it gets
    from Y alone.
    """

    def __init__(self, Y, dictionary: Dictionary):
        Y = np.asarray(Y, dtype=np.complex128).view()
        Y.flags.writeable = False
        scm = sample_covariance(Y)
        if scm.shape != (dictionary.n_sensors,) * 2:
            raise ValueError("sample covariance shape does not match the dictionary")
        if not np.isfinite(scm).all():
            raise ValueError("sample covariance entries must be finite")
        trace = np.trace(scm).real
        if not trace > 0:
            raise ValueError("sample covariance has no energy")
        scm.flags.writeable = False
        self.Y = Y
        self.dictionary = dictionary
        self.scm = scm
        self.trace = trace
        self._noise = {}
        self._fits = {}  # somp's final support -> (Q, R) of its atoms and the LS rows
        self._solved = {}  # (solve_stack, *args) -> this problem's row of a stacked solve

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
        n = dictionary.n_sensors
        if not 1 <= k < n:
            raise ValueError(f"sparsity k={k} must satisfy 1 <= k < n_sensors={n}")
        if k > dictionary.n_atoms:
            raise ValueError(f"sparsity k={k} exceeds the number of atoms {dictionary.n_atoms}")
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

    def solve(self, solve_stack, *args):
        """This problem's result of ``solve_stack``: the row a stacked solve
        of the same ``(solve_stack, *args)`` kept for it (see
        :func:`covlearn.methods.solve_stack`), which it reads once, else
        ``solve_stack([self], *args)[0]``.
        """
        result = self._solved.pop((solve_stack, *args), None)
        return solve_stack([self], *args)[0] if result is None else result


def _noise_refits(problems, supports) -> np.ndarray:
    """:func:`noise_mle` of each problem on its support of one size, memoised
    per Problem by the support's indices.

    noise_mle is a pure function of scm and the support, and the top-K
    support of successive iterates rarely changes, so each distinct support
    is refit once per Problem. The memo misses of all the problems are
    refit in one stacked call; if it raises, none of them is memoised and
    the error propagates.
    """
    memo = [p._noise.get(s.indices) for p, s in zip(problems, supports)]
    misses = [i for i, sigma2 in enumerate(memo) if sigma2 is None]
    if misses:
        dictionary = problems[0].dictionary
        scm = np.array([problems[i].scm for i in misses])
        atoms = dictionary.take([supports[i].indices for i in misses])
        for i, sigma2 in zip(misses, noise_mle(scm, atoms, dictionary.n_sensors)):
            memo[i] = problems[i]._noise[supports[i].indices] = sigma2
    return np.array(memo)


def relative_change(new: np.ndarray, old: np.ndarray):
    """Sup-norm relative step ||new - old||_inf / ||new||_inf (0 if new == 0),
    of one power vector, or of each row of a stack."""
    scale = np.maximum(new.max(axis=-1), -new.min(axis=-1))
    step = new - old
    step = np.abs(step, out=step).max(axis=-1)
    return np.divide(step, scale, out=np.zeros_like(step), where=scale != 0.0)


def iaa_update(state: CovarianceState, scm: np.ndarray) -> np.ndarray:
    """IAA power recursion: gamma_i <- a_i^H Theta Shat Theta a_i / (a_i^H Theta a_i)^2."""
    q, r = atom_quadratic_forms(state, scm)
    # q and r are this call's own arrays, so the step overwrites them
    np.maximum(r, 0.0, out=r)
    np.square(q, out=q)
    r /= q
    return r


def iterate(dictionary: Dictionary, step, gamma0, sigma2_0, max_iter: int, tol: float):
    """Fixed-point iteration of a stack of (gamma, sigma2), shared by every iterative solver.

    gamma0 is (S, M) and sigma2_0 is (S,): S problems over one dictionary,
    and S = 1 solves one. Each iteration builds the model covariances of
    the rows still running as one stacked state and calls
    ``step(state, rows) -> (gamma_new, sigma2_new)``, where ``rows`` indexes
    those rows in the stack and the results have one row per entry. A row
    stops, and leaves the stack, once :func:`relative_change` of its powers
    falls below tol. Returns (gamma, sigma2, iterations, converged), one
    entry per row; a row at the cap keeps its last iterate with
    iterations = max_iter and converged = False.

    Raises NumericError if a step returns a negative power.
    """
    gamma = np.array(gamma0, dtype=np.float64)
    sigma2 = np.array(sigma2_0, dtype=np.float64)
    iterations = np.full(len(gamma), max_iter)
    converged = np.zeros(len(gamma), dtype=bool)
    rows = np.arange(len(gamma))
    for it in range(1, max_iter + 1):
        # Keep the state bound until the next one is built: freeing it inside
        # the iteration shifted glibc's heap trimming and nearly doubled the
        # page faults of a Gaussian N=32, M=256 run.
        # with every row running, the common case, pass the stack itself:
        # build_covariance copies it into the state, so a gather is a second copy
        live = rows if rows.size < len(gamma) else slice(None)
        state = build_covariance(dictionary, gamma[live], sigma2[live])
        gamma_new, sigma2_new = step(state, rows)
        # row by row: a NaN row must not hide another row's negative power
        if (gamma_new.min(axis=-1) < 0.0).any():
            raise NumericError("power iterate went negative")
        done = relative_change(gamma_new, state.gamma) < tol
        gamma[rows] = gamma_new
        sigma2[rows] = sigma2_new
        if done.any():
            iterations[rows[done]] = it
            converged[rows[done]] = True
            rows = rows[~done]
            if not rows.size:
                break
    return gamma, sigma2, iterations, converged


def run_clbcd(
    Y: np.ndarray, dictionary: Dictionary, k: int, config: SolverConfig | None = None
) -> SolverResult:
    """Recover a K-sparse power vector and its support from snapshots Y
    (an N x L matrix or a :class:`Problem` over ``dictionary``).

    A Problem reads the row a stacked solve kept for it, if any (see
    :meth:`Problem.solve`); the result is the one it gets alone."""
    return _solve_power("cl-bcd", Y, dictionary, k, config or SolverConfig())


# tag -> (power rule, noise rule, ratio exponent b) of :func:`_power_iteration`.
# Power rules: "iaa" iaa_update, "ratio" baselines.ratio_update, "msbl" baselines.msbl_update,
# "cwo" the coordinate sweep baselines._cwo_sweep.
# Noise rules: "refit" on each step's top-K support, "samv2" baselines.samv2_noise_update
# floored, "loading" IAA's fixed 1e-12 tr(Shat)/N, "known" the config's known_sigma2.
_POWER_RULES = {
    "cl-bcd": ("iaa", "refit", None),
    "iaa": ("iaa", "loading", None),
    "samv2": ("ratio", "samv2", 1.0),
    "sbl": ("ratio", "refit", 1.0),
    "sbl1": ("ratio", "refit", 0.5),
    "msbl": ("msbl", "known", None),
    "cwo": ("cwo", "known", None),
}


def _solve_power(tag: str, Y, dictionary: Dictionary, k: int, config: SolverConfig):
    """``tag``'s power iteration on Y, or the row a stacked solve kept for it."""
    return Problem.of(Y, dictionary, k).solve(_power_iteration, tag, k, config)


def _power_iteration(problems, tag: str, k: int, config: SolverConfig) -> list:
    """``tag``'s power iteration on a stack of problems over one dictionary,
    one result per problem: from the matched filter (cwo: zero powers), each
    step applies the tag's rules (:data:`_POWER_RULES`) against the previous
    iterate's model; the "known" noise rule needs known_sigma2 (else
    ValueError). The reported support is the top-K of the final powers: the
    one the last step (or cl-bcd's closed-form start) refit under the "refit"
    noise rule, with that refit as sigma2; the other rules threshold the
    final powers once, and "loading" reports the refit on that support."""
    from . import baselines  # which imports this module; the rules are looked up per call

    power, noise, b = _POWER_RULES[tag]
    if noise == "known" and config.known_sigma2 is None:
        raise ValueError(f"{tag} requires a known_sigma2")
    update = {"iaa": iaa_update, "msbl": baselines.msbl_update, "cwo": baselines._cwo_sweep,
              "ratio": lambda state, scm: baselines.ratio_update(state, scm, b)}[power]
    dictionary = problems[0].dictionary
    n = dictionary.n_sensors
    scm = np.array([p.scm for p in problems])
    tr = np.array([p.trace for p in problems])
    gamma = np.array([np.zeros(dictionary.n_atoms) if power == "cwo" else p.matched_filter
                      for p in problems])  # cwo's sweeps start from zero powers
    supports = [None] * len(problems)
    if noise == "known":
        sigma2 = np.full(len(problems), float(config.known_sigma2))
    else:
        sigma2 = (1e-12 * tr if noise == "loading" else tr) / n
    first = 0
    converged = np.zeros(len(problems), dtype=bool)
    if (power, noise) == ("iaa", "refit"):
        # cl-bcd's iteration 1, in closed form: from the noise-only start
        # Theta = I / s2 (gamma = 0), q_i = ||a_i||^2 / s2 and r_i = a_i^H Shat a_i
        # / s2^2, so the power step r_i / q_i^2 is the matched filter for any
        # s2. It stops as :func:`iterate` would against the zero start.
        first = 1
        supports = [hard_threshold(g, k, config.peak) for g in gamma]
        sigma2 = _noise_refits(problems, supports)
        converged = relative_change(gamma, np.zeros_like(gamma)) < config.tol
    iterations = np.full(len(problems), first)
    live = np.flatnonzero(~converged)

    def step(state, rows):
        running = live[rows]
        powers = update(state, scm[running])
        if noise == "refit":
            new = [hard_threshold(g, k, config.peak) for g in powers]
            for i, support in zip(running, new):
                supports[i] = support
            return powers, _noise_refits([problems[i] for i in running], new)
        if noise == "samv2":
            floor = _noise_floor(tr[running], n)
            return powers, np.maximum(baselines.samv2_noise_update(state, scm[running]), floor)
        return powers, sigma2[running]

    if len(live):
        out = iterate(dictionary, step, gamma[live], sigma2[live], config.max_iter - first, config.tol)
        gamma[live], sigma2[live], iterations[live], converged[live] = out
        iterations[live] += first
    if noise != "refit":
        supports = [hard_threshold(g, k, config.peak) for g in gamma]
    if noise == "loading":
        sigma2 = _noise_refits(problems, supports)
    return [
        SolverResult(support, g, float(s2), int(it), bool(c))
        for support, g, s2, it, c in zip(supports, gamma, sigma2, iterations, converged)
    ]
