"""Covariance-learning power iteration with a support noise refit, and the
problem, iteration loop and result type every solver shares.

cl-bcd starts from the noise-only model and alternates IAA's power
recursion gamma_i <- a_i^H Theta Shat Theta a_i / (a_i^H Theta a_i)^2 over
all atoms (against the inverse covariance of the previous iterate) with the
closed-form noise-variance refit on the current top-K support, until the
power iterates stop moving in relative sup-norm. iaa, samv2, sbl, sbl1, msbl
and cwo run the same power iteration with their own (power rule, noise rule)
pair, which :data:`_POWER_RULES` names; every rule (:func:`iaa_update`,
:func:`ratio_update`, :func:`samv2_noise_update`, :func:`msbl_update`, CWO's
coordinate sweep) lives here beside it, and :mod:`covlearn.baselines` holds
the runners.

Problems over one dictionary can be solved as one stack: the power
iteration runs every row together and drops each row once it has converged,
and :func:`covlearn.methods.solve_stack` keeps each row on its problem until
that problem's :meth:`Problem.solve` asks for it, each row with the bits
it gets alone. Every solver reads its reported support off the dictionary
(:func:`_support`): K largest peaks on a steering grid, else K largest entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (
    CovarianceState,
    Dictionary,
    InvalidDataError,
    NumericError,
    _noise_floor,
    _one_atom_forms,
    atom_forms,
    atom_quadratic_forms,
    build_covariance,
    noise_mle,
    sample_covariance,
)
from .sparsity import SupportSet, hard_threshold


@dataclass(frozen=True)
class SolverConfig:
    """Settings of every iterative solver, cl-bcd and the baselines alike.

    max_iter caps the iterations; the iteration stops once the powers move
    less than tol in relative sup-norm. known_sigma2 supplies the noise
    variance to the methods that do not estimate it (M-SBL, CWO); when given
    it must be positive and finite. The support rule is not a setting: the
    dictionary decides it (see :func:`_support`).
    """

    max_iter: int = 500
    tol: float = 0.5e-4
    known_sigma2: float | None = None

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.known_sigma2 is not None and not 0 < self.known_sigma2 < np.inf:
            raise ValueError(f"known_sigma2={self.known_sigma2} must be positive and finite")


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


# The exceptions a solve raises for its data: the engine counts each as a failed
# cell, and a stacked solve that raises one keeps no row. Any other exception,
# the plain ValueError of a config or of a shape bug included, propagates.
_COUNTED = (NumericError, np.linalg.LinAlgError, InvalidDataError)


class Problem:
    """Snapshots Y over a dictionary, with what every method reads of them.

    The methods see the data through Y itself (somp) or through the sample
    covariance Shat = Y Y^H / L, which the constructor forms once and
    validates: N x N for the dictionary's N sensors (else ValueError), finite
    and with tr(Shat) > 0 (else InvalidDataError). The trace that check
    computes is kept as :attr:`trace`, which the solvers read for their
    noise-only starts and noise floors. Three things are evaluated on first use
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
            raise InvalidDataError("sample covariance entries must be finite")
        trace = np.trace(scm).real
        if not trace > 0:
            raise InvalidDataError("sample covariance has no energy")
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


def ratio_update(state: CovarianceState, scm: np.ndarray, b: float = 1.0) -> np.ndarray:
    """Multiplicative power update gamma_i <- gamma_i * (r_i / q_i)^b.

    Zeros are preserved exactly; the update is stationary wherever the
    ratio equals one, for either exponent.
    """
    if b not in (0.5, 1.0):
        raise ValueError("ratio exponent b must be 1/2 or 1")
    q, r = atom_quadratic_forms(state, scm)
    ratio = np.maximum(r, 0.0) / q
    return state.gamma * ratio**b


def samv2_noise_update(state: CovarianceState, scm: np.ndarray):
    """SAMV2 noise rule sigma2 <- tr(Theta^2 Shat) / tr(Theta^2), one value
    per row of a stacked state."""
    t2 = state.theta @ state.theta
    num = np.einsum("...ij,...ji->...", t2, scm).real
    den = np.trace(t2, axis1=-2, axis2=-1).real
    return num / den


def msbl_update(state: CovarianceState, scm: np.ndarray) -> np.ndarray:
    """One M-SBL EM step on the signal powers at the state's noise variance.

    The posterior source moments against Sigma = A Gamma A^H + sigma2 I
    collapse through the sample covariance to
    gamma_i <- gamma_i^2 r_i + gamma_i (1 - gamma_i q_i). Zero powers remain zero.
    """
    q, r = atom_quadratic_forms(state, scm)
    g = state.gamma
    return np.maximum(g * g * r + g * (1.0 - g * q), 0.0)


def _cwo_sweep(state: CovarianceState, scm: np.ndarray) -> np.ndarray:
    """CWO's power rule, one coordinate sweep per row of a stacked state: each
    atom in turn moves to its exact conditional minimizer (clamped at zero)
    against the row's copy of Theta, downdated by every earlier move."""
    dictionary = state.dictionary
    powers = np.array(state.gamma)
    for gamma, theta, row_scm in zip(powers, state.theta, scm):
        theta = np.array(theta)
        for i in range(dictionary.n_atoms):
            # exact minimizer move max(r/q^2 - 1/q, -gamma_i) with q = a^H Theta a
            # and r = a^H Theta Shat Theta a
            ta, q, r = _one_atom_forms(theta, dictionary.atom(i), row_scm)
            delta = max(r / q**2 - 1.0 / q, -gamma[i])
            if delta != 0.0:
                gamma[i] += delta
                theta -= (delta / (1.0 + delta * q)) * np.outer(ta, ta.conj())
        if gamma.min() < 0.0:
            np.maximum(gamma, 0.0, out=gamma)  # roundoff from exact -gamma_i steps
    return powers


def run_clbcd(
    Y: np.ndarray, dictionary: Dictionary, k: int, config: SolverConfig | None = None
) -> SolverResult:
    """Recover a K-sparse power vector and its support from snapshots Y
    (an N x L matrix or a :class:`Problem` over ``dictionary``).

    A Problem reads the row a stacked solve kept for it, if any (see
    :meth:`Problem.solve`); the result is the one it gets alone."""
    return _solve_power("cl-bcd", Y, dictionary, k, config or SolverConfig())


# tag -> (power rule, noise rule, ratio exponent b) of :func:`_power_iteration`.
# Power rules: "iaa" iaa_update, "ratio" ratio_update, "msbl" msbl_update,
# "cwo" the coordinate sweep _cwo_sweep.
# Noise rules: "refit" on each step's top-K support, "samv2" samv2_noise_update
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


def _support(powers: np.ndarray, k: int, dictionary: Dictionary) -> SupportSet:
    """The support every solver reports of ``powers`` over ``dictionary``: the
    K largest peaks on a steering grid (a Vandermonde dictionary, whose
    adjacent atoms see one source together), else the K largest entries."""
    return hard_threshold(powers, k, peak=dictionary.is_vandermonde)


def _power_iteration(problems, tag: str, k: int, config: SolverConfig) -> list:
    """``tag``'s power iteration on a stack of problems over one dictionary,
    one result per problem: from the matched filter (cwo: zero powers), each
    step applies the tag's rules (:data:`_POWER_RULES`) against the model of
    the previous iterate, built for the rows still running as one stacked
    state; the "known" noise rule needs known_sigma2 (else ValueError). A row
    stops, and leaves the stack, once :func:`relative_change` of its powers
    falls below tol; a row at the cap keeps its last iterate with iterations
    = max_iter and converged False. A step that returns a negative power
    raises NumericError. The reported support (:func:`_support`) is the one
    the last step (or cl-bcd's closed-form start) refit under the "refit"
    noise rule, with that refit as sigma2; the other rules threshold the
    final powers once, and "loading" reports the refit on that support."""
    power, noise, b = _POWER_RULES[tag]
    if noise == "known" and config.known_sigma2 is None:
        raise ValueError(f"{tag} requires a known_sigma2")
    # the rules are looked up per call, so a patched module attribute runs
    update = {"iaa": iaa_update, "msbl": msbl_update, "cwo": _cwo_sweep,
              "ratio": lambda state, scm: ratio_update(state, scm, b)}[power]
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
        # s2. It stops as the loop below would against the zero start.
        first = 1
        supports = [_support(g, k, dictionary) for g in gamma]
        sigma2 = _noise_refits(problems, supports)
        converged = relative_change(gamma, np.zeros_like(gamma)) < config.tol
    iterations = np.where(converged, first, config.max_iter)
    rows = np.flatnonzero(~converged)
    for it in range(first + 1, config.max_iter + 1):
        if not rows.size:
            break
        # Keep the state bound until the next one is built: freeing it inside
        # the iteration shifted glibc's heap trimming and nearly doubled the
        # page faults of a Gaussian N=32, M=256 run.
        # with every row running, the common case, pass the stack itself:
        # build_covariance copies it into the state, so a gather is a second copy
        live = rows if rows.size < len(problems) else slice(None)
        state = build_covariance(dictionary, gamma[live], sigma2[live])
        powers = update(state, scm[rows])
        if noise == "refit":
            new = [_support(g, k, dictionary) for g in powers]
            for i, support in zip(rows, new):
                supports[i] = support
            sigma2[rows] = _noise_refits([problems[i] for i in rows], new)
        elif noise == "samv2":
            sigma2[rows] = np.maximum(samv2_noise_update(state, scm[rows]),
                                      _noise_floor(tr[rows], n))
        # row by row: a NaN row must not hide another row's negative power
        if (powers.min(axis=-1) < 0.0).any():
            raise NumericError("power iterate went negative")
        done = relative_change(powers, state.gamma) < config.tol
        gamma[rows] = powers
        if done.any():
            iterations[rows[done]] = it
            converged[rows[done]] = True
            rows = rows[~done]
    if noise != "refit":
        supports = [_support(g, k, dictionary) for g in gamma]
    if noise == "loading":
        sigma2 = _noise_refits(problems, supports)
    return [
        SolverResult(support, g, float(s2), int(it), bool(c))
        for support, g, s2, it, c in zip(supports, gamma, sigma2, iterations, converged)
    ]
