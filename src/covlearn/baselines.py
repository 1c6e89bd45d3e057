"""Comparison methods sharing the covariance-learning model.

Iterative spectral estimators (IAA, SAMV2, SBL power-ratio variants, cyclic
coordinatewise optimization, M-SBL expectation-maximization), the classic
greedy SOMP, grid MUSIC, and the exhaustive single-source grid MLE. All
iterative runners share the sup-norm relative stopping rule and take the
same :class:`SolverConfig` as the main solvers.
"""

from __future__ import annotations

import numpy as np

from .clbcd import (
    Problem,
    SolverConfig,
    SolverResult,
    _noise_refits,
    _stack_results,
    iaa_update,
    iterate,
)
from .model import (
    CovarianceState,
    Dictionary,
    NumericError,
    _noise_floor,
    atom_forms,
    atom_quadratic_forms,
    pseudo_inverse_apply,
)
from .scenario import grid_angles_deg, ula_grid
from .sparsity import SupportSet, hard_threshold

__all__ = [
    "ratio_update",
    "samv2_noise_update",
    "msbl_update",
    "run_iaa",
    "run_samv2",
    "run_sbl",
    "run_msbl",
    "run_cwo",
    "somp",
    "music_doas",
    "mle_single_source",
]


# ---------------------------------------------------------------------------
# single-step update rules
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# full iterative runners
# ---------------------------------------------------------------------------

# Each runner takes Y as an N x L snapshot matrix or as a clbcd.Problem over
# the same dictionary, which the methods of one Monte-Carlo cell share. All
# but cwo solve a Problem with the rest of its batch (clbcd.Problem.solve):
# their steps act elementwise or row by row, so a stack of rows iterates as
# one. cwo's sweep is sequential over the atoms and runs one row.


def _stack(problems):
    """The stacked sample covariances of problems and each one's tr(Shat)."""
    scm = np.array([p.scm for p in problems])
    return scm, np.array([np.trace(p.scm).real for p in problems])


def run_iaa(Y, dictionary: Dictionary, k: int, config: SolverConfig | None = None) -> SolverResult:
    """IAA spectral estimate, thresholded to a size-K support at the end.

    The maintained model covariance is A Gamma A^H plus a fixed diagonal
    loading of 1e-12 tr(Shat)/N (invertibility guard only; the recursion
    carries no explicit noise term). The reported sigma2 is the
    projector-residual MLE on the final support.
    """
    return Problem.of(Y, dictionary, k).solve(_iaa, k, config or SolverConfig())


def _iaa(problems, k: int, config: SolverConfig) -> list:
    scm, tr = _stack(problems)
    loading = 1e-12 * tr / problems[0].dictionary.n_sensors
    gamma, _, iterations, converged = iterate(
        problems[0].dictionary,
        lambda state, rows: (iaa_update(state, scm[rows]), loading[rows]),
        np.array([p.matched_filter for p in problems]),
        loading,
        config.max_iter,
        config.tol,
    )
    supports = [hard_threshold(g, k, config.peak) for g in gamma]
    sigma2 = _noise_refits(problems, supports)
    return _stack_results(supports, gamma, sigma2, iterations, converged)


def _ratio_method(problems, k: int, config: SolverConfig, noise_rule: str, b: float) -> list:
    scm, tr = _stack(problems)
    n = problems[0].dictionary.n_sensors
    noise_floor = _noise_floor(tr, n)

    def step(state, rows):
        gamma = ratio_update(state, scm[rows], b)
        if noise_rule == "samv2":
            return gamma, np.maximum(samv2_noise_update(state, scm[rows]), noise_floor[rows])
        supports = [hard_threshold(g, k, config.peak) for g in gamma]
        return gamma, _noise_refits([problems[i] for i in rows], supports)

    out = iterate(
        problems[0].dictionary,
        step,
        np.array([p.matched_filter for p in problems]),
        tr / n,
        config.max_iter,
        config.tol,
    )
    return _stack_results([hard_threshold(g, k, config.peak) for g in out[0]], *out)


def run_samv2(Y, dictionary: Dictionary, k: int, config: SolverConfig | None = None) -> SolverResult:
    """Power-ratio update (b=1) paired with the trace-ratio noise rule."""
    return Problem.of(Y, dictionary, k).solve(_ratio_method, k, config or SolverConfig(), "samv2", 1.0)


def run_sbl(
    Y, dictionary: Dictionary, k: int, config: SolverConfig | None = None, b: float = 1.0
) -> SolverResult:
    """Power-ratio update with exponent b paired with the support-projector noise refit.

    b = 1 gives the standard variant and b = 1/2 the square-root flavor
    (the ``sbl1`` tag); :func:`ratio_update` rejects any other exponent.
    """
    return Problem.of(Y, dictionary, k).solve(_ratio_method, k, config or SolverConfig(), "support", b)


def run_msbl(Y, dictionary: Dictionary, k: int, config: SolverConfig) -> SolverResult:
    """EM iteration on the signal powers with a known noise variance.

    The final power spectrum is pruned to its K largest entries (or peaks)
    to produce the reported support.
    """
    if config.known_sigma2 is None:
        raise ValueError("msbl requires a known_sigma2")
    return Problem.of(Y, dictionary, k).solve(_msbl, k, config)


def _msbl(problems, k: int, config: SolverConfig) -> list:
    scm = _stack(problems)[0]
    sigma2 = np.full(len(problems), float(config.known_sigma2))
    out = iterate(
        problems[0].dictionary,
        lambda state, rows: (msbl_update(state, scm[rows]), sigma2[rows]),
        np.array([p.matched_filter for p in problems]),
        sigma2,
        config.max_iter,
        config.tol,
    )
    return _stack_results([hard_threshold(g, k, config.peak) for g in out[0]], *out)


def run_cwo(Y, dictionary: Dictionary, k: int, config: SolverConfig) -> SolverResult:
    """Cyclic coordinatewise descent on the powers with known noise variance.

    Each coordinate takes its exact conditional minimizer (clamped at
    zero); Theta is tracked through rank-one downdates within a sweep and
    re-factorized once per sweep. Stops when a full sweep no longer moves
    the powers.
    """
    if config.known_sigma2 is None:
        raise ValueError("cwo requires a known_sigma2")
    scm = Problem.of(Y, dictionary, k).scm
    sigma2 = float(config.known_sigma2)
    A = dictionary.atoms

    def sweep(state, rows):
        gamma = np.array(state.gamma[0])
        theta = np.array(state.theta[0])
        for i in range(dictionary.n_atoms):
            # exact minimizer move max(r/q^2 - 1/q, -gamma_i) with q = a^H Theta a
            # and r = a^H Theta Shat Theta a
            ta = theta @ A[:, i]
            q = np.vdot(A[:, i], ta).real
            if q <= 0.0:
                raise NumericError("a^H Theta a must be positive for a PD model covariance")
            delta = max(np.vdot(ta, scm @ ta).real / q**2 - 1.0 / q, -gamma[i])
            if delta != 0.0:
                gamma[i] += delta
                theta -= (delta / (1.0 + delta * q)) * np.outer(ta, ta.conj())
        if gamma.min() < 0.0:
            gamma = np.maximum(gamma, 0.0)  # roundoff from exact -gamma_i steps
        return gamma[None], state.sigma2

    gamma, _, iterations, converged = iterate(
        dictionary, sweep, np.zeros((1, dictionary.n_atoms)), [sigma2], config.max_iter, config.tol
    )
    support = hard_threshold(gamma[0], k, config.peak)
    return SolverResult(support, gamma[0], sigma2, int(iterations[0]), bool(converged[0]))


# ---------------------------------------------------------------------------
# non-iterative comparison methods
# ---------------------------------------------------------------------------


def somp(Y, dictionary: Dictionary, k: int) -> SupportSet:
    """Simultaneous OMP: greedy residual-correlation selection with LS refits.

    Selects the atom maximizing ||a_i^H R||_2 / ||a_i||_2 against the
    current residual, refits all selected rows by least squares, K times.
    Y is an N x L snapshot matrix or a :class:`Problem` over ``dictionary``;
    it is validated like every other solver's input (its sample covariance
    must have energy), so all-zero snapshots raise ValueError.
    """
    Y = Problem.of(Y, dictionary, k).Y
    A = dictionary.atoms
    norms = np.sqrt(dictionary._norms2)

    chosen: list[int] = []
    residual = Y
    for _ in range(k):
        score = np.linalg.norm(A.conj().T @ residual, axis=1) / norms
        score[chosen] = -np.inf
        best = int(np.argmax(score))  # lowest index wins ties
        chosen.append(best)
        sub = A[:, chosen]
        residual = Y - sub @ pseudo_inverse_apply(sub, Y)
    return SupportSet(tuple(chosen))


def music_doas(Y, grid: Dictionary, k: int) -> SolverResult:
    """Grid MUSIC: K largest pseudospectrum peaks over the steering grid.

    Y is an N x L snapshot matrix or a :class:`Problem` over ``grid``; a
    Problem of a batch is solved with the rest of its batch. The
    noise subspace is spanned by the eigenvectors of the N-K smallest
    sample-covariance eigenvalues; :meth:`Problem.of` requires K < N, so
    that subspace is non-empty, and a sample covariance with energy. The
    reported sigma2 is the mean of those eigenvalues, clamped like
    :func:`noise_mle` so it stays positive when L <= K leaves them at zero
    up to rounding. One eigendecomposition counts as one iteration.
    """
    return Problem.of(Y, grid, k).solve(_music, k)


def _music(problems, k: int) -> list:
    grid = problems[0].dictionary
    n = grid.n_sensors
    scm, tr = _stack(problems)
    evals, vecs = np.linalg.eigh(scm)
    noise_basis = vecs[..., : n - k]
    proj = atom_forms(grid, (noise_basis @ noise_basis.conj().swapaxes(-1, -2))[:, None])[:, 0]
    results = []
    for p, e, t in zip(proj, evals, tr):
        support = hard_threshold(1.0 / np.maximum(p, 1e-300), k, peak=True)
        sigma2 = max(float(np.mean(e[: n - k])), _noise_floor(t, n))
        results.append(SolverResult(support, None, sigma2, iterations=1, converged=True))
    return results


def mle_single_source(scm: np.ndarray, n_points: int) -> float:
    """Single-source ML direction: argmax of a(theta)^H Shat a(theta) over
    the uniform n_points angle grid of :func:`grid_angles_deg`.

    The powers are read through :func:`atom_forms` on the shared
    ``ula_grid(N, n_points)``. Ties resolve to the lowest grid index.
    """
    scm = np.asarray(scm, dtype=np.complex128)
    power = atom_forms(ula_grid(scm.shape[0], n_points), scm[None])[0]
    return float(grid_angles_deg(n_points)[int(np.argmax(power))])
