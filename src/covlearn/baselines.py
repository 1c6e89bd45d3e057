"""Comparison methods sharing the covariance-learning model.

Iterative spectral estimators (IAA, SAMV2, SBL power-ratio variants, cyclic
coordinatewise optimization, M-SBL expectation-maximization), the classic
greedy SOMP, grid MUSIC, and the exhaustive single-source grid MLE. All
iterative runners share the sup-norm relative stopping rule and take the
same :class:`SolverConfig` as the main solvers.
"""

from __future__ import annotations

import numpy as np

from .clbcd import Problem, SolverConfig, SolverResult, _solve_power, _support
from .model import (
    CovarianceState,
    Dictionary,
    InvalidDataError,
    _noise_floor,
    _one_atom_forms,
    _qr_full_rank,
    atom_forms,
    atom_quadratic_forms,
    provisional_mle,
    pseudo_inverse_apply,
)
from .scenario import grid_angles_deg, steering_matrix, ula_grid
from .sparsity import SupportSet

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

# iaa, samv2, sbl (and sbl1), msbl and cwo are rule pairs of clbcd's one stacked power
# iteration (clbcd._POWER_RULES). Each runner takes Y as an N x L snapshot matrix or as a
# clbcd.Problem over the same dictionary, which reads the row a stacked solve kept for it.


def run_iaa(Y, dictionary: Dictionary, k: int, config: SolverConfig | None = None) -> SolverResult:
    """IAA spectral estimate, thresholded to a size-K support at the end.

    The maintained model covariance is A Gamma A^H plus a fixed diagonal
    loading of 1e-12 tr(Shat)/N (invertibility guard only; the recursion
    carries no explicit noise term). The reported sigma2 is the
    projector-residual MLE on the final support.

    The loading, not the data, decides the outcome on a dictionary whose
    atoms span fewer than N directions (N = M = 6 with one atom duplicated,
    with or without a source on it): a^H Theta a of an atom rounds to 0 and
    the solve raises :class:`NumericError`, a counted failure. The loading
    stays fixed because every recorded IAA output depends on it.
    """
    return _solve_power("iaa", Y, dictionary, k, config or SolverConfig())


def run_samv2(Y, dictionary: Dictionary, k: int, config: SolverConfig | None = None) -> SolverResult:
    """Power-ratio update (b=1) paired with the trace-ratio noise rule."""
    return _solve_power("samv2", Y, dictionary, k, config or SolverConfig())


def run_sbl(
    Y, dictionary: Dictionary, k: int, config: SolverConfig | None = None, b: float = 1.0
) -> SolverResult:
    """Power-ratio update with exponent b paired with the support-projector noise refit.

    b = 1 gives the standard variant and b = 1/2 the square-root flavor
    (the ``sbl1`` tag); any other exponent raises ValueError.
    """
    if b not in (0.5, 1.0):
        raise ValueError("ratio exponent b must be 1/2 or 1")
    return _solve_power("sbl" if b == 1.0 else "sbl1", Y, dictionary, k, config or SolverConfig())


def run_msbl(Y, dictionary: Dictionary, k: int, config: SolverConfig) -> SolverResult:
    """EM iteration on the signal powers with a known noise variance.

    The final power spectrum is pruned to its K largest entries (peaks on
    a steering grid) to produce the reported support.
    """
    return _solve_power("msbl", Y, dictionary, k, config)


def run_cwo(Y, dictionary: Dictionary, k: int, config: SolverConfig) -> SolverResult:
    """Cyclic coordinatewise descent on the powers with known noise variance.

    Each coordinate takes its exact conditional minimizer (clamped at
    zero); Theta is tracked through rank-one downdates within a sweep and
    re-factorized once per sweep. Stops when a full sweep no longer moves
    the powers.
    """
    return _solve_power("cwo", Y, dictionary, k, config)


def _cwo_sweep(state: CovarianceState, scm: np.ndarray) -> np.ndarray:
    """One sweep of :func:`run_cwo` on each row of a stacked state."""
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


# ---------------------------------------------------------------------------
# non-iterative comparison methods
# ---------------------------------------------------------------------------


def somp(Y, dictionary: Dictionary, k: int) -> SupportSet:
    """Simultaneous OMP: greedy residual-correlation selection with LS refits.

    Selects the atom maximizing ||a_i^H R||_2 / ||a_i||_2 against the
    current residual, refits all selected rows by least squares, K times.
    Y is an N x L snapshot matrix or a :class:`Problem` over ``dictionary``;
    it is validated like every other solver's input (its sample covariance
    must have energy), so all-zero snapshots raise InvalidDataError. A Problem
    reads the row a stacked solve kept for it, if any.

    Each step factors its support once and forms the residual the next step
    correlates, so the last step forms none; the Problem keeps that step's
    fit, the reduced QR (Q, R) of the support atoms and the least-squares
    rows, keyed by the support's indices.
    """
    return Problem.of(Y, dictionary, k).solve(_somp, k)


def _somp(problems, k: int) -> list:
    """somp on a stack of problems over one dictionary, one SupportSet per
    problem; their snapshot matrices share one shape (else InvalidDataError,
    so each is solved alone).

    The K steps run in lockstep. Each forms every row's residual and
    correlations one row at a time: the correlations A^H R and their squares
    conj(A^H R) A^H R, which np.linalg.norm would sum, are (M, L) arrays that
    every row overwrites. Every row's grown support is then factored by one
    stacked QR and fit by one stacked solve.
    """
    if len(shapes := sorted({p.Y.shape for p in problems})) > 1:
        raise InvalidDataError(f"somp stacks snapshot matrices of one shape, got {shapes}")
    dictionary = problems[0].dictionary
    A = dictionary.atoms
    # a dense dictionary keeps conj(A); a steering grid does not, so it conjugates once
    A_h = (A.conj() if dictionary._atoms_conj is None else dictionary._atoms_conj).T
    norms = np.sqrt(dictionary._norms2)
    Y = np.array([p.Y for p in problems])
    corr = np.empty((A.shape[1], Y.shape[-1]), dtype=np.complex128)
    squares = np.empty_like(corr)

    chosen = [[] for _ in problems]
    for _ in range(k):
        for i, support in enumerate(chosen):
            residual = Y[i] - sub[i] @ rows[i] if support else Y[i]
            np.matmul(A_h, residual, out=corr)
            np.multiply(np.conjugate(corr, out=squares), corr, out=squares)
            score = np.sqrt(np.add.reduce(squares.real, axis=1)) / norms
            score[support] = -np.inf
            support.append(int(np.argmax(score)))  # lowest index wins ties
        sub = dictionary.take(chosen)
        factor = _qr_full_rank(sub)
        rows = pseudo_inverse_apply(sub, Y, factor=factor)
    for a in (*factor, rows):
        a.flags.writeable = False
    supports = [SupportSet(tuple(support)) for support in chosen]
    for problem, support, Q, R, fit in zip(problems, supports, *factor, rows):
        problem._fits[support.indices] = (Q, R), fit
    return supports


def music_doas(Y, grid: Dictionary, k: int) -> SolverResult:
    """Grid MUSIC: the support of the pseudospectrum 1 / a_i^H P_n a_i, read
    as every solver reads its powers: the K largest peaks on a steering grid,
    the K largest entries on any other dictionary.

    Y is an N x L snapshot matrix or a :class:`Problem` over ``grid``, which
    reads the row a stacked solve kept for it, if any. The noise subspace
    is spanned by the eigenvectors of the N-K smallest sample-covariance
    eigenvalues; :meth:`Problem.of` requires K < N, so that subspace is
    non-empty, and a sample covariance with energy. The
    reported sigma2 is the mean of those eigenvalues, clamped like
    :func:`noise_mle` so it stays positive when L <= K leaves them at zero
    up to rounding. One eigendecomposition counts as one iteration.
    """
    return Problem.of(Y, grid, k).solve(_music, k)


def _music(problems, k: int) -> list:
    grid = problems[0].dictionary
    n = grid.n_sensors
    evals, vecs = np.linalg.eigh(np.array([p.scm for p in problems]))
    noise_basis = vecs[..., : n - k]
    proj = atom_forms(grid, (noise_basis @ noise_basis.conj().swapaxes(-1, -2))[:, None])[:, 0]
    results = []
    for problem, p, e in zip(problems, proj, evals):
        support = _support(1.0 / np.maximum(p, 1e-300), k, grid)
        sigma2 = max(float(np.mean(e[: n - k])), _noise_floor(problem.trace, n))
        results.append(SolverResult(support, None, sigma2, iterations=1, converged=True))
    return results


def mle_single_source(scm: np.ndarray, n_points: int) -> float | np.ndarray:
    """Single-source ML direction: argmax of a(theta)^H Shat a(theta) over
    the uniform n_points angle grid of :func:`grid_angles_deg`.

    The powers are read through :func:`atom_forms` on the shared
    ``ula_grid(N, n_points)``. Ties resolve to the lowest grid index. A
    stack (S, N, N) gives one direction per row, each the one it gets alone.
    """
    scm = np.asarray(scm, dtype=np.complex128)
    power = atom_forms(ula_grid(scm.shape[-1], n_points), scm[..., None, :, :])[..., 0, :]
    theta = grid_angles_deg(n_points)[np.argmax(power, axis=-1)]
    return float(theta) if scm.ndim == 2 else theta


FINE_GRID_POINTS = 18001  # 0.01 deg resolution for the single-source searcher


def _mle1(problems, k: int) -> list:
    """mle1 on a stack: each row's fine-grid direction and the
    :func:`provisional_mle` fit of its steering vector there."""
    if k != 1:
        raise ValueError("mle1 handles exactly one source")
    n = problems[0].dictionary.n_sensors
    scm = np.array([p.scm for p in problems])
    thetas = mle_single_source(scm, FINE_GRID_POINTS)
    powers, sigma2 = provisional_mle(scm, steering_matrix(n, thetas).T[..., None], n)
    return [SolverResult(None, None, s2, 1, True, theta_deg=(float(theta),), powers=p)
            for theta, p, s2 in zip(thetas, powers, sigma2)]
