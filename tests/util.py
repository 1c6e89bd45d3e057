"""Shared helpers: random problem instances and independent numeric oracles.

Oracle code here deliberately avoids the library's own evaluation paths
(explicit inverses, slogdet, double loops, scalar line searches) so the
tests cross-check the implementation rather than echo it.
"""

import numpy as np

from covlearn import Dictionary, build_covariance, provisional_mle, sweep_errors


def random_unit_dictionary(rng, n, m):
    atoms = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2)
    return Dictionary(atoms / np.linalg.norm(atoms, axis=0), norm_mode="unit")


def random_pdh(rng, n, ridge=0.1):
    """Random positive definite Hermitian matrix."""
    W = (rng.standard_normal((n, n + 2)) + 1j * rng.standard_normal((n, n + 2))) / np.sqrt(2)
    return W @ W.conj().T / (n + 2) + ridge * np.eye(n)


def random_state(rng, n, m, min_gamma=0.0):
    """Random consistent covariance state over a random unit-norm dictionary."""
    A = random_unit_dictionary(rng, n, m)
    gamma = min_gamma + rng.uniform(0.0, 2.0, size=m)
    sigma2 = rng.uniform(0.5, 2.0)
    return build_covariance(A, gamma, sigma2)


def direct_nll(sigma, scm):
    """Independent NLL evaluation: tr(solve(Sigma, Shat)) + log det Sigma."""
    val = np.trace(np.linalg.solve(sigma, scm)).real
    sign, logdet = np.linalg.slogdet(sigma)
    assert sign.real > 0
    return val + logdet


def golden_section_min(f, lo, hi, tol=1e-12, max_iter=300):
    """Golden-section search for the minimizer of a unimodal scalar function."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a < tol * max(1.0, abs(a) + abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


# (N, M) of steering grids over [-90, 90] deg, odd and even M; the two
# endpoints are both the atom z = -1 (aliased).
ULA_SHAPES = [(2, 7), (2, 8), (3, 41), (3, 40), (20, 1801), (20, 360)]


def dense_covariance(atoms, gamma, sigma2):
    """Explicit A diag(gamma) A^H + sigma2 I."""
    A = np.asarray(atoms)
    return A @ np.diag(gamma) @ A.conj().T + sigma2 * np.eye(A.shape[0])


def dense_atom_forms(atoms, H):
    """Per-atom Re a^H H a, one atom at a time."""
    return np.array([np.vdot(a, H @ a).real for a in np.asarray(atoms).T])


def max_rel_err(actual, expected):
    """Largest entrywise deviation relative to the largest expected entry."""
    return np.max(np.abs(actual - expected)) / np.max(np.abs(expected))


def dense_clomp(scm, dictionary, k):
    """cl-omp's greedy loop on dense model covariances: (support, gamma, sigma2).

    Builds Sigma and its inverse after every refit and sweeps all atoms with
    the dense per-atom forms of that state; the library evaluates the same
    sweeps from the support's Gram rows instead.
    """
    n, m = dictionary.n_sensors, dictionary.n_atoms
    state = build_covariance(dictionary, np.zeros(m), np.trace(scm).real / n)
    chosen = []
    for _ in range(k):
        sweep = sweep_errors(state, scm, chosen)
        chosen.append(int(np.argmin(sweep.errors)))
        gamma_sub, sigma2 = provisional_mle(scm, dictionary.take(chosen), n)
        gamma = np.zeros(m)
        gamma[chosen] = gamma_sub
        state = build_covariance(dictionary, gamma, sigma2)
    return tuple(chosen), gamma, sigma2
