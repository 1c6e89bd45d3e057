"""Complex Gaussian covariance model for jointly sparse (MMV) recovery.

The measurement model is Y = A X + E with a known dictionary A whose columns
(atoms) mix zero-mean circular Gaussian sources of per-atom power gamma_i on
top of white noise of variance sigma2, so the snapshot covariance is

    Sigma = A diag(gamma) A^H + sigma2 * I.

This module holds the model types, the negative log-likelihood and its
gradient, the rank-one (leave-one-atom-out) identities used by the solvers,
and the closed-form maximum-likelihood refits on a fixed support.

It alone decides how A and A^H are applied. A dictionary whose atoms form a
unit-modulus Vandermonde matrix, a_i[p] = z_i^p with |z_i| = 1 (the steering
grid of a half-wavelength uniform linear array), is recognised from its atoms
at construction, with no option. For such a dictionary Sigma is Hermitian
Toeplitz, assembled from the N coefficients A gamma, and every per-atom form
a_i^H H a_i is a trigonometric polynomial in z_i whose coefficients are the
diagonal sums of H: covariance assembly and the per-atom forms cost
O(N^2 + NM) instead of O(N^2 M). Every other dictionary takes the dense
O(N^2 M) path.

A model whose powers sit on a small support of j atoms, B = A_support, has
per-atom forms that need no N x N matrix: :func:`support_atom_forms` reads
them off the support's Gram rows B^H A and B^H Shat A through the Woodbury
identity, at O(NM) per support atom and O(j^2 M) per evaluation.

All functions are pure; arrays inside the frozen dataclasses are marked
read-only so states can be shared across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class NumericError(ArithmeticError):
    """A numerically impossible or non-finite intermediate was encountered."""


class InvalidDataError(ValueError):
    """The data, or an estimate computed from it, is not a valid model input."""


class DegenerateDowndateError(NumericError):
    """gamma_i * a_i^H Theta a_i is too close to 1 for a rank-one downdate."""


class RankDeficientError(np.linalg.LinAlgError):
    """A matrix that must have full column rank does not."""


def hermitize(Z: np.ndarray, out=None) -> np.ndarray:
    """Symmetrize a square floating-point matrix, or a stack of them, after accumulation.

    ``out`` receives the result and may be Z itself: a caller that owns a
    fresh Z symmetrizes it in place.
    """
    H = np.add(Z, Z.conj().swapaxes(-1, -2), out=out)
    H /= 2.0
    return H


def _add_to_diagonal(M: np.ndarray, v) -> None:
    """M += v I in place, through a strided view of M's diagonal (any layout).

    On a stack of matrices, v holds one value per matrix.
    """
    diagonal = np.einsum("...ii->...i", M)
    diagonal += np.asarray(v)[..., None]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class _Vandermonde:
    """Index tables of a dictionary with atoms[p, i] = z_i**p and |z_i| = 1.

    lags[p, q] = N-1 + q - p numbers the 2N-1 diagonals of an N x N matrix;
    ``order`` sorts the flattened entries by lag and ``starts`` marks where
    each lag begins, for ``np.add.reduceat``. ``powers`` stacks Re z^d over
    Im z^d for d = 1..N-1, shape (2N-2, M), so Re(t @ z^d) is one real product.
    """

    lags: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    powers: np.ndarray


# Largest |atoms[p, i] - z_i**p| per sensor accepted as Vandermonde: steering
# phases pi * p * sin(theta) carry a rounding error of a few p * eps.
_VANDERMONDE_TOL = 32 * np.finfo(np.float64).eps


def _detect_vandermonde(atoms: np.ndarray) -> _Vandermonde | None:
    """Index tables when atoms[p] == z**p with |z| == 1, else None.

    Rows are compared one at a time against a running power of z = atoms[1],
    so the check's temporaries are row-sized; a dictionary that fails leaves
    at its first mismatching row (a Gaussian one at row 0).
    """
    n = atoms.shape[0]
    tol = _VANDERMONDE_TOL * n
    if n < 2 or np.max(np.abs(atoms[0] - 1.0)) > tol:
        return None
    z = atoms[1]
    if np.max(np.abs(np.abs(z) - 1.0)) > tol:
        return None
    zp = z
    for p in range(2, n):
        zp = zp * z
        if np.max(np.abs(atoms[p] - zp)) > tol:
            return None
    idx = np.arange(n)
    lags = (n - 1) + idx[None, :] - idx[:, None]
    order = np.argsort(lags, axis=None, kind="stable")
    starts = np.searchsorted(lags.ravel()[order], np.arange(2 * n - 1))
    powers = np.concatenate((atoms[1:].real, atoms[1:].imag))
    tables = (lags, order, starts, powers)
    for a in tables:
        a.flags.writeable = False
    return _Vandermonde(*tables)


@dataclass(frozen=True)
class Dictionary:
    """Known N x M complex dictionary whose columns are atoms.

    Parameters
    ----------
    atoms : ndarray, shape (n_sensors, n_atoms)
        Complex atom matrix, finite and with no all-zero atom (else
        ValueError). Copied and frozen at construction.
    norm_mode : {"unit", "array", None}
        Optional normalization contract. "unit" asserts each column has
        unit Euclidean norm (compressed-sensing convention); "array"
        asserts ||a_i||^2 == n_sensors (sensor-array convention).

    A dictionary whose atoms form a unit-modulus Vandermonde matrix (a ULA
    steering grid) is detected here and takes the O(N^2 + NM) structured
    path of :func:`build_covariance` and :func:`atom_forms`. Any other
    dictionary caches its conjugated atoms for the dense path.
    """

    atoms: np.ndarray
    norm_mode: str | None = None
    _vandermonde: _Vandermonde | None = field(init=False, repr=False, compare=False)
    _norms2: np.ndarray = field(init=False, repr=False, compare=False)
    _atoms_conj: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=np.complex128)
        if atoms.ndim != 2 or atoms.shape[0] < 1 or atoms.shape[1] < 1:
            raise ValueError("dictionary must be a non-empty 2-D matrix")
        if not np.isfinite(atoms).all():
            raise ValueError("dictionary entries must be finite")
        if self.norm_mode not in (None, "unit", "array"):
            raise ValueError(f"unknown norm_mode {self.norm_mode!r}")
        norms2 = np.sum(np.abs(atoms) ** 2, axis=0)
        if self.norm_mode == "unit" and not np.allclose(norms2, 1.0, atol=3e-12, rtol=0.0):
            raise ValueError("unit mode requires unit-norm atoms")
        if self.norm_mode == "array" and not np.allclose(norms2, atoms.shape[0], atol=1e-9, rtol=0.0):
            raise ValueError("array mode requires ||a_i||^2 == n_sensors")
        if not norms2.all():
            zero = np.flatnonzero(norms2 == 0.0)
            raise ValueError(f"dictionary atoms must be nonzero; atom {zero[0]} is all zero")
        object.__setattr__(self, "atoms", _readonly(atoms))
        object.__setattr__(self, "_norms2", _readonly(norms2))
        object.__setattr__(self, "_vandermonde", _detect_vandermonde(self.atoms))
        # The dense path reads conj(A) in every assembly and form pass; the
        # Vandermonde path never does, so only a dense dictionary keeps it.
        conj = None
        if self._vandermonde is None:
            conj = self.atoms.conj()
            conj.flags.writeable = False
        object.__setattr__(self, "_atoms_conj", conj)

    @property
    def is_vandermonde(self) -> bool:
        """True when the atoms are a_i[p] = z_i^p with |z_i| = 1 (ULA steering grid)."""
        return self._vandermonde is not None

    @property
    def n_sensors(self) -> int:
        return self.atoms.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[1]

    def atom(self, i: int) -> np.ndarray:
        """Column i of the dictionary."""
        return self.atoms[:, i]

    def take(self, indices) -> np.ndarray:
        """Submatrix restricted to the given atom indices (in that order); S
        rows of j indices give the stack of S submatrices, (S, N, j)."""
        return np.moveaxis(self.atoms[:, np.array(list(indices), dtype=np.intp)], 0, -2)


@dataclass(frozen=True)
class CovarianceState:
    """Model covariance Sigma = A diag(gamma) A^H + sigma2 I with caches.

    Built through :func:`build_covariance`; holds the dictionary, the
    nonnegative power vector, the positive noise variance, and the cached
    covariance and its inverse (theta). A stack of S models over one
    dictionary holds gamma as (S, M), sigma2 as (S,) and sigma and theta
    as (S, N, N).
    """

    dictionary: Dictionary
    gamma: np.ndarray
    sigma2: float | np.ndarray
    sigma: np.ndarray = field(repr=False)
    theta: np.ndarray = field(repr=False)


def sample_covariance(Y: np.ndarray) -> np.ndarray:
    """Sample covariance (1/L) Y Y^H of an N x L snapshot matrix.

    Hermitian by construction; non-finite snapshots raise InvalidDataError.
    """
    Y = np.asarray(Y, dtype=np.complex128)
    if Y.ndim != 2 or Y.shape[0] < 1 or Y.shape[1] < 1:
        raise ValueError("snapshot matrix must be non-empty and 2-D")
    if not np.isfinite(Y).all():
        raise InvalidDataError("snapshot matrix entries must be finite")
    scm = Y @ Y.conj().T / Y.shape[1]
    return hermitize(scm, out=scm)


def _check_model(gamma, n_powers: int, sigma2):
    """(gamma, sigma2) as float64 after checking that gamma has n_powers
    entries, all finite and nonnegative, and that sigma2 is finite and
    positive (else InvalidDataError). A stack has gamma (S, n_powers) and sigma2 (S,)."""
    gamma = np.asarray(gamma, dtype=np.float64)
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    if gamma.ndim > 2 or gamma.shape[-1:] != (n_powers,):
        raise ValueError("gamma must have one entry per atom")
    if sigma2.shape != gamma.shape[:-1]:
        raise ValueError("a stack of powers needs one noise variance per row")
    # a NaN makes min() NaN, and every comparison with NaN is False
    if gamma.size and not (gamma.min() >= 0.0 and gamma.max() < np.inf):
        raise InvalidDataError("signal powers must be finite and nonnegative")
    if not (sigma2.min() > 0.0 and sigma2.max() < np.inf):
        raise InvalidDataError("noise variance must be positive")
    return gamma, sigma2


def build_covariance(dictionary: Dictionary, gamma, sigma2) -> CovarianceState:
    """Assemble Sigma = sum_i gamma_i a_i a_i^H + sigma2 I and cache its inverse.

    gamma of shape (S, M) with sigma2 of shape (S,) builds a stack of S
    models at once. On a Vandermonde dictionary the stack takes one Toeplitz
    gather and one stacked inverse; each row keeps its own A gamma product,
    because one product of the whole stack rounds differently. A dense
    dictionary assembles row by row, which measured faster than stacking,
    each row scaling the atoms into one N x M work buffer of the call.
    Every row gets the bits it gets alone.

    Raises
    ------
    InvalidDataError
        If some gamma_i is negative or not finite, or sigma2 <= 0.
    ValueError
        If gamma has the wrong length.
    NumericError
        If the factorization of Sigma fails (cannot happen for sigma2 > 0
        with finite atoms, but guarded).
    """
    gamma, sigma2 = _check_model(gamma, dictionary.n_atoms, sigma2)
    A = dictionary.atoms
    vdm = dictionary._vandermonde
    rows = gamma.reshape(-1, gamma.shape[-1])
    if vdm is None:
        n = dictionary.n_sensors
        sigma = np.empty((len(rows), n, n), dtype=np.complex128)
        scaled = np.empty_like(A)
        for g, out in zip(rows, sigma):
            np.matmul(np.multiply(A, g, out=scaled), dictionary._atoms_conj.T, out=out)
        hermitize(sigma, out=sigma)
    else:
        # Sigma[p, q] = sum_i gamma_i z_i^(p-q): Hermitian Toeplitz in c = A gamma
        # each real row is cast to complex in one (M,) buffer, not as a stacked copy
        c = np.empty((len(rows), A.shape[0]), dtype=np.complex128)
        cast = np.empty(A.shape[1], dtype=np.complex128)
        for g, out in zip(rows, c):
            cast[...] = g
            np.matmul(A, cast, out=out)
        c[:, 0] = c[:, 0].real
        sigma = np.concatenate((c[:, ::-1], c[:, 1:].conj()), axis=1)[:, vdm.lags]
    sigma = sigma.reshape(*gamma.shape[:-1], *sigma.shape[1:])
    _add_to_diagonal(sigma, sigma2)
    try:
        theta = np.linalg.inv(sigma)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - sigma2 > 0 prevents this
        raise NumericError("model covariance is numerically singular") from exc
    # sigma and theta are fresh arrays no one else holds: symmetrize theta and
    # freeze both in place
    hermitize(theta, out=theta)
    sigma.flags.writeable = False
    theta.flags.writeable = False
    return CovarianceState(
        dictionary=dictionary,
        gamma=_readonly(gamma),
        sigma2=float(sigma2) if sigma2.ndim == 0 else _readonly(sigma2),
        sigma=sigma,
        theta=theta,
    )


def negative_llf(state: CovarianceState, scm: np.ndarray) -> float:
    """Scaled negative log-likelihood tr(Sigma^-1 Shat) + log|Sigma|.

    Natural logarithm throughout; additive constants dropped.
    """
    val = np.einsum("ij,ji->", state.theta, scm).real
    sign, logdet = np.linalg.slogdet(state.sigma)
    out = float(val + logdet)
    if sign.real <= 0 or not np.isfinite(out):
        raise NumericError("non-finite negative log-likelihood")
    return out


def atom_forms(dictionary: Dictionary, Hs: np.ndarray) -> np.ndarray:
    """Re a_i^H H a_i for every atom and every H of a stack: (K, N, N) gives
    (K, M), and a stack of such stacks, (S, K, N, N), gives (S, K, M).

    On a Vandermonde dictionary the form is the trigonometric polynomial
    Re sum_d s_d z_i^d, where s_d sums the entries of H with q - p = d, so
    each K-stack costs one (K, 2N-2) by (2N-2, M) real product after
    O(K N^2) diagonal sums, gathered for all S at once. The products stay
    one per K-stack: a single (SK, 2N-2) product rounds differently. Any
    other dictionary is evaluated densely, one N x N by N x M product per H.
    """
    Hs = np.asarray(Hs, dtype=np.complex128)
    A = dictionary.atoms
    vdm = dictionary._vandermonde
    n = dictionary.n_sensors
    if vdm is None:
        flat = Hs.reshape(-1, n, n)
        forms = [np.einsum("ij,ij->j", dictionary._atoms_conj, H @ A).real for H in flat]
        return np.stack(forms).reshape(*Hs.shape[:-2], -1)
    s = np.add.reduceat(Hs.reshape(*Hs.shape[:-2], -1)[..., vdm.order], vdm.starts, axis=-1)
    # lag -d pairs with conj(z^d), so its sum enters conjugated next to lag +d
    t = s[..., n:] + s[..., n - 2 :: -1].conj()
    forms = np.concatenate((t.real, -t.imag), axis=-1) @ vdm.powers
    forms += s[..., n - 1, None].real
    return forms


def atom_quadratic_forms(state: CovarianceState, scm: np.ndarray):
    """Per-atom quadratic forms (q, r) = (a^H Theta a, a^H Theta Shat Theta a).

    Evaluated for all atoms at once: through :func:`atom_forms` on a
    Vandermonde dictionary, otherwise through V = Theta A, so the cost is
    two N x N by N x M products rather than M separate solves. A stacked
    state takes a stack of sample covariances, one per row, and gives
    (S, M) forms; a dense dictionary evaluates them row by row, and a lone
    state as a stack of one, every row overwriting the same two N x M work
    buffers of the call.

    Raises NumericError if some q_i <= 0, which a positive definite Theta
    rules out.
    """
    theta = state.theta
    dictionary = state.dictionary
    if dictionary.is_vandermonde:
        Hs = np.empty((*theta.shape[:-2], 2, *theta.shape[-2:]), dtype=np.complex128)
        Hs[..., 0, :, :] = theta
        np.matmul(theta @ scm, theta, out=Hs[..., 1, :, :])
        forms = atom_forms(dictionary, Hs)
        q, r = forms[..., 0, :], forms[..., 1, :]
    else:
        # every row overwrites the call's work buffers: V = Theta A, then
        # conj(V) in place, W = Shat V and the complex column sums c
        A = dictionary.atoms
        n, m = A.shape
        q = np.empty((*theta.shape[:-2], m))
        r = np.empty_like(q)
        V = np.empty((n, m), dtype=np.complex128)
        W = np.empty_like(V)
        c = np.empty(m, dtype=np.complex128)
        pairs = zip(theta.reshape(-1, n, n), np.reshape(scm, (-1, n, n)))
        for (t, s), qi, ri in zip(pairs, q.reshape(-1, m), r.reshape(-1, m)):
            np.matmul(t, A, out=V)
            qi[...] = np.einsum("ij,ij->j", dictionary._atoms_conj, V, out=c).real
            np.matmul(s, V, out=W)
            ri[...] = np.einsum("ij,ij->j", np.conjugate(V, out=V), W, out=c).real
    return _check_positive(q), r


def _check_positive(q):
    """q, one a^H Theta a or an array of them, checked positive (else NumericError)."""
    if (q.min() if q.ndim else q) <= 0.0:
        raise NumericError("a^H Theta a must be positive for a PD model covariance")
    return q


def _one_atom_forms(theta: np.ndarray, a: np.ndarray, scm: np.ndarray):
    """(Theta a, q, r) of one atom a: q = a^H Theta a, checked by
    :func:`_check_positive`, and r = a^H Theta Shat Theta a."""
    ta = theta @ a
    return ta, _check_positive(np.vdot(a, ta).real), np.vdot(ta, scm @ ta).real


# Complex entries per work buffer of support_atom_forms, whose j x M passes
# each cover as many whole rows of a stack as fit, and at least one. 4096
# entries (64 KiB) keep each buffer under glibc's 128 KiB mmap threshold and
# the dense SSR workload's shape (M = 256, j <= 3, 5 rows) in one pass. A
# 6-row, K = 2 cl-omp solve on the N=20, M=1801 grid took 230-245 us per row
# at 4096 and at 2048, against 295-455 us at 8192 and 310-330 us in one pass
# over the stack; tiles of 256 atoms across the stack took 265 us, in 70
# numpy calls where passes of two rows make 30.
_PASS_ENTRIES = 4096


def support_atom_forms(
    dictionary: Dictionary, scm: np.ndarray, support, gamma, sigma2, rows=None, forms=None
):
    """Per-atom (q, r) of Sigma = sigma2 I + B diag(gamma) B^H, B = A_support, from Gram rows.

    With D = diag(sqrt(gamma)) the Woodbury identity gives
    Theta = (I - B C B^H) / sigma2 for C = D (sigma2 I + D B^H B D)^-1 D. So
    with p_i = B^H a_i, h_i = B^H Shat a_i and c_i = C p_i:

        q_i = a_i^H Theta a_i = (||a_i||^2 - Re p_i^H c_i) / sigma2
        r_i = a_i^H Theta Shat Theta a_i
            = (a_i^H Shat a_i - 2 Re c_i^H h_i + Re c_i^H B^H Shat B c_i) / sigma2^2

    gamma lists the support powers in the order of ``support``. The Gram rows
    P = B^H A and H = B^H Shat A are j x M for j support atoms, so once they
    exist an evaluation costs O(j^2 M) and forms no N x N matrix. ``rows`` is
    the third value a previous call returned for the same dictionary and scm
    and a prefix of this support: its rows are kept and one row pair is
    appended per new atom, at O(NM). Without it, the call also needs
    a_i^H Shat a_i: ``forms`` when the caller has them, else evaluated through
    :func:`atom_forms` (O(N^2 M) on a dense dictionary, O(N^2 + NM) on a
    Vandermonde one); ||a_i||^2 is cached by the dictionary.

    A stack of S sample covariances (S, N, N) takes S supports of one size
    (S, j), powers (S, j), noise variances (S,) and forms (S, M), and gives
    (S, M) forms; every row gets the bits it gets alone.

    The j x M passes run over groups of whole rows of the stack, as many as
    keep each of the call's three work buffers within ``_PASS_ENTRIES``
    complex entries, and at least one; the empty support, and a stack that
    fits, take one pass. A pass over a whole stack would need three
    (S, j, M) complex temporaries, 169 KiB each at S = 6, j = 1 and
    M = 1801: above glibc's default 128 KiB mmap threshold, so the allocator
    would trim them and fault them back in, at roughly 1-3 us per minor
    fault on a shared 2-vCPU VM. Each row's products and sums are those of
    one pass, so every bit is too.

    Returns (q, r, rows). Raises NumericError if some q_i <= 0,
    InvalidDataError for invalid powers and ValueError for a ``rows`` whose
    support is not a prefix.
    """
    scm = np.asarray(scm, dtype=np.complex128)
    support = np.asarray(support, dtype=np.intp).reshape(*scm.shape[:-2], -1)
    gamma, sigma2 = _check_model(gamma, support.shape[-1], sigma2)
    A = dictionary.atoms
    if rows is None:
        empty = np.empty((*support.shape[:-1], 0, A.shape[1]), dtype=np.complex128)
        if forms is None:
            forms = atom_forms(dictionary, scm[..., None, :, :])[..., 0, :]
        rows = (support[..., :0], dictionary._norms2, forms, empty, empty)
    known, sq, s, P, H = rows
    j = known.shape[-1]
    if support.shape[-1] < j or not np.array_equal(support[..., :j], known):
        raise ValueError("rows were computed for a support that is not a prefix of this one")
    if support.shape[-1] > j:
        Bt = A.T[support[..., j:]]  # the new atoms as rows
        ShB = scm @ Bt.swapaxes(-1, -2)
        new = (Bt.conj() @ A, ShB.conj().swapaxes(-1, -2) @ A)
        P, H = (np.concatenate(pair, axis=-2) for pair in zip((P, H), new)) if j else new
        rows = (support, sq, s, P, H)
    d = np.sqrt(gamma)[..., None]
    dT = d.swapaxes(-1, -2)
    idx = support[..., None, :]
    G = d * np.take_along_axis(P, idx, axis=-1) * dT
    _add_to_diagonal(G, sigma2)
    C = d * np.linalg.inv(G) * dT  # j x j, applied to the j x M rows pass by pass
    HS = np.take_along_axis(H, idx, axis=-1)
    # Each group of rows runs the j x M passes of the formulas above, in their
    # operand order, and writes its column sums Re p^H c and
    # Re c^H (B^H Shat B c - 2 h) into q and r; the per-atom steps after the
    # loop run once over the whole stack.
    n = int(np.prod(support.shape[:-1]))  # rows of the stack, 1 for a lone model
    C, HS, P, H = (a.reshape(n, *a.shape[-2:]) for a in (C, HS, P, H))
    _, j, m = P.shape
    group = max(1, _PASS_ENTRIES // (j * m)) if j else n
    q = np.empty((n, m))
    r = np.empty_like(q)
    CP, HC, W = (np.empty((min(group, n), j, m), dtype=np.complex128) for _ in range(3))
    for start in range(0, n, group):
        t = slice(start, min(start + group, n))
        cp, hc, wt = CP[: t.stop - start], HC[: t.stop - start], W[: t.stop - start]
        np.matmul(C[t], P[t], out=cp)
        np.conjugate(P[t], out=wt)
        wt *= cp
        np.add.reduce(wt.real, axis=-2, out=q[t])
        np.matmul(HS[t], cp, out=hc)
        hc -= np.multiply(H[t], 2.0, out=wt)
        np.conjugate(cp, out=wt)
        wt *= hc
        np.add.reduce(wt.real, axis=-2, out=r[t])
    q, r = (a.reshape(*support.shape[:-1], m) for a in (q, r))
    sigma2 = sigma2[..., None]
    np.subtract(sq, q, out=q)
    q /= sigma2
    np.add(s, r, out=r)
    r /= sigma2**2
    return _check_positive(q), r, rows


def nll_gradient(state: CovarianceState, scm: np.ndarray):
    """Gradient of the negative log-likelihood in (gamma, sigma2).

    Returns
    -------
    (grad_gamma, grad_sigma2)
        grad_gamma[i] = -a_i^H Theta Shat Theta a_i + a_i^H Theta a_i and
        grad_sigma2 = -tr(Theta (Shat - Sigma) Theta). Both vanish when the
        sample covariance equals the model covariance.
    """
    q, r = atom_quadratic_forms(state, scm)
    theta = state.theta
    tr_tst = np.einsum("ij,ji->", theta @ scm, theta).real
    grad_sigma2 = -(tr_tst - np.trace(theta).real)
    return q - r, float(grad_sigma2)


def loo_quadratic_form(state: CovarianceState, i: int, b: np.ndarray) -> complex:
    """a_i^H Sigma_{without i}^-1 b from the cached full inverse.

    Uses the rank-one downdate identity
    a_i^H (Sigma - gamma_i a_i a_i^H)^-1 b = a_i^H Theta b / (1 - gamma_i a_i^H Theta a_i),
    avoiding any explicit matrix update.
    """
    a = state.dictionary.atom(i)
    ta = state.theta @ a
    denom = 1.0 - state.gamma[i] * np.vdot(a, ta).real
    if abs(denom) < 1e-14:
        raise DegenerateDowndateError(
            f"gamma_{i} * a^H Theta a is too close to 1 (denominator {denom:.3e})"
        )
    return complex(np.vdot(a, state.theta @ np.asarray(b, dtype=np.complex128)) / denom)


_COND_LIMIT = 1e6


def _qr_full_rank(B: np.ndarray):
    """Reduced QR of B after verifying full column rank (cond(B) < _COND_LIMIT).

    The condition number is read off the small factor R, whose singular
    values are those of B because Q has orthonormal columns. A stack of
    matrices (S, N, j) is factored by one batched QR and one batched SVD,
    and raises if any of its matrices is rank deficient. The check reads
    slices of the singular values, so an empty support (N x 0) passes with
    Q of N x 0 and R of 0 x 0.
    """
    B = np.asarray(B, dtype=np.complex128)
    if B.ndim not in (2, 3):
        raise ValueError("expected a matrix or a stack of matrices")
    if B.shape[-1] > B.shape[-2]:
        raise RankDeficientError("matrix has more columns than rows")
    Q, R = np.linalg.qr(B)
    s = np.linalg.svd(R, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        deficient = (s[..., -1:] <= 0.0) | (s[..., :1] / s[..., -1:] >= _COND_LIMIT)
    if deficient.any():
        raise RankDeficientError("matrix does not have (numerical) full column rank")
    return Q, R


def pseudo_inverse_apply(B: np.ndarray, Z: np.ndarray, factor=None) -> np.ndarray:
    """Left pseudo-inverse application (B^H B)^-1 B^H Z via QR.

    B must have full column rank; the normal equations are never formed.
    An empty B (N x 0) gives the empty 0 x L array. ``factor`` is the
    reduced QR (Q, R) of B when the caller has already computed it;
    otherwise it is computed here. A stack of matrices (S, N, j) with a
    stack of right-hand sides (S, N, L) gives (S, j, L); every row gets the
    bits it gets alone.
    """
    Q, R = _qr_full_rank(B) if factor is None else factor
    return np.linalg.solve(R, Q.conj().swapaxes(-1, -2) @ np.asarray(Z, dtype=np.complex128))


def _noise_floor(tr_scm: float, n_sensors: int) -> float:
    """Lower clamp 1e-15 * tr(Shat)/N of every noise-variance estimate, so
    downstream covariances stay positive definite."""
    return 1e-15 * tr_scm / n_sensors


def noise_mle(
    scm: np.ndarray, support_atoms: np.ndarray, n_sensors: int, factor=None
) -> float | np.ndarray:
    """Noise-variance MLE on a fixed support: tr((I - P) Shat) / (N - k).

    P is the orthogonal projector onto the columns of the N x k support
    atoms; an empty support (N x 0) has a factor with no columns, so P = 0
    and the value is tr(Shat)/N. The result is clamped below at
    :func:`_noise_floor`.
    ``factor`` is the reduced QR (Q, R) of the support atoms when the
    caller has already computed it; otherwise it is computed here.

    A stack of sample covariances (S, N, N) with supports of one size
    (S, N, k) gives one value per row, (S,), through one batched QR; every
    row gets the bits it gets alone.
    """
    scm = np.asarray(scm, dtype=np.complex128)
    tr_scm = np.trace(scm, axis1=-2, axis2=-1).real
    B = np.asarray(support_atoms, dtype=np.complex128)
    k = B.shape[-1]
    if k >= n_sensors:
        raise ValueError(f"support size {k} must be smaller than n_sensors={n_sensors}")
    Q, _ = _qr_full_rank(B) if factor is None else factor
    resid = tr_scm - np.einsum("...ij,...ij->...", Q.conj(), scm @ Q).real
    return np.maximum(resid / (n_sensors - k), _noise_floor(tr_scm, n_sensors))


def provisional_mle(scm: np.ndarray, support_atoms: np.ndarray, n_sensors: int):
    """Closed-form (gamma_support, sigma2) fit on the N x j atoms of a fixed support.

    sigma2 is the projector-residual MLE of :func:`noise_mle`; the support
    powers are diag(B^+ (Shat - sigma2 I) B^+H) with negative entries
    clipped to zero (consistent, though not exactly the constrained MLE).
    An empty support (N x 0) gives no powers and tr(Shat)/N. A stack of
    sample covariances (S, N, N) with supports (S, N, j) gives powers
    (S, j) and noise variances (S,) through one batched QR and one batched
    solve; every row gets the bits it gets alone.
    """
    scm = np.asarray(scm, dtype=np.complex128)
    Q, R = _qr_full_rank(support_atoms)
    sigma2 = noise_mle(scm, support_atoms, n_sensors, factor=(Q, R))
    pinv = np.linalg.solve(R, Q.conj().swapaxes(-1, -2))
    shift = scm - np.asarray(sigma2)[..., None, None] * np.eye(n_sensors)
    G = pinv @ shift @ pinv.conj().swapaxes(-1, -2)
    gamma = np.maximum(np.diagonal(G, axis1=-2, axis2=-1).real, 0.0)
    return gamma, sigma2
