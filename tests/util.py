"""Shared helpers: random problem instances and independent numeric oracles.

Oracle code here deliberately avoids the library's own evaluation paths
(explicit inverses, slogdet, double loops, scalar line searches) so the
tests cross-check the implementation rather than echo it.
"""

import io
import json
from dataclasses import asdict

import numpy as np

from covlearn import (
    Dictionary,
    SupportSet,
    build_covariance,
    iaa_update,
    matched_filter_powers,
    noise_mle,
    provisional_mle,
    pseudo_inverse_apply,
    ratio_update,
    sample_covariance,
    steering_matrix,
    sweep_errors,
)
from covlearn.clbcd import iterate


def random_unit_dictionary(rng, n, m):
    atoms = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2)
    return Dictionary(atoms / np.linalg.norm(atoms, axis=0), norm_mode="unit")


def population_snapshots(sigma):
    """Snapshots Y = sqrt(N) chol(Sigma), N x N, whose sample covariance is
    Sigma up to rounding."""
    n = sigma.shape[0]
    return np.sqrt(n) * np.linalg.cholesky(sigma)


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


def one_pass_support_forms(rows, gamma, sigma2):
    """(q, r) of support_atom_forms from the Gram rows it returned, in one
    pass over the whole stack: its j x M passes as written before they ran
    over groups of rows, the operands in the same order, so the groups must
    give these bits."""
    support, sq, s, P, H = rows
    gamma = np.asarray(gamma, dtype=np.float64)
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    d = np.sqrt(gamma)[..., None]
    dT = d.swapaxes(-1, -2)
    idx = np.asarray(support)[..., None, :]
    G = d * np.take_along_axis(P, idx, axis=-1) * dT
    diagonal = np.einsum("...ii->...i", G)
    diagonal += sigma2[..., None]
    CP = (d * np.linalg.inv(G) * dT) @ P
    sigma2 = sigma2[..., None]
    W = np.conjugate(P)
    W *= CP
    q = W.real.sum(axis=-2)
    np.subtract(sq, q, out=q)
    q /= sigma2
    HC = np.take_along_axis(H, idx, axis=-1) @ CP
    HC -= np.multiply(H, 2.0, out=W)
    np.conjugate(CP, out=W)
    W *= HC
    r = W.real.sum(axis=-2)
    np.add(s, r, out=r)
    r /= sigma2**2
    return q, r


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


def cwo_update(state, scm, i):
    """CWO's exact coordinatewise step gamma_i <- gamma_i + max(r/q^2 - 1/q, -gamma_i).

    q = a_i^H Sigma^-1 a_i and r = a_i^H Sigma^-1 Shat Sigma^-1 a_i are
    evaluated from one linear solve against the state's covariance, not from
    its cached inverse.
    """
    a = state.dictionary.atom(i)
    sa = np.linalg.solve(state.sigma, a)
    q = np.vdot(a, sa).real
    r = np.vdot(sa, scm @ sa).real
    return float(state.gamma[i] + max(r / q**2 - 1.0 / q, -state.gamma[i]))


def sorting_hard_threshold(gamma, k, peak=False):
    """hard_threshold by a full stable sort: the support indices, ascending.

    Local peaks come from shifted copies with -inf at both ends; candidates
    are ordered by descending value, lowest index first on ties, and a
    shortfall of peaks is filled from the largest non-peak entries.
    """
    g = np.asarray(gamma, dtype=np.float64)
    idx = np.arange(g.size)

    def largest_first(candidates):
        return candidates[np.argsort(-g[candidates], kind="stable")]

    if peak:
        prev = np.concatenate(([-np.inf], g[:-1]))
        nxt = np.concatenate((g[1:], [-np.inf]))
        peaks = largest_first(idx[(g > prev) & (g >= nxt)])
        chosen = list(peaks[:k])
        if len(chosen) < k:
            rest = np.setdiff1d(idx, peaks, assume_unique=True)
            chosen.extend(largest_first(rest)[: k - len(chosen)])
        support = np.sort(np.asarray(chosen, dtype=int))
    else:
        support = np.sort(largest_first(idx)[:k])
    return tuple(int(i) for i in support)


def refit_every_iteration(scm, dictionary, k, peak, method, max_iter=500, tol=0.5e-4):
    """cl-bcd (method "cl-bcd") or sbl (method 1.0 or 0.5, the ratio exponent)
    with ``noise_mle`` run on the top-K support in every iteration.

    cl-bcd's iteration 1 is the matched filter with the refit on its
    support, and ``iterate`` runs the other max_iter - 1 (max_iter >= 2, and
    the matched filter must not be all zero: iteration 1 does not stop).
    Returns (support, gamma, sigma2, iterations, supports), where supports
    lists the support of every iteration's refit.
    """
    n = dictionary.n_sensors
    supports = []

    def step(state, rows):
        if method == "cl-bcd":
            gamma = iaa_update(state, scm[None])
        else:
            gamma = ratio_update(state, scm[None], method)
        indices = sorting_hard_threshold(gamma[0], k, peak)
        supports.append(indices)
        return gamma, [noise_mle(scm, dictionary.take(indices), n)]

    def solve(gamma0, sigma2_0, cap):
        out = iterate(dictionary, step, gamma0[None], [sigma2_0], cap, tol)
        return tuple(value[0] for value in out[:3])

    gamma0 = matched_filter_powers(dictionary, scm)
    if method == "cl-bcd":
        supports.append(sorting_hard_threshold(gamma0, k, peak))
        sigma2_0 = noise_mle(scm, dictionary.take(supports[0]), n)
        gamma, sigma2, iterations = solve(gamma0, sigma2_0, max_iter - 1)
        return SupportSet(supports[-1]), gamma, sigma2, iterations + 1, supports
    gamma, sigma2, iterations = solve(gamma0, np.trace(scm).real / n, max_iter)
    return SupportSet(sorting_hard_threshold(gamma, k, peak)), gamma, sigma2, iterations, supports


def somp_refit(Y, dictionary, support):
    """somp's row powers and noise refit on a given support: (gamma, sigma2).

    The rows and the noise variance each factor the support separately, and
    the sample covariance is formed here.
    """
    sub = dictionary.take(support)
    rows = pseudo_inverse_apply(sub, np.asarray(Y, dtype=np.complex128))
    gamma = np.zeros(dictionary.n_atoms)
    gamma[list(support)] = np.mean(np.abs(rows) ** 2, axis=1)
    return gamma, noise_mle(sample_covariance(Y), sub, dictionary.n_sensors)


def dense_mle_single_source(scm, angles_deg):
    """Single-source ML angle by the dense scan: every steering vector is
    built and a^H Shat a summed explicitly; lowest grid index on ties."""
    angles = np.asarray(angles_deg, dtype=np.float64)
    A = steering_matrix(scm.shape[0], angles)
    power = np.einsum("ij,ij->j", A.conj(), scm @ A).real
    return float(angles[int(np.argmax(power))])


def json_outputs(spec, records, threads, timings, wall, build_version):
    """(results.json, meta.json) text as the CLI wrote them before its writers
    went shallow: ``json.dump`` of ``dataclasses.asdict`` deep copies with
    indent 2, streamed to the file, then a newline."""

    def dumped(obj):
        fh = io.StringIO()
        json.dump(obj, fh, indent=2)
        fh.write("\n")
        return fh.getvalue()

    rows = []
    for rec in records:
        row = asdict(rec)
        if not timings:
            row["mean_runtime_s"] = None
        rows.append(row)
    meta = {
        "scenario": asdict(spec.scenario),
        "methods": [m.tag for m in spec.methods],
        "emit": list(spec.emit),
        "seed": spec.scenario.seed,
        "build_version": build_version,
        "wall_time_s": wall,
        "threads": threads,
        "timings": timings,
        "runtime_clock": "thread_time",
        "failures": {
            f"{rec.method}@{rec.snr_db}": rec.failures for rec in records if rec.failures
        },
    }
    return dumped(rows), dumped(meta)
