import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covlearn import (
    CovarianceState,
    DegenerateDowndateError,
    Dictionary,
    NumericError,
    RankDeficientError,
    atom_forms,
    atom_quadratic_forms,
    build_covariance,
    gaussian_dictionary,
    loo_quadratic_form,
    negative_llf,
    nll_gradient,
    noise_mle,
    provisional_mle,
    pseudo_inverse_apply,
    sample_covariance,
    steering_matrix,
    support_atom_forms,
    ula_grid,
)
from covlearn.model import _PASS_ENTRIES, _qr_full_rank, hermitize
from util import (
    dense_atom_forms,
    dense_covariance,
    direct_nll,
    max_rel_err,
    random_pdh,
    random_state,
    random_unit_dictionary,
    ULA_SHAPES,
    one_pass_support_forms,
)


class TestSampleCovariance:
    def test_rank_one_outer_product(self):
        Y = np.array([[1.0 + 0j], [0.0]])
        npt.assert_allclose(sample_covariance(Y), np.diag([1.0, 0.0]))

    def test_identity_columns(self):
        n = 5
        npt.assert_allclose(sample_covariance(np.eye(n, dtype=complex)), np.eye(n) / n)

    def test_matches_brute_force_sum(self):
        rng = np.random.default_rng(0)
        Y = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        expected = np.zeros((4, 4), dtype=complex)
        for l in range(8):
            expected += np.outer(Y[:, l], Y[:, l].conj())
        expected /= 8
        npt.assert_allclose(sample_covariance(Y), expected, atol=1e-12)

    def test_hermitian_by_construction(self):
        rng = np.random.default_rng(1)
        scm = sample_covariance(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
        npt.assert_array_equal(scm, scm.conj().T)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(14)
        for l in (2, 6, 20):  # including rank-deficient L < N
            scm = sample_covariance(rng.standard_normal((6, l)) + 1j * rng.standard_normal((6, l)))
            assert np.linalg.eigvalsh(scm).min() >= -1e-10 * np.trace(scm).real

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            sample_covariance(np.zeros((0, 3), dtype=complex))
        with pytest.raises(ValueError):
            sample_covariance(np.array([[np.nan + 0j, 1.0]]))


class TestDictionary:
    def test_equal_only_to_itself(self):
        # a dictionary holds arrays, so it compares and hashes by identity
        a, b = Dictionary(np.eye(3, dtype=complex)), Dictionary(np.eye(3, dtype=complex))
        assert a.n_sensors == a.n_atoms == 3
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_no_norm_convention_is_declared(self):
        # every formula reads the cached ||a_i||^2, so there is no norm option
        with pytest.raises(TypeError):
            Dictionary(np.eye(3, dtype=complex), norm_mode="unit")

    @pytest.mark.parametrize("n, m", [(4, 9), (8, 181), (20, 1801)])
    def test_library_constructors_meet_their_norm_conventions(self, n, m):
        # gaussian_dictionary's atoms have unit norm, a steering grid's ||a_i||^2 = N
        npt.assert_allclose(gaussian_dictionary(n, m, seed=n)._norms2, 1.0, rtol=0.0, atol=3e-12)
        npt.assert_allclose(ula_grid(n, m)._norms2, n, rtol=0.0, atol=1e-9)

    def test_all_zero_atom_rejected(self):
        # every method would divide by ||a_i||^2 = 0 and fail its own way
        atoms = np.random.default_rng(9).standard_normal((4, 6)).astype(complex)
        atoms[:, 2] = 0.0
        with pytest.raises(ValueError, match="atom 2 is all zero"):
            Dictionary(atoms)

    def test_atoms_are_frozen(self):
        d = Dictionary(np.eye(2, dtype=complex))
        with pytest.raises(ValueError):
            d.atoms[0, 0] = 5.0

    def test_dense_dictionary_caches_frozen_conjugate(self):
        rng = np.random.default_rng(8)
        d = random_unit_dictionary(rng, 5, 12)
        assert "_atoms_conj" not in vars(d)  # built on first read
        conj = d._atoms_conj
        npt.assert_array_equal(conj, d.atoms.conj())
        assert not conj.flags.writeable
        assert d._atoms_conj is conj
        # the Vandermonde path never reads it, so a fresh steering grid holds none
        grid = ula_grid.__wrapped__(5, 31)
        build_covariance(grid, np.ones(31), 1.0)
        atom_forms(grid, np.eye(5)[None])
        assert "_atoms_conj" not in vars(grid)

    def test_threads_racing_for_the_conjugate_read_equal_frozen_arrays(self):
        # pool threads share a dictionary, and two may build its cache at once
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(20):
                d = random_unit_dictionary(np.random.default_rng(round_), 6, 40)
                barrier = threading.Barrier(8)

                def read():
                    barrier.wait(timeout=10)
                    return d._atoms_conj

                with ThreadPoolExecutor(8) as pool:
                    reads = [f.result(timeout=10) for f in [pool.submit(read) for _ in range(8)]]
                for conj in (*reads, d._atoms_conj):
                    assert conj.tobytes() == d.atoms.conj().tobytes() and not conj.flags.writeable
        finally:
            sys.setswitchinterval(interval)

    def test_atom_and_take(self):
        d = Dictionary(np.arange(6, dtype=complex).reshape(2, 3))
        npt.assert_array_equal(d.atom(1), [1.0, 4.0])
        npt.assert_array_equal(d.take([2, 0]), [[2.0, 0.0], [5.0, 3.0]])
        assert d.take(()).shape == (2, 0)
        # rows of indices give a stack of submatrices
        npt.assert_array_equal(d.take([[2, 0], [1, 2]]), [d.take([2, 0]), d.take([1, 2])])


class TestBuildCovariance:
    def test_noise_only_model(self):
        d = Dictionary(np.eye(2, dtype=complex))
        st = build_covariance(d, [0.0, 0.0], 1.0)
        npt.assert_allclose(st.sigma, np.eye(2))
        npt.assert_allclose(st.theta, np.eye(2))

    def test_hand_evaluated_two_by_two(self):
        d = Dictionary(np.array([[1.0], [0.0]], dtype=complex))
        st = build_covariance(d, [2.0], 1.0)
        npt.assert_allclose(st.sigma, np.diag([3.0, 1.0]))
        npt.assert_allclose(st.theta, np.diag([1 / 3, 1.0]))

    def test_psd_plus_ridge(self):
        rng = np.random.default_rng(2)
        st = random_state(rng, 5, 9)
        npt.assert_array_equal(st.sigma, st.sigma.conj().T)
        assert np.linalg.eigvalsh(st.sigma).min() >= st.sigma2 * (1 - 1e-10)
        # cached inverse is consistent
        assert np.max(np.abs(st.theta @ st.sigma - np.eye(5))) <= 1e-8

    def test_domain_errors(self):
        d = Dictionary(np.eye(2, dtype=complex))
        with pytest.raises(ValueError):
            build_covariance(d, [-0.1, 0.0], 1.0)
        with pytest.raises(ValueError):
            build_covariance(d, [0.0, 0.0], 0.0)
        with pytest.raises(ValueError):
            build_covariance(d, [0.0], 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
    def test_non_finite_or_negative_powers_rejected(self, bad):
        dense = Dictionary(np.eye(3, dtype=complex))
        for d in (dense, ula_grid(3, 3)):
            for at in range(3):
                gamma = np.ones(3)
                gamma[at] = bad
                with pytest.raises(ValueError, match="finite and nonnegative"):
                    build_covariance(d, gamma, 1.0)
                with pytest.raises(ValueError, match="finite and nonnegative"):
                    support_atom_forms(d, np.eye(3), (0, 1, 2), gamma, 1.0)

    @pytest.mark.parametrize("grid", [False, True])
    def test_state_arrays_are_read_only(self, grid):
        rng = np.random.default_rng(9)
        d = ula_grid(6, 40) if grid else random_unit_dictionary(rng, 6, 40)
        gamma = rng.uniform(0.0, 1.0, 40)
        st = build_covariance(d, gamma, 0.5)
        for a in (st.gamma, st.sigma, st.theta):
            assert not a.flags.writeable
        # the state's powers are a copy: the caller's array stays writable
        gamma[0] = 2.0
        assert st.gamma[0] != 2.0


def _perturbed_grid(n, m):
    atoms = np.array(ula_grid(n, m).atoms)
    atoms[-1, m // 3] *= np.exp(1e-9j)
    return atoms


# Dictionaries that are not a unit-modulus Vandermonde matrix.
DENSE_CASES = {
    "gaussian": lambda rng: random_unit_dictionary(rng, 8, 50).atoms,
    "unit-norm steering": lambda rng: ula_grid(8, 50).atoms / np.sqrt(8),
    "perturbed column": lambda rng: _perturbed_grid(8, 50),
    "one sensor": lambda rng: steering_matrix(1, np.linspace(-60.0, 60.0, 50)),
}


class TestVandermondePath:
    @pytest.mark.parametrize("n, m", ULA_SHAPES)
    def test_sigma_matches_dense_oracle(self, n, m):
        rng = np.random.default_rng(n * m)
        grid = ula_grid(n, m)
        assert grid.is_vandermonde
        gamma = rng.uniform(0.0, 2.0, m) * (rng.uniform(size=m) < 0.3)
        st = build_covariance(grid, gamma, 0.7)
        npt.assert_array_equal(st.sigma, st.sigma.conj().T)
        assert max_rel_err(st.sigma, dense_covariance(grid.atoms, gamma, 0.7)) <= 1e-12

    @pytest.mark.parametrize("n, m", ULA_SHAPES)
    def test_quadratic_forms_match_dense_oracle(self, n, m):
        rng = np.random.default_rng(n + m)
        grid = ula_grid(n, m)
        st = build_covariance(grid, rng.uniform(0.0, 1.0, m) / m, 0.5)
        scm = random_pdh(rng, n)
        q, r = atom_quadratic_forms(st, scm)
        assert max_rel_err(q, dense_atom_forms(grid.atoms, st.theta)) <= 1e-12
        assert max_rel_err(r, dense_atom_forms(grid.atoms, st.theta @ scm @ st.theta)) <= 1e-12

    def test_off_grid_steering_vectors_are_vandermonde(self):
        angles = np.random.default_rng(3).uniform(-90.0, 90.0, 25)
        d = Dictionary(steering_matrix(6, angles))
        assert d.is_vandermonde
        H = random_pdh(np.random.default_rng(4), 6)
        assert max_rel_err(atom_forms(d, H[None])[0], dense_atom_forms(d.atoms, H)) <= 1e-12

    def test_forms_of_non_hermitian_matrix_take_the_real_part(self):
        rng = np.random.default_rng(5)
        grid = ula_grid(5, 31)
        H = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        forms = atom_forms(grid, np.stack((H, hermitize(H))))
        assert max_rel_err(forms[0], dense_atom_forms(grid.atoms, H)) <= 1e-12
        assert max_rel_err(forms[1], forms[0]) <= 1e-12

    @pytest.mark.parametrize("case", sorted(DENSE_CASES))
    def test_other_dictionaries_keep_the_dense_arithmetic(self, case):
        rng = np.random.default_rng(6)
        d = Dictionary(DENSE_CASES[case](rng))
        assert not d.is_vandermonde
        A = d.atoms
        n, m = A.shape
        gamma = rng.uniform(0.0, 1.0, m)
        st = build_covariance(d, gamma, 0.3)
        expected = hermitize((A * gamma) @ A.conj().T)
        expected[np.diag_indices(n)] += 0.3
        npt.assert_array_equal(st.sigma, expected)
        scm = random_pdh(rng, n)
        V = st.theta @ A
        q, r = atom_quadratic_forms(st, scm)
        npt.assert_array_equal(q, np.einsum("ij,ij->j", A.conj(), V).real)
        npt.assert_array_equal(r, np.einsum("ij,ij->j", V.conj(), scm @ V).real)
        npt.assert_array_equal(atom_forms(d, scm[None])[0], np.einsum("ij,ij->j", A.conj(), scm @ A).real)


class TestNegativeLlf:
    def test_identity_case(self):
        d = Dictionary(np.eye(4, dtype=complex))
        st = build_covariance(d, np.zeros(4), 1.0)
        npt.assert_allclose(negative_llf(st, np.eye(4)), 4.0)

    def test_scalar_case(self):
        d = Dictionary(np.array([[1.0 + 0j]]))
        st = build_covariance(d, [0.0], 2.0)
        npt.assert_allclose(negative_llf(st, np.array([[4.0 + 0j]])), 2.0 + np.log(2.0))

    def test_agrees_with_independent_evaluation(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            st = random_state(rng, 4, 7)
            scm = random_pdh(rng, 4)
            npt.assert_allclose(negative_llf(st, scm), direct_nll(st.sigma, scm), rtol=1e-12)

    def test_nonfinite_intermediate_raises(self):
        from covlearn import NumericError

        d = Dictionary(np.array([[1.0 + 0j]]))
        st = build_covariance(d, [0.0], 1.0)
        with pytest.raises(NumericError):
            negative_llf(st, np.array([[np.inf + 0j]]))


class TestNllGradient:
    def test_zero_at_model_consistent_scm(self):
        rng = np.random.default_rng(4)
        st = random_state(rng, 5, 8)
        g, gs = nll_gradient(st, st.sigma)
        npt.assert_allclose(g, np.zeros(8), atol=1e-10)
        assert abs(gs) <= 1e-10

    def test_scalar_hand_value(self):
        d = Dictionary(np.array([[1.0 + 0j]]))
        st = build_covariance(d, [1.0], 1.0)
        g, _ = nll_gradient(st, np.array([[4.0 + 0j]]))
        npt.assert_allclose(g, [-0.5])

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(100):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(n, 11))
            st = random_state(rng, n, m, min_gamma=0.5)
            scm = random_pdh(rng, n)
            grad_g, grad_s = nll_gradient(st, scm)
            for i in rng.choice(m, size=min(3, m), replace=False):
                gp = np.array(st.gamma)
                gp[i] += h
                gm = np.array(st.gamma)
                gm[i] -= h
                fd = (
                    direct_nll(build_covariance(st.dictionary, gp, st.sigma2).sigma, scm)
                    - direct_nll(build_covariance(st.dictionary, gm, st.sigma2).sigma, scm)
                ) / (2 * h)
                npt.assert_allclose(grad_g[i], fd, rtol=1e-5, atol=1e-7)
            fd_s = (
                direct_nll(build_covariance(st.dictionary, st.gamma, st.sigma2 + h).sigma, scm)
                - direct_nll(build_covariance(st.dictionary, st.gamma, st.sigma2 - h).sigma, scm)
            ) / (2 * h)
            npt.assert_allclose(grad_s, fd_s, rtol=1e-5, atol=1e-7)


class TestLooQuadraticForm:
    def test_zero_power_is_identity(self):
        rng = np.random.default_rng(6)
        A = random_unit_dictionary(rng, 4, 6)
        gamma = np.array([0.7, 0.0, 1.2, 0.0, 0.3, 0.9])
        st = build_covariance(A, gamma, 1.1)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        direct = np.vdot(A.atom(1), st.theta @ b)
        npt.assert_allclose(loo_quadratic_form(st, 1, b), direct, rtol=1e-12)

    def test_matches_explicit_downdated_inverse(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            st = random_state(rng, 5, 8)
            i = int(rng.integers(8))
            b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            a = st.dictionary.atom(i)
            loo_inv = np.linalg.inv(st.sigma - st.gamma[i] * np.outer(a, a.conj()))
            npt.assert_allclose(loo_quadratic_form(st, i, b), np.vdot(a, loo_inv @ b), rtol=1e-10)

    def test_reciprocal_identity(self):
        # 1 / (a^H Sigma_loo^-1 a) == 1 / (a^H Sigma^-1 a) - gamma_i
        rng = np.random.default_rng(8)
        for _ in range(25):
            st = random_state(rng, 6, 9)
            i = int(rng.integers(9))
            a = st.dictionary.atom(i)
            lhs = 1.0 / loo_quadratic_form(st, i, a).real
            rhs = 1.0 / np.vdot(a, st.theta @ a).real - st.gamma[i]
            npt.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_degenerate_downdate_guard(self):
        d = Dictionary(np.array([[1.0 + 0j]]))
        consistent = build_covariance(d, [1.0], 1.0)
        # inconsistent caches force gamma * a^H Theta a == 1 exactly
        broken = CovarianceState(
            dictionary=d,
            gamma=np.array([1.0]),
            sigma2=1.0,
            sigma=np.array([[1.0 + 0j]]),
            theta=np.array([[1.0 + 0j]]),
        )
        loo_quadratic_form(consistent, 0, np.array([1.0 + 0j]))  # fine
        with pytest.raises(DegenerateDowndateError):
            loo_quadratic_form(broken, 0, np.array([1.0 + 0j]))


def _loo_bound_states(case):
    """Model covariances from build_covariance for the LOO-bound invariant."""
    rng = np.random.default_rng(["gaussian", "strong", "coherent", "ula", "ula-adjacent"].index(case))
    for _ in range(20):
        if case == "gaussian":
            yield random_state(rng, int(rng.integers(2, 9)), int(rng.integers(9, 30)))
        elif case == "strong":
            # three sources 30 to 80 dB above the noise
            A = random_unit_dictionary(rng, 8, 24)
            gamma = np.zeros(24)
            gamma[rng.choice(24, 3, replace=False)] = 10.0 ** rng.uniform(3.0, 8.0, 3)
            yield build_covariance(A, gamma, 1e-3)
        elif case == "coherent":
            # two strong atoms whose columns differ by about 1e-4
            atoms = rng.standard_normal((6, 10)) + 1j * rng.standard_normal((6, 10))
            atoms[:, 1] = atoms[:, 0] + 1e-4 * rng.standard_normal(6)
            gamma = rng.uniform(0.0, 1.0, 10)
            gamma[:2] = 1e4
            yield build_covariance(Dictionary(atoms), gamma, 1e-2)
        elif case == "ula":
            yield build_covariance(ula_grid(8, 181), rng.uniform(0.0, 1.0, 181), 0.1)
        else:
            # adjacent 0.1-degree atoms of the benchmark grid, both strong
            gamma = np.zeros(1801)
            i = int(rng.integers(1800))
            gamma[[i, i + 1]] = 10.0 ** rng.uniform(2.0, 6.0, 2)
            yield build_covariance(ula_grid(20, 1801), gamma, 10.0 ** rng.uniform(-3.0, 0.0))


class TestAtomQuadraticForms:
    @pytest.mark.parametrize("case", ["gaussian", "strong", "coherent", "ula", "ula-adjacent"])
    def test_power_never_exceeds_loo_bound(self, case):
        # 1/q_i = gamma_i + 1/(a_i^H Sigma_{-i}^-1 a_i) > gamma_i (criterion 3's
        # reciprocal identity), so gamma_i q_i < 1 up to the roundoff of q,
        # which is eps * cond(Sigma) relative
        eps = np.finfo(np.float64).eps
        for st in _loo_bound_states(case):
            q, _ = atom_quadratic_forms(st, st.sigma)
            slack = 4 * st.dictionary.n_sensors * eps * np.linalg.cond(st.sigma)
            assert np.max(st.gamma * q) <= 1.0 + slack

    @pytest.mark.parametrize("ula", [True, False])
    def test_a_stack_gives_each_rows_lone_bits(self, ula):
        # a dense stack's rows overwrite one set of work buffers per call, so
        # no row may carry into the next: stacks of several sizes, with a
        # row whose powers are all zero and a row scaled by 1e6
        rng = np.random.default_rng(19)
        d = ula_grid(20, 1801) if ula else gaussian_dictionary(32, 256, rng)
        n, m = d.n_sensors, d.n_atoms
        for rows in (1, 4, 7):
            gamma = np.zeros((rows, m))
            for g in gamma:
                g[rng.choice(m, 3, replace=False)] = rng.uniform(0.5, 5.0, 3)
            gamma[1:2] = 0.0
            gamma[-1] *= 1e6
            sigma2 = rng.uniform(0.5, 2.0, rows)
            Ys = rng.standard_normal((rows, n, 25)) + 1j * rng.standard_normal((rows, n, 25))
            scm = np.array([sample_covariance(Y) for Y in Ys])
            state = build_covariance(d, gamma, sigma2)
            q, r = atom_quadratic_forms(state, scm)
            assert q.shape == r.shape == (rows, m)
            Hs = rng.standard_normal((rows, 2, n, n)) + 1j * rng.standard_normal((rows, 2, n, n))
            forms = atom_forms(d, Hs)
            for i in range(rows):
                lone = build_covariance(d, gamma[i], sigma2[i])
                assert state.sigma[i].tobytes() == lone.sigma.tobytes()
                assert state.theta[i].tobytes() == lone.theta.tobytes()
                qi, ri = atom_quadratic_forms(lone, scm[i])
                assert qi.shape == ri.shape == (m,)
                assert q[i].tobytes() == qi.tobytes() and r[i].tobytes() == ri.tobytes()
                assert forms[i].tobytes() == atom_forms(d, Hs[i]).tobytes()

    def test_nonpositive_quadratic_form_guard(self):
        broken = CovarianceState(
            dictionary=Dictionary(np.array([[1.0 + 0j]])),
            gamma=np.array([1.0]),
            sigma2=1.0,
            sigma=np.array([[2.0 + 0j]]),
            theta=np.array([[0.0 + 0j]]),  # inconsistent caches force q = 0
        )
        with pytest.raises(NumericError):
            atom_quadratic_forms(broken, np.array([[4.0 + 0j]]))


def _support_model(case):
    """(dictionary, support, support powers, sigma2, scm) for the Gram-row forms."""
    rng = np.random.default_rng(["gaussian", "ula-adjacent", "60dB", "clipped"].index(case))
    sigma2 = 0.8
    if case == "ula-adjacent":
        d = ula_grid(20, 1801)
        support = (900, 901, 1400)  # two adjacent 0.1-degree atoms
        gamma = np.array([5.0, 3.0, 1.0])
    else:
        d = random_unit_dictionary(rng, 32, 256)
        support = tuple(int(i) for i in rng.choice(256, 4, replace=False))
        gamma = rng.uniform(0.5, 3.0, 4)
        if case == "60dB":
            # cond(Sigma) ~ 1e7: the two dense references below already
            # disagree with each other by about 5e-11 here
            gamma = np.full(4, 1e6 * sigma2)
        elif case == "clipped":
            gamma[1] = 0.0
    X = rng.standard_normal((d.n_sensors, 40)) + 1j * rng.standard_normal((d.n_sensors, 40))
    return d, support, gamma, sigma2, sample_covariance(X)


class TestSupportAtomForms:
    @pytest.mark.parametrize("case", ["gaussian", "ula-adjacent", "60dB", "clipped"])
    def test_match_the_dense_model(self, case):
        d, support, gamma_sub, sigma2, scm = _support_model(case)
        gamma = np.zeros(d.n_atoms)
        gamma[list(support)] = gamma_sub
        q, r = support_atom_forms(d, scm, support, gamma_sub, sigma2)
        q_lib, r_lib = atom_quadratic_forms(build_covariance(d, gamma, sigma2), scm)
        theta = np.linalg.inv(dense_covariance(d.atoms, gamma, sigma2))
        cases = (
            (q, q_lib, dense_atom_forms(d.atoms, theta)),
            (r, r_lib, dense_atom_forms(d.atoms, theta @ scm @ theta)),
        )
        for actual, lib, oracle in cases:
            assert max_rel_err(actual, lib) <= 1e-10
            assert max_rel_err(actual, oracle) <= 1e-10

    def test_empty_support_is_the_noise_only_model(self):
        d, _, _, _, scm = _support_model("gaussian")
        q, r = support_atom_forms(d, scm, (), np.zeros(0), 2.0)
        npt.assert_allclose(q, dense_atom_forms(d.atoms, np.eye(32)) / 2.0, rtol=1e-13)
        npt.assert_allclose(r, dense_atom_forms(d.atoms, scm) / 4.0, rtol=1e-12)

    @pytest.mark.parametrize("grid", [False, True])
    def test_empty_support_is_the_closed_form_bit_for_bit(self, grid):
        # cl-omp's first step evaluates its noise-only start through this call:
        # q_i = ||a_i||^2 / s2 and r_i = a_i^H Shat a_i / s2^2, stacked or single
        rng = np.random.default_rng(17)
        d = ula_grid(20, 1801) if grid else gaussian_dictionary(32, 256, rng)
        n = d.n_sensors
        X = rng.standard_normal((3, n, 25)) + 1j * rng.standard_normal((3, n, 25))
        scm = np.array([sample_covariance(x) for x in X])
        forms = atom_forms(d, scm[:, None])[:, 0]
        sigma2 = np.array([np.trace(s).real / n for s in scm])
        norms2 = np.sum(np.abs(d.atoms) ** 2, axis=0)
        q, r = support_atom_forms(d, scm, [[]] * 3, np.empty((3, 0)), sigma2, forms=forms)
        for i in range(3):
            q_i, r_i = norms2 / sigma2[i], forms[i] / sigma2[i] ** 2
            assert q[i].tobytes() == q_i.tobytes() and r[i].tobytes() == r_i.tobytes()
            q1, r1 = support_atom_forms(d, scm[i], (), np.empty(0), sigma2[i])
            assert q1.tobytes() == q_i.tobytes() and r1.tobytes() == r_i.tobytes()

    @pytest.mark.parametrize("case", ["gaussian", "ula-adjacent"])
    def test_a_stack_gives_each_rows_lone_forms(self, case):
        # three models over one dictionary, grown one atom at a time in lockstep
        d, support, gamma_sub, sigma2, scm = _support_model(case)
        supports = np.array([support, support[::-1], np.roll(support, 1)])
        gammas = np.array([gamma_sub, 2.0 * gamma_sub, gamma_sub[::-1]])
        sigma2s = np.array([sigma2, 0.5 * sigma2, 3.0 * sigma2])
        scms = np.array([scm, 2.0 * scm, scm.conj()])
        for j in range(len(support) + 1):
            q, r = support_atom_forms(d, scms, supports[:, :j], gammas[:, :j], sigma2s)
            for i in range(3):
                q0, r0 = support_atom_forms(d, scms[i], supports[i, :j], gammas[i, :j], sigma2s[i])
                assert q[i].tobytes() == q0.tobytes() and r[i].tobytes() == r0.tobytes()

    @pytest.mark.parametrize(
        "n,m",
        # at j = 1: 11, 3, 2 and 1 rows per pass; at j = 3: 3, 1, 1 and 1
        [(6, _PASS_ENTRIES // 12 + 1), (6, _PASS_ENTRIES // 3 - 1), (20, 1801),
         (6, _PASS_ENTRIES // 2 + 1)],
    )
    @pytest.mark.parametrize("grid", [False, True])
    @pytest.mark.parametrize("stack", [1, 3, 12])
    def test_passes_over_rows_give_the_one_pass_bits(self, n, m, grid, stack):
        # the j x M passes run over groups of rows that fit _PASS_ENTRIES, the
        # last group taking the rest; each row must get the bits of one pass
        rng = np.random.default_rng(m + stack)
        d = ula_grid(n, m) if grid else gaussian_dictionary(n, m, rng)
        X = rng.standard_normal((stack, n, 2 * n)) + 1j * rng.standard_normal((stack, n, 2 * n))
        scm = np.array([sample_covariance(x) for x in X])
        sigma2 = rng.uniform(0.5, 2.0, stack)
        forms = atom_forms(d, scm[:, None])[:, 0]
        for j in (0, 1, 3):
            support = np.array([rng.choice(m, j, replace=False) for _ in range(stack)])
            gamma = rng.uniform(0.5, 3.0, (stack, j))
            q, r = support_atom_forms(d, scm, support, gamma, sigma2)
            q0, r0 = one_pass_support_forms(d, scm, support, gamma, sigma2, forms)
            assert q.tobytes() == q0.tobytes() and r.tobytes() == r0.tobytes()

    def test_invalid_arguments(self):
        d, support, gamma_sub, sigma2, scm = _support_model("gaussian")
        with pytest.raises(ValueError):
            support_atom_forms(d, scm, support, gamma_sub[:2], sigma2)
        with pytest.raises(ValueError):
            support_atom_forms(d, scm, support, -gamma_sub, sigma2)
        with pytest.raises(ValueError):
            support_atom_forms(d, scm, support, gamma_sub, 0.0)

    @pytest.mark.parametrize("case", ["gaussian", "ula-adjacent"])
    def test_returns_the_forms_and_keeps_no_rows(self, case):
        # a pure function of its arguments: no Gram rows go out or come back in
        d, support, gamma_sub, sigma2, scm = _support_model(case)
        out = support_atom_forms(d, scm, support, gamma_sub, sigma2)
        assert type(out) is tuple and len(out) == 2
        assert all(a.shape == (d.n_atoms,) for a in out)
        with pytest.raises(TypeError):
            support_atom_forms(d, scm, support, gamma_sub, sigma2, rows=None)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: Dictionary(np.ones(3)), "dictionary must be a non-empty 2-D matrix"),
        (lambda: Dictionary(np.ones((3, 0))), "dictionary must be a non-empty 2-D matrix"),
        (lambda: Dictionary(np.array([[1.0, np.nan]])), "dictionary entries must be finite"),
        (lambda: build_covariance(ula_grid(6, 91), np.ones((2, 91)), np.ones(3)),
         "a stack of powers needs one noise variance per row"),
    ],
)
def test_outside_input_is_rejected_by_name(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestPseudoInverseApply:
    def test_orthonormal_columns(self):
        rng = np.random.default_rng(9)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))
        Z = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        npt.assert_allclose(pseudo_inverse_apply(Q, Z), Q.conj().T @ Z, atol=1e-12)

    def test_basis_vector(self):
        B = np.array([[1.0], [0.0]], dtype=complex)
        npt.assert_allclose(pseudo_inverse_apply(B, np.eye(2, dtype=complex)), [[1.0, 0.0]])

    def test_left_inverse_property(self):
        rng = np.random.default_rng(10)
        B = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        npt.assert_allclose(pseudo_inverse_apply(B, B), np.eye(3), atol=1e-10)

    def test_a_stack_gives_each_rows_lone_bits(self):
        rng = np.random.default_rng(23)
        B = rng.standard_normal((3, 5, 2)) + 1j * rng.standard_normal((3, 5, 2))
        Z = rng.standard_normal((3, 5, 4)) + 1j * rng.standard_normal((3, 5, 4))
        X = pseudo_inverse_apply(B, Z)
        assert X.shape == (3, 2, 4)
        assert pseudo_inverse_apply(B, Z, factor=_qr_full_rank(B)).tobytes() == X.tobytes()
        for b, z, x in zip(B, Z, X):
            assert pseudo_inverse_apply(b, z).tobytes() == x.tobytes()

    def test_rank_deficiency_detected(self):
        B = np.ones((4, 2), dtype=complex)
        with pytest.raises(RankDeficientError):
            pseudo_inverse_apply(B, np.eye(4, dtype=complex))

    def test_more_columns_than_rows_rejected(self):
        rng = np.random.default_rng(16)
        B = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        with pytest.raises(RankDeficientError):
            pseudo_inverse_apply(B, np.eye(2, dtype=complex))
        with pytest.raises(RankDeficientError):
            provisional_mle(np.eye(2, dtype=complex), B, 2)

    @pytest.mark.parametrize("cond, deficient", [(0.99e6, False), (1.01e6, True)])
    def test_rank_decision_follows_the_condition_number_of_b(self, cond, deficient):
        rng = np.random.default_rng(14)
        U, _ = np.linalg.qr(rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3)))
        V, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        B = U @ np.diag([1.0, 0.1, 1.0 / cond]) @ V.conj().T
        if deficient:
            with pytest.raises(RankDeficientError):
                _qr_full_rank(B)
        else:
            Q, R = _qr_full_rank(B)
            Q0, R0 = np.linalg.qr(B)
            npt.assert_array_equal(Q, Q0)
            npt.assert_array_equal(R, R0)


class TestNoiseMle:
    def test_empty_support(self):
        scm = np.diag([2.0, 3.0, 4.0]).astype(complex)
        npt.assert_allclose(noise_mle(scm, np.zeros((3, 0)), 3), 3.0)

    @pytest.mark.parametrize("rows", [None, 3], ids=["lone", "stack"])
    def test_empty_support_takes_the_general_path(self, rows):
        # an N x 0 support, or a stack of them, has an empty factor, fits no
        # powers and leaves the noise-only variance tr(Shat)/N
        rng = np.random.default_rng(17)
        n, snapshots = 5, 4
        stack = () if rows is None else (rows,)
        scm = np.array([random_pdh(rng, n) for _ in range(rows or 1)]).reshape(*stack, n, n)
        B = np.zeros((*stack, n, 0), dtype=complex)
        Q, R = _qr_full_rank(B)
        assert Q.shape == (*stack, n, 0) and R.shape == (*stack, 0, 0)
        noise_only = np.trace(scm, axis1=-2, axis2=-1).real / n
        sigma2 = noise_mle(scm, B, n)
        gamma, fit_sigma2 = provisional_mle(scm, B, n)
        assert gamma.shape == (*stack, 0)
        assert sigma2.tobytes() == fit_sigma2.tobytes() == noise_only.tobytes()
        shape = (*stack, n, snapshots)
        Z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert pseudo_inverse_apply(B, Z).shape == (*stack, 0, snapshots)

    def test_hand_projector(self):
        scm = np.diag([2.0, 3.0]).astype(complex)
        B = np.array([[1.0], [0.0]], dtype=complex)
        npt.assert_allclose(noise_mle(scm, B, 2), 3.0)

    def test_projector_algebra_recovers_sigma2(self):
        rng = np.random.default_rng(11)
        B = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        Q, _ = np.linalg.qr(B)
        P = Q @ Q.conj().T
        sigma2 = 0.37
        scm = sigma2 * (np.eye(6) - P) + B @ np.diag([2.0, 5.0]) @ B.conj().T
        npt.assert_allclose(noise_mle(scm, B, 6), sigma2, rtol=1e-10)

    def test_support_too_large(self):
        with pytest.raises(ValueError):
            noise_mle(np.eye(3, dtype=complex), np.eye(3, dtype=complex), 3)

    def test_given_factor_gives_the_same_value(self):
        rng = np.random.default_rng(15)
        B = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        scm = random_pdh(rng, 6)
        assert noise_mle(scm, B, 6, factor=np.linalg.qr(B)) == noise_mle(scm, B, 6)

    def test_rank_deficient_support_rejected(self):
        scm = np.eye(4, dtype=complex)
        B = np.ones((4, 2), dtype=complex)  # duplicated column direction
        with pytest.raises(RankDeficientError):
            noise_mle(scm, B, 4)


class TestProvisionalMle:
    def test_hand_example_clips_negative_power(self):
        scm = np.diag([2.0, 3.0]).astype(complex)
        B = np.array([[1.0], [0.0]], dtype=complex)
        gamma, sigma2 = provisional_mle(scm, B, 2)
        npt.assert_allclose(sigma2, 3.0)
        npt.assert_allclose(gamma, [0.0])

    def test_recovers_exact_model(self):
        rng = np.random.default_rng(12)
        A = random_unit_dictionary(rng, 6, 10)
        support = [1, 4]
        true_gamma = np.array([3.0, 1.5])
        sigma2 = 0.8
        B = A.take(support)
        scm = B @ np.diag(true_gamma) @ B.conj().T + sigma2 * np.eye(6)
        gamma, s2 = provisional_mle(scm, B, 6)
        npt.assert_allclose(s2, sigma2, rtol=1e-8)
        npt.assert_allclose(gamma, true_gamma, rtol=1e-8)

    def test_orthonormal_support(self):
        rng = np.random.default_rng(13)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 1)) + 1j * rng.standard_normal((5, 1)))
        scm = Q @ np.diag([5.0]) @ Q.conj().T + np.eye(5)
        gamma, s2 = provisional_mle(scm, Q, 5)
        npt.assert_allclose(s2, 1.0, rtol=1e-10)
        npt.assert_allclose(gamma, [5.0], rtol=1e-10)


def _refit_stack(ula: bool, seed: int, rows: int, j: int):
    """(dictionary, sample covariances (S, N, N), supports (S, N, j)) at a
    shipped shape: the ULA grid N=20/M=1801 or a Gaussian N=32/M=256."""
    rng = np.random.default_rng(seed)
    d = ula_grid(20, 1801) if ula else gaussian_dictionary(32, 256, rng)
    n, snapshots = d.n_sensors, rng.choice([3, 25, 125])
    Ys = rng.standard_normal((rows, n, snapshots)) + 1j * rng.standard_normal((rows, n, snapshots))
    scm = np.array([sample_covariance(Y) for Y in Ys])
    supports = np.array([rng.choice(d.n_atoms, j, replace=False) for _ in range(rows)])
    return d, scm, d.atoms.T[supports].swapaxes(-1, -2)


class TestStackedRefits:
    """_qr_full_rank, noise_mle and provisional_mle take a stack of supports."""

    @settings(max_examples=60, deadline=None)
    @given(
        ula=st.booleans(),
        seed=st.integers(0, 2**16),
        rows=st.integers(1, 12),
        j=st.integers(1, 4),
    )
    def test_a_stack_gives_each_rows_lone_bits(self, ula, seed, rows, j):
        d, scm, B = _refit_stack(ula, seed, rows, j)
        n = d.n_sensors
        try:
            lone_qr = [_qr_full_rank(b) for b in B]
        except RankDeficientError:  # the grid's +-90 deg endpoints are one atom
            with pytest.raises(RankDeficientError):
                noise_mle(scm, B, n)
            return
        Q, R = _qr_full_rank(B)
        sigma2 = noise_mle(scm, B, n)
        gamma, fit_sigma2 = provisional_mle(scm, B, n)
        assert sigma2.shape == fit_sigma2.shape == (rows,) and gamma.shape == (rows, j)
        for i in range(rows):
            Qi, Ri = lone_qr[i]
            assert Q[i].tobytes() == Qi.tobytes() and R[i].tobytes() == Ri.tobytes()
            lone = noise_mle(scm[i], B[i], n)
            assert type(lone) is np.float64 and sigma2[i].tobytes() == lone.tobytes()
            gi, si = provisional_mle(scm[i], B[i], n)
            assert type(si) is np.float64 and fit_sigma2[i].tobytes() == si.tobytes()
            assert gamma[i].tobytes() == gi.tobytes()
        # a stack of one is the 2-D call, bit for bit
        assert _qr_full_rank(B[:1])[1][0].tobytes() == _qr_full_rank(B[0])[1].tobytes()
        assert noise_mle(scm[:1], B[:1], n)[0].tobytes() == noise_mle(scm[0], B[0], n).tobytes()
        g1, s1 = provisional_mle(scm[:1], B[:1], n)
        g0, s0 = provisional_mle(scm[0], B[0], n)
        assert g1[0].tobytes() == g0.tobytes() and s1[0].tobytes() == s0.tobytes()

    @pytest.mark.parametrize("ula", [True, False])
    def test_one_rank_deficient_row_fails_the_stack(self, ula):
        d, scm, B = _refit_stack(ula, 7, 5, 3)
        n = d.n_sensors
        for i in range(5):
            noise_mle(scm[i], B[i], n)  # every row alone is full rank
        B[3, :, 2] = B[3, :, 0]  # row 3 repeats an atom
        with pytest.raises(RankDeficientError):
            noise_mle(scm[3], B[3], n)
        with pytest.raises(RankDeficientError):
            _qr_full_rank(B)
        with pytest.raises(RankDeficientError):
            noise_mle(scm, B, n)
        with pytest.raises(RankDeficientError):
            provisional_mle(scm, B, n)

    def test_an_empty_support_stack_gives_the_trace_per_row(self):
        scm = np.array([np.diag([2.0, 3.0, 4.0]), np.diag([1.0, 1.0, 4.0])]).astype(complex)
        npt.assert_array_equal(noise_mle(scm, np.zeros((2, 3, 0)), 3), [3.0, 2.0])
