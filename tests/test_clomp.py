import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from covlearn import (
    Dictionary,
    build_covariance,
    conditional_gamma_star,
    run_clomp,
    sample_covariance,
    steering_matrix,
    sweep_errors,
    ula_grid,
)
from covlearn.clbcd import Problem
from covlearn.clomp import _clomp
from util import (
    dense_clomp,
    direct_nll,
    golden_section_min,
    population_snapshots,
    random_pdh,
    random_state,
    random_unit_dictionary,
)


class TestConditionalGammaStar:
    def test_zero_at_model_consistent_scm(self):
        rng = np.random.default_rng(30)
        st = random_state(rng, 5, 9)
        for i in range(9):
            assert conditional_gamma_star(st, st.sigma, i) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_values(self):
        d = Dictionary(np.array([[1.0 + 0j]]))
        st = build_covariance(d, [0.0], 1.0)  # Sigma = [1]
        assert conditional_gamma_star(st, np.array([[4.0 + 0j]]), 0) == pytest.approx(3.0)
        assert conditional_gamma_star(st, np.array([[0.5 + 0j]]), 0) == 0.0

    def test_matches_scalar_line_search(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n, m = 6, 10
            A = random_unit_dictionary(rng, n, m)
            gamma = np.zeros(m)
            active = rng.choice(m, size=3, replace=False)
            gamma[active] = rng.uniform(0.5, 2.0, size=3)
            st = build_covariance(A, gamma, rng.uniform(0.5, 1.5))
            scm = random_pdh(rng, n)
            i = int(next(j for j in range(m) if gamma[j] == 0.0))
            a = A.atom(i)

            def cond_nll(g):
                return direct_nll(st.sigma + g * np.outer(a, a.conj()), scm)

            hi = 10.0 * np.trace(scm).real
            oracle = golden_section_min(cond_nll, 0.0, hi)
            got = conditional_gamma_star(st, scm, i)
            if oracle < 1e-9:
                assert got == pytest.approx(0.0, abs=1e-8)
            else:
                assert got == pytest.approx(oracle, rel=1e-6)


class TestSweepErrors:
    def test_zero_candidate_gives_zero_error(self):
        rng = np.random.default_rng(32)
        st = random_state(rng, 5, 8)
        sweep = sweep_errors(st, st.sigma)
        npt.assert_allclose(sweep.gamma_candidates, np.zeros(8), atol=1e-12)
        npt.assert_allclose(sweep.errors, np.zeros(8), atol=1e-12)

    def test_closed_form_at_unit_product(self):
        # scalar: Sigma=[1], Shat=[2] -> gamma*=1, u=1, eps = ln 2 - 1
        d = Dictionary(np.array([[1.0 + 0j]]))
        st = build_covariance(d, [0.0], 1.0)
        sweep = sweep_errors(st, np.array([[2.0 + 0j]]))
        npt.assert_allclose(sweep.errors, [np.log(2.0) - 1.0])

    def test_errors_nonpositive_and_match_nll_difference(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            n, m = 5, 9
            A = random_unit_dictionary(rng, n, m)
            st = build_covariance(A, np.zeros(m), rng.uniform(0.5, 2.0))
            scm = random_pdh(rng, n)
            sweep = sweep_errors(st, scm)
            assert np.all(sweep.errors <= 1e-15)
            base = direct_nll(st.sigma, scm)
            for i in range(m):
                a = A.atom(i)
                shifted = st.sigma + sweep.gamma_candidates[i] * np.outer(a, a.conj())
                npt.assert_allclose(sweep.errors[i], direct_nll(shifted, scm) - base, atol=1e-8)

    def test_excluded_atoms_are_sentinels(self):
        rng = np.random.default_rng(34)
        st = random_state(rng, 5, 8)
        scm = random_pdh(rng, 5)
        sweep = sweep_errors(st, scm, excluded=(2, 6))
        assert np.isinf(sweep.errors[2]) and np.isinf(sweep.errors[6])
        assert sweep.gamma_candidates[2] == 0.0 and sweep.gamma_candidates[6] == 0.0
        finite = np.delete(sweep.errors, [2, 6])
        assert np.all(finite <= 1e-15)


class TestRunClomp:
    def test_population_covariance_exact_steps(self):
        rng = np.random.default_rng(35)
        A = random_unit_dictionary(rng, 10, 40)
        true = (7, 22, 35)
        gamma = np.zeros(40)
        gamma[list(true)] = [6.0, 4.0, 3.0]
        pop = build_covariance(A, gamma, 1.0).sigma
        res = run_clomp(population_snapshots(pop), A, 3)
        assert res.support.same_atoms(true)
        assert res.iterations == 3
        assert res.converged

    def test_diagonal_case_selection_order(self):
        d = Dictionary(np.eye(4, dtype=complex))
        scm = np.diag([9.0, 1.0, 4.0, 1.0]).astype(complex)
        res = run_clomp(population_snapshots(scm), d, 2)
        assert res.support.indices == (0, 2)  # strongest diagonal first

    def test_no_atom_selected_twice(self):
        rng = np.random.default_rng(36)
        A = random_unit_dictionary(rng, 8, 20)
        Y = rng.standard_normal((8, 10)) + 1j * rng.standard_normal((8, 10))
        res = run_clomp(Y, A, 5)
        assert len(set(res.support.indices)) == 5

    def test_resweep_on_support_is_tiny_after_refit(self):
        rng = np.random.default_rng(37)
        A = random_unit_dictionary(rng, 10, 25)
        gamma = np.zeros(25)
        gamma[[2, 11]] = [5.0, 3.0]
        pop = build_covariance(A, gamma, 1.0).sigma
        res = run_clomp(population_snapshots(pop), A, 2)
        state = build_covariance(A, res.gamma, res.sigma2)
        sweep = sweep_errors(state, pop)  # nothing excluded on purpose
        for i in res.support.indices:
            assert sweep.gamma_candidates[i] <= 1e-6 * res.gamma.max()

    def test_invalid_inputs(self):
        d = Dictionary(np.eye(3, dtype=complex))
        with pytest.raises(ValueError):
            run_clomp(np.eye(3, dtype=complex), d, 3)
        with pytest.raises(ValueError):
            run_clomp(np.zeros((3, 3), dtype=complex), d, 1)

    def test_gamma_nonneg_sigma_positive(self):
        rng = np.random.default_rng(39)
        A = random_unit_dictionary(rng, 8, 20)
        Y = 0.2 * (rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4)))
        res = run_clomp(Y, A, 4)
        assert res.gamma.min() >= 0.0
        assert res.sigma2 > 0.0


def _snapshots(rng, atoms, powers, n_snapshots):
    n, k = atoms.shape
    X = rng.standard_normal((k, n_snapshots)) + 1j * rng.standard_normal((k, n_snapshots))
    E = rng.standard_normal((n, n_snapshots)) + 1j * rng.standard_normal((n, n_snapshots))
    return (atoms * np.sqrt(powers / 2)) @ X + E / np.sqrt(2)


def _parity_problems(kind):
    """Seeded (snapshots, dictionary, k) triples: noisy snapshots of k sources."""
    rng = np.random.default_rng(["gaussian", "ula", "few-snapshots"].index(kind))
    for _ in range(24):
        if kind == "gaussian":
            n, m = (32, 256) if rng.uniform() < 0.5 else (12, 40)
            d = random_unit_dictionary(rng, n, m)
            k = int(rng.integers(2, 5))
            src = d.take(rng.choice(m, k, replace=False))
            n_snapshots = int(rng.integers(n // 2, 2 * n))
        elif kind == "ula":
            d = ula_grid(20, 1801)
            k = 2
            first = rng.uniform(-60.0, 60.0)
            # from 0.3 degrees (three grid steps) up to well resolved
            src = steering_matrix(20, [first, first + rng.choice([0.3, 1.0, 7.0])])
            n_snapshots = 125
        else:
            d = random_unit_dictionary(rng, 8, 30)
            k = int(rng.integers(1, 7))
            src = d.take(rng.choice(30, min(k, 3), replace=False))
            n_snapshots = int(rng.integers(1, 4))
        powers = 10.0 ** rng.uniform(0.1, 4.0, src.shape[1])
        yield _snapshots(rng, src, powers, n_snapshots), d, k


class TestGramRowSweeps:
    @pytest.mark.parametrize("kind", ["gaussian", "ula", "few-snapshots"])
    def test_same_result_as_the_dense_greedy_loop(self, kind):
        # the refit is shared, so equal supports give bitwise-equal powers
        for Y, d, k in _parity_problems(kind):
            support, gamma, sigma2 = dense_clomp(sample_covariance(Y), d, k)
            res = run_clomp(Y, d, k)
            assert res.support.indices == support
            assert res.gamma.tobytes() == gamma.tobytes()
            assert res.sigma2 == sigma2

    def test_a_stacked_step_allocates_row_groups_not_the_whole_stack(self):
        # each greedy step's Woodbury passes run over groups of rows, so a
        # 6-row, K = 2 solve on the 0.1-degree grid peaked at 1064 KiB of
        # traced memory above its start; one pass over the stack, whose three
        # (6, 1, 1801) complex temporaries take 169 KiB each, peaked at 1400 KiB
        d = ula_grid(20, 1801)
        rng = np.random.default_rng(3)
        src = steering_matrix(20, [-20.02, 3.02])
        problems = [Problem(_snapshots(rng, src, np.ones(2), 125), d) for _ in range(6)]
        for problem in problems:
            problem.forms  # evaluated once per cell before any method runs
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            _clomp(problems, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 1200 * 1024
