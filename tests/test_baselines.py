import numpy as np
import numpy.testing as npt
import pytest

from covlearn import (
    SolverConfig,
    CovarianceState,
    atom_forms,
    Dictionary,
    MethodSpec,
    build_covariance,
    gaussian_dictionary,
    iaa_update,
    matched_filter_powers,
    mle_single_source,
    msbl_update,
    music_doas,
    negative_llf,
    ratio_update,
    run_cwo,
    run_iaa,
    run_msbl,
    run_samv2,
    run_sbl,
    sample_covariance,
    samv2_noise_update,
    solve_trial,
    somp,
    steering_matrix,
    ula_grid,
    grid_angles_deg,
    hard_threshold,
    Problem,
)
from covlearn import baselines, clbcd, methods, model
from util import (
    ULA_SHAPES,
    cwo_update,
    dense_atom_forms,
    dense_mle_single_source,
    direct_nll,
    max_rel_err,
    population_snapshots,
    random_pdh,
    random_state,
    random_unit_dictionary,
    somp_refit,
)

SCALAR_DICT = Dictionary(np.array([[1.0 + 0j]]))
SCALAR_SCM = np.array([[4.0 + 0j]])


class TestIaaUpdate:
    def test_array_atoms_on_identity_model(self):
        n = 4
        atoms = steering_matrix(n, [-10.0, 5.0, 40.0])
        st = CovarianceState(
            Dictionary(atoms),
            np.zeros(3),
            1.0,
            np.eye(n, dtype=complex),
            np.eye(n, dtype=complex),
        )
        npt.assert_allclose(iaa_update(st, np.eye(n, dtype=complex)), np.full(3, 1.0 / n))

    def test_scalar_value(self):
        st = build_covariance(SCALAR_DICT, [3.0], 1.0)
        npt.assert_allclose(iaa_update(st, SCALAR_SCM), [4.0])

    def test_model_consistent_equals_loo_bound(self):
        # at Shat == Sigma the update lands on the leave-one-out bound 1/q
        rng = np.random.default_rng(40)
        st = random_state(rng, 5, 8)
        q = np.einsum(
            "ij,ij->j", st.dictionary.atoms.conj(), st.theta @ st.dictionary.atoms
        ).real
        npt.assert_allclose(iaa_update(st, st.sigma), 1.0 / q, rtol=1e-10)


    def test_nonnegative_output(self):
        rng = np.random.default_rng(21)
        st = random_state(rng, 4, 7)
        tiny_scm = 1e-6 * np.eye(4, dtype=complex)
        assert iaa_update(st, tiny_scm).min() >= 0.0


class TestRatioUpdate:
    def test_preserves_zeros(self):
        rng = np.random.default_rng(41)
        A = random_unit_dictionary(rng, 5, 8)
        gamma = np.array([0.0, 1.0, 0.0, 2.0, 0.0, 0.5, 0.0, 1.5])
        st = build_covariance(A, gamma, 1.0)
        scm = random_pdh(rng, 5)
        for b in (1.0, 0.5):
            out = ratio_update(st, scm, b)
            assert np.all(out[gamma == 0.0] == 0.0)

    def test_model_consistent_scm_is_fixed_point_for_both_exponents(self):
        rng = np.random.default_rng(42)
        st = random_state(rng, 5, 8)
        for b in (1.0, 0.5):
            npt.assert_allclose(ratio_update(st, st.sigma, b), st.gamma, rtol=1e-10)

    def test_scalar_value(self):
        st = build_covariance(SCALAR_DICT, [1.0], 1.0)
        npt.assert_allclose(ratio_update(st, SCALAR_SCM, 1.0), [2.0])

    def test_invalid_exponent(self):
        st = build_covariance(SCALAR_DICT, [1.0], 1.0)
        with pytest.raises(ValueError):
            ratio_update(st, SCALAR_SCM, 0.7)


class TestSamv2NoiseUpdate:
    def test_white_model(self):
        d = Dictionary(np.eye(3, dtype=complex))
        st = build_covariance(d, np.zeros(3), 2.0)
        npt.assert_allclose(samv2_noise_update(st, st.sigma), 2.0)

    def test_scalar_returns_scm(self):
        st = build_covariance(SCALAR_DICT, [3.0], 1.0)
        npt.assert_allclose(samv2_noise_update(st, SCALAR_SCM), 4.0)

    def test_matches_direct_trace_oracle(self):
        rng = np.random.default_rng(43)
        st = random_state(rng, 6, 9)
        scm = random_pdh(rng, 6)
        t2 = st.theta @ st.theta
        expected = np.trace(t2 @ scm).real / np.trace(t2).real
        npt.assert_allclose(samv2_noise_update(st, scm), expected, rtol=1e-12)


class TestCwoUpdate:
    def test_clamps_at_zero(self):
        st = build_covariance(SCALAR_DICT, [1.0], 1.0)
        assert cwo_update(st, np.array([[1e-12 + 0j]]), 0) == 0.0

    def test_scalar_fixed_point(self):
        st = build_covariance(SCALAR_DICT, [3.0], 1.0)
        assert cwo_update(st, SCALAR_SCM, 0) == pytest.approx(3.0)

    def test_scalar_step(self):
        st = build_covariance(SCALAR_DICT, [2.0], 1.0)
        # Theta = 1/3: r/q^2 = 4 and 1/q = 3, so gamma moves by +1
        assert cwo_update(st, SCALAR_SCM, 0) == pytest.approx(3.0)

    def test_model_consistent_scm_is_stationary(self):
        rng = np.random.default_rng(20)
        st = random_state(rng, 5, 8)
        steps = [cwo_update(st, st.sigma, i) for i in range(8)]
        npt.assert_allclose(steps, st.gamma, rtol=1e-10)

    def test_single_step_never_increases_nll(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(n, 10))
            st = random_state(rng, n, m)
            scm = random_pdh(rng, n)
            i = int(rng.integers(m))
            before = negative_llf(st, scm)
            new_gamma = np.array(st.gamma)
            new_gamma[i] = cwo_update(st, scm, i)
            after = negative_llf(build_covariance(st.dictionary, new_gamma, st.sigma2), scm)
            assert after <= before + 1e-10


class TestCwoSweep:
    """clbcd._cwo_sweep, cwo's power rule, against the coordinate oracle."""

    def _case(self, rng, rows, dense):
        d = random_unit_dictionary(rng, 5, 8) if dense else ula_grid(5, 8)
        gamma = rng.uniform(0.0, 2.0, size=(rows, 8))
        gamma[:, ::3] = 0.0  # some atoms start at zero power
        sigma2 = rng.uniform(0.5, 2.0, size=rows)
        # data from two strong atoms: the sweep raises them and lowers the rest
        truth = np.zeros(8)
        truth[[1, 6]] = 4.0
        scm = np.array([build_covariance(d, truth, 0.3).sigma + 0.1 * random_pdh(rng, 5)
                        for _ in range(rows)])
        return d, gamma, sigma2, scm

    def test_one_sweep_is_m_successive_coordinate_steps(self):
        d, gamma, sigma2, scm = self._case(np.random.default_rng(46), 1, True)
        state = build_covariance(d, gamma, sigma2)
        swept = clbcd._cwo_sweep(state, scm)
        expected = np.array(gamma[0])
        for i in range(d.n_atoms):
            expected[i] = cwo_update(build_covariance(d, expected, sigma2[0]), scm[0], i)
        npt.assert_allclose(swept[0], expected, rtol=1e-10)
        # the case moves atoms both ways and clamps one at zero
        assert (swept[0] > gamma[0]).any() and (swept[0] < gamma[0]).any()
        assert ((swept[0] == 0.0) & (gamma[0] > 0.0)).any()
        npt.assert_array_equal(state.gamma, gamma)  # the state's powers stay as built

    @pytest.mark.parametrize("dense", [True, False])
    def test_each_row_of_a_stack_sweeps_as_it_does_alone(self, dense):
        d, gamma, sigma2, scm = self._case(np.random.default_rng(47), 3, dense)
        swept = clbcd._cwo_sweep(build_covariance(d, gamma, sigma2), scm)
        for j in range(3):
            alone = clbcd._cwo_sweep(
                build_covariance(d, gamma[j : j + 1], sigma2[j : j + 1]), scm[j : j + 1]
            )
            assert swept[j].tobytes() == alone[0].tobytes()


class TestMsblEmStep:
    def test_scalar_step_and_nll_decrease(self):
        st = build_covariance(SCALAR_DICT, [1.0], 1.0)
        out = msbl_update(st, np.array([[4.0 + 0j]]))
        npt.assert_allclose(out, [1.5])
        before = negative_llf(st, np.array([[4.0 + 0j]]))
        after = negative_llf(build_covariance(SCALAR_DICT, out, 1.0), np.array([[4.0 + 0j]]))
        npt.assert_allclose(before, 2.0 + np.log(2.0))
        npt.assert_allclose(after, 4.0 / 2.5 + np.log(2.5))
        assert after < before

    def test_zero_powers_stay_zero_and_nonnegative(self):
        rng = np.random.default_rng(45)
        A = random_unit_dictionary(rng, 5, 8)
        gamma = np.array([0.0, 1.0, 0.0, 2.0, 0.3, 0.0, 0.9, 0.0])
        st = build_covariance(A, gamma, 0.7)
        Y = rng.standard_normal((5, 12)) + 1j * rng.standard_normal((5, 12))
        out = msbl_update(st, sample_covariance(Y))
        assert np.all(out[gamma == 0.0] == 0.0)
        assert out.min() >= 0.0

    def test_em_monotonicity_at_fixed_noise(self):
        rng = np.random.default_rng(46)
        for _ in range(30):
            n, m = 4, 7
            A = random_unit_dictionary(rng, n, m)
            gamma = rng.uniform(0.1, 2.0, size=m)
            sigma2 = rng.uniform(0.5, 1.5)
            st = build_covariance(A, gamma, sigma2)
            Y = rng.standard_normal((n, 9)) + 1j * rng.standard_normal((n, 9))
            scm = Y @ Y.conj().T / 9
            out = msbl_update(st, scm)
            before = direct_nll(st.sigma, scm)
            after = direct_nll(build_covariance(A, out, sigma2).sigma, scm)
            assert after <= before + 1e-10


class TestSomp:
    def test_identity_dictionary_selects_largest_rows(self):
        d = Dictionary(np.eye(4, dtype=complex))
        Y = np.diag([1.0, 5.0, 2.0, 4.0]).astype(complex)
        sup = somp(Y, d, 2)
        assert sup.same_atoms({1, 3})

    def test_orthogonal_noiseless_exact_recovery(self):
        rng = np.random.default_rng(47)
        Q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        d = Dictionary(Q)
        X = np.zeros((8, 5), dtype=complex)
        X[[2, 6]] = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        sup = somp(Q @ X, d, 2)
        assert sup.same_atoms({2, 6})

    def test_all_zero_snapshots_rejected(self):
        with pytest.raises(ValueError, match="no energy"):
            somp(np.zeros((6, 10), dtype=complex), ula_grid(6, 91), 2)

    def test_a_steering_grid_conjugates_once(self):
        # the grid builds its read-only conj(A) at the first somp solve, and
        # every later solve reads that one array
        grid = ula_grid.__wrapped__(6, 91)
        assert "_atoms_conj" not in vars(grid)
        rng = np.random.default_rng(46)
        Y = rng.standard_normal((6, 10)) + 1j * rng.standard_normal((6, 10))
        first = somp(Y, grid, 2)
        conj = vars(grid)["_atoms_conj"]
        npt.assert_array_equal(conj, grid.atoms.conj())
        assert not conj.flags.writeable
        assert somp(Y, grid, 2) == first
        assert vars(grid)["_atoms_conj"] is conj

    @pytest.mark.parametrize("grid", [False, True])
    def test_method_refit_forms_one_sample_covariance(self, monkeypatch, grid):
        # rows and noise variance equal separate refits bitwise, though the
        # method forms the sample covariance once and factors the support once
        formed = []

        def counting(Y):
            formed.append(None)
            return model.sample_covariance(Y)

        # every solve forms its sample covariance in clbcd.Problem
        monkeypatch.setattr(clbcd, "sample_covariance", counting)
        for seed in range(5):
            rng = np.random.default_rng((48, seed))
            d = ula_grid(8, 91) if grid else random_unit_dictionary(rng, 16, 64)
            Y = rng.standard_normal((d.n_sensors, 12)) + 1j * rng.standard_normal((d.n_sensors, 12))
            formed.clear()
            res = methods.solve_trial(methods.MethodSpec("somp"), Y, d, 3, noise_var=1.0)
            assert len(formed) == 1
            assert res.support == somp(Y, d, 3)
            gamma, sigma2 = somp_refit(Y, d, res.support.indices)
            assert res.gamma.tobytes() == gamma.tobytes()
            assert res.sigma2 == sigma2

    @pytest.mark.parametrize("grid", [False, True])
    def test_a_cell_factors_each_support_once(self, monkeypatch, grid):
        # each greedy step factors its support once, and the row powers and
        # the noise refit read the last step's factor: K factors, one per size
        sizes = []
        check = model._qr_full_rank

        def counting(B):
            sizes.append(np.shape(B)[-1])
            return check(B)

        for module in (model, baselines, methods):
            if hasattr(module, "_qr_full_rank"):
                monkeypatch.setattr(module, "_qr_full_rank", counting)
        rng = np.random.default_rng(49)
        d = ula_grid(8, 91) if grid else random_unit_dictionary(rng, 16, 64)
        Y = rng.standard_normal((d.n_sensors, 12)) + 1j * rng.standard_normal((d.n_sensors, 12))
        methods.solve_trial(methods.MethodSpec("somp"), Y, d, 3, noise_var=1.0)
        assert sizes == [1, 2, 3]


class TestMusic:
    def test_exact_single_source(self):
        n, m = 8, 181
        grid = ula_grid(n, m)
        deg = grid_angles_deg(m)
        idx = 60
        a = grid.atom(idx)
        scm = np.outer(a, a.conj()) + 0.1 * np.eye(n)
        res = music_doas(population_snapshots(scm), grid, 1)
        assert res.support.indices == (idx,)
        assert deg[idx] == pytest.approx(-30.0)
        # the N-1 noise eigenvalues are all 0.1
        assert res.sigma2 == pytest.approx(0.1)
        assert (res.gamma, res.iterations, res.converged) == (None, 1, True)

    def test_k_equal_n_rejected(self):
        grid = ula_grid(4, 41)
        with pytest.raises(ValueError):
            music_doas(population_snapshots(np.eye(4, dtype=complex)), grid, 4)

    def test_zero_energy_rejected(self):
        # every eigenvector spans the noise subspace: no peak means anything
        with pytest.raises(ValueError, match="no energy"):
            music_doas(np.zeros((4, 4), dtype=complex), ula_grid(4, 41), 1)  # Y = 0

    def test_two_sources_population(self):
        n, m = 10, 361
        grid = ula_grid(n, m)
        a1 = steering_matrix(n, [-20.0])[:, 0]
        a2 = steering_matrix(n, [15.0])[:, 0]
        scm = 2 * np.outer(a1, a1.conj()) + np.outer(a2, a2.conj()) + 0.5 * np.eye(n)
        sup = music_doas(population_snapshots(scm), grid, 2).support
        found = sorted(grid_angles_deg(m)[list(sup.indices)])
        npt.assert_allclose(found, [-20.0, 15.0], atol=1e-9)

    @pytest.mark.parametrize("kind", ["gaussian", "ula"])
    def test_reads_the_support_rule_off_the_dictionary(self, kind):
        # the K largest entries of the pseudospectrum on a dense dictionary,
        # whose atoms 10 and 11 are neighbours in index only, and the K
        # largest peaks on a steering grid, whose top-2 entries flank one peak
        rng = np.random.default_rng(71)
        if kind == "gaussian":
            d, k, true = gaussian_dictionary(16, 64, rng), 3, (10, 11, 40)
            atoms = d.take(list(true))
        else:
            d, k, true = ula_grid(8, 1801), 2, (800, 1153)
            atoms = steering_matrix(8, grid_angles_deg(1801)[list(true)])
        n = d.n_sensors
        X = 10.0 * (rng.standard_normal((k, 64)) + 1j * rng.standard_normal((k, 64)))
        Y = atoms @ X + rng.standard_normal((n, 64)) + 1j * rng.standard_normal((n, 64))
        noise_basis = np.linalg.eigh(sample_covariance(Y))[1][:, : n - k]
        spectrum = 1.0 / np.sum(np.abs(noise_basis.conj().T @ d.atoms) ** 2, axis=0)
        peak = kind == "ula"
        assert hard_threshold(spectrum, k, peak=peak).indices == true
        assert hard_threshold(spectrum, k, peak=not peak).indices != true
        assert music_doas(Y, d, k).support.indices == true

    def test_scaling_invariance(self):
        rng = np.random.default_rng(48)
        grid = ula_grid(6, 121)
        Y = population_snapshots(random_pdh(rng, 6))
        assert (
            music_doas(Y, grid, 2).support.indices
            == music_doas(np.sqrt(7.3) * Y, grid, 2).support.indices
        )


def _rule_case(kind):
    """(dictionary, k, Y, true): sources on atoms 10 and 11 of a Gaussian
    dictionary, which the K largest peaks would split, or two off-grid
    directions on a steering grid, whose K largest entries flank one peak."""
    rng = np.random.default_rng((73, kind == "ula"))
    if kind == "ula":
        d, k, true = ula_grid(12, 361), 2, (159, 230)
        atoms = steering_matrix(12, [-10.2, 25.3])
    else:
        d, k, true = gaussian_dictionary(16, 64, rng), 3, (10, 11, 40)
        atoms = d.take(list(true))
    X = 3.0 * (rng.standard_normal((k, 40)) + 1j * rng.standard_normal((k, 40)))
    E = rng.standard_normal((d.n_sensors, 40)) + 1j * rng.standard_normal((d.n_sensors, 40))
    return d, k, atoms @ X + E, true


@pytest.mark.parametrize("kind", ["gaussian", "ula"])
@pytest.mark.parametrize("tag", ["cl-bcd", "iaa", "samv2", "sbl", "sbl1", "msbl", "cwo"])
def test_the_power_iteration_reads_the_support_rule_off_the_dictionary(kind, tag):
    d, k, Y, true = _rule_case(kind)
    res = solve_trial(MethodSpec(tag), Y, d, k, noise_var=1.0, max_iter=100)
    assert res.support == hard_threshold(res.gamma, k, d.is_steering_grid)
    assert res.support.indices == true


class TestSteeringGridForms:
    @pytest.mark.parametrize("n, m", ULA_SHAPES)
    def test_matched_filter_matches_dense_oracle(self, n, m):
        grid = ula_grid(n, m)
        scm = random_pdh(np.random.default_rng(n * m), n)
        expected = dense_atom_forms(grid.atoms, scm) / n**2
        assert max_rel_err(matched_filter_powers(grid, scm), expected) <= 1e-12

    @pytest.mark.parametrize("n, m", ULA_SHAPES)
    def test_music_projection_matches_dense_oracle(self, n, m):
        grid = ula_grid(n, m)
        problem = Problem(population_snapshots(random_pdh(np.random.default_rng(n + m), n)), grid)
        scm = problem.scm
        k = 1
        noise_basis = np.linalg.eigh(scm)[1][:, : n - k]
        expected = np.sum(np.abs(noise_basis.conj().T @ grid.atoms) ** 2, axis=0)
        proj = atom_forms(grid, (noise_basis @ noise_basis.conj().T)[None])[0]
        assert max_rel_err(proj, expected) <= 1e-12
        support = hard_threshold(1.0 / expected, k, peak=True)
        assert music_doas(problem, grid, k).support.indices == support.indices


class TestMleSingleSource:
    def test_rank_one_recovers_nearest_grid_point(self):
        n = 12
        theta0 = -24.987
        a = steering_matrix(n, [theta0])[:, 0]
        got = mle_single_source(np.outer(a, a.conj()), 18001)
        assert abs(got - theta0) <= 0.005 + 1e-12

    def test_identity_tie_takes_lowest_grid_angle(self):
        assert mle_single_source(np.eye(6, dtype=complex), 181) == -90.0

    def test_matches_bruteforce_scan(self):
        rng = np.random.default_rng(49)
        scm = random_pdh(rng, 6)
        fine = grid_angles_deg(361)
        best, best_val = None, -np.inf
        for th in fine:
            a = steering_matrix(6, [th])[:, 0]
            val = np.vdot(a, scm @ a).real
            if val > best_val:
                best, best_val = th, val
        assert mle_single_source(scm, 361) == pytest.approx(best)

    @pytest.mark.parametrize("n", [6, 12, 20])
    def test_structured_scan_matches_dense_oracle(self, n):
        rng = np.random.default_rng(53 + n)
        fine = grid_angles_deg(18001)
        for _ in range(70):
            # one source at a random angle and power over white noise, 10 snapshots
            source = np.sqrt(rng.uniform(0.5, 20.0)) * steering_matrix(n, [rng.uniform(-89, 89)])
            noise = rng.standard_normal((n, 10)) + 1j * rng.standard_normal((n, 10))
            Y = source @ rng.standard_normal((1, 10)) + noise
            scm = sample_covariance(Y)
            assert mle_single_source(scm, 18001) == dense_mle_single_source(scm, fine)

    @pytest.mark.parametrize("n_points", [181, 18001])
    def test_a_stack_scans_each_row_as_alone(self, n_points):
        # one atom_forms call over the (S, 1, N, N) stack keeps each row's own
        # product, so every row's direction is its lone scan's, and the dense
        # oracle's argmax
        rng = np.random.default_rng(57 + n_points)
        for n, s in [(6, 1), (12, 5), (20, 12)]:
            sources = np.sqrt(rng.uniform(0.5, 20.0, s)) * steering_matrix(n, rng.uniform(-89, 89, s))
            noise = rng.standard_normal((s, n, 10)) + 1j * rng.standard_normal((s, n, 10))
            scm = np.array([sample_covariance(a[:, None] @ rng.standard_normal((1, 10)) + e)
                            for a, e in zip(sources.T, noise)])
            got = mle_single_source(scm, n_points)
            assert got.shape == (s,)
            assert got.tobytes() == np.array([mle_single_source(row, n_points) for row in scm]).tobytes()
            fine = grid_angles_deg(n_points)
            assert got.tolist() == [dense_mle_single_source(row, fine) for row in scm]

    def test_fine_grid_is_built_once(self, monkeypatch):
        ula_grid.cache_clear()
        grid = ula_grid(7, 91)
        built = []
        real = model.steering_matrix

        def counting(n, angles):
            built.append(len(angles))
            return real(n, angles)

        monkeypatch.setattr(model, "steering_matrix", counting)
        rng = np.random.default_rng(54)
        Y = rng.standard_normal((7, 6)) + 1j * rng.standard_normal((7, 6))
        thetas = [
            methods.solve_trial(methods.MethodSpec("mle1"), Y, grid, 1, noise_var=1.0).theta_deg
            for _ in range(2)
        ]
        assert thetas[0] == thetas[1]
        assert built == [baselines.FINE_GRID_POINTS]


@pytest.fixture(scope="module")
def easy_problem():
    rng = np.random.default_rng(50)
    A = random_unit_dictionary(rng, 12, 40)
    true = (5, 18, 33)
    atoms = A.take(true)
    waves = np.diag(np.sqrt([60.0, 50.0, 40.0])) @ (
        (rng.standard_normal((3, 400)) + 1j * rng.standard_normal((3, 400))) / np.sqrt(2)
    )
    noise = (rng.standard_normal((12, 400)) + 1j * rng.standard_normal((12, 400))) / np.sqrt(2)
    return A, atoms @ waves + noise, true


class TestRunners:
    @pytest.mark.parametrize(
        "runner,kwargs",
        [
            (run_iaa, {}),
            (run_samv2, {}),
            (run_sbl, {}),
            (run_sbl, {"b": 0.5}),
            (run_msbl, {"config": SolverConfig(known_sigma2=1.0)}),
            (run_cwo, {"config": SolverConfig(known_sigma2=1.0)}),
        ],
    )
    def test_high_snr_support_recovery(self, easy_problem, runner, kwargs):
        A, Y, true = easy_problem
        res = runner(Y, A, 3, **kwargs)
        assert res.support.same_atoms(true)
        assert res.gamma.min() >= 0.0
        assert res.sigma2 > 0.0

    def test_known_sigma_required(self):
        rng = np.random.default_rng(51)
        A = random_unit_dictionary(rng, 6, 12)
        Y = rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))
        with pytest.raises(ValueError):
            run_msbl(Y, A, 2, SolverConfig())
        with pytest.raises(ValueError):
            run_cwo(Y, A, 2, SolverConfig())
        # a stack is refused by the same config error, not a TypeError; it is
        # not a counted failure, so solve_stack raises it and keeps no row
        for tag in ("msbl", "cwo"):
            problems = [Problem(Y, A), Problem(2.0 * Y, A)]
            with pytest.raises(ValueError, match=f"{tag} requires a known_sigma2"):
                clbcd._power_iteration(problems, tag, 2, SolverConfig())
            with pytest.raises(ValueError, match=f"{tag} requires a known_sigma2"):
                methods.solve_stack(methods.MethodSpec(tag), problems, A, 2, noise_var=None)
            assert all(not p._solved for p in problems)
            with pytest.raises(ValueError, match=f"{tag} requires a known_sigma2"):
                methods.solve_trial(methods.MethodSpec(tag), problems[0], A, 2, noise_var=None)

    def test_config_validation(self, easy_problem):
        A, Y, _ = easy_problem
        with pytest.raises(ValueError):
            run_sbl(Y, A, 3, b=0.7)
        with pytest.raises(ValueError, match="max_iter"):
            SolverConfig(max_iter=0)
        for known in (0.0, -1.0):
            with pytest.raises(ValueError, match="known_sigma2"):
                SolverConfig(known_sigma2=known)

    def test_matched_filter_strictly_positive_on_generic_data(self):
        rng = np.random.default_rng(52)
        A = random_unit_dictionary(rng, 6, 15)
        Y = rng.standard_normal((6, 10)) + 1j * rng.standard_normal((6, 10))
        scm = Y @ Y.conj().T / 10
        assert matched_filter_powers(A, scm).min() > 0.0
