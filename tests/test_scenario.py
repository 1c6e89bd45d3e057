import functools
import pickle
from dataclasses import replace
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covlearn import clbcd, clomp, methods, scenario
from covlearn import (
    MethodSpec,
    MetricsRecord,
    ScenarioConfig,
    doa_rmse,
    gaussian_dictionary,
    generate_snapshots,
    grid_angles_deg,
    hard_threshold,
    per_metric,
    power_nmse,
    run_monte_carlo,
    solve_trial,
    steering_matrix,
    ula_grid,
)


def steering_vector(n, theta):
    return steering_matrix(n, [theta])[:, 0]


class TestGaussianDictionary:
    def test_unit_norms(self):
        d = gaussian_dictionary(16, 64, seed=0)
        npt.assert_allclose(np.linalg.norm(d.atoms, axis=0), np.ones(64), atol=1e-12)

    def test_seed_determinism(self):
        a = gaussian_dictionary(8, 32, seed=7)
        b = gaussian_dictionary(8, 32, seed=7)
        npt.assert_array_equal(a.atoms, b.atoms)
        c = gaussian_dictionary(8, 32, seed=8)
        assert not np.array_equal(a.atoms, c.atoms)

    def test_coherence_concentrates_at_expected_scale(self):
        # |<a_i, a_j>|^2 for unit complex Gaussian atoms has mean ~1/N;
        # check the empirical mean within 3 standard errors
        n, m = 64, 40
        d = gaussian_dictionary(n, m, seed=123)
        G = d.atoms.conj().T @ d.atoms
        off = np.abs(G[np.triu_indices(m, k=1)]) ** 2
        se = off.std(ddof=1) / np.sqrt(off.size)
        assert abs(off.mean() - 1.0 / n) <= 3 * se


class TestUlaSteering:
    def test_broadside_is_all_ones(self):
        npt.assert_array_equal(steering_vector(6, 0.0), np.ones(6, dtype=complex))

    def test_unit_modulus_and_norm(self):
        a = steering_vector(9, 37.5)
        npt.assert_allclose(np.abs(a), np.ones(9), atol=1e-15)
        npt.assert_allclose(np.vdot(a, a).real, 9.0, atol=1e-12)
        # bit for bit the matching steering_matrix column, on and off the grid
        angles = np.concatenate([grid_angles_deg(1801), [-20.02, 3.02, 37.5]])
        for n in (1, 2, 6, 20, 32):
            A = steering_matrix(n, angles)
            for i, theta in enumerate(angles):
                npt.assert_array_equal(steering_vector(n, theta), A[:, i])

    def test_out_of_range_rejected(self):
        for theta in (95.0, np.nan):
            with pytest.raises(ValueError):
                steering_vector(4, theta)
        with pytest.raises(ValueError):
            steering_matrix(4, [10.0, np.nan])

    def test_dirichlet_kernel_closed_form(self):
        n = 8
        for t1, t2 in [(0.0, 10.0), (-30.0, -28.0), (15.0, 50.0)]:
            a1, a2 = steering_vector(n, t1), steering_vector(n, t2)
            x = np.pi * (np.sin(np.deg2rad(t2)) - np.sin(np.deg2rad(t1)))
            expected = abs(np.sin(n * x / 2) / (n * np.sin(x / 2)))
            npt.assert_allclose(abs(np.vdot(a1, a2)) / n, expected, atol=1e-12)

    def test_grid_spacing(self):
        deg = grid_angles_deg(1801)
        assert deg[0] == -90.0 and deg[-1] == 90.0
        npt.assert_allclose(np.diff(deg), 0.1)


class TestUlaGrid:
    def test_memoized_per_shape(self):
        grid = ula_grid(7, 61)
        assert ula_grid(7, 61) is grid
        assert ula_grid(7, 62) is not grid
        assert ula_grid(8, 61) is not grid
        assert ula_grid(8, 61).n_sensors == 8

    def test_shared_grid_is_read_only(self):
        grid = ula_grid(7, 61)
        vdm = grid._vandermonde
        arrays = [grid.atoms, grid._norms2, vdm.lags, vdm.order, vdm.starts, vdm.powers]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0
        with pytest.raises(AttributeError):
            grid.atoms = np.zeros((7, 61), complex)


class TestGenerateSnapshots:
    def test_seed_reproducible(self):
        atoms = steering_matrix(6, [-10.0, 20.0])
        a = generate_snapshots(atoms, [1.0, 2.0], 0.3, 0.5, 50, seed=9)
        b = generate_snapshots(atoms, [1.0, 2.0], 0.3, 0.5, 50, seed=9)
        npt.assert_array_equal(a, b)

    def test_law_of_large_numbers(self):
        n, L = 4, 100_000
        atoms = steering_matrix(n, [12.0])
        sigma2 = 1e-3
        Y = generate_snapshots(atoms, [1.0], 0.0, sigma2, L, seed=3)
        scm = Y @ Y.conj().T / L
        target = np.outer(atoms[:, 0], atoms[:, 0].conj()) + sigma2 * np.eye(n)
        rel = np.linalg.norm(scm - target) / np.linalg.norm(target)
        assert rel <= 0.01

    def test_population_second_moments(self):
        n, L = 5, 100_000
        atoms = steering_matrix(n, [-40.0, 10.0])
        powers, rho, sigma2 = [2.0, 1.0], 0.6, 0.8
        Y = generate_snapshots(atoms, powers, rho, sigma2, L, seed=4)
        scm = Y @ Y.conj().T / L
        s = np.sqrt(powers)
        cov_s = np.array([[powers[0], rho * s[0] * s[1]], [rho * s[0] * s[1], powers[1]]])
        target = atoms @ cov_s @ atoms.conj().T + sigma2 * np.eye(n)
        assert np.linalg.norm(scm - target) / np.linalg.norm(target) <= 0.02

    def test_uncorrelated_sources_cross_correlation(self):
        L = 100_000
        atoms = np.eye(2, dtype=complex)  # read the sources off directly
        Y = generate_snapshots(atoms, [1.0, 1.0], 0.0, 0.0, L, seed=5)
        cross = np.vdot(Y[0], Y[1]) / L
        assert abs(cross) <= 3.0 / np.sqrt(L)  # 3 sigma for unit-power sources

    def test_non_psd_source_covariance_rejected(self):
        atoms = steering_matrix(6, [-10.0, 0.0, 10.0])
        with pytest.raises(ValueError):
            generate_snapshots(atoms, [1.0, 1.0, 1.0], -0.9, 1.0, 10, seed=0)


class TestMetrics:
    def test_per_trivial_cases(self):
        assert per_metric([{1, 2}], [{2, 1}]) == 1.0
        assert per_metric([{1, 2}], [{3, 4}]) == 0.0
        est = [{1}, {2}, {3}, {4}]
        true = [{1}, {2}, {9}, {9}]
        assert per_metric(est, true) == 0.5

    def test_doa_rmse_exact_and_single_trial(self):
        assert doa_rmse([[-10.0, 5.0]], [[-10.0, 5.0]]) == 0.0
        # one trial, per-source offsets (+0.1, -0.1): Euclidean norm over sources
        npt.assert_allclose(doa_rmse([[-9.9, 4.9]], [[-10.0, 5.0]]), 0.1 * np.sqrt(2))

    def test_doa_rmse_sorting_canonicalizes(self):
        a = doa_rmse([[5.2, -10.1]], [[-10.0, 5.0]])
        b = doa_rmse([[-10.1, 5.2]], [[-10.0, 5.0]])
        npt.assert_allclose(a, b)

    def test_doa_rmse_aggregates_root_mean_square(self):
        # two trials with per-trial errors 0.1 and 0.3
        vals = doa_rmse([[0.1], [0.3]], [[0.0], [0.0]])
        npt.assert_allclose(vals, np.sqrt((0.01 + 0.09) / 2))

    def test_power_nmse_trivial_cases(self):
        assert power_nmse([[2.0, 3.0]], [[2.0, 3.0]]) == 0.0
        assert power_nmse([[0.0, 0.0]], [[2.0, 3.0]]) == 1.0
        assert power_nmse([[4.0, 6.0]], [[2.0, 3.0]]) == 1.0

    @pytest.mark.parametrize("metric", [doa_rmse, power_nmse])
    def test_trials_pair_strictly(self, metric):
        # one truth per trial: an unpaired trial is an error, never dropped
        with pytest.raises(ValueError, match="shorter"):
            metric([[1.0], [2.0]], [[1.0]])
        with pytest.raises(ValueError, match="longer"):
            metric([[1.0]], [[1.0], [2.0]])

    @given(st.permutations(range(6)))
    @settings(max_examples=50)
    def test_metrics_permutation_invariant_over_trials(self, perm):
        rng = np.random.default_rng(11)
        est = [rng.uniform(-80, 80, size=2) for _ in range(6)]
        true = [np.sort(rng.uniform(-80, 80, size=2)) for _ in range(6)]
        base = doa_rmse(est, true)
        shuffled = doa_rmse([est[i] for i in perm], [true[i] for i in perm])
        npt.assert_allclose(base, shuffled)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: grid_angles_deg(1), "grid needs at least two points"),
        (lambda: generate_snapshots(np.ones(3), [1.0], 0.0, 1.0, 5, 0),
         "source_atoms must be an n_sensors x n_sources matrix"),
        (lambda: generate_snapshots(np.ones((3, 1)), [1.0], 0.0, 1.0, 0, 0),
         "need at least one snapshot"),
        (lambda: generate_snapshots(np.ones((3, 1)), [1.0], 0.0, -1.0, 5, 0),
         "noise variance must be nonnegative"),
        (lambda: ScenarioConfig("gaussian-ssr", 6, 20, 0, 2, (0.0,)),
         "n_snapshots must be at least 1"),
        (lambda: ScenarioConfig("gaussian-ssr", 6, 20, 5, 2, ()),
         "snr_db must be a non-empty list of finite values"),
        (lambda: ScenarioConfig("gaussian-ssr", 6, 20, 5, 2, (0.0, np.inf)),
         "snr_db must be a non-empty list of finite values"),
        (lambda: ScenarioConfig("gaussian-ssr", 6, 20, 5, 2, (3.0, 0.0, 3.0, -0.0)),
         "snr_db values repeated: 0.0, 3.0"),
        (lambda: ScenarioConfig("ula-doa", 6, 20, 5, 2, (0.0,), true_doas_deg=(1.0,)),
         "true_doas_deg must have k=2 entries"),
        (lambda: MetricsRecord("iaa", 0.0, 1, rmse_theta_deg=np.nan),
         "rmse_theta_deg must be finite when present"),
        (lambda: MetricsRecord("iaa", 0.0, 1, per=1.5), r"per must lie in \[0, 1\]"),
        (lambda: per_metric([], []), "need matching, non-empty per-trial support lists"),
        (lambda: doa_rmse([], []), "no trials supplied"),
        (lambda: power_nmse([], []), "no trials supplied"),
        (lambda: power_nmse([[1.0, 2.0]], [[0.0, 0.0]]), "true powers must not all be zero"),
    ],
)
def test_outside_input_is_rejected_by_name(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestScenarioConfig:
    def test_constraint_violations_named(self):
        with pytest.raises(ValueError, match="k="):
            ScenarioConfig("gaussian-ssr", 8, 32, 8, 8, (1.0,))
        with pytest.raises(ValueError, match="n_sensors"):
            ScenarioConfig("gaussian-ssr", 33, 32, 8, 2, (1.0,))
        with pytest.raises(ValueError, match="rho"):
            ScenarioConfig("gaussian-ssr", 8, 32, 8, 2, (1.0,), rho=1.0)
        with pytest.raises(ValueError, match="true_doas_deg"):
            ScenarioConfig("ula-doa", 8, 181, 8, 1, (0.0,))
        with pytest.raises(ValueError, match="true_doas_deg"):
            ScenarioConfig("gaussian-ssr", 8, 32, 8, 2, (1.0,), true_doas_deg=(5, 7))
        with pytest.raises(ValueError, match="trials"):
            ScenarioConfig("gaussian-ssr", 8, 32, 8, 2, (1.0,), trials=0)
        with pytest.raises(ValueError, match="seed"):
            ScenarioConfig("gaussian-ssr", 8, 32, 8, 2, (1.0,), seed=-5)
        # 1 + (k-1) rho <= 0: the equicorrelated source covariance is not PD
        with pytest.raises(ValueError, match="rho"):
            ScenarioConfig("gaussian-ssr", 8, 32, 8, 3, (1.0,), rho=-0.9)
        with pytest.raises(ValueError, match="rho"):
            ScenarioConfig("gaussian-ssr", 8, 32, 8, 3, (1.0,), rho=-0.5)
        ScenarioConfig("gaussian-ssr", 8, 32, 8, 3, (1.0,), rho=-0.45)
        # |rho| < 1, yet the equicorrelated covariance of these powers rounds
        # to singular, and the draw would fail on its first trial
        with pytest.raises(ValueError, match="rho=0.9999999999999999"):
            ScenarioConfig("gaussian-ssr", 10, 30, 12, 3, (4.0, 8.0), rho=0.9999999999999999)
        ScenarioConfig("gaussian-ssr", 10, 30, 12, 3, (4.0, 8.0), rho=0.999999)

    def test_offsets_default_and_length_check(self):
        cfg = ScenarioConfig("gaussian-ssr", 8, 32, 8, 2, (1.0,))
        assert cfg.source_offsets_db == (0.0, 0.0)
        with pytest.raises(ValueError, match="source_offsets_db"):
            ScenarioConfig("gaussian-ssr", 8, 32, 8, 2, (1.0,), source_offsets_db=(0.0,))

    @pytest.mark.parametrize("kind", ["gaussian-ssr", "ula-doa"])
    @pytest.mark.parametrize(
        "field,value",
        [
            ("noise_var", np.inf),
            ("noise_var", np.nan),
            ("source_offsets_db", (0.0, np.inf)),
            ("source_offsets_db", (0.0, -np.inf)),
            ("source_offsets_db", (np.nan, 0.0)),
            # finite, but the powers overflow to inf or underflow to 0
            ("snr_db", (0.0, 4000.0)),
            ("snr_db", (-4000.0,)),
        ],
    )
    def test_non_finite_levels_named_before_the_cholesky(self, monkeypatch, kind, field, value):
        # each once passed validation, or was blamed on rho, and then failed
        # every cell of the run with RuntimeWarnings
        def factor(*args):
            raise AssertionError("the source covariance was factored before the check")

        monkeypatch.setattr(scenario, "_source_chol", factor)
        doas = (-20.0, 30.0) if kind == "ula-doa" else None
        levels = {"snr_db": (0.0,), field: value}
        with pytest.raises(ValueError, match=rf"^{field}=.* must be .*finite"):
            ScenarioConfig(kind, 8, 181, 16, 2, true_doas_deg=doas, **levels)

    def test_first_source_anchor(self):
        cfg = ScenarioConfig(
            "gaussian-ssr", 32, 256, 32, 4, (3.0,), source_offsets_db=(0.0, -1.0, -2.0, -4.0)
        )
        p = cfg.source_powers(3.0)
        npt.assert_allclose(p[0], 10 ** 0.3)
        npt.assert_allclose(p[1:], p[0] * 10 ** (np.array([-1.0, -2.0, -4.0]) / 10))

    def test_mean_snr_anchor(self):
        cfg = ScenarioConfig(
            "ula-doa",
            20,
            181,
            25,
            2,
            (-5.5,),
            source_offsets_db=(0.0, 3.0),
            true_doas_deg=(-20.0, 3.0),
        )
        p = cfg.source_powers(-5.5)
        mean_db = np.mean(10 * np.log10(p / cfg.noise_var))
        npt.assert_allclose(mean_db, -5.5)
        npt.assert_allclose(10 * np.log10(p[1] / p[0]), 3.0)

    def test_the_support_rule_is_read_off_each_kinds_dictionary(self):
        # "ula-doa" solves on the steering grid, a Vandermonde dictionary, so
        # its supports are K largest peaks; the Gaussian dictionaries of
        # "gaussian-ssr" are not, so theirs are K largest entries
        ssr = ScenarioConfig("gaussian-ssr", 8, 32, 8, 2, (10.0,), trials=3)
        doa = ScenarioConfig("ula-doa", 8, 181, 8, 2, (10.0,), true_doas_deg=(-10.0, 20.0))
        for cfg, peak in ((ssr, False), (doa, True)):
            assert not hasattr(cfg, "peak")
            for t in range(cfg.trials if cfg is ssr else 1):
                d, [(Y, _)] = scenario._draw_trial(cfg, scenario._chunk_constants(cfg), t)
                assert d.is_vandermonde is peak
                res = solve_trial(MethodSpec("cl-bcd"), Y, d, cfg.k, noise_var=cfg.noise_var)
                assert res.support == hard_threshold(res.gamma, cfg.k, peak=peak)
        with pytest.raises(TypeError):  # not a field
            ScenarioConfig("gaussian-ssr", 8, 32, 8, 2, (1.0,), peak=True)


class TestRunMonteCarlo:
    def test_single_trial_record(self):
        cfg = ScenarioConfig("gaussian-ssr", 10, 30, 12, 2, (10.0,), seed=3, trials=1)
        recs = run_monte_carlo(cfg, ["somp"])
        assert len(recs) == 1
        rec = recs[0]
        assert rec.trials == 1 and rec.per in (0.0, 1.0) and rec.failures == 0

    def test_schedule_independence(self):
        ssr = ScenarioConfig(
            "gaussian-ssr", 10, 30, 12, 2, (4.0, 8.0), seed=21, trials=10
        )
        doa = ScenarioConfig(
            "ula-doa", 8, 181, 16, 2, (0.0, 10.0), true_doas_deg=(-20.0, 12.3), seed=21, trials=6
        )
        # chunks of 4 trials at 3 SNRs: 5 trials cross a chunk boundary
        doa_chunks = ScenarioConfig(
            "ula-doa", 8, 181, 16, 2, (-5.0, 0.0, 10.0), true_doas_deg=(-20.0, 12.3), seed=22,
            trials=5,
        )
        doa_tags = ["cl-omp", "cl-bcd", "iaa", "music"]
        for cfg, tags, threads in [
            (ssr, ["cl-omp", "cl-bcd"], (4,)),
            (doa, doa_tags, (4,)),
            (doa_chunks, doa_tags, (2, 3)),
        ]:
            a = run_monte_carlo(cfg, tags, threads=1)
            assert len(a) == len(tags) * len(cfg.snr_db)
            for n in threads:
                b = run_monte_carlo(cfg, tags, threads=n)
                assert [replace(x, mean_runtime_s=None) for x in a] == [
                    replace(y, mean_runtime_s=None) for y in b
                ]

    def test_doa_mode_metrics_present(self):
        cfg = ScenarioConfig(
            "ula-doa",
            12,
            361,
            20,
            1,
            (6.0,),
            true_doas_deg=(-24.8,),
            seed=5,
            trials=4,
        )
        recs = run_monte_carlo(cfg, ["cl-omp", "music", "mle1"])
        by = {r.method: r for r in recs}
        assert by["cl-omp"].rmse_theta_deg is not None
        assert by["cl-omp"].nmse_gamma is not None
        assert by["music"].nmse_gamma is None  # no power estimates
        assert by["mle1"].per is None  # no grid support
        assert by["mle1"].rmse_theta_deg is not None

    def test_failures_counted_not_raised(self, monkeypatch):
        # MUSIC's eigendecomposition fails in every trial while cl-omp succeeds
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(methods.baselines, "music_doas", no_convergence)
        cfg = ScenarioConfig(
            "ula-doa",
            12,
            361,
            20,
            2,
            (6.0,),
            true_doas_deg=(-24.8, 10.2),
            seed=5,
            trials=3,
        )
        recs = run_monte_carlo(cfg, ["cl-omp", "music"])
        by = {r.method: r for r in recs}
        assert by["cl-omp"].failures == 0 and by["cl-omp"].trials == 3
        assert by["music"].failures == 3 and by["music"].trials == 0

    @pytest.mark.parametrize("kind,k", [("ula-doa", 2), ("gaussian-ssr", 1)])
    def test_mle1_outside_its_scenario_raises_before_any_trial(self, monkeypatch, kind, k):
        calls = []
        monkeypatch.setattr(methods, "solve_trial", lambda *args: calls.append(args))
        doas = (-24.8, 10.2)[:k] if kind == "ula-doa" else None
        cfg = ScenarioConfig(kind, 12, 361, 20, k, (6.0,), true_doas_deg=doas, seed=5, trials=3)
        with pytest.raises(ValueError, match="mle1 needs kind = ula-doa and k = 1"):
            run_monte_carlo(cfg, ["cl-omp", "mle1"])
        assert calls == []

    @pytest.mark.parametrize("override", [{"max_iter": 0}])
    def test_value_every_trial_rejects_raises_before_any_trial(self, override):
        # the run's cap is checked with the scenario, before a run can start
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            ScenarioConfig("gaussian-ssr", 10, 30, 12, 2, (10.0,), seed=3, trials=2, **override)

    @pytest.mark.parametrize("cap", [1, 3])
    @pytest.mark.parametrize("kind", ["gaussian-ssr", "ula-doa"])
    def test_the_run_level_cap_reaches_every_solver(self, kind, cap):
        # uncapped, every iterative method takes at least 6 iterations on these draws
        doas = (-20.0, 30.0) if kind == "ula-doa" else None
        cfg = ScenarioConfig(kind, 8, 91, 16, 2, (0.0, 10.0), true_doas_deg=doas, seed=4,
                             trials=2, max_iter=cap)
        iterative = ("cl-bcd", "iaa", "samv2", "sbl", "sbl1", "msbl", "cwo")
        fixed = {"cl-omp": cfg.k, "somp": cfg.k, "music": 1}  # greedy steps, one eigh
        records = run_monte_carlo(cfg, [*iterative, *fixed])
        assert all(r.failures == 0 for r in records)
        for r in records:
            assert r.mean_iters == (cap if r.method in iterative else fixed[r.method]), r

    def test_repeated_method_tag_raises_before_any_trial(self, monkeypatch):
        with pytest.raises(ValueError, match="repeated: iaa"):
            methods.resolve_methods(["iaa", MethodSpec("iaa")])
        calls = []
        monkeypatch.setattr(methods, "solve_trial", lambda *args: calls.append(args))
        cfg = ScenarioConfig("gaussian-ssr", 10, 30, 12, 2, (10.0,), seed=3, trials=2)
        with pytest.raises(ValueError, match="repeated: iaa"):
            run_monte_carlo(cfg, ["iaa", "cl-omp", "iaa"])
        assert calls == []

    def test_all_zero_snapshots_are_counted_failures(self, monkeypatch):
        # zero waveforms and zero noise give Y = 0 in every trial
        monkeypatch.setattr(scenario, "_complex_gaussian", lambda rng, shape: np.zeros(shape, complex))
        cfg = ScenarioConfig(
            "ula-doa", 6, 91, 10, 2, (10.0,), true_doas_deg=(-20.0, 30.0), seed=3, trials=3
        )
        (rec,) = run_monte_carlo(cfg, ["somp"])
        assert rec.failures == 3 and rec.trials == 0

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_raise_before_any_trial(self, monkeypatch, threads):
        calls = []
        monkeypatch.setattr(methods, "solve_trial", lambda *args: calls.append(args))
        cfg = ScenarioConfig("gaussian-ssr", 10, 30, 12, 2, (10.0,), seed=3, trials=2)
        with pytest.raises(ValueError, match="threads must be at least 1"):
            run_monte_carlo(cfg, ["cl-omp"], threads=threads)
        assert calls == []

    def test_data_failures_are_counted(self, monkeypatch):
        # every cl-omp sweep finds no finite candidate: InvalidDataError,
        # counted in every cell while music runs on
        def no_candidates(q, r, excluded):
            return clomp.SweepResult(np.zeros_like(q), np.full_like(q, np.inf))

        monkeypatch.setattr(clomp, "_sweep", no_candidates)
        cfg = ScenarioConfig("ula-doa", 12, 361, 20, 1, (6.0,), true_doas_deg=(-24.8,), seed=5,
                             trials=3)
        by = {r.method: r for r in run_monte_carlo(cfg, ["cl-omp", "music"])}
        assert (by["cl-omp"].trials, by["cl-omp"].failures) == (0, 3)
        assert (by["music"].trials, by["music"].failures) == (3, 0)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_shape_bug_in_a_solver_step_raises(self, monkeypatch, threads):
        # a power step that drops the last atom: numpy's broadcast ValueError
        # is a programming error, not a counted failure, so the run stops
        iaa_update = clbcd.iaa_update
        monkeypatch.setattr(clbcd, "iaa_update", lambda state, scm: iaa_update(state, scm)[..., :-1])
        cfg = ScenarioConfig("ula-doa", 12, 361, 20, 2, (6.0,), true_doas_deg=(-24.8, 10.2),
                             seed=5, trials=4)
        with pytest.raises(ValueError) as raised:
            run_monte_carlo(cfg, ["cl-omp", "cl-bcd"], threads=threads)
        assert not isinstance(raised.value, clbcd._COUNTED)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_programming_errors_propagate(self, monkeypatch, threads):
        def broken_solve(*args, **kwargs):
            raise TypeError("shape bug")

        monkeypatch.setattr(methods, "solve_trial", broken_solve)
        cfg = ScenarioConfig("gaussian-ssr", 10, 30, 12, 2, (10.0,), seed=3, trials=2)
        with pytest.raises(TypeError, match="shape bug"):
            run_monte_carlo(cfg, ["somp"], threads=threads)


def _replay(cfg, tag):
    """run_monte_carlo's record of one method on a single-SNR run, rebuilt
    from public functions only: the (seed, trial) generator draws the
    dictionary and support, then the snapshots; the metric functions
    score the solves."""
    n, m, k = cfg.n_sensors, cfg.n_atoms, cfg.k
    (snr,) = cfg.snr_db
    powers = cfg.source_powers(snr)
    order = None if cfg.true_doas_deg is None else np.argsort(cfg.true_doas_deg)
    est_sets, true_sets, est_theta, true_theta, est_powers, true_powers, iters = (
        [] for _ in range(7)
    )
    for t in range(cfg.trials):
        rng = np.random.default_rng((cfg.seed, t))
        if cfg.kind == "gaussian-ssr":
            d = gaussian_dictionary(n, m, rng)
            support = rng.choice(m, size=k, replace=False)
            Y = generate_snapshots(d.atoms[:, support], powers, cfg.rho, cfg.noise_var,
                                   cfg.n_snapshots, rng)
        else:
            d = ula_grid(n, m)
            Y = generate_snapshots(steering_matrix(n, cfg.true_doas_deg), powers, cfg.rho,
                                   cfg.noise_var, cfg.n_snapshots, rng)
            grid_deg = grid_angles_deg(m)
            support = [np.argmin(np.abs(grid_deg - th)) for th in cfg.true_doas_deg]
        res = solve_trial(MethodSpec(tag), Y, d, k, noise_var=cfg.noise_var)
        iters.append(res.iterations)
        if res.support is not None:
            est_sets.append(res.support.indices)
            true_sets.append(support)
        if cfg.kind == "gaussian-ssr":
            theta_hat = powers_hat = None
            if res.gamma is not None:
                idx = list(res.support.indices)
                powers_hat, true = np.zeros(m), np.zeros(m)
                powers_hat[idx] = res.gamma[idx]
                true[support] = powers
        elif res.theta_deg is not None:
            theta_hat, powers_hat, true = res.theta_deg, res.powers, powers[order]
        else:
            idx = sorted(res.support.indices)
            theta_hat, true = grid_deg[idx], powers[order]
            powers_hat = None if res.gamma is None else res.gamma[idx]
        if theta_hat is not None:
            est_theta.append(theta_hat)
            true_theta.append(cfg.true_doas_deg)
        if powers_hat is not None:
            est_powers.append(powers_hat)
            true_powers.append(true)
    return MetricsRecord(
        method=tag,
        snr_db=snr,
        trials=cfg.trials,
        per=per_metric(est_sets, true_sets) if est_sets else None,
        rmse_theta_deg=doa_rmse(est_theta, true_theta) if est_theta else None,
        nmse_gamma=power_nmse(est_powers, true_powers) if est_powers else None,
        mean_iters=float(np.mean(iters)),
    )


def _untimed(trial_cells):
    """A trial's cells without their runtimes."""
    return {key: replace(c, runtime_s=None) for key, c in trial_cells.items()}


class TestEngineReplay:
    """The synthesis functions and the metric trio are the engine's oracles."""

    @pytest.mark.parametrize(
        "cfg, tags",
        [
            (
                ScenarioConfig("gaussian-ssr", 10, 30, 12, 2, (6.0,), source_offsets_db=(0.0, -2.0),
                               rho=0.3, seed=4, trials=5),
                ["cl-omp", "cl-bcd", "somp"],
            ),
            (
                ScenarioConfig("ula-doa", 8, 181, 16, 1, (3.0,), true_doas_deg=(-24.8,),
                               seed=5, trials=4),
                ["cl-omp", "iaa", "music", "mle1"],
            ),
            (  # directions listed in descending order: powers are matched by angle
                ScenarioConfig("ula-doa", 8, 181, 16, 2, (8.0,), source_offsets_db=(0.0, 3.0),
                               true_doas_deg=(12.3, -20.0), rho=0.4, seed=6, trials=4),
                ["cl-bcd", "somp"],
            ),
        ],
        ids=["gaussian-ssr", "ula-doa", "ula-doa-two-sources"],
    )
    def test_single_snr_run_matches_a_replay_bit_for_bit(self, cfg, tags):
        records = run_monte_carlo(cfg, tags)
        assert [replace(r, mean_runtime_s=None) for r in records] == [
            _replay(cfg, tag) for tag in tags
        ]

    def test_chunks_give_each_trial_its_own_cells_in_trial_order(self, monkeypatch):
        # 5 trials at 3 SNRs run as chunks of 4 and 1
        cfg = ScenarioConfig("ula-doa", 8, 181, 16, 2, (-5.0, 0.0, 10.0),
                             true_doas_deg=(-20.0, 12.3), seed=22, trials=5)
        specs = methods.resolve_methods(["cl-omp", "cl-bcd", "iaa", "music"])
        merged = []
        aggregate = scenario._aggregate

        def keeping(config, specs, cells_by_trial):
            merged.append(cells_by_trial)
            return aggregate(config, specs, cells_by_trial)

        monkeypatch.setattr(scenario, "_aggregate", keeping)
        run_monte_carlo(cfg, specs)
        alone = [scenario._solve_chunk(cfg, specs, [t])[0] for t in range(cfg.trials)]
        assert [_untimed(c) for c in merged[0]] == [_untimed(c) for c in alone]

    def test_stages_and_cells_pickle(self):
        cfg = ScenarioConfig("ula-doa", 8, 181, 16, 2, (0.0, 10.0), true_doas_deg=(-20.0, 12.3),
                             seed=2, trials=2)
        specs = methods.resolve_methods(["cl-omp", "cl-bcd", "music"])
        solve = functools.partial(scenario._solve_chunk, cfg, specs)
        cells = solve(range(cfg.trials))
        assert len(cells) == cfg.trials and len(cells[0]) == len(specs) * len(cfg.snr_db)
        assert pickle.loads(pickle.dumps(cells)) == cells

        clone = pickle.loads(pickle.dumps(solve))
        assert [_untimed(c) for c in clone(range(cfg.trials))] == [_untimed(c) for c in cells]
        records = [replace(r, mean_runtime_s=None) for r in scenario._aggregate(cfg, specs, cells)]
        assert records == [replace(r, mean_runtime_s=None) for r in run_monte_carlo(cfg, specs)]


@st.composite
def _small_runs(draw):
    """(config, tags): a small ScenarioConfig of either kind and every tag
    that can solve it; mle1 only on ula-doa with one source."""
    kind = draw(st.sampled_from(scenario.SCENARIO_KINDS))
    k = draw(st.integers(1, 2))
    n = draw(st.integers(k + 1, 8))
    levels = st.floats(-10.0, 20.0, allow_nan=False)
    doas = None
    if kind == "ula-doa":
        doas = tuple(draw(st.lists(st.floats(-85.0, 85.0), min_size=k, max_size=k)))
    cfg = ScenarioConfig(
        kind,
        n,
        draw(st.integers(n, 91)),
        draw(st.integers(1, 2 * n)),
        k,
        tuple(draw(st.lists(levels, min_size=1, max_size=3, unique=True))),
        source_offsets_db=tuple(draw(st.lists(st.floats(-6.0, 6.0), min_size=k, max_size=k))),
        rho=draw(st.floats(-0.9, 0.9)),
        true_doas_deg=doas,
        seed=draw(st.integers(0, 2**16)),
        trials=draw(st.integers(1, 5)),
        max_iter=draw(st.integers(1, 40)),
    )
    tags = [t for t in methods.METHOD_TAGS if t != "mle1" or (kind == "ula-doa" and k == 1)]
    return cfg, tags


def _records(cfg, tags, stack_rows, threads):
    """The run's records, runtimes aside, with the engine stacking at most
    ``stack_rows`` rows."""
    with mock.patch.object(scenario, "_STACK_ROWS", stack_rows):
        records = run_monte_carlo(cfg, tags, threads)
    return [replace(r, mean_runtime_s=None) for r in records]


# a run whose chunks stack trials whose cl-bcd and iaa rows converge at
# different iterations, so a stack that kept a converged row running shows
_STACKED_RUN = (
    ScenarioConfig("ula-doa", 6, 61, 12, 1, (0.0, 10.0), true_doas_deg=(12.0,), seed=3,
                   trials=3, max_iter=40),
    list(methods.METHOD_TAGS),
)


@settings(max_examples=6, deadline=None)
@given(run=_small_runs())
@example(run=_STACKED_RUN)
def test_records_follow_neither_the_chunk_size_nor_the_thread_count(run):
    cfg, tags = run
    records = _records(cfg, tags, 12, 1)
    assert _records(cfg, tags, 1, 1) == records
    assert _records(cfg, tags, 12, 2) == records
    assert len(records) == len(tags) * len(cfg.snr_db)
    for r in records:
        assert r.trials + r.failures == cfg.trials
        assert r.per is None or 0.0 <= r.per <= 1.0
        for value in (r.per, r.rmse_theta_deg, r.nmse_gamma, r.mean_iters):
            assert value is None or np.isfinite(value)
