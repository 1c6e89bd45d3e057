from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from covlearn import (
    Dictionary,
    NumericError,
    SolverConfig,
    build_covariance,
    gaussian_dictionary,
    hard_threshold,
    iaa_update,
    matched_filter_powers,
    noise_mle,
    relative_change,
    run_clbcd,
    run_monte_carlo,
    run_sbl,
    sample_covariance,
    steering_matrix,
    ula_grid,
)
from covlearn import clbcd
from covlearn.cli import parse_spec
from util import population_snapshots, random_unit_dictionary, refit_every_iteration


SCALAR_DICT = Dictionary(np.array([[1.0 + 0j]]))
SCALAR_SCM = np.array([[4.0 + 0j]])


class TestFpGammaUpdate:
    """cl-bcd's per-atom power step, iaa_update, on the scalar model."""

    def test_power_rule_scalar(self):
        st = build_covariance(SCALAR_DICT, [2.0], 1.0)
        # r/q^2 on one unit atom is Shat itself, whatever the current power
        npt.assert_allclose(iaa_update(st, SCALAR_SCM), [4.0])

    def test_scalar_fixed_point(self):
        st = build_covariance(SCALAR_DICT, [4.0], 1.0)
        npt.assert_allclose(iaa_update(st, SCALAR_SCM), [4.0])


@pytest.mark.parametrize("tol", [0.0, -1e-3, np.nan])
def test_solver_config_rejects_a_tolerance_that_is_not_positive(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        SolverConfig(tol=tol)


@pytest.mark.parametrize("sigma2", [0.0, -1.0, np.nan, np.inf])
def test_solver_config_rejects_a_known_sigma2_that_is_not_positive_and_finite(sigma2):
    with pytest.raises(ValueError, match="known_sigma2=.* must be positive and finite"):
        SolverConfig(known_sigma2=sigma2)


class TestSupportRule:
    """clbcd._support takes peaks only on a steering grid: a Vandermonde
    dictionary whose phases run strictly monotone, so index neighbours are
    angular neighbours."""

    @staticmethod
    def _two_sources():
        # sources at -20 and 31 deg, the second one stronger
        return sample_covariance(steering_matrix(8, [-20.0, 31.0]) * [1.0, 2.0])

    @staticmethod
    def _rules(powers, k, dictionary):
        element, peak = hard_threshold(powers, k), hard_threshold(powers, k, peak=True)
        assert element != peak  # the case tells the two rules apart
        return clbcd._support(powers, k, dictionary), element, peak

    def test_repeated_atoms_take_the_element_rule(self):
        a = steering_matrix(6, [10.0])
        d = Dictionary(np.hstack([a, a, steering_matrix(6, np.linspace(-80.0, 80.0, 30))]))
        assert d.is_vandermonde and not d.is_steering_grid
        # atoms 0 and 1 coincide and see the source together: one peak, two entries
        Y = 3.0 * a + 0.1 * np.random.default_rng(5).standard_normal((6, 1))
        powers = matched_filter_powers(d, sample_covariance(Y))
        support, element, _ = self._rules(powers, 2, d)
        assert support == element
        assert support.indices == (0, 1)

    def test_a_shuffled_grid_takes_the_element_rule(self):
        grid = ula_grid(8, 181)
        # this shuffle puts the atoms at 31 and 32 deg side by side, so they
        # form one peak in the index order though they are two entries
        perm = np.random.default_rng(2).permutation(181)
        d = Dictionary(grid.atoms[:, perm])
        assert d.is_vandermonde and not d.is_steering_grid
        powers = matched_filter_powers(d, self._two_sources())
        support, element, _ = self._rules(powers, 2, d)
        assert support == element
        assert sorted(perm[list(support)]) == [121, 122]

    def test_a_reversed_grid_keeps_the_peak_rule(self):
        d = Dictionary(ula_grid(8, 181).atoms[:, ::-1])
        assert d.is_steering_grid
        powers = matched_filter_powers(d, self._two_sources())
        support, _, peak = self._rules(powers, 2, d)
        assert support == peak
        assert sorted(90 - i for i in support) == [-20, 31]  # the reversed grid's angles


class TestRelativeChange:
    def test_zero_iterate_counts_as_converged(self):
        assert relative_change(np.zeros(4), np.ones(4)) == 0.0

    def test_sup_norm_ratio(self):
        npt.assert_allclose(relative_change(np.array([2.0, 4.0]), np.array([2.0, 3.0])), 0.25)


class TestPowerIterationLoop:
    """The stacked loop of clbcd._power_iteration, driven by a patched iaa_update
    (the "iaa" tag) on the 2 x 2 identity dictionary, whose matched filter of
    the snapshots sqrt(2c) I is (c, c)."""

    D = Dictionary(np.eye(2, dtype=complex))

    @staticmethod
    def halving(state, scm):
        # the powers halve their distance to (1, 1): from (2, 2) the relative
        # steps are 1/3, 1/5, 1/9, 1/17
        return (state.gamma + 1.0) / 2.0

    def _solve(self, monkeypatch, starts, step, max_iter):
        monkeypatch.setattr(clbcd, "iaa_update", step)
        problems = [clbcd.Problem(np.sqrt(2.0 * c) * np.eye(2), self.D) for c in starts]
        return clbcd._power_iteration(problems, "iaa", 1, SolverConfig(max_iter=max_iter, tol=0.1))

    def test_stops_at_the_first_small_step(self, monkeypatch):
        (res,) = self._solve(monkeypatch, [2.0], self.halving, 50)
        assert (res.iterations, res.converged) == (4, True)
        npt.assert_array_equal(res.gamma, [1.0625, 1.0625])
        (res,) = self._solve(monkeypatch, [2.0], self.halving, 3)
        assert (res.iterations, res.converged) == (3, False)
        npt.assert_array_equal(res.gamma, [1.125, 1.125])

    def test_each_row_stops_on_its_own(self, monkeypatch):
        # from 1/2 the relative steps are 1/3, 1/7, 1/15 and from 9/2 they are
        # 7/11, 7/15, 7/23, 7/39, 7/71: three, four and five iterations
        seen = []

        def step(state, scm):
            seen.append(scm[:, 0, 0].real.tolist())
            return self.halving(state, scm)

        results = self._solve(monkeypatch, [2.0, 0.5, 4.5], step, 50)
        assert [res.iterations for res in results] == [4, 3, 5]
        assert all(res.converged for res in results)
        assert seen == [[2.0, 0.5, 4.5]] * 3 + [[2.0, 4.5], [4.5]]
        npt.assert_array_equal(results[1].gamma, [0.9375, 0.9375])
        results = self._solve(monkeypatch, [2.0, 0.5, 4.5], self.halving, 3)
        assert [(res.iterations, res.converged) for res in results] == [
            (3, False), (3, True), (3, False)
        ]

    def test_negative_power_raises(self, monkeypatch):
        with pytest.raises(NumericError, match="went negative"):
            self._solve(monkeypatch, [2.0], lambda state, scm: np.array([[1.0, -1.0]]), 5)


class TestRunClBcd:
    def test_high_snr_identity_dictionary(self):
        # single strong source on an orthonormal dictionary: near-certain recovery
        d = Dictionary(np.eye(4, dtype=complex))
        hits = 0
        trials = 100
        for t in range(trials):
            rng = np.random.default_rng((1234, t))
            true = int(rng.integers(4))
            x = np.sqrt(100.0) * (rng.standard_normal(1000) + 1j * rng.standard_normal(1000)) / np.sqrt(2)
            E = (rng.standard_normal((4, 1000)) + 1j * rng.standard_normal((4, 1000))) / np.sqrt(2)
            Y = np.zeros((4, 1000), dtype=complex)
            Y[true] = x
            Y += E
            res = run_clbcd(Y, d, 1)
            hits += res.support.indices == (true,)
        assert hits / trials >= 0.99

    def test_population_covariance_recovery(self):
        rng = np.random.default_rng(24)
        A = random_unit_dictionary(rng, 12, 36)
        gamma = np.zeros(36)
        true = (4, 17, 30)
        gamma[list(true)] = [5.0, 4.0, 3.0]
        pop = build_covariance(A, gamma, 1.0).sigma
        res = run_clbcd(population_snapshots(pop), A, 3)
        assert res.support.same_atoms(true)
        assert res.sigma2 > 0
        assert res.gamma.min() >= 0

    def test_power_step_equals_iaa_update(self):
        # each iteration's powers are IAA's r/q^2 against the model of the
        # previous iterate, whose noise variance is that iterate's support
        # refit; iteration 1, the step from the noise-only start, is the
        # matched filter (see test_first_step_is_the_matched_filter)
        rng = np.random.default_rng(22)
        A = random_unit_dictionary(rng, 6, 15)
        Y = rng.standard_normal((6, 12)) + 1j * rng.standard_normal((6, 12))
        scm = sample_covariance(Y)
        expected = matched_filter_powers(A, scm)
        for it in (1, 2, 3):
            res = run_clbcd(Y, A, 2, SolverConfig(max_iter=it, tol=1e-14))
            npt.assert_array_equal(res.gamma, expected)
            assert res.sigma2 == noise_mle(scm, A.take(res.support.indices), 6)
            expected = iaa_update(build_covariance(A, res.gamma, res.sigma2), scm)

    def test_deterministic(self):
        rng = np.random.default_rng(25)
        A = random_unit_dictionary(rng, 8, 24)
        Y = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
        r1 = run_clbcd(Y, A, 2)
        r2 = run_clbcd(Y, A, 2)
        assert r1.support.indices == r2.support.indices
        npt.assert_array_equal(r1.gamma, r2.gamma)
        assert r1.sigma2 == r2.sigma2 and r1.iterations == r2.iterations

    def test_nonconvergence_reported_not_raised(self):
        rng = np.random.default_rng(26)
        A = random_unit_dictionary(rng, 8, 24)
        Y = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
        res = run_clbcd(Y, A, 2, SolverConfig(max_iter=2, tol=1e-14))
        assert not res.converged
        assert res.iterations == 2

    def test_invalid_sparsity(self):
        A = Dictionary(np.eye(3, dtype=complex))
        Y = np.eye(3, dtype=complex)
        with pytest.raises(ValueError):
            run_clbcd(Y, A, 3)  # k must stay below n_sensors
        with pytest.raises(ValueError):
            run_clbcd(Y, A, 0)

    def test_zero_energy_rejected(self):
        A = Dictionary(np.eye(3, dtype=complex))
        with pytest.raises(ValueError):
            run_clbcd(np.zeros((3, 4), dtype=complex), A, 1)

    def test_all_iterates_nonnegative_with_positive_noise(self):
        rng = np.random.default_rng(29)
        A = random_unit_dictionary(rng, 8, 20)
        Y = 0.1 * (rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6)))
        res = run_clbcd(Y, A, 3)
        assert res.gamma.min() >= 0.0
        assert res.sigma2 > 0.0


def _iterated_clbcd(Y, d, k, config):
    """cl-bcd with iteration 1 run as an iaa_update step from the zero start,
    in a one-row loop of its own: (support, gamma, sigma2, iterations, converged).
    The dictionary is dense, so the support is the K largest entries."""
    scm = sample_covariance(Y)
    n = d.n_sensors
    gamma, sigma2 = np.zeros((1, d.n_atoms)), np.trace(scm).real / n
    for it in range(1, config.max_iter + 1):
        new = iaa_update(build_covariance(d, gamma, [sigma2]), scm[None])
        support = hard_threshold(new[0], k)
        sigma2 = noise_mle(scm, d.take(support.indices), n)
        done = relative_change(new[0], gamma[0]) < config.tol
        gamma = new
        if done:
            return support, gamma[0], sigma2, it, True
    return support, gamma[0], sigma2, config.max_iter, False


class TestFirstIterate:
    """cl-bcd's iteration 1, IAA's step from the noise-only start, is the
    matched filter in closed form."""

    @pytest.mark.parametrize("kind", ["gaussian", "ula"])
    def test_first_step_is_the_matched_filter(self, kind):
        # Theta = I / s2 gives q_i = ||a_i||^2 / s2 and r_i = a_i^H Shat a_i / s2^2
        rng = np.random.default_rng(41)
        d = random_unit_dictionary(rng, 12, 40) if kind == "gaussian" else ula_grid(20, 1801)
        n = d.n_sensors
        Y = rng.standard_normal((n, 2 * n)) + 1j * rng.standard_normal((n, 2 * n))
        scm = sample_covariance(Y)
        expected = matched_filter_powers(d, scm)
        for s2 in (1e-3, np.trace(scm).real / n, 10.0):
            state = build_covariance(d, np.zeros(d.n_atoms), s2)
            npt.assert_allclose(iaa_update(state, scm), expected, rtol=1e-12, atol=0.0)

    def _generic(self):
        rng = np.random.default_rng(42)
        d = random_unit_dictionary(rng, 8, 24)
        return d, rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))

    def _orthogonal(self):
        # Shat vanishes on the span of the atoms: the matched filter is all zero
        rng = np.random.default_rng(43)
        atoms = np.zeros((4, 6), dtype=complex)
        atoms[:2] = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
        Y = np.zeros((4, 5), dtype=complex)
        Y[2:] = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        return Dictionary(atoms), Y

    @pytest.mark.parametrize(
        "case, config",
        [
            ("generic", SolverConfig(max_iter=1)),
            ("orthogonal", SolverConfig()),
            ("generic", SolverConfig(tol=2.0)),
        ],
        ids=["max-iter-1", "zero-matched-filter", "tol-above-1"],
    )
    def test_stop_rule_of_iteration_one(self, case, config):
        d, Y = self._generic() if case == "generic" else self._orthogonal()
        res = run_clbcd(Y, d, 1, config)
        support, gamma, sigma2, iterations, converged = _iterated_clbcd(Y, d, 1, config)
        assert (res.support, res.sigma2, res.iterations, res.converged) == (
            support, sigma2, iterations, converged
        )
        assert res.iterations == 1 and res.converged == (case != "generic" or config.tol > 1)
        npt.assert_allclose(res.gamma, gamma, rtol=1e-12, atol=0.0)
        assert res.gamma.flags.writeable


def _refit_problem(kind, seed):
    """(dictionary, snapshots, k, peak): K sources in white noise, and the
    support rule of the oracle, peaks on the steering grid."""
    rng = np.random.default_rng((31, seed))
    if kind == "gaussian":
        d, k, snapshots = gaussian_dictionary(32, 256, (32, seed)), 4, 32
        atoms = d.take(rng.choice(256, k, replace=False))
    else:
        d, k, snapshots = ula_grid(20, 1801), 2, 125
        atoms = steering_matrix(20, rng.uniform(-60.0, 60.0, k))
    amp = 10 ** (rng.uniform(-5.0, 10.0) / 20)
    X = amp * (rng.standard_normal((k, snapshots)) + 1j * rng.standard_normal((k, snapshots)))
    E = rng.standard_normal((d.n_sensors, snapshots)) + 1j * rng.standard_normal((d.n_sensors, snapshots))
    return d, atoms @ X + E, k, kind == "ula"


REFIT_PROBLEMS = [("gaussian", s) for s in range(4)] + [("ula", s) for s in range(2)]


class TestSupportNoiseRefit:
    """cl-bcd and sbl refit the noise variance once per distinct top-K support."""

    @pytest.mark.parametrize("method", ["cl-bcd", 1.0, 0.5])
    def test_one_refit_per_distinct_support(self, monkeypatch, method):
        calls = iterations = 0
        for kind, seed in REFIT_PROBLEMS:
            d, Y, k, peak = _refit_problem(kind, seed)
            scm = sample_covariance(Y)
            max_iter = 500 if method == "cl-bcd" else 100
            support, gamma, sigma2, its, supports = refit_every_iteration(
                scm, d, k, peak, method, max_iter=max_iter
            )
            counted = []

            def counting(*args, **kwargs):
                counted.append(None)
                return noise_mle(*args, **kwargs)

            monkeypatch.setattr(clbcd, "noise_mle", counting)
            if method == "cl-bcd":
                res = run_clbcd(Y, d, k)
            else:
                res = run_sbl(Y, d, k, SolverConfig(max_iter=max_iter), b=method)
            monkeypatch.undo()
            assert len(counted) == len(set(supports))
            assert res.support == support
            assert res.gamma.tobytes() == gamma.tobytes()
            assert res.sigma2 == sigma2
            assert res.iterations == its
            calls += len(counted)
            iterations += its
        assert calls < iterations


def _threshold_stack(kind):
    """(k, problems) of one stack over one dictionary. On the dense one
    the atoms span the first 5 of 6 sensors and the last row's snapshots
    live on the 6th, so its matched filter is all zero, as in
    TestFirstIterate's orthogonal case."""
    rng = np.random.default_rng((61, kind == "ula"))
    if kind == "ula":
        d, k, snapshots = ula_grid(20, 1801), 2, 125
        atoms = steering_matrix(20, [-20.02, 3.02])
    else:
        full = np.zeros((6, 12), dtype=complex)
        full[:5] = rng.standard_normal((5, 12)) + 1j * rng.standard_normal((5, 12))
        d, k, snapshots = Dictionary(full), 2, 30
        atoms = d.take([3, 8])
    n = d.n_sensors
    Ys = []
    for snr in (-5.5, 0.0, 10.0):
        X = 10 ** (snr / 20) * (rng.standard_normal((k, snapshots)) + 1j * rng.standard_normal((k, snapshots)))
        Ys.append(atoms @ X + rng.standard_normal((n, snapshots)) + 1j * rng.standard_normal((n, snapshots)))
    if kind == "dense":
        Y = np.zeros((n, snapshots), dtype=complex)
        Y[-1] = rng.standard_normal(snapshots) + 1j * rng.standard_normal(snapshots)
        Ys.append(Y)
    return k, [clbcd.Problem(Y, d) for Y in Ys]


def _count_thresholds(monkeypatch):
    """Patch clbcd.hard_threshold to record each call; returns the record."""
    calls, threshold = [], clbcd.hard_threshold

    def counting(gamma, *args, **kwargs):
        calls.append(None)
        return threshold(gamma, *args, **kwargs)

    monkeypatch.setattr(clbcd, "hard_threshold", counting)
    return calls


class TestOneThresholdPerIteration:
    """Under the refit noise rule each counted iteration thresholds its powers
    once, and cl-bcd's closed-form start is its first iteration; every other
    rule thresholds each row's final powers once."""

    @pytest.mark.parametrize("kind", ["ula", "dense"])
    @pytest.mark.parametrize("tag", ["cl-bcd", "sbl", "sbl1", "iaa", "samv2", "msbl"])
    def test_threshold_calls(self, monkeypatch, kind, tag):
        k, problems = _threshold_stack(kind)
        calls = _count_thresholds(monkeypatch)
        config = SolverConfig(max_iter=40, known_sigma2=1.0)
        results = clbcd._power_iteration(problems, tag, k, config)
        iterations = [res.iterations for res in results]
        if tag in ("cl-bcd", "sbl", "sbl1"):
            assert len(calls) == sum(iterations)
        else:
            assert len(calls) == len(problems)
        assert max(iterations) > 1
        if kind == "dense":
            # the zero-matched-filter row stops at iteration 1 with every rule
            assert (results[-1].iterations, results[-1].converged) == (1, True)
            assert not results[-1].gamma.any()

    def test_cl_bcd_on_the_doa_workload(self, monkeypatch):
        # perfbench's doa workload at 4 trials: one stack of 12 rows
        spec = parse_spec(Path(__file__).parent.parent / "perfbench" / "workloads" / "doa.cfg")
        config = replace(spec.scenario, trials=4)
        power_iteration, iterations = clbcd._power_iteration, []

        def recording(problems, *args):
            results = power_iteration(problems, *args)
            iterations.extend(res.iterations for res in results)
            return results

        calls = _count_thresholds(monkeypatch)
        monkeypatch.setattr(clbcd, "_power_iteration", recording)
        records = run_monte_carlo(config, ["cl-bcd"])
        assert sum(rec.failures for rec in records) == 0
        assert len(iterations) == 12
        assert len(calls) == sum(iterations) == 73
