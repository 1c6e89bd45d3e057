"""Exit benchmarks for the whole package.

One test per criterion; the terminal summary (conftest) prints a PASS/FAIL
line for each. The heavier benchmarks use the Monte-Carlo engine with
thread-level parallelism, which is result-invariant (criterion 9).
"""

import time

import numpy as np
from scipy.optimize import minimize

import covlearn as cl
from covlearn.cli import parse_spec, run_experiment
from util import direct_nll, golden_section_min, random_pdh, random_unit_dictionary

THREADS = 4


def _polished_scalar_argmin(f, lo, hi):
    """Golden-section search plus parabolic vertex refinement."""
    x = golden_section_min(f, lo, hi, tol=1e-12)
    best = x
    for h in (1e-3 * max(x, 1.0), 1e-4 * max(x, 1.0), 1e-5 * max(x, 1.0)):
        f0, fp, fm = f(best), f(best + h), f(max(best - h, 0.0))
        denom = fp - 2 * f0 + fm
        if denom > 0:
            cand = max(best + 0.5 * h * (fm - fp) / denom, 0.0)
            if f(cand) <= f0:
                best = cand
    return best


def test_criterion_1_conditional_power_matches_line_search():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    for _ in range(100):
        A = random_unit_dictionary(rng, 8, 16)
        gamma = np.zeros(16)
        gamma[rng.choice(np.arange(1, 16), size=4, replace=False)] = rng.uniform(0.2, 2.0, 4)
        state = cl.build_covariance(A, gamma, rng.uniform(0.4, 1.6))
        scm = random_pdh(rng, 8, ridge=0.3)
        if rng.uniform() < 0.5:
            a0 = A.atom(0)
            scm = scm + rng.uniform(1.0, 6.0) * np.outer(a0, a0.conj())
        a = A.atom(0)

        def conditional_nll(g):
            return direct_nll(state.sigma + g * np.outer(a, a.conj()), scm)

        oracle = _polished_scalar_argmin(conditional_nll, 0.0, 10.0 * np.trace(scm).real)
        got = cl.conditional_gamma_star(state, scm, 0)
        if got == 0.0 or oracle <= 1e-9:
            assert abs(got - oracle) <= 1e-10
        else:
            assert abs(got - oracle) / oracle <= 1e-6
    assert time.perf_counter() - start < 5.0


def test_criterion_2_support_refit_matches_numerical_minimizer():
    start = time.perf_counter()
    rng = np.random.default_rng(2002)
    for _ in range(50):
        A = random_unit_dictionary(rng, 6, 12)
        B = A.take(rng.choice(12, size=2, replace=False))
        g_true = rng.uniform(1.0, 4.0, 2)
        s_true = rng.uniform(0.5, 1.5)
        scm = B @ np.diag(g_true) @ B.conj().T + s_true * np.eye(6)

        gamma_cf, sigma2_cf = cl.provisional_mle(scm, B, 6)
        assert gamma_cf.min() >= 0.0  # instances keep the refit interior

        def nll(logx):
            g = np.exp(logx)
            return direct_nll(B @ np.diag(g[:2]) @ B.conj().T + g[2] * np.eye(6), scm)

        x = np.log(np.concatenate([g_true, [s_true]])) + rng.uniform(-0.4, 0.4, 3)
        for _ in range(3):
            res = minimize(
                nll, x, method="Nelder-Mead",
                options=dict(xatol=1e-13, fatol=1e-15, maxiter=5000, maxfev=5000),
            )
            x = res.x
        opt = np.exp(x)
        closed = np.concatenate([gamma_cf, [sigma2_cf]])
        assert np.linalg.norm(closed - opt) / np.linalg.norm(opt) <= 1e-4
    assert time.perf_counter() - start < 30.0


def test_criterion_3_identity_suite():
    rng = np.random.default_rng(3003)

    # rank-one update/downdate identities against explicit inverses
    for _ in range(100):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(n, 11))
        st = cl.build_covariance(
            random_unit_dictionary(rng, n, m), rng.uniform(0.0, 2.0, m), rng.uniform(0.5, 2.0)
        )
        i = int(rng.integers(m))
        a = st.dictionary.atom(i)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        loo_sigma = st.sigma - st.gamma[i] * np.outer(a, a.conj())
        loo_inv = np.linalg.inv(loo_sigma)
        # downdate direction, through the cached full inverse
        got = cl.loo_quadratic_form(st, i, b)
        want = np.vdot(a, loo_inv @ b)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
        # update direction: a^H Sigma^-1 b from the downdated inverse
        lhs = np.vdot(a, st.theta @ b)
        rhs = np.vdot(a, loo_inv @ b) / (1.0 + st.gamma[i] * np.vdot(a, loo_inv @ a).real)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
        # reciprocal form
        lhs = 1.0 / cl.loo_quadratic_form(st, i, a).real
        rhs = 1.0 / np.vdot(a, st.theta @ a).real - st.gamma[i]
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    # sweep errors equal the direct conditional-NLL difference
    for _ in range(30):
        n, m = 5, 9
        A = random_unit_dictionary(rng, n, m)
        st = cl.build_covariance(A, np.zeros(m), rng.uniform(0.5, 2.0))
        scm = random_pdh(rng, n)
        sweep = cl.sweep_errors(st, scm)
        base = direct_nll(st.sigma, scm)
        for i in range(m):
            a = A.atom(i)
            shifted = st.sigma + sweep.gamma_candidates[i] * np.outer(a, a.conj())
            assert abs(sweep.errors[i] - (direct_nll(shifted, scm) - base)) <= 1e-8

    # gradient against central finite differences
    h = 1e-6
    for _ in range(100):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(n, 11))
        st = cl.build_covariance(
            random_unit_dictionary(rng, n, m), 0.5 + rng.uniform(0.0, 2.0, m), rng.uniform(0.5, 2.0)
        )
        scm = random_pdh(rng, n)
        grad, grad_s = cl.nll_gradient(st, scm)
        i = int(rng.integers(m))
        gp, gm = np.array(st.gamma), np.array(st.gamma)
        gp[i] += h
        gm[i] -= h
        fd = (
            direct_nll(cl.build_covariance(st.dictionary, gp, st.sigma2).sigma, scm)
            - direct_nll(cl.build_covariance(st.dictionary, gm, st.sigma2).sigma, scm)
        ) / (2 * h)
        assert abs(grad[i] - fd) <= 1e-5 * max(1.0, abs(fd))
        fd_s = (
            direct_nll(cl.build_covariance(st.dictionary, st.gamma, st.sigma2 + h).sigma, scm)
            - direct_nll(cl.build_covariance(st.dictionary, st.gamma, st.sigma2 - h).sigma, scm)
        ) / (2 * h)
        assert abs(grad_s - fd_s) <= 1e-5 * max(1.0, abs(fd_s))


def test_criterion_4_stationarity_at_convergence():
    for seed in range(5):
        rng = np.random.default_rng((4004, seed))
        A = random_unit_dictionary(rng, 16, 32)
        true = rng.choice(32, size=3, replace=False)
        powers = 3e4 * np.array([1.0, 0.8, 0.6])  # ~45 dB sources
        W = (rng.standard_normal((3, 2000)) + 1j * rng.standard_normal((3, 2000))) / np.sqrt(2)
        E = (rng.standard_normal((16, 2000)) + 1j * rng.standard_normal((16, 2000))) / np.sqrt(2)
        Y = A.take(true) @ (np.sqrt(powers)[:, None] * W) + E

        res = cl.run_clbcd(Y, A, 3, cl.SolverConfig(max_iter=5000, tol=1e-12))
        assert res.converged
        state = cl.build_covariance(A, res.gamma, res.sigma2)
        grad, _ = cl.nll_gradient(state, cl.sample_covariance(Y))
        q = np.einsum("ij,ij->j", A.atoms.conj(), state.theta @ A.atoms).real
        for i in res.support.indices:
            if res.gamma[i] > 0:
                assert abs(grad[i]) <= 1e-3 * q[i]


def test_criterion_5_ssr_benchmark():
    start = time.perf_counter()
    cfg = cl.ScenarioConfig(
        kind="gaussian-ssr",
        n_sensors=32,
        n_atoms=256,
        n_snapshots=32,
        k=4,
        snr_db=tuple(float(s) for s in range(1, 8)),
        source_offsets_db=(0.0, -1.0, -2.0, -4.0),
        seed=99,
        trials=200,
    )
    records = cl.run_monte_carlo(cfg, ["cl-omp", "cl-bcd", "somp", "iaa"], threads=THREADS)
    per = {}
    for rec in records:
        assert rec.failures == 0
        per.setdefault(rec.method, []).append(rec.per)

    assert per["cl-omp"][-1] >= 0.95
    for ours, somp in zip(per["cl-omp"], per["somp"]):
        assert ours >= somp - 0.03
    for curve in per.values():
        for lo, hi in zip(curve, curve[1:]):
            assert hi >= lo - 0.05  # nondecreasing within sampling noise
    assert time.perf_counter() - start < 600.0


def test_criterion_6_single_source_power_nmse():
    start = time.perf_counter()
    cfg = cl.ScenarioConfig(
        kind="ula-doa",
        n_sensors=20,
        n_atoms=1801,
        n_snapshots=25,
        k=1,
        snr_db=(-2.0,),
        true_doas_deg=(-25.0,),
        seed=2024,
        trials=200,
    )
    records = cl.run_monte_carlo(cfg, ["cl-omp", "cl-bcd"], threads=THREADS)
    nmse = {rec.method: rec.nmse_gamma for rec in records}
    assert abs(nmse["cl-omp"] - 0.211) <= 0.03
    assert abs(nmse["cl-bcd"] - 0.225) <= 0.03
    assert time.perf_counter() - start < 600.0


def test_criterion_7_two_source_doa_rmse():
    start = time.perf_counter()
    cfg = cl.ScenarioConfig(
        kind="ula-doa",
        n_sensors=20,
        n_atoms=1801,
        n_snapshots=125,
        k=2,
        snr_db=(-5.5,),
        source_offsets_db=(0.0, 3.0),
        true_doas_deg=(-20.02, 3.02),
        seed=77,
        trials=200,
    )
    records = cl.run_monte_carlo(cfg, ["cl-omp"], threads=THREADS)
    rmse = records[0].rmse_theta_deg
    assert abs(rmse - 0.147) <= 0.20 * 0.147
    assert time.perf_counter() - start < 900.0


def test_criterion_8_correlation_robustness():
    base = dict(
        kind="ula-doa",
        n_sensors=20,
        n_atoms=1801,
        n_snapshots=25,
        k=2,
        snr_db=(-0.5, -3.5, -5.5, -7.5),
        source_offsets_db=(0.0, 3.0),
        true_doas_deg=(-20.02, 3.02),
        seed=314,
        trials=200,
    )
    nmse = {}
    for rho in (0.0, 0.95):
        cfg = cl.ScenarioConfig(rho=rho, **base)
        for rec in cl.run_monte_carlo(cfg, ["cl-omp", "cl-bcd"], threads=THREADS):
            nmse[(rec.method, rec.snr_db, rho)] = rec.nmse_gamma
    for method in ("cl-omp", "cl-bcd"):
        for snr in base["snr_db"]:
            uncorr = nmse[(method, snr, 0.0)]
            corr = nmse[(method, snr, 0.95)]
            assert abs(corr - uncorr) / uncorr <= 0.10


def test_criterion_9_structural_properties(tmp_path):
    rng = np.random.default_rng(9009)

    # every method runs clean on shared data with nonnegative powers and
    # positive noise (in-loop guards raise if an iterate ever violates this)
    A = random_unit_dictionary(rng, 16, 64)
    true = rng.choice(64, size=3, replace=False)
    W = (rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))) / np.sqrt(2)
    E = (rng.standard_normal((16, 64)) + 1j * rng.standard_normal((16, 64))) / np.sqrt(2)
    Y = A.take(true) @ (np.sqrt([12.0, 9.0, 7.0])[:, None] * W) + E
    for tag in ("cl-bcd", "cl-omp", "iaa", "samv2", "sbl", "sbl1", "msbl", "cwo", "somp"):
        out = cl.solve_trial(cl.MethodSpec(tag), Y, A, 3, noise_var=1.0)
        assert out.sigma2 > 0.0
        if out.gamma is not None:
            assert out.gamma.min() >= 0.0

    # greedy support grows one distinct atom per step
    res = cl.run_clomp(Y, A, 5)
    assert res.iterations == 5
    assert len(set(res.support.indices)) == 5

    # multiplicative updates preserve zeros
    gamma = np.array([0.0, 1.0, 0.0, 0.5] + [0.0] * 60)
    state = cl.build_covariance(A, gamma, 1.0)
    scm = cl.sample_covariance(Y)
    for b in (1.0, 0.5):
        stepped = cl.ratio_update(state, scm, b)
        assert np.all(stepped[gamma == 0.0] == 0.0)

    # sweep errors are never positive
    for _ in range(20):
        st = cl.build_covariance(
            random_unit_dictionary(rng, 6, 12), rng.uniform(0, 1, 12) * (rng.uniform(size=12) < 0.3), 1.0
        )
        sweep = cl.sweep_errors(st, random_pdh(rng, 6), excluded=(0, 5))
        finite = np.isfinite(sweep.errors)
        assert np.all(sweep.errors[finite] <= 1e-15)

    # identical seeds give bitwise-identical CSVs at any thread count
    cfg_text = """\
kind = gaussian-ssr
n = 12
m = 48
l = 16
k = 2
snr_db = 3, 6
methods = cl-omp, cl-bcd, sbl, somp
seed = 4242
trials = 10
"""
    cfg_file = tmp_path / "structural.cfg"
    cfg_file.write_text(cfg_text)
    spec = parse_spec(cfg_file)
    payloads = []
    for run, threads in (("t1", 1), ("t4", 4), ("again", 4)):
        run_experiment(spec, tmp_path / run, threads=threads)
        payloads.append((tmp_path / run / "results.csv").read_bytes())
    assert payloads[0] == payloads[1] == payloads[2]
