"""A solve in a stack equals the same solve alone.

:func:`covlearn.methods.solve_stack` solves Problems over one dictionary as
one stack, each row leaving the stack once it has converged, and keeps each
row on its Problem; the next :func:`covlearn.methods.solve_trial` of that
Problem returns it. The Monte-Carlo engine takes that path for every chunk
of trials. These tests pin that every stacked method returns, for every row,
exactly what a lone solve of that row returns (support, powers bit for bit,
noise variance, iterations, convergence), that a row that fails fails only
its own cell, with the exception class of its lone solve, and that the
engine stacks and books each chunk's cells as it says.
"""

import csv
import types
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covlearn import (
    Dictionary,
    MethodSpec,
    RankDeficientError,
    ScenarioConfig,
    SolverConfig,
    gaussian_dictionary,
    run_monte_carlo,
    solve_trial,
    steering_matrix,
    ula_grid,
)
from covlearn import baselines, clbcd, cli, clomp, methods, scenario, solve_stack
from covlearn.clbcd import Problem
from util import population_snapshots

# The methods whose runners read a row solve_stack kept on a Problem: every tag.
STACKED_TAGS = (
    "cl-omp", "cl-bcd", "iaa", "samv2", "sbl", "sbl1", "msbl", "cwo", "somp", "music", "mle1"
)

# Each stacked tag's stacked solver, by module and name.
STACKED_SOLVERS = (
    (clomp, "_clomp"), (clbcd, "_power_iteration"), (baselines, "_somp"), (baselines, "_music"),
    (baselines, "_mle1"),
)

# The exceptions the Monte-Carlo engine counts as a failed trial.
COUNTED = (ArithmeticError, np.linalg.LinAlgError, ValueError)


def _outcome(spec, data, d, k, max_iter=SolverConfig.max_iter):
    """Every field of the solve's SolverResult, powers as bytes, or the
    class of the counted exception it raised."""
    try:
        res = solve_trial(spec, data, d, k, noise_var=1.0, max_iter=max_iter)
    except COUNTED as exc:
        return type(exc)
    gamma, powers = (None if a is None else a.tobytes() for a in (res.gamma, res.powers))
    return (res.support, gamma, res.sigma2, res.iterations, res.converged, res.theta_deg, powers)


def _k(tag, k):
    """The sparsity ``tag`` solves at: mle1 searches one direction."""
    return 1 if tag == "mle1" else k


def _stacked(spec, Ys, d, k, first, max_iter=SolverConfig.max_iter):
    """Outcomes of solving Ys as one stack through solve_stack, each row then
    read by solve_trial, row ``first`` first."""
    problems = [Problem(Y, d) for Y in Ys]
    solve_stack(spec, problems, d, k, noise_var=1.0, max_iter=max_iter)
    order = [first] + [i for i in range(len(Ys)) if i != first]
    out = {i: _outcome(spec, problems[i], d, k, max_iter) for i in order}
    return [out[i] for i in range(len(Ys))]


def _snapshots(ula, seed, snrs):
    """(dictionary, k, one Y per SNR): the benchmark shapes, with one
    source and noise draw shared across the SNRs as the engine does."""
    rng = np.random.default_rng(seed)
    if ula:
        d, k, snapshots = ula_grid(20, 1801), 2, 125
        atoms = steering_matrix(20, [-20.02, 3.02])
    else:
        d, k, snapshots = gaussian_dictionary(32, 256, seed), 4, 32
        atoms = d.take(rng.choice(256, k, replace=False))
    W = rng.standard_normal((k, snapshots)) + 1j * rng.standard_normal((k, snapshots))
    E = rng.standard_normal((d.n_sensors, snapshots)) + 1j * rng.standard_normal((d.n_sensors, snapshots))
    return d, k, [atoms @ (10 ** (snr / 20) * W) + E for snr in snrs]


@settings(max_examples=40, deadline=None)
@given(
    ula=st.booleans(),
    seed=st.integers(0, 2**16),
    snrs=st.lists(st.floats(-15.0, 20.0), min_size=2, max_size=4),
    tag=st.sampled_from(STACKED_TAGS),
    max_iter=st.sampled_from([1, 2, 8, 40]),
    data=st.data(),
)
def test_a_solve_in_a_stack_equals_the_solve_alone(ula, seed, snrs, tag, max_iter, data):
    ula = ula or tag == "mle1"  # mle1 scans a steering grid
    d, k, Ys = _snapshots(ula, seed, snrs)
    k = _k(tag, k)
    spec = MethodSpec(tag)
    first = data.draw(st.integers(0, len(Ys) - 1), label="first")
    alone = [_outcome(spec, Y, d, k, max_iter) for Y in Ys]
    assert _stacked(spec, Ys, d, k, first, max_iter) == alone


def test_a_stack_keeps_each_solves_rows_apart():
    # a stacked solve's rows wait under its stacked solver and every argument
    # of it: another method, cap, noise rule or exponent never reads them
    d, k, Ys = _snapshots(True, 3, (-5.5, -9.5, -13.5))
    asks = [(tag, cap) for tag in ("cl-bcd", "iaa", "samv2", "sbl", "sbl1", "msbl") for cap in (1, 8)]
    problems = [Problem(Y, d) for Y in Ys]
    for tag, cap in asks:
        solve_stack(MethodSpec(tag), problems, d, k, noise_var=1.0, max_iter=cap)
    for i, problem in enumerate(problems):
        for tag, cap in asks[i:] + asks[:i]:  # each row asks in another order
            spec = MethodSpec(tag)
            assert _outcome(spec, problem, d, k, cap) == _outcome(spec, Ys[i], d, k, cap)


def test_rows_leave_the_stack_as_they_converge(monkeypatch):
    # cl-bcd converges at iteration 6 on the three benchmark SNRs and would
    # need 10 at 10 dB, so a cap of 8 stops that row unconverged
    d, k, Ys = _snapshots(True, 3, (-5.5, -9.5, -13.5, 10.0))
    spec = MethodSpec("cl-bcd")
    alone = [_outcome(spec, Y, d, k, 8) for Y in Ys]
    assert [outcome[3:5] for outcome in alone] == [(6, True)] * 3 + [(8, False)]
    stack_sizes = []
    build = clbcd.build_covariance

    def counting(dictionary, gamma, sigma2):
        stack_sizes.append(len(gamma))
        return build(dictionary, gamma, sigma2)

    monkeypatch.setattr(clbcd, "build_covariance", counting)
    assert _stacked(spec, Ys, d, k, 2, 8) == alone
    # iteration 1 is in closed form; iterations 2-6 run all four rows
    assert stack_sizes == [4] * 5 + [1] * 2


def _stack_sizes(monkeypatch, module, name):
    """Patch module.name, a refit taking sample covariances first, to record
    the number of rows of every call; returns the record."""
    sizes, refit = [], getattr(module, name)

    def counting(scm, *args):
        sizes.append(len(scm))
        return refit(scm, *args)

    monkeypatch.setattr(module, name, counting)
    return sizes


def test_cl_omp_refits_a_stack_once_per_greedy_step(monkeypatch):
    d, k, Ys = _snapshots(True, 4, (-5.5, -9.5, -13.5))
    spec = MethodSpec("cl-omp")
    alone = [_outcome(spec, Y, d, k) for Y in Ys]
    sizes = _stack_sizes(monkeypatch, clomp, "provisional_mle")
    assert _stacked(spec, Ys, d, k, 1) == alone
    assert sizes == [len(Ys)] * k


# draws on which a later step has two or more rows whose top-K support is new
@pytest.mark.parametrize("ula, seed", [(True, 10), (False, 8)])
def test_cl_bcd_refits_a_steps_memo_misses_in_one_call(monkeypatch, ula, seed):
    d, k, Ys = _snapshots(ula, seed, (-5.5, -9.5, -13.5, 0.0))
    spec = MethodSpec("cl-bcd")
    alone = [_outcome(spec, Y, d, k) for Y in Ys]
    problems = [Problem(Y, d) for Y in Ys]
    update = clbcd.iaa_update
    memo_sizes = []

    def counting_update(state, scm):
        # runs before the step's refit: the memo holds every earlier refit
        memo_sizes.append(sum(len(p._noise) for p in problems))
        return update(state, scm)

    sizes = _stack_sizes(monkeypatch, clbcd, "noise_mle")
    monkeypatch.setattr(clbcd, "iaa_update", counting_update)
    solve_stack(spec, problems, d, k, noise_var=1.0)
    assert [_outcome(spec, p, d, k) for p in problems] == alone
    memo_sizes.append(sum(len(p._noise) for p in problems))
    # the misses of the closed-form first iterate, then of each later step
    misses = np.diff([0] + memo_sizes)
    assert sizes == [m for m in misses if m]
    assert sizes[0] == len(Ys) and max(sizes[1:]) >= 2


def test_iaa_refits_a_stacks_final_supports_in_one_call(monkeypatch):
    d, k, Ys = _snapshots(False, 8, (-5.5, -9.5, -13.5, 0.0))
    spec = MethodSpec("iaa")
    alone = [_outcome(spec, Y, d, k) for Y in Ys]
    sizes = _stack_sizes(monkeypatch, clbcd, "noise_mle")
    assert _stacked(spec, Ys, d, k, 0) == alone
    assert sizes == [len(Ys)]


def _duplicate_atom_case():
    """(dictionary, Ys): atoms 0 and 2 coincide, with the -80 deg atom between
    them, so on this steering dictionary both copies are peaks. A strong
    source there makes every top-2 support {0, 2}, whose noise refit is rank
    deficient; the other rows carry a source elsewhere or only noise."""
    rng = np.random.default_rng(53)
    a, others = steering_matrix(6, [20.0]), steering_matrix(6, np.linspace(-80.0, 80.0, 30))
    d = Dictionary(np.hstack([a, others[:, :1], a, others[:, 1:]]))
    X = rng.standard_normal((1, 30)) + 1j * rng.standard_normal((1, 30))
    E = rng.standard_normal((6, 30)) + 1j * rng.standard_normal((6, 30))
    return d, [2.0 * a @ X + E, 2.0 * steering_matrix(6, [-41.0]) @ X + E, E]


def _clomp_duplicate_atom_case():
    """(dictionary, Ys) on which cl-omp picks the coinciding atoms 0 and 1 in
    row 0, whose refit is then rank deficient. Row 0's noise is weaker than
    its refit along the other atoms, so once atom 0 is fit no other atom
    gains, and the tie goes to atom 1; rows 1 and 2 each carry a source on
    another atom, which cl-omp picks first."""
    rng = np.random.default_rng(59)
    a, c = steering_matrix(6, [20.0]), steering_matrix(6, [-41.0, 60.0])
    d = Dictionary(np.hstack([a, a, c]))
    c_perp = np.linalg.qr(c - a @ (a.conj().T @ c) / 6.0)[0]  # span(c), a projected out
    scm = 4.0 * a @ a.conj().T + np.eye(6) - 0.5 * c_perp @ c_perp.conj().T
    X = rng.standard_normal((1, 30)) + 1j * rng.standard_normal((1, 30))
    E = rng.standard_normal((6, 30)) + 1j * rng.standard_normal((6, 30))
    return d, [population_snapshots(scm), 2.0 * c[:, :1] @ X + E, 2.0 * c[:, 1:] @ X + E]


@pytest.mark.parametrize("tag", STACKED_TAGS)
def test_a_failing_row_fails_only_its_own_cell(tag):
    d, Ys = _clomp_duplicate_atom_case() if tag == "cl-omp" else _duplicate_atom_case()
    spec, k = MethodSpec(tag), _k(tag, 2)
    alone = [_outcome(spec, Y, d, k, 100) for Y in Ys]
    if tag in ("cl-omp", "cl-bcd", "iaa", "sbl", "sbl1"):
        assert alone[0] is RankDeficientError
    assert all(isinstance(outcome, tuple) for outcome in alone[1:])
    for first in range(len(Ys)):
        assert _stacked(spec, Ys, d, k, first, 100) == alone


def test_somp_solves_snapshot_matrices_of_other_shapes_alone():
    # somp stacks the snapshot matrices themselves, so a stack of L = 6 and
    # L = 9 raises before any work, keeps nothing, and each problem then
    # gets its lone support
    d, k, (Y,) = _snapshots(True, 12, (0.0,))
    Ys = [Y[:, :6], Y[:, :9]]
    problems = [Problem(Y, d) for Y in Ys]
    with pytest.raises(ValueError, match=r"one shape, got \[\(20, 6\), \(20, 9\)\]"):
        baselines._somp(problems, k)
    spec = MethodSpec("somp")
    solve_stack(spec, problems, d, k, noise_var=1.0)
    assert not any(p._solved or p._fits for p in problems)
    assert [_outcome(spec, p, d, k) for p in problems] == [
        _outcome(spec, Y, d, k) for Y in Ys
    ]


def _count_stacks(monkeypatch):
    """Patch every stacked solver to record the rows of each call; returns
    the record."""
    stack_sizes = []
    for module, name in STACKED_SOLVERS:
        def counting(problems, *args, _solve=getattr(module, name)):
            stack_sizes.append(len(problems))
            return _solve(problems, *args)

        monkeypatch.setattr(module, name, counting)
    return stack_sizes


def test_the_engine_solves_a_chunk_of_trials_as_one_stack(monkeypatch):
    # a chunk holds 12 // len(snr_db) trials on the shared steering grid and
    # one trial on gaussian-ssr, whose trials each draw their own dictionary;
    # a runner whose key drifted from its table entry would solve alone
    stack_sizes = _count_stacks(monkeypatch)
    tags = ["cl-omp", "cl-bcd", "iaa", "music"]
    cfg = ScenarioConfig(
        "ula-doa", 8, 181, 16, 2, (-5.0, 0.0, 5.0), true_doas_deg=(-20.0, 30.0), trials=5
    )
    assert all(r.failures == 0 for r in run_monte_carlo(cfg, tags))
    assert stack_sizes == [12] * 4 + [3] * 4
    stack_sizes.clear()
    run_monte_carlo(cfg, tags, threads=2)  # the chunks do not follow the thread count
    assert sorted(stack_sizes) == [3] * 4 + [12] * 4
    stack_sizes.clear()
    cfg = ScenarioConfig("gaussian-ssr", 8, 40, 16, 2, (0.0, 5.0, 10.0), trials=3)
    assert all(r.failures == 0 for r in run_monte_carlo(cfg, tags[:3]))
    assert stack_sizes == [3] * 9


def test_a_chunk_stacks_over_one_grid_whatever_the_grid_memo_returns(monkeypatch):
    # a chunk looks the steering grid up once, so a grid built afresh on
    # every lookup still stacks the chunk's trials together, with the
    # records of the memoised grid
    tags = ["cl-omp", "cl-bcd", "iaa", "music"]
    cfg = ScenarioConfig(
        "ula-doa", 8, 181, 16, 2, (-5.0, 0.0, 5.0), true_doas_deg=(-20.0, 30.0), trials=5
    )
    cached = [replace(r, mean_runtime_s=None) for r in run_monte_carlo(cfg, tags)]
    stack_sizes = _count_stacks(monkeypatch)
    monkeypatch.setattr(scenario, "ula_grid", scenario.ula_grid.__wrapped__)
    records = run_monte_carlo(cfg, tags)
    assert stack_sizes == [12] * 4 + [3] * 4
    assert [replace(r, mean_runtime_s=None) for r in records] == cached


def test_a_second_dictionary_in_a_chunk_is_a_programming_error(monkeypatch):
    # not a counted failure: the run stops
    draw = scenario._draw_trial

    def redrawn(config, constants, t):
        dictionary, draws = draw(config, constants, t)
        return Dictionary(dictionary.atoms), draws

    monkeypatch.setattr(scenario, "_draw_trial", redrawn)
    cfg = ScenarioConfig(
        "ula-doa", 8, 181, 16, 2, (-5.0, 0.0, 5.0), true_doas_deg=(-20.0, 30.0), trials=2
    )
    with pytest.raises(ValueError, match="another dictionary"):
        run_monte_carlo(cfg, ["cl-bcd"])


def test_each_cell_finds_only_its_own_methods_row(monkeypatch):
    # the engine solves and scores a chunk method by method, so a Problem
    # holds at most one kept row when a cell's solve reads it
    solve = methods.solve_trial
    kept = []

    def counting(spec, problem, *args, **kwargs):
        kept.append(len(problem._solved))
        return solve(spec, problem, *args, **kwargs)

    monkeypatch.setattr(methods, "solve_trial", counting)
    cfg = ScenarioConfig(
        "ula-doa", 8, 181, 16, 2, (-5.0, 0.0, 5.0), true_doas_deg=(-20.0, 30.0), trials=5
    )
    assert all(r.failures == 0 for r in run_monte_carlo(cfg, ["cl-omp", "cl-bcd", "iaa", "music"]))
    assert len(kept) == 4 * 5 * 3 and set(kept) == {1}


@pytest.mark.parametrize("kind, k", [
    pytest.param("ula-doa", 2, id="ula-doa"),
    pytest.param("gaussian-ssr", 2, id="gaussian-ssr"),
    pytest.param("ula-doa", 1, id="ula-doa-k1"),
])
def test_every_stacked_tag_reads_its_kept_rows_in_the_engine(monkeypatch, kind, k):
    # every cell of a healthy chunk reads the row its stack kept: no size-1
    # solve, for every tag that can solve the scenario (mle1 only ula-doa at k = 1)
    stack_sizes = _count_stacks(monkeypatch)
    tags = [tag for tag in STACKED_TAGS if tag != "mle1" or (kind, k) == ("ula-doa", 1)]
    doas = (-20.0, 30.0)[:k] if kind == "ula-doa" else None
    cfg = ScenarioConfig(kind, 8, 91, 16, k, (-5.0, 0.0, 5.0), true_doas_deg=doas, trials=5,
                         max_iter=8)
    assert all(r.failures == 0 for r in run_monte_carlo(cfg, tags))
    chunks = [12, 3] if kind == "ula-doa" else [3] * 5
    assert stack_sizes == [rows for rows in chunks for _ in tags]


def test_each_cell_carries_its_share_of_its_stack(tmp_path, monkeypatch):
    # on a clock that only a stacked solve advances, by one second per row,
    # each cell's --timings runtime is one second: its own share of the
    # stack, where the chunk's first cell used to carry all of it
    now = [0.0]

    def advancing(problems, *args, _solve=clbcd._power_iteration):
        now[0] += len(problems)
        return _solve(problems, *args)

    monkeypatch.setattr(clbcd, "_power_iteration", advancing)
    monkeypatch.setattr(scenario, "time", types.SimpleNamespace(thread_time=lambda: now[0]))
    cfg = tmp_path / "doa.cfg"
    cfg.write_text("kind = ula-doa\nn = 8\nm = 181\nl = 16\nk = 2\nsnr_db = -5, 0, 5\n"
                   "true_doas_deg = -20, 30\ntrials = 5\nmax_iter = 8\nmethods = cl-bcd, cwo, somp\n")
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--timings"]
    assert cli.main(argv) == 0
    # per power-iteration method, one stack of 4 trials x 3 SNRs, one of 1 x 3
    assert now[0] == 2 * (12 + 3)
    with open(tmp_path / "out" / "results.csv") as fh:
        runtimes = {(r["method"], r["snr_db"]): r["mean_runtime_s"] for r in csv.DictReader(fh)}
    assert runtimes == {(tag, snr): "1" for tag in ("cl-bcd", "cwo") for snr in ("-5", "0", "5")} | {
        ("somp", snr): "0" for snr in ("-5", "0", "5")
    }


def test_the_engine_builds_every_cells_forms_outside_the_methods(monkeypatch):
    # a stacked solve reads every cell's matched filter: were it built on
    # first use, the first stacked method would pay for the other cells' forms
    stack = methods.solve_stack
    seen = []

    def checking(spec, problems, *args, **kwargs):
        seen.append(all("matched_filter" in p.__dict__ for p in problems))
        return stack(spec, problems, *args, **kwargs)

    monkeypatch.setattr(methods, "solve_stack", checking)
    cfg = ScenarioConfig(
        "ula-doa", 8, 181, 16, 2, (-5.0, 0.0, 5.0), true_doas_deg=(-20.0, 30.0), trials=2
    )
    run_monte_carlo(cfg, ["cl-omp", "cl-bcd"])
    assert seen == [True, True]  # one chunk of 2 trials x 3 SNRs, two methods


def test_a_stack_holds_problems_over_one_dictionary():
    Y = np.random.default_rng(5).standard_normal((6, 10)).astype(complex)
    grid, other = ula_grid(6, 91), gaussian_dictionary(6, 91, 1)
    problems = [Problem(Y, grid), Problem(Y, other)]
    with pytest.raises(ValueError, match="another dictionary"):
        solve_stack(MethodSpec("cl-omp"), problems, grid, 2, noise_var=1.0)
    assert all(not p._solved for p in problems)


@pytest.mark.parametrize("tag", STACKED_TAGS)
def test_a_stack_of_one_problem_keeps_its_row(tag):
    # a group of one, such as a one-SNR chunk, is solved once, by its stack
    d, k, (Y,) = _snapshots(True, 8, (-5.5,))
    spec, k = MethodSpec(tag), _k(tag, k)
    problem = Problem(Y, d)
    solve_stack(spec, [problem], d, k, noise_var=1.0, max_iter=40)
    (kept,) = problem._solved.values()
    result = solve_trial(spec, problem, d, k, noise_var=1.0, max_iter=40)
    # somp keeps the SupportSet that baselines.somp returns, and its runner builds on it
    assert (result.support if tag == "somp" else result) is kept
    assert not problem._solved
    assert _outcome(spec, problem, d, k, 40) == _outcome(spec, Y, d, k, 40)


@pytest.mark.parametrize("tag", methods.METHOD_TAGS)
def test_an_empty_stack_is_rejected(tag):
    # by solve_stack itself, before it looks up any tag's stacked solver
    d = ula_grid(6, 91)
    with pytest.raises(ValueError, match="one or more problems"):
        solve_stack(MethodSpec(tag), [], d, 2, noise_var=1.0)


def test_a_kept_row_does_not_keep_its_problem_alive():
    # no reference cycle: a problem is freed as soon as its last user lets go,
    # with the rows a stacked solve kept on it
    Y = np.random.default_rng(6).standard_normal((6, 10)).astype(complex)
    d = ula_grid(6, 91)
    problems = [Problem(Y, d), Problem(2.0 * Y, d)]
    solve_stack(MethodSpec("cl-bcd"), problems, d, 2, noise_var=1.0)
    assert all(p._solved for p in problems)
    dropped = weakref.ref(problems.pop())
    assert dropped() is None
