"""One Problem per Monte-Carlo cell: sharing it changes no result.

The engine builds one :class:`covlearn.clbcd.Problem` per (trial, SNR) and
every method of the cell solves it. These tests pin that a shared Problem
gives each method exactly what it gets from the snapshots alone, and that
the engine forms the sample covariance and its per-atom forms once per cell.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from covlearn import (
    Dictionary,
    InvalidDataError,
    MethodSpec,
    RankDeficientError,
    SupportSet,
    gaussian_dictionary,
    hard_threshold,
    run_monte_carlo,
    solve_trial,
    steering_matrix,
    ula_grid,
)
from covlearn import baselines, clbcd, cli, clomp, methods, model, scenario
from covlearn.clbcd import Problem
from covlearn.methods import METHOD_TAGS

WORKLOADS = Path(__file__).parent.parent / "perfbench" / "workloads"
MODULES = (model, clbcd, clomp, baselines, methods, scenario, cli)


def _fields(res):
    """Every field of a SolverResult, arrays as bytes, for exact comparison."""
    arrays = [None if a is None else a.tobytes() for a in (res.gamma, res.powers)]
    return (res.support, *arrays, res.sigma2, res.iterations, res.converged, res.theta_deg)


def _case(kind):
    """(dictionary, Y, k, tags): mle1 needs a steering grid and k = 1."""
    rng = np.random.default_rng(51)
    if kind == "ula":
        d, k = ula_grid(8, 91), 1
        atoms = steering_matrix(8, [12.3])
        tags = METHOD_TAGS
    else:
        d, k = gaussian_dictionary(12, 40, 52), 3
        atoms = d.take([3, 17, 30])
        tags = tuple(tag for tag in METHOD_TAGS if tag != "mle1")
    X = 3.0 * (rng.standard_normal((k, 24)) + 1j * rng.standard_normal((k, 24)))
    E = rng.standard_normal((d.n_sensors, 24)) + 1j * rng.standard_normal((d.n_sensors, 24))
    return d, atoms @ X + E, k, tags


@pytest.mark.parametrize("kind", ["ula", "gaussian"])
def test_shared_problem_matches_solving_from_snapshots(kind):
    d, Y, k, tags = _case(kind)
    spec = {tag: MethodSpec(tag) for tag in tags}
    run = {"noise_var": 1.0, "max_iter": 100}
    alone = {tag: _fields(solve_trial(spec[tag], Y, d, k, **run)) for tag in tags}
    for order in (tags, tags[::-1]):
        problem = Problem(Y, d)
        for tag in order:
            assert _fields(solve_trial(spec[tag], problem, d, k, **run)) == alone[tag], tag


def test_a_positional_support_rule_is_a_type_error():
    # the dictionary decides the support rule: a caller that still passes it
    # by position fails instead of binding it to noise_var and max_iter
    d, Y, k, _ = _case("gaussian")
    with pytest.raises(TypeError):
        solve_trial(MethodSpec("cl-bcd"), Y, d, k, True, 1.0)
    with pytest.raises(TypeError):
        methods.solve_stack(MethodSpec("cl-bcd"), [Problem(Y, d)], d, k, True, 1.0)
    with pytest.raises(TypeError):
        clbcd.SolverConfig(peak=True)


def test_problem_over_another_dictionary_rejected():
    d, Y, k, _ = _case("gaussian")
    twin = Dictionary(d.atoms)  # equal atoms, another object
    with pytest.raises(ValueError, match="another dictionary"):
        solve_trial(MethodSpec("cl-bcd"), Problem(Y, d), twin, k, noise_var=1.0)


def _overflowing_problem():
    # finite snapshots whose Y Y^H overflows; the overflow itself is not the error
    with np.errstate(over="ignore", invalid="ignore"):
        Problem(np.full((6, 4), 1e200 + 0j), ula_grid(6, 91))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: Problem(np.ones((5, 4), dtype=complex), ula_grid(6, 91)),
         "sample covariance shape does not match the dictionary"),
        (_overflowing_problem, "sample covariance entries must be finite"),
        (lambda: Problem.of(np.eye(6, 8, dtype=complex), gaussian_dictionary(6, 4, 0), 5),
         "sparsity k=5 exceeds the number of atoms 4"),
        (lambda: methods.resolve_methods([]), "at least one method is required"),
        (lambda: solve_trial(MethodSpec("mle1"), np.eye(6, 8, dtype=complex), ula_grid(6, 91),
                             2, noise_var=1.0),
         "mle1 handles exactly one source"),
    ],
)
def test_outside_input_is_rejected_by_name(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def _mixed_shape_somp_stack():
    d = ula_grid(6, 91)
    baselines._somp([Problem(np.eye(6, 8, dtype=complex), d),
                     Problem(np.eye(6, 9, dtype=complex), d)], 1)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: model.sample_covariance(np.full((6, 4), np.nan + 0j)), "snapshot matrix entries"),
        (_overflowing_problem, "sample covariance entries must be finite"),
        (lambda: Problem(np.zeros((6, 4), dtype=complex), ula_grid(6, 91)), "no energy"),
        (lambda: model.build_covariance(ula_grid(6, 91), -np.ones(91), 1.0),
         "signal powers must be finite and nonnegative"),
        (lambda: model.build_covariance(ula_grid(6, 91), np.ones(91), 0.0),
         "noise variance must be positive"),
        (lambda: hard_threshold(np.array([1.0, np.nan]), 1), "power vector entries"),
        (_mixed_shape_somp_stack, "one shape"),
    ],
)
def test_data_failures_are_invalid_data_errors(call, message):
    # the class the engine counts, and a ValueError for every other caller
    assert InvalidDataError in clbcd._COUNTED and issubclass(InvalidDataError, ValueError)
    with pytest.raises(InvalidDataError, match=message):
        call()


def test_problem_arrays_are_read_only():
    d, Y, _, _ = _case("gaussian")
    problem = Problem(Y, d)
    for a in (problem.Y, problem.scm, problem.forms, problem.matched_filter):
        assert not a.flags.writeable
    assert Y.flags.writeable  # the caller's array is left as it was


def test_rank_deficient_refit_raises_for_every_method_that_asks(monkeypatch):
    # atoms 0 and 2 coincide and carry the strong source, so every top-2
    # support is {0, 2} (this steering dictionary's angles are unsorted, so it
    # takes the K largest entries), and its noise refit is rank deficient
    rng = np.random.default_rng(53)
    a, others = steering_matrix(6, [20.0]), steering_matrix(6, np.linspace(-80.0, 80.0, 30))
    d = Dictionary(np.hstack([a, others[:, :1], a, others[:, 1:]]))
    Y = 2.0 * a @ (rng.standard_normal((1, 30)) + 1j * rng.standard_normal((1, 30)))
    Y = Y + rng.standard_normal((6, 30)) + 1j * rng.standard_normal((6, 30))
    refits = []

    def counting(*args, **kwargs):
        refits.append(None)
        return model.noise_mle(*args, **kwargs)

    monkeypatch.setattr(clbcd, "noise_mle", counting)
    problem = Problem(Y, d)
    for tag in ("cl-bcd", "iaa", "sbl", "sbl1"):
        before = len(refits)
        with pytest.raises(RankDeficientError):
            solve_trial(MethodSpec(tag), problem, d, 2, noise_var=1.0)
        assert len(refits) == before + 1, tag  # refit again, not read from the memo
    with pytest.raises(RankDeficientError):
        clbcd._noise_refits([problem], [SupportSet((0, 2))])


@pytest.mark.parametrize("workload, cells", [("doa", 3), ("ssr", 5)])
def test_one_sample_covariance_and_one_form_pass_per_cell(monkeypatch, tmp_path, workload, cells):
    # one trial of a benchmark workload at the warm-up's iteration cap
    cfg = tmp_path / f"{workload}.cfg"
    cfg.write_text((WORKLOADS / f"{workload}.cfg").read_text() + "\nmax_iter = 2\n")
    spec = cli.parse_spec(cfg)
    sample_covariance, atom_forms = model.sample_covariance, model.atom_forms
    formed, passes = [], []

    def counting_scm(Y):
        scm = sample_covariance(Y)
        formed.append(scm)
        return scm

    def counting_forms(dictionary, Hs):
        # a pass of a_i^H Shat a_i is atom_forms on the stack (Shat,)
        if len(Hs) == 1:
            passes.extend(i for i, scm in enumerate(formed) if np.array_equal(Hs[0], scm))
        return atom_forms(dictionary, Hs)

    # patched in every module that binds them, so a new call site is counted too
    for mod in MODULES:
        if hasattr(mod, "sample_covariance"):
            monkeypatch.setattr(mod, "sample_covariance", counting_scm)
        if hasattr(mod, "atom_forms"):
            monkeypatch.setattr(mod, "atom_forms", counting_forms)
    records = run_monte_carlo(replace(spec.scenario, trials=1), spec.methods)
    assert all(r.failures == 0 for r in records)
    assert len(formed) == cells
    # cl-omp's first sweep, cl-bcd's first iterate and iaa's start share it
    assert sorted(passes) == list(range(cells))
