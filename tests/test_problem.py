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
    MethodSpec,
    RankDeficientError,
    SupportSet,
    gaussian_dictionary,
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
    """(dictionary, Y, k, peak, tags): mle1 needs a steering grid and k = 1."""
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
    return d, atoms @ X + E, k, kind == "ula", tags


@pytest.mark.parametrize("kind", ["ula", "gaussian"])
def test_shared_problem_matches_solving_from_snapshots(kind):
    d, Y, k, peak, tags = _case(kind)
    spec = {tag: MethodSpec(tag, max_iter=100) for tag in tags}
    alone = {tag: _fields(solve_trial(spec[tag], Y, d, k, peak, 1.0)) for tag in tags}
    for order in (tags, tags[::-1]):
        problem = Problem(Y, d)
        for tag in order:
            assert _fields(solve_trial(spec[tag], problem, d, k, peak, 1.0)) == alone[tag], tag


def test_problem_over_another_dictionary_rejected():
    d, Y, k, peak, _ = _case("gaussian")
    twin = Dictionary(d.atoms, norm_mode="unit")  # equal atoms, another object
    with pytest.raises(ValueError, match="another dictionary"):
        solve_trial(MethodSpec("cl-bcd"), Problem(Y, d), twin, k, peak, 1.0)


def test_problem_arrays_are_read_only():
    d, Y, _, _, _ = _case("gaussian")
    problem = Problem(Y, d)
    for a in (problem.Y, problem.scm, problem.forms, problem.matched_filter):
        assert not a.flags.writeable
    assert Y.flags.writeable  # the caller's array is left as it was


def test_rank_deficient_refit_raises_for_every_method_that_asks(monkeypatch):
    # atoms 0 and 1 coincide and carry the strong source, so every top-2
    # support is {0, 1} and its noise refit is rank deficient
    rng = np.random.default_rng(53)
    a = steering_matrix(6, [20.0])
    d = Dictionary(np.hstack([a, a, steering_matrix(6, np.linspace(-80.0, 80.0, 30))]))
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
            solve_trial(MethodSpec(tag), problem, d, 2, False, 1.0)
        assert len(refits) == before + 1, tag  # refit again, not read from the memo
    with pytest.raises(RankDeficientError):
        problem.noise_mle(SupportSet((0, 1)))


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
