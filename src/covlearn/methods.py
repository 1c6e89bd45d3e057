"""Registry mapping method tags to solver adapters with a uniform outcome.

The Monte-Carlo engine and the CLI dispatch through one table, which names
each tag's runner and the stacked solver and arguments of that runner, so
every method sees identical data and reports comparable telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import baselines, clbcd, clomp
from .clbcd import _COUNTED, Problem, SolverConfig, SolverResult
from .model import Dictionary, noise_mle

METHOD_DESCRIPTIONS = {
    "cl-bcd": "block-coordinate descent with fixed-point power updates",
    "cl-omp": "greedy conditional-likelihood pursuit",
    "iaa": "iterative adaptive approach power recursion",
    "samv2": "power-ratio update (b=1) with trace-ratio noise rule",
    "sbl": "power-ratio update (b=1) with support-projector noise refit",
    "sbl1": "power-ratio update with square-root exponent (b=1/2)",
    "msbl": "EM iteration on signal powers, known noise variance",
    "cwo": "cyclic coordinatewise likelihood descent, known noise variance",
    "somp": "simultaneous orthogonal matching pursuit",
    "music": "subspace pseudospectrum peaks on the steering grid",
    "mle1": "single-source exhaustive grid maximum likelihood",
}

METHOD_TAGS = tuple(METHOD_DESCRIPTIONS)


@dataclass(frozen=True)
class MethodSpec:
    """A method tag. Everything else of a solve is the run's: the iteration
    cap, the support rule and the noise variance (see :func:`solve_trial`)."""

    tag: str

    def __post_init__(self):
        if self.tag not in METHOD_TAGS:
            raise ValueError(
                f"unknown method tag {self.tag!r}; supported: {', '.join(METHOD_TAGS)}"
            )


def resolve_methods(methods) -> tuple:
    """Normalize a mix of tags and MethodSpec objects into MethodSpecs.

    Raises ValueError on an empty list or a repeated tag: the engine
    reports its records by tag, so a repeat would be two rows under one
    name.
    """
    specs = tuple(
        item if isinstance(item, MethodSpec) else MethodSpec(tag=str(item)) for item in methods
    )
    if not specs:
        raise ValueError("at least one method is required")
    tags = [spec.tag for spec in specs]
    repeated = sorted({tag for tag in tags if tags.count(tag) > 1})
    if repeated:
        raise ValueError(f"method tags repeated: {', '.join(repeated)}")
    return specs


def check_methods(specs, kind: str, k: int) -> None:
    """Reject methods that cannot solve a ``kind`` scenario with k sources.

    Raises ValueError before any trial runs, so a mismatched method is a
    config error rather than a column of failed trials. Only mle1 is
    restricted: it searches one direction on the steering grid.
    """
    if any(spec.tag == "mle1" for spec in specs) and (kind != "ula-doa" or k != 1):
        raise ValueError(f"mle1 needs kind = ula-doa and k = 1, got kind = {kind} and k = {k}")


def _somp(problem: Problem, dictionary: Dictionary, k: int, config: SolverConfig) -> SolverResult:
    support = baselines.somp(problem, dictionary, k)
    sub = dictionary.take(support.indices)
    # the pursuit's last step factored the final support and fit its rows:
    # that one factor serves the row powers and the noise refit
    factor, rows = problem._fits[support.indices]
    gamma = np.zeros(dictionary.n_atoms)
    gamma[list(support.indices)] = np.mean(np.abs(rows) ** 2, axis=1)
    sigma2 = noise_mle(problem.scm, sub, dictionary.n_sensors, factor=factor)
    return SolverResult(support, gamma, sigma2, iterations=k, converged=True)


def _power(tag: str):
    """The stack of ``tag``'s power iteration, whose rules clbcd._POWER_RULES names."""
    return lambda k, c: (clbcd._power_iteration, tag, k, c)


# tag -> (run(problem, dictionary, k, config) -> SolverResult, stack(k, config)
# -> the (solve_stack, *args) that run passes to Problem.solve). Both look their
# functions up per call, so a patched module attribute is the one that runs.
_METHODS = {
    "cl-bcd": (lambda p, d, k, c: clbcd.run_clbcd(p, d, k, c), _power("cl-bcd")),
    "cl-omp": (lambda p, d, k, c: clomp.run_clomp(p, d, k), lambda k, c: (clomp._clomp, k)),
    "iaa": (lambda p, d, k, c: baselines.run_iaa(p, d, k, c), _power("iaa")),
    "samv2": (lambda p, d, k, c: baselines.run_samv2(p, d, k, c), _power("samv2")),
    "sbl": (lambda p, d, k, c: baselines.run_sbl(p, d, k, c), _power("sbl")),
    "sbl1": (lambda p, d, k, c: baselines.run_sbl(p, d, k, c, b=0.5), _power("sbl1")),
    "msbl": (lambda p, d, k, c: baselines.run_msbl(p, d, k, c), _power("msbl")),
    "music": (lambda p, d, k, c: baselines.music_doas(p, d, k), lambda k, c: (baselines._music, k)),
    "cwo": (lambda p, d, k, c: baselines.run_cwo(p, d, k, c), _power("cwo")),
    "somp": (_somp, lambda k, c: (baselines._somp, k)),
    "mle1": (lambda p, d, k, c: p.solve(baselines._mle1, k), lambda k, c: (baselines._mle1, k)),
}


def solve_trial(
    spec: MethodSpec,
    Y: np.ndarray,
    dictionary: Dictionary,
    k: int,
    peak: bool,
    noise_var: float,
    max_iter: int = SolverConfig.max_iter,
) -> SolverResult:
    """Run one method on one set of snapshots.

    Y is an N x L snapshot matrix or a :class:`~covlearn.clbcd.Problem` over
    ``dictionary``; the Monte-Carlo engine passes one Problem to every method
    of a cell, so the sample covariance and what is cached on it are formed
    once, and a Problem returns the row :func:`solve_stack` kept for it under
    the same arguments. The iterative methods (cl-bcd, iaa, samv2, sbl, sbl1,
    msbl, cwo) run at the run's iteration cap ``max_iter`` with
    :class:`SolverConfig`'s tolerance, the scenario's support rule ``peak``
    and, for msbl and cwo, the scenario's noise variance ``noise_var``; the
    other methods only check the three, as :class:`SolverConfig` does.
    """
    config = SolverConfig(max_iter, peak=peak, known_sigma2=noise_var)
    return _METHODS[spec.tag][0](Problem.of(Y, dictionary, k), dictionary, k, config)


def solve_stack(
    spec: MethodSpec,
    problems,
    dictionary: Dictionary,
    k: int,
    peak: bool,
    noise_var: float,
    max_iter: int = SolverConfig.max_iter,
) -> None:
    """Solve ``problems``, a list of one or more Problems over ``dictionary``
    (else ValueError), as one stack of spec's method, and keep each row on
    its Problem for the next :func:`solve_trial` of it with the same
    arguments: the result it gets alone. A stack that raises a counted error
    (ArithmeticError, LinAlgError, ValueError) keeps nothing: each Problem
    then gets the result or the exception class of its lone solve.
    """
    problems = [Problem.of(p, dictionary, k) for p in problems]
    if not problems:
        raise ValueError("a stack holds one or more problems")
    # the key names what solve(problems, *args) computes, so args are hashable
    config = SolverConfig(max_iter, peak=peak, known_sigma2=noise_var)
    solve, *args = key = _METHODS[spec.tag][1](k, config)
    try:
        results = solve(problems, *args)
    except _COUNTED:
        return
    for problem, result in zip(problems, results):
        problem._solved[key] = result
