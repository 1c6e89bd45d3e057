"""Registry mapping method tags to solver adapters with a uniform outcome.

The Monte-Carlo engine and the CLI dispatch through one table, which names
each tag's runner and, for the methods that stack, the stacked solver and
arguments of that runner, so every method sees identical data and reports
comparable telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import baselines, clbcd, clomp
from .clbcd import Problem, SolverConfig, SolverResult
from .model import Dictionary, _qr_full_rank, noise_mle, provisional_mle
from .scenario import steering_matrix

FINE_GRID_POINTS = 18001  # 0.01 deg resolution for the single-source searcher

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
    # one factor of the final support serves the row refit and the noise refit
    Q, R = _qr_full_rank(sub)
    rows = np.linalg.solve(R, Q.conj().T @ problem.Y)
    gamma = np.zeros(dictionary.n_atoms)
    gamma[list(support.indices)] = np.mean(np.abs(rows) ** 2, axis=1)
    sigma2 = noise_mle(problem.scm, sub, dictionary.n_sensors, factor=(Q, R))
    return SolverResult(support, gamma, sigma2, iterations=k, converged=True)


def _mle1(problem: Problem, dictionary: Dictionary, k: int, config: SolverConfig) -> SolverResult:
    if k != 1:
        raise ValueError("mle1 handles exactly one source")
    scm = problem.scm
    theta = baselines.mle_single_source(scm, FINE_GRID_POINTS)
    atom = steering_matrix(dictionary.n_sensors, [theta])
    gamma_src, sigma2 = provisional_mle(scm, atom, dictionary.n_sensors)
    return SolverResult(None, None, sigma2, 1, True, theta_deg=(theta,), powers=gamma_src)


# tag -> (run(problem, dictionary, k, config) -> SolverResult, stack(k, config)
# -> the (solve_stack, *args) that run passes to Problem.solve, or None for a
# method that does not stack). Both look their functions up per call, so a
# patched module attribute is the one that runs.
_METHODS = {
    "cl-bcd": (lambda p, d, k, c: clbcd.run_clbcd(p, d, k, c),
               lambda k, c: (clbcd._clbcd, k, c)),
    "cl-omp": (lambda p, d, k, c: clomp.run_clomp(p, d, k),
               lambda k, c: (clomp._clomp, k)),
    "iaa": (lambda p, d, k, c: baselines.run_iaa(p, d, k, c),
            lambda k, c: (baselines._iaa, k, c)),
    "samv2": (lambda p, d, k, c: baselines.run_samv2(p, d, k, c),
              lambda k, c: (baselines._ratio_method, k, c, "samv2", 1.0)),
    "sbl": (lambda p, d, k, c: baselines.run_sbl(p, d, k, c),
            lambda k, c: (baselines._ratio_method, k, c, "support", 1.0)),
    "sbl1": (lambda p, d, k, c: baselines.run_sbl(p, d, k, c, b=0.5),
             lambda k, c: (baselines._ratio_method, k, c, "support", 0.5)),
    "msbl": (lambda p, d, k, c: baselines.run_msbl(p, d, k, c),
             lambda k, c: (baselines._msbl, k, c)),
    "music": (lambda p, d, k, c: baselines.music_doas(p, d, k),
              lambda k, c: (baselines._music, k)),
    "cwo": (lambda p, d, k, c: baselines.run_cwo(p, d, k, c), None),
    "somp": (_somp, None),
    "mle1": (_mle1, None),
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
    run, _ = _METHODS[spec.tag]
    config = SolverConfig(max_iter, peak=peak, known_sigma2=noise_var)
    return run(Problem.of(Y, dictionary, k), dictionary, k, config)


def solve_stack(
    spec: MethodSpec,
    problems,
    dictionary: Dictionary,
    k: int,
    peak: bool,
    noise_var: float,
    max_iter: int = SolverConfig.max_iter,
) -> None:
    """Solve ``problems``, a list of one or more Problems over ``dictionary``,
    as one stack of spec's method, and keep each row on its Problem for the
    next :func:`solve_trial` of it with the same arguments: the result it
    gets alone. Only cl-omp, cl-bcd, iaa, samv2, sbl, sbl1, msbl and music stack
    (see :meth:`~covlearn.clbcd.Problem.solve_together`).
    """
    stack = _METHODS[spec.tag][1]
    problems = [Problem.of(p, dictionary, k) for p in problems]
    if stack is not None:
        config = SolverConfig(max_iter, peak=peak, known_sigma2=noise_var)
        Problem.solve_together(problems, *stack(k, config))
