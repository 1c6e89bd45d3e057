"""Registry mapping method tags to solver adapters with a uniform outcome.

The Monte-Carlo engine and the CLI dispatch through this table so every
method sees identical data and reports comparable telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import baselines
from .clbcd import Problem, SolverConfig, SolverResult, run_clbcd
from .clomp import run_clomp
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


def _iterative_runners() -> dict:
    """The runner of each iterative tag, looked up per call, so a patched
    module attribute is the one that runs."""
    return {
        "cl-bcd": run_clbcd,
        "iaa": baselines.run_iaa,
        "samv2": baselines.run_samv2,
        "sbl": baselines.run_sbl,
        "sbl1": partial(baselines.run_sbl, b=0.5),
        "msbl": baselines.run_msbl,
        "cwo": baselines.run_cwo,
    }


# The methods that iterate, the only ones that read MethodSpec.max_iter.
ITERATIVE_TAGS = tuple(_iterative_runners())


@dataclass(frozen=True)
class MethodSpec:
    """A method tag and the iteration cap its solver runs at.

    max_iter defaults to and passes the check of :class:`SolverConfig` at
    construction, so a cap every solve would reject fails before any
    trial. The tolerance is :class:`SolverConfig`'s, the support rule
    follows the scenario and msbl/cwo get the scenario's noise variance
    (see :func:`solve_trial`); none of them is set per method.
    """

    tag: str
    max_iter: int = SolverConfig.max_iter

    def __post_init__(self):
        if self.tag not in METHOD_TAGS:
            raise ValueError(
                f"unknown method tag {self.tag!r}; supported: {', '.join(METHOD_TAGS)}"
            )
        SolverConfig(self.max_iter)


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


def solve_trial(
    spec: MethodSpec,
    Y: np.ndarray,
    dictionary: Dictionary,
    k: int,
    peak: bool,
    noise_var: float,
) -> SolverResult:
    """Run one method on one batch of snapshots.

    Y is an N x L snapshot matrix or a :class:`~covlearn.clbcd.Problem` over
    ``dictionary``; the Monte-Carlo engine passes one Problem to every method
    of a cell, so the sample covariance and what is cached on it are formed
    once. The iterative methods run at ``spec``'s iteration cap with
    :class:`SolverConfig`'s tolerance, the scenario's support rule ``peak``
    and, for msbl and cwo, the scenario's noise variance ``noise_var``.
    """
    tag = spec.tag
    problem = Problem.of(Y, dictionary, k)

    runner = _iterative_runners().get(tag)
    if runner is not None:
        config = SolverConfig(spec.max_iter, peak=peak, known_sigma2=noise_var)
        return runner(problem, dictionary, k, config)

    if tag == "cl-omp":
        return run_clomp(problem, dictionary, k)

    if tag == "somp":
        support = baselines.somp(problem, dictionary, k)
        sub = dictionary.take(support.indices)
        # one factor of the final support serves the row refit and the noise refit
        Q, R = _qr_full_rank(sub)
        rows = np.linalg.solve(R, Q.conj().T @ problem.Y)
        gamma = np.zeros(dictionary.n_atoms)
        gamma[list(support.indices)] = np.mean(np.abs(rows) ** 2, axis=1)
        sigma2 = noise_mle(problem.scm, sub, dictionary.n_sensors, factor=(Q, R))
        return SolverResult(support, gamma, sigma2, iterations=k, converged=True)

    if tag == "music":
        return baselines.music_doas(problem, dictionary, k)

    if tag == "mle1":
        if k != 1:
            raise ValueError("mle1 handles exactly one source")
        scm = problem.scm
        theta = baselines.mle_single_source(scm, FINE_GRID_POINTS)
        atom = steering_matrix(dictionary.n_sensors, [theta])
        gamma_src, sigma2 = provisional_mle(scm, atom, dictionary.n_sensors)
        return SolverResult(
            support=None,
            gamma=None,
            sigma2=sigma2,
            iterations=1,
            converged=True,
            theta_deg=(theta,),
            powers=gamma_src,
        )

    raise ValueError(f"unknown method tag {tag!r}")  # pragma: no cover - MethodSpec validates
