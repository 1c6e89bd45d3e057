"""Experiment generation, recovery metrics, and the seeded Monte-Carlo engine.

Two scenario kinds are supported: "gaussian-ssr" (unit-norm random complex
Gaussian dictionary, random K-row support per trial, first-source SNR
anchor) and "ula-doa" (half-wavelength uniform linear array, fixed true
directions that may lie off the steering grid, mean-SNR anchor).

Each trial owns an RNG derived from (master_seed, trial_index); the same
per-trial source/noise draws are reused across the SNR sweep with powers
rescaled, so sweeps are smooth and results do not depend on execution
order or thread count.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .clbcd import _COUNTED, Problem, SolverConfig
from .model import Dictionary

SCENARIO_KINDS = ("gaussian-ssr", "ula-doa")


# ---------------------------------------------------------------------------
# dictionaries and steering vectors
# ---------------------------------------------------------------------------


def steering_matrix(n_sensors: int, angles_deg) -> np.ndarray:
    """Half-wavelength ULA steering vectors exp(j pi n sin(theta)), one
    column per angle; every angle must lie in [-90, 90] degrees."""
    angles = np.atleast_1d(np.asarray(angles_deg, dtype=np.float64))
    if not np.all((angles >= -90.0) & (angles <= 90.0)):  # NaN fails too
        raise ValueError("angles outside [-90, 90] deg")
    n = np.arange(n_sensors)[:, None]
    return np.exp(1j * np.pi * n * np.sin(np.deg2rad(angles))[None, :])


def grid_angles_deg(n_points: int) -> np.ndarray:
    """Uniform angle grid over [-90, 90] deg (1801 points gives 0.1 deg steps)."""
    if n_points < 2:
        raise ValueError("grid needs at least two points")
    return np.linspace(-90.0, 90.0, n_points)


@functools.lru_cache(maxsize=8)
def ula_grid(n_sensors: int, n_points: int, /) -> Dictionary:
    """Steering-vector dictionary over the uniform angle grid.

    Built once per (n_sensors, n_points) and process: every call with the
    same pair returns the same shared object (the arguments are
    positional-only, so each pair has one memo key). A Dictionary is frozen
    and all its arrays are read-only, so sharing it across calls and
    threads is safe. The memo holds the eight most recently used grids.
    """
    return Dictionary(steering_matrix(n_sensors, grid_angles_deg(n_points)), norm_mode="array")


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """(X + 1j Y) / sqrt(2) for standard normal X, then Y, of the given shape.

    Both parts come from one draw, which consumes the stream as the two draws
    do. numpy divides a complex array by a real through the reciprocal, so the
    in-place product by 1/sqrt(2) gives the quotient's bits without its
    temporaries."""
    xy = rng.standard_normal((2, *shape))
    z = np.empty(shape, dtype=np.complex128)
    z.real = xy[0]
    z.imag = xy[1]
    z *= 1.0 / np.sqrt(2.0)
    return z


def gaussian_dictionary(n_sensors: int, n_atoms: int, seed) -> Dictionary:
    """Unit-norm i.i.d. circular complex Gaussian dictionary.

    seed is an int or a np.random.Generator, which the draw advances; a
    fixed seed reproduces the atoms bitwise.
    """
    atoms = _complex_gaussian(np.random.default_rng(seed), (n_sensors, n_atoms))
    return Dictionary(atoms / np.linalg.norm(atoms, axis=0), norm_mode="unit")


# ---------------------------------------------------------------------------
# snapshot synthesis
# ---------------------------------------------------------------------------


def _source_chol(powers: np.ndarray, rho: float) -> np.ndarray:
    """Cholesky factor of the (possibly correlated) source covariance, or
    one factor per row of a stack of powers (S, k) through one batched call."""
    powers = np.asarray(powers, dtype=np.float64)
    s = np.sqrt(powers)
    corr = np.full((powers.shape[-1],) * 2, float(rho))
    np.fill_diagonal(corr, 1.0)
    cov = s[..., :, None] * corr * s[..., None, :]
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("source covariance is not positive semidefinite") from exc


def _snapshots(source_atoms, chol, waveforms, noise, sigma2) -> np.ndarray:
    """Y = A_s (C W) + sqrt(sigma2) E from unit-power draws W (sources) and
    E (noise) and the Cholesky factor C of the source covariance."""
    return source_atoms @ (chol @ waveforms) + np.sqrt(sigma2) * noise


def generate_snapshots(source_atoms, powers, rho, sigma2, n_snapshots, seed) -> np.ndarray:
    """Draw Y = A_s X + E with correlated Gaussian sources and white noise.

    Parameters
    ----------
    source_atoms : ndarray, shape (n_sensors, n_sources)
        Exact response vectors of the true sources, one column each (for
        off-grid directions these are the exact steering vectors, not grid
        atoms).
    powers : sequence of float
        Per-source signal powers.
    rho : float
        Common correlation coefficient between distinct sources.
    sigma2 : float
        White-noise variance per sensor.
    n_snapshots : int
        Number of snapshot columns L.
    seed : int | np.random.Generator
        Seed (or generator) for the draw; a fixed seed reproduces Y bitwise.
    """
    atoms = np.asarray(source_atoms, dtype=np.complex128)
    if atoms.ndim != 2:
        raise ValueError("source_atoms must be an n_sensors x n_sources matrix")
    if n_snapshots < 1:
        raise ValueError("need at least one snapshot")
    if not sigma2 >= 0:
        raise ValueError("noise variance must be nonnegative")
    rng = np.random.default_rng(seed)  # a Generator is returned as it is
    chol = _source_chol(powers, rho)
    waveforms = _complex_gaussian(rng, (atoms.shape[1], n_snapshots))
    noise = _complex_gaussian(rng, (atoms.shape[0], n_snapshots))
    return _snapshots(atoms, chol, waveforms, noise, sigma2)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one Monte-Carlo experiment.

    snr_db anchors the first source directly in "gaussian-ssr" mode and
    the per-source dB average in "ula-doa" mode; source_offsets_db holds
    the per-source levels relative to the first source. true_doas_deg is
    required for "ula-doa" and rejected for "gaussian-ssr", whose supports
    are drawn per trial. The support rule is not a field: every method reads
    it off the dictionary, so "ula-doa" runs, on the steering grid, report
    K largest peaks and "gaussian-ssr" runs K largest entries. max_iter caps
    every iterative method of the run and must pass
    :class:`~covlearn.clbcd.SolverConfig`'s check.
    """

    kind: str
    n_sensors: int
    n_atoms: int
    n_snapshots: int
    k: int
    snr_db: tuple
    source_offsets_db: tuple | None = None
    rho: float = 0.0
    noise_var: float = 1.0
    true_doas_deg: tuple | None = None
    seed: int = 0
    trials: int = 100
    max_iter: int = SolverConfig.max_iter

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"kind must be one of {SCENARIO_KINDS}")
        if not 1 <= self.k < self.n_sensors:
            raise ValueError(f"k={self.k} must satisfy 1 <= k < n_sensors={self.n_sensors}")
        if self.n_sensors > self.n_atoms:
            raise ValueError(f"n_sensors={self.n_sensors} must not exceed n_atoms={self.n_atoms}")
        if self.n_snapshots < 1:
            raise ValueError("n_snapshots must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0 < self.noise_var < np.inf:
            raise ValueError(f"noise_var={self.noise_var} must be positive and finite")
        SolverConfig(self.max_iter)
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} must be at least 0")
        if not abs(self.rho) < 1:
            raise ValueError("|rho| must be below 1")
        if not 1 + (self.k - 1) * self.rho > 0:  # the equicorrelated source covariance is PD
            raise ValueError(f"rho={self.rho} must exceed -1/(k-1) for k={self.k} sources")
        snr = tuple(float(s) for s in self.snr_db)
        if not snr or not all(map(math.isfinite, snr)):
            raise ValueError("snr_db must be a non-empty list of finite values")
        repeated = sorted({s for s in snr if snr.count(s) > 1})
        if repeated:  # the records are reported by (method, snr_db)
            raise ValueError(f"snr_db values repeated: {', '.join(map(str, repeated))}")
        object.__setattr__(self, "snr_db", snr)
        offsets = self.source_offsets_db
        offsets = (0.0,) * self.k if offsets is None else tuple(float(o) for o in offsets)
        if len(offsets) != self.k:
            raise ValueError(f"source_offsets_db must have k={self.k} entries")
        if not all(map(math.isfinite, offsets)):
            raise ValueError(f"source_offsets_db={offsets} must be finite")
        object.__setattr__(self, "source_offsets_db", offsets)
        with np.errstate(over="ignore"):  # an overflow is reported below, by key
            powers = [self.source_powers(snr_db) for snr_db in snr]
        for snr_db, p in zip(snr, powers):
            if not (p.min() > 0.0 and p.max() < np.inf):
                raise ValueError(
                    f"snr_db={snr_db} gives source powers {p.tolist()}; "
                    "they must be positive and finite"
                )
        try:  # the draw factors the source covariance at every SNR
            _source_chol(powers, self.rho)
        except ValueError as exc:
            raise ValueError(
                f"rho={self.rho} leaves the source covariance of k={self.k} sources "
                "without a Cholesky factor"
            ) from exc
        if self.kind == "ula-doa":
            if self.true_doas_deg is None:
                raise ValueError("ula-doa scenarios require true_doas_deg")
            doas = tuple(float(t) for t in self.true_doas_deg)
            if len(doas) != self.k:
                raise ValueError(f"true_doas_deg must have k={self.k} entries")
            if any(not -90.0 <= t < 90.0 for t in doas):
                raise ValueError(
                    "true DOAs must lie in [-90, 90) deg; +90 deg has -90 deg's steering vector"
                )
            object.__setattr__(self, "true_doas_deg", doas)
        elif self.true_doas_deg is not None:
            raise ValueError("true_doas_deg applies only to ula-doa scenarios")

    def source_powers(self, snr_db: float) -> np.ndarray:
        """Per-source powers for one SNR point, in config source order."""
        offsets = np.asarray(self.source_offsets_db)
        if self.kind == "gaussian-ssr":
            first_db = snr_db  # first-source anchor
        else:
            first_db = snr_db - offsets.mean()  # mean-of-dB anchor
        return self.noise_var * 10.0 ** ((first_db + offsets) / 10.0)


@dataclass(frozen=True)
class MetricsRecord:
    """Aggregated metrics for one (method, SNR) cell."""

    method: str
    snr_db: float
    trials: int
    per: float | None = None
    rmse_theta_deg: float | None = None
    nmse_gamma: float | None = None
    mean_iters: float | None = None
    mean_runtime_s: float | None = None
    failures: int = 0

    def __post_init__(self):
        for name in ("per", "rmse_theta_deg", "nmse_gamma", "mean_iters", "mean_runtime_s"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise ValueError(f"{name} must be finite when present")
        if self.per is not None and not 0.0 <= self.per <= 1.0:
            raise ValueError("per must lie in [0, 1]")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def per_metric(est_supports, true_supports) -> float:
    """Fraction of trials whose estimated support equals the true one as a set."""
    est = list(est_supports)
    true = list(true_supports)
    if len(est) != len(true) or not est:
        raise ValueError("need matching, non-empty per-trial support lists")
    hits = sum(frozenset(e) == frozenset(t) for e, t in zip(est, true))
    return hits / len(est)


def _norm2(x: np.ndarray) -> float:
    """||x||^2 of a 1-D array: np.sum's pairwise sum of x**2, without its wrapper."""
    return float(np.add.reduce(x * x))


def _sq_error(est: np.ndarray, true: np.ndarray) -> float:
    """Squared Euclidean error ||est - true||^2 of one trial."""
    return _norm2(est - true)


def _power_ratio2(est: np.ndarray, true: np.ndarray, power2: float) -> float:
    """Normalized squared power error ||est - true||^2 / ||true||^2 of one
    trial, given power2 = ||true||^2."""
    return _sq_error(est, true) / power2


def _mean(values) -> float:
    """np.mean of a non-empty list of numbers, bit for bit: the same pairwise
    sum over the same float64 array, divided by the count."""
    return float(np.add.reduce(np.array(values, dtype=np.float64))) / len(values)


def _rms(values) -> float:
    """Root of the mean of per-trial squared errors."""
    return math.sqrt(_mean(values))


def doa_rmse(est_angles, true_angles) -> float:
    """Root-mean-square, across trials, of ||sort(theta_hat) - sort(theta)||_2.

    per-trial errors are Euclidean norms over the K sources (no 1/K
    normalization); estimates and truths are matched by ascending angle.
    true_angles holds one angle list per trial, paired with est_angles trial
    by trial; a different trial count raises ValueError.
    """
    errors2 = []
    for est, true in zip(est_angles, true_angles, strict=True):
        e = np.sort(np.asarray(est, dtype=np.float64))
        t = np.sort(np.asarray(true, dtype=np.float64))
        if e.shape != t.shape:
            raise ValueError("estimated and true angle counts differ")
        errors2.append(_sq_error(e, t))
    if not errors2:
        raise ValueError("no trials supplied")
    return _rms(errors2)


def power_nmse(est_powers, true_powers) -> float:
    """Root NMSE sqrt(mean_t ||p_hat - p||^2 / ||p||^2) over trials, one
    true power list per trial (a different trial count raises ValueError)."""
    ratios2 = []
    for est, true in zip(est_powers, true_powers, strict=True):
        e = np.asarray(est, dtype=np.float64)
        t = np.asarray(true, dtype=np.float64)
        if e.shape != t.shape:
            raise ValueError("estimated and true power counts differ")
        if not t.any():
            raise ValueError("true powers must not all be zero")
        ratios2.append(_power_ratio2(e, t, _norm2(t)))
    if not ratios2:
        raise ValueError("no trials supplied")
    return _rms(ratios2)


# ---------------------------------------------------------------------------
# Monte-Carlo engine: draw, solve and aggregate, module-level stages that pickle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Truth:
    """What one (trial, SNR) cell is scored against: the support a method
    should report (the drawn one, or the grid points nearest the true
    directions), the true directions in ascending order ("ula-doa" only),
    and the source powers in that order, or else gamma over the dictionary.
    power2 is ||powers||^2, the denominator of every power NMSE of the cell.
    """

    support: frozenset
    powers: np.ndarray
    theta_deg: np.ndarray | None = None
    power2: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "power2", _norm2(self.powers))


@dataclass(frozen=True)
class _TrialCell:
    """Per (trial, method, snr) outcome summary; runtime_s is the CPU time
    of the solve."""

    ok: bool
    per_hit: bool | None = None
    theta_err2: float | None = None
    nmse_ratio2: float | None = None
    iterations: int | None = None
    runtime_s: float | None = None


_FAILED = _TrialCell(ok=False)


@dataclass(frozen=True)
class _ChunkConstants:
    """What every trial of a run shares, per SNR in snr_db order: the source
    powers and the Cholesky factors of their covariance, stacked (S, k, k).
    On "ula-doa" also the steering grid, the true steering atoms, the grid
    angles and the cells' truths, which no draw changes, so every trial of
    a chunk draws over one grid object; on "gaussian-ssr" those four are
    None: each trial draws its own dictionary, and its truths follow its
    drawn support.
    """

    powers: tuple
    chols: np.ndarray
    grid: Dictionary | None = None
    src_atoms: np.ndarray | None = None
    grid_deg: np.ndarray | None = None
    truths: tuple | None = None


def _chunk_constants(config: ScenarioConfig) -> _ChunkConstants:
    """The :class:`_ChunkConstants` of ``config``, computed once per chunk of trials."""
    powers = tuple(config.source_powers(snr) for snr in config.snr_db)
    chols = _source_chol(powers, config.rho)
    if config.kind == "gaussian-ssr":
        return _ChunkConstants(powers, chols)
    doas = config.true_doas_deg
    grid_deg = grid_angles_deg(config.n_atoms)
    order = np.argsort(doas)
    theta = np.asarray(doas)[order]
    support = frozenset(int(np.argmin(np.abs(grid_deg - th))) for th in doas)
    truths = tuple(_Truth(support, p[order], theta) for p in powers)
    return _ChunkConstants(powers, chols, ula_grid(config.n_sensors, config.n_atoms),
                           steering_matrix(config.n_sensors, doas), grid_deg, truths)


def _draw_trial(config: ScenarioConfig, constants: _ChunkConstants, t: int):
    """The dictionary of trial t and one (Y, truth) per SNR, in snr_db order.

    The (config.seed, t) generator draws the dictionary and the support
    ("gaussian-ssr" only; on "ula-doa" the dictionary is ``constants.grid``),
    then the unit-power source waveforms and the noise, which every SNR's
    Cholesky factor in ``constants`` rescales, so a sweep is smooth in the SNR.
    """
    n, m, k, L = config.n_sensors, config.n_atoms, config.k, config.n_snapshots
    rng = np.random.default_rng((config.seed, t))
    if config.kind == "gaussian-ssr":
        dictionary = gaussian_dictionary(n, m, rng)
        support = rng.choice(m, size=k, replace=False)  # draw order = source order
        src_atoms = dictionary.atoms[:, support]
        true_support = frozenset(support.tolist())
        truths = []
        for powers in constants.powers:
            gamma = np.zeros(m)
            gamma[support] = powers
            truths.append(_Truth(true_support, gamma))
    else:
        dictionary = constants.grid
        src_atoms = constants.src_atoms
        truths = constants.truths
    waveforms = _complex_gaussian(rng, (k, L))
    noise = _complex_gaussian(rng, (n, L))
    return dictionary, [
        (_snapshots(src_atoms, chol, waveforms, noise, config.noise_var), truth)
        for chol, truth in zip(constants.chols, truths)
    ]


def _score(outcome, truth: _Truth, grid_deg, runtime_s) -> _TrialCell:
    """Reduce one solver outcome, which took runtime_s of CPU time, to its
    cell: scalar per-trial metric contributions and the runtime. A support
    is scored by the angles grid_deg of its atoms ("ula-doa")."""
    support = outcome.support
    per_hit = None if support is None else support.as_set() == truth.support
    theta_err2 = nmse_ratio2 = theta_hat = powers_hat = None
    if truth.theta_deg is None:
        if support is not None and outcome.gamma is not None:
            gamma_hat = np.zeros_like(truth.powers)
            idx = list(support.indices)
            gamma_hat[idx] = outcome.gamma[idx]
            nmse_ratio2 = _power_ratio2(gamma_hat, truth.powers, truth.power2)
    elif outcome.theta_deg is not None:
        theta_hat = np.sort(np.asarray(outcome.theta_deg, dtype=np.float64))
        if outcome.powers is not None:
            powers_hat = np.asarray(outcome.powers, dtype=np.float64)
    elif support is not None:
        idx = sorted(support.indices)
        theta_hat = grid_deg[idx]  # ascending index == ascending angle
        if outcome.gamma is not None:
            powers_hat = outcome.gamma[idx]
    if theta_hat is not None and theta_hat.size == truth.theta_deg.size:
        theta_err2 = _sq_error(theta_hat, truth.theta_deg)
        if powers_hat is not None:
            nmse_ratio2 = _power_ratio2(powers_hat, truth.powers, truth.power2)
    return _TrialCell(True, per_hit, theta_err2, nmse_ratio2, outcome.iterations, runtime_s)


# Rows of a stacked solve on a shared steering grid. At N=20, M=1801 a
# stacked IAA step measured 174 µs per row at 1 row, 118 at 3, 78 at 12 and
# 135 at 120, where the Toeplitz gather becomes memory-bound.
_STACK_ROWS = 12


def _solve_chunk(config: ScenarioConfig, specs: tuple, trials) -> list:
    """The cells {(method index, SNR index): _TrialCell} of each trial of
    ``trials``, in that order.

    Every trial is drawn over the chunk's one dictionary, and every valid
    Problem of the chunk is built first, each with its per-atom forms and
    matched filter outside every method's clock. Each method then solves
    all of them as one stack (:func:`~covlearn.methods.solve_stack`), whose
    thread time is booked evenly across the Problems, and scores its cells,
    each solve reading its row. Snapshots that give no valid Problem fail
    every method of their cell, and a chunk with no valid Problem solves no
    stack; a solve that raises a counted exception fails its cell. A second
    dictionary in a chunk is a programming error: solve_stack's ValueError
    propagates.
    """
    # looked up per call, so a patched module attribute runs
    from .methods import solve_stack, solve_trial

    constants = _chunk_constants(config)
    cells_by_trial, cases = [], []  # cases: (cells, SNR index, Problem, truth) of each valid cell
    for t in trials:
        dictionary, draws = _draw_trial(config, constants, t)
        cells = {}
        for si, (Y, truth) in enumerate(draws):
            try:
                problem = Problem(Y, dictionary)
                problem.matched_filter  # with the forms, outside every clock
            except _COUNTED:
                cells.update(((mi, si), _FAILED) for mi in range(len(specs)))
                continue
            cases.append((cells, si, problem, truth))
        cells_by_trial.append(cells)
    problems = [problem for _, _, problem, _ in cases]
    run = {"noise_var": config.noise_var, "max_iter": config.max_iter}
    for mi, spec in enumerate(specs if problems else ()):
        # CPU time of this thread: wall time in a pool thread would also
        # count the other workers it waits behind
        t0 = time.thread_time()
        solve_stack(spec, problems, dictionary, config.k, **run)
        share = (time.thread_time() - t0) / len(problems)
        for cells, si, problem, truth in cases:
            t0 = time.thread_time()
            try:
                outcome = solve_trial(spec, problem, dictionary, config.k, **run)
            except _COUNTED:
                cells[(mi, si)] = _FAILED
                continue
            runtime_s = share + (time.thread_time() - t0)
            cells[(mi, si)] = _score(outcome, truth, constants.grid_deg, runtime_s)
    return cells_by_trial


def _aggregate(config: ScenarioConfig, specs: tuple, cells_by_trial) -> list:
    """One MetricsRecord per (method, SNR), in that nesting order, from
    every trial's cells in trial order."""
    records = []
    for mi, spec in enumerate(specs):
        for si, snr in enumerate(config.snr_db):
            good = [c for c in (cells[(mi, si)] for cells in cells_by_trial) if c.ok]
            hits = [c.per_hit for c in good if c.per_hit is not None]
            errs2 = [c.theta_err2 for c in good if c.theta_err2 is not None]
            ratios2 = [c.nmse_ratio2 for c in good if c.nmse_ratio2 is not None]
            records.append(
                MetricsRecord(
                    method=spec.tag,
                    snr_db=snr,
                    trials=len(good),
                    per=(sum(hits) / len(hits)) if hits else None,
                    rmse_theta_deg=_rms(errs2) if errs2 else None,
                    nmse_gamma=_rms(ratios2) if ratios2 else None,
                    mean_iters=_mean([c.iterations for c in good]) if good else None,
                    mean_runtime_s=_mean([c.runtime_s for c in good]) if good else None,
                    failures=len(cells_by_trial) - len(good),
                )
            )
    return records


def run_monte_carlo(config: ScenarioConfig, methods, threads: int = 1):
    """Run every requested method on identical per-trial data; aggregate metrics.

    ``methods`` is a sequence of tags or MethodSpec objects, and the run
    specifies every solve (see :func:`covlearn.methods.solve_trial`): each
    iterative method stops at ``config.max_iter``, and msbl and cwo take
    ``config.noise_var`` as their known noise variance. Returns one
    MetricsRecord per (method, snr_db), in that nesting order. Results are
    independent of ``threads``, which must be at least 1. Each (trial, SNR) builds one :class:`~covlearn.clbcd.Problem`
    from its snapshots, which
    every method solves; building it, with its per-atom forms and matched
    filter, is not part of any method's runtime. The trials run in chunks of
    consecutive trials, whose size never depends on ``threads``: on
    "ula-doa", whose trials share one steering grid, max(1, 12 // len(snr_db))
    trials; on "gaussian-ssr", whose trials each draw their own dictionary,
    one trial. Each method solves a chunk's Problems, which share one
    dictionary, as one stack, and each cell's runtime carries an even share
    of its stack.
    A solve that raises a numerical or data error (NumericError, LinAlgError
    or InvalidDataError) is counted as a failure of its cell, and a Problem that
    cannot be built (non-finite snapshots, no energy) as one failure of
    every method; any other exception is a programming error and propagates.
    A method that cannot solve the scenario (see
    :func:`covlearn.methods.check_methods`) raises ValueError before any trial.
    """
    from .methods import check_methods, resolve_methods

    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    specs = resolve_methods(methods)
    check_methods(specs, config.kind, config.k)
    size = max(1, _STACK_ROWS // len(config.snr_db)) if config.kind == "ula-doa" else 1
    chunks = [range(t, min(t + size, config.trials)) for t in range(0, config.trials, size)]
    solve = functools.partial(_solve_chunk, config, specs)
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # its import costs a small run's time

        with ThreadPoolExecutor(max_workers=threads) as pool:
            cells_by_chunk = list(pool.map(solve, chunks))
    else:
        cells_by_chunk = list(map(solve, chunks))
    return _aggregate(config, specs, [cells for chunk in cells_by_chunk for cells in chunk])
