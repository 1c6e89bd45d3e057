"""One defined outcome per edge input, through the methods layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covlearn import (
    MethodSpec,
    ScenarioConfig,
    gaussian_dictionary,
    run_monte_carlo,
    scenario,
    solve_trial,
    ula_grid,
)
from covlearn.methods import METHOD_TAGS

# Every method that reports a support on the dictionary's atoms.
GRID_TAGS = ("cl-bcd", "cl-omp", "iaa", "samv2", "sbl", "sbl1", "msbl", "cwo", "somp", "music")

# The exceptions the Monte-Carlo engine counts as a failed trial.
COUNTED = (ArithmeticError, np.linalg.LinAlgError, ValueError)


@st.composite
def fewer_snapshots_than_sensors(draw):
    """(Y, dictionary, k, peak) with L < N, on a steering grid or a Gaussian dictionary."""
    n = draw(st.integers(2, 8))
    snapshots = draw(st.integers(1, n - 1))
    k = draw(st.integers(1, n - 1))
    m = draw(st.integers(max(n, k), 40))
    seed = draw(st.integers(0, 2**16))
    grid = draw(st.booleans())
    d = ula_grid(n, m) if grid else gaussian_dictionary(n, m, seed)
    rng = np.random.default_rng(seed)
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    Y = scale * (rng.standard_normal((n, snapshots)) + 1j * rng.standard_normal((n, snapshots)))
    return Y, d, k, grid


@settings(max_examples=60, deadline=None)
@given(problem=fewer_snapshots_than_sensors(), tag=st.sampled_from(GRID_TAGS))
def test_singular_sample_covariance_has_one_outcome(problem, tag):
    """L < N makes Shat singular: each method either returns an estimate
    with a positive finite noise variance and nonnegative powers, or raises
    one of the exceptions the engine counts as a failure."""
    Y, d, k, peak = problem
    try:
        res = solve_trial(MethodSpec(tag, max_iter=40), Y, d, k, peak, noise_var=1.0)
    except COUNTED:
        return
    assert np.isfinite(res.sigma2) and res.sigma2 > 0
    if res.gamma is not None:
        assert np.all(np.isfinite(res.gamma)) and res.gamma.min() >= 0
    assert len(res.support.indices) == k


NON_FINITE = (np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(np.nan, 1.0))


@settings(max_examples=40, deadline=None)
@given(
    tag=st.sampled_from(METHOD_TAGS),
    bad=st.sampled_from(NON_FINITE),
    where=st.integers(0, 2**16),
)
def test_non_finite_snapshots_fail_every_method(tag, bad, where):
    """NaN or inf in Y: solve_trial raises ValueError, and the Monte-Carlo
    engine counts one failure per method in every cell of the trial."""
    d = ula_grid(6, 91)
    Y = np.random.default_rng(where).standard_normal((6, 10)).astype(complex)
    Y.flat[where % Y.size] = bad
    with pytest.raises(ValueError, match="finite"):
        solve_trial(MethodSpec(tag), Y, d, 1, True, noise_var=1.0)

    draw = scenario._complex_gaussian

    def poisoned(rng, shape):
        z = draw(rng, shape)
        if shape[0] == 6:  # the noise; the waveforms are (k, L)
            z.flat[where % z.size] = bad
        return z

    cfg = ScenarioConfig("ula-doa", 6, 91, 10, 1, (0.0, 10.0), true_doas_deg=(12.0,), trials=2)
    with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore"):
        mp.setattr(scenario, "_complex_gaussian", poisoned)
        records = run_monte_carlo(cfg, [tag, "music" if tag == "cl-omp" else "cl-omp"])
    assert [(r.trials, r.failures) for r in records] == [(0, 2)] * 4
