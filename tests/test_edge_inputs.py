"""One defined outcome per edge input, through the methods layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covlearn import (
    Dictionary,
    MethodSpec,
    NumericError,
    ScenarioConfig,
    gaussian_dictionary,
    run_monte_carlo,
    scenario,
    solve_trial,
    steering_matrix,
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
        res = solve_trial(MethodSpec(tag), Y, d, k, peak, noise_var=1.0, max_iter=40)
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


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 64), m=st.integers(2, 91))
def test_plus_and_minus_90_deg_are_one_steering_vector(n, m):
    """sin(+-90 deg) = +-1 puts both ends of the angle range on one atom, so
    the grid's first and last atoms coincide."""
    np.testing.assert_allclose(steering_matrix(n, [90.0]), steering_matrix(n, [-90.0]),
                               rtol=0, atol=1e-12)
    atoms = ula_grid(n, m).atoms
    np.testing.assert_allclose(atoms[:, -1], atoms[:, 0], rtol=0, atol=1e-12)


def test_a_true_doa_at_plus_90_deg_is_rejected_as_minus_90():
    ScenarioConfig("ula-doa", 6, 91, 10, 1, (0.0,), true_doas_deg=(-90.0,))
    with pytest.raises(ValueError, match="-90 deg's steering vector"):
        ScenarioConfig("ula-doa", 6, 91, 10, 1, (0.0,), true_doas_deg=(90.0,))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 8),
    more_atoms=st.integers(0, 53),
    snapshots=st.integers(1, 12),
    snr_db=st.floats(-10.0, 20.0),
    seed=st.integers(0, 2**16),
)
def test_a_source_at_minus_90_deg_has_one_outcome(n, more_atoms, snapshots, snr_db, seed):
    """A source on the grid's end atom: every method returns an estimate or
    a failure the engine counts, never another exception."""
    cfg = ScenarioConfig("ula-doa", n, n + more_atoms, snapshots, 1, (snr_db,),
                         true_doas_deg=(-90.0,), seed=seed, trials=1, max_iter=40)
    records = run_monte_carlo(cfg, METHOD_TAGS)
    assert [r.trials + r.failures for r in records] == [1] * len(METHOD_TAGS)


def _duplicated_atom_case(seed, source_deg, snr_db):
    """(Y, dictionary): 6 sensors, 6 steering atoms whose first two coincide
    and carry the source (noise only when snr_db is None)."""
    rng = np.random.default_rng(seed)
    a = steering_matrix(6, [source_deg])
    d = Dictionary(np.hstack([a, a, steering_matrix(6, [-60.0, -30.0, 45.0, 70.0])]))
    Y = (rng.standard_normal((6, 30)) + 1j * rng.standard_normal((6, 30))) / np.sqrt(2)
    if snr_db is not None:
        X = (rng.standard_normal((1, 30)) + 1j * rng.standard_normal((1, 30))) / np.sqrt(2)
        Y = Y + 10.0 ** (snr_db / 20.0) * a @ X
    return Y, d


@settings(max_examples=40, deadline=None)
@given(
    tag=st.sampled_from(METHOD_TAGS),
    seed=st.integers(0, 2**16),
    source_deg=st.floats(-80.0, 80.0),
    snr_db=st.none() | st.floats(-10.0, 25.0),
    k=st.integers(1, 2),
    peak=st.booleans(),
)
def test_a_duplicated_atom_has_one_outcome(tag, seed, source_deg, snr_db, k, peak):
    """Two coinciding atoms among N = M = 6: each method returns an estimate
    or raises one of the exceptions the engine counts as a failure."""
    Y, d = _duplicated_atom_case(seed, source_deg, snr_db)
    try:
        solve_trial(MethodSpec(tag), Y, d, 1 if tag == "mle1" else k, peak, noise_var=1.0,
                    max_iter=40)
    except COUNTED:
        pass


def test_iaa_fails_on_a_duplicated_atom_by_its_fixed_loading():
    # the 1e-12 tr(Shat)/N loading leaves a^H Theta a of an atom at 0
    Y, d = _duplicated_atom_case(0, 20.0, 6.0)
    with pytest.raises(NumericError, match="must be positive"):
        solve_trial(MethodSpec("iaa"), Y, d, 2, False, noise_var=1.0)
