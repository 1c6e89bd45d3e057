"""Covariance-learning sparse recovery for jointly sparse (MMV) signals.

Library layout, one layer per module from the bottom up. A module imports
only the layers above it in this list, and only at module level (the CLI
also reads ``__version__`` from the package):

- :mod:`covlearn.model`: covariance model, likelihood, rank-one identities,
  and the ULA steering geometry (``steering_matrix``, ``ula_grid``)
- :mod:`covlearn.sparsity`: top-K element/peak selection
- :mod:`covlearn.clbcd`: the stacked power iteration of cl-bcd, IAA, SAMV2,
  SBL, M-SBL and CWO with every one of their update rules; the problem
  (snapshots, their validated sample covariance and its caches, and the rows
  a stacked solve kept for it), the support rule, config and result type
  shared by every solver
- :mod:`covlearn.clomp`: greedy conditional-likelihood pursuit
- :mod:`covlearn.baselines`: comparison methods (the IAA, SAMV2, SBL, M-SBL
  and CWO runners, SOMP, MUSIC, the single-source grid MLE)
- :mod:`covlearn.methods`: the method-tag registry
- :mod:`covlearn.scenario`: experiment synthesis, metrics, Monte-Carlo engine
- :mod:`covlearn.cli`: batch benchmark runner (``covlearn run ...``)

This module is the one list of public names.
"""

__version__ = "0.1.0"  # the one version string; pyproject.toml reads it

from .baselines import (
    mle_single_source,
    music_doas,
    run_cwo,
    run_iaa,
    run_msbl,
    run_samv2,
    run_sbl,
    somp,
)
from .clbcd import (
    Problem,
    SolverConfig,
    SolverResult,
    iaa_update,
    matched_filter_powers,
    msbl_update,
    ratio_update,
    relative_change,
    run_clbcd,
    samv2_noise_update,
)
from .clomp import conditional_gamma_star, run_clomp, sweep_errors
from .methods import MethodSpec, solve_stack, solve_trial
from .model import (
    CovarianceState,
    DegenerateDowndateError,
    Dictionary,
    InvalidDataError,
    NumericError,
    RankDeficientError,
    atom_forms,
    atom_quadratic_forms,
    build_covariance,
    grid_angles_deg,
    loo_quadratic_form,
    negative_llf,
    nll_gradient,
    noise_mle,
    provisional_mle,
    pseudo_inverse_apply,
    sample_covariance,
    steering_matrix,
    support_atom_forms,
    ula_grid,
)
from .scenario import (
    MetricsRecord,
    ScenarioConfig,
    doa_rmse,
    gaussian_dictionary,
    generate_snapshots,
    per_metric,
    power_nmse,
    run_monte_carlo,
)
from .sparsity import SupportSet, hard_threshold, peak_mask
