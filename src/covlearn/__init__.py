"""Covariance-learning sparse recovery for jointly sparse (MMV) signals.

Library layout:

- :mod:`covlearn.model`: covariance model, likelihood, rank-one identities
- :mod:`covlearn.sparsity`: top-K element/peak selection
- :mod:`covlearn.clbcd`: the stacked power iteration of cl-bcd, IAA, SAMV2,
  SBL, M-SBL and CWO; the problem (snapshots, their validated sample covariance
  and its caches, and the rows a stacked solve kept for it), the stacked
  iteration loop ``iterate``, config and result type shared by every solver
- :mod:`covlearn.clomp`: greedy conditional-likelihood pursuit
- :mod:`covlearn.baselines`: comparison methods (IAA, SAMV2, SBL, ...)
- :mod:`covlearn.scenario`: experiment synthesis, metrics, Monte-Carlo engine
- :mod:`covlearn.cli`: batch benchmark runner (``covlearn run ...``)
"""

__version__ = "0.1.0"  # the one version string; pyproject.toml reads it

from .baselines import (
    mle_single_source,
    msbl_update,
    music_doas,
    ratio_update,
    run_cwo,
    run_iaa,
    run_msbl,
    run_samv2,
    run_sbl,
    samv2_noise_update,
    somp,
)
from .clbcd import (
    ClBcdConfig,
    Problem,
    SolverConfig,
    SolverResult,
    iaa_update,
    matched_filter_powers,
    relative_change,
    run_clbcd,
)
from .clomp import conditional_gamma_star, run_clomp, sweep_errors
from .methods import MethodSpec, solve_stack, solve_trial
from .model import (
    CovarianceState,
    DegenerateDowndateError,
    Dictionary,
    NumericError,
    RankDeficientError,
    atom_forms,
    atom_quadratic_forms,
    build_covariance,
    loo_quadratic_form,
    negative_llf,
    nll_gradient,
    noise_mle,
    provisional_mle,
    pseudo_inverse_apply,
    sample_covariance,
    support_atom_forms,
)
from .scenario import (
    MetricsRecord,
    ScenarioConfig,
    doa_rmse,
    gaussian_dictionary,
    generate_snapshots,
    grid_angles_deg,
    per_metric,
    power_nmse,
    run_monte_carlo,
    steering_matrix,
    ula_grid,
)
from .sparsity import SupportSet, hard_threshold, peak_mask
