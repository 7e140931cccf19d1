"""bmoforge: exact and Monte Carlo verification lab for bounded mean
oscillation bounds on stochastic processes.

Exact side: finite filtered spaces, the two-convention oscillation modulus
computed by Snell sweeps over stop atoms, variation controls, and inequality
checkers that report machine-verifiable witnesses. Monte Carlo side:
counter-based Brownian ensembles, nested conditional-moment estimators, the
tamed explicit Euler scheme, quadrature-error and shift-averaging
functionals, and rate fits with acceptance bands.

The package namespace re-exports only what the CLI kinds and the acceptance
criteria use; everything else is imported from its module.
"""

__version__ = "0.1.0"

from .bounds import PartitionTooCoarseError
from .checks import (
    CheckReport,
    control_domination_check,
    energy_check,
    exp_vmoa_check,
    garsia_check,
    jn_moment_check,
    jump_kappa_check,
    khasminskii_check,
    maximal_check,
    monotonicity_check,
    pathwise_increment_check,
    reports_to_jsonl,
    stopping_pair_bound_check,
    summarize_reports,
    superadditivity_check,
    triangle_check,
    write_summary_csv,
)
from .config import ExperimentConfig, config_hash
from .controls import variation_control
from .ensemble import PathEnsemble
from .estimators import (
    empirical_rho_grid,
    holder_exponent_fit,
    loglog_fit,
    markov_conditional_moment,
    pooled_slope,
    scalar_field_registry,
)
from .experiments import run_experiment
from .oscillation import oscillation_grid
from .processes import random_nondecreasing_process, random_process, random_space
from .rng import PURPOSE_MODEL, philox_stream
from .schemes import (
    davie_functional,
    davie_moments,
    quadrature_error,
    quadrature_modulus_proxy,
    strong_error,
)
from .sde import SdeModel, TamingPolicy, ellipticity_check

__all__ = [
    "__version__",
    "PartitionTooCoarseError",
    "CheckReport",
    "control_domination_check",
    "energy_check",
    "exp_vmoa_check",
    "garsia_check",
    "jn_moment_check",
    "jump_kappa_check",
    "khasminskii_check",
    "maximal_check",
    "monotonicity_check",
    "pathwise_increment_check",
    "reports_to_jsonl",
    "stopping_pair_bound_check",
    "summarize_reports",
    "superadditivity_check",
    "triangle_check",
    "write_summary_csv",
    "ExperimentConfig",
    "config_hash",
    "variation_control",
    "PathEnsemble",
    "empirical_rho_grid",
    "holder_exponent_fit",
    "loglog_fit",
    "markov_conditional_moment",
    "pooled_slope",
    "scalar_field_registry",
    "run_experiment",
    "oscillation_grid",
    "random_nondecreasing_process",
    "random_process",
    "random_space",
    "PURPOSE_MODEL",
    "philox_stream",
    "davie_functional",
    "davie_moments",
    "quadrature_error",
    "quadrature_modulus_proxy",
    "strong_error",
    "SdeModel",
    "TamingPolicy",
    "ellipticity_check",
]
