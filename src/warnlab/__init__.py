"""Covariance scaling diagnostics for stochastic linear systems near bifurcation.

The package answers one question in several ways: as a control parameter p
approaches the value p* where the drift loses stability, how does the
stationary covariance of the linearized stochastic dynamics grow? Closed
forms, ensemble simulation, and Weyl-vector probes of continuous spectrum
each give an independent route to the scaling exponent.
"""

from .errors import ConfigError, NumericalError, WarnlabError
from .spectrum import (
    DEFAULT_HALF_WIDTH,
    DEFAULT_SPACING,
    EigenvalueCurve,
    MultiplicationSymbolModel,
    SpectralModel,
    WeylVector,
    bifurcation_parameter,
    build_weyl_sequence,
    curve_continuity_violations,
    resolvent_bound_check,
    spectral_abscissa,
    weyl_defect,
)
from .lyapunov import (
    XiEstimate,
    assemble_drift_matrix,
    finite_lyapunov_solve,
    jordan_stationary_covariance,
    model_covariance,
    noise_limit_xi,
    stationary_covariance_entry,
    unit_gaussian_profile,
)
from .sde import (
    EmpiricalCovariance,
    EnsembleConfig,
    simulate_ensemble,
    splitmix64,
)
from .scaling import (
    QuantitySpec,
    ScalingFit,
    SweepResult,
    WarningSignVerdict,
    classify_warning_sign,
    fit_power_law,
    fit_quantity,
    make_p_grid,
    parse_quantity,
    run_parameter_sweep,
    select_window,
    weyl_divergence_probe,
    write_sweep_csv,
)
from .config import ExperimentConfig, SweepSettings, load_config, resolve_config

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DEFAULT_HALF_WIDTH",
    "DEFAULT_SPACING",
    "EigenvalueCurve",
    "EmpiricalCovariance",
    "EnsembleConfig",
    "ExperimentConfig",
    "MultiplicationSymbolModel",
    "NumericalError",
    "QuantitySpec",
    "ScalingFit",
    "SpectralModel",
    "SweepResult",
    "SweepSettings",
    "WarnlabError",
    "WarningSignVerdict",
    "WeylVector",
    "XiEstimate",
    "assemble_drift_matrix",
    "bifurcation_parameter",
    "build_weyl_sequence",
    "classify_warning_sign",
    "curve_continuity_violations",
    "finite_lyapunov_solve",
    "fit_power_law",
    "fit_quantity",
    "jordan_stationary_covariance",
    "load_config",
    "make_p_grid",
    "model_covariance",
    "noise_limit_xi",
    "parse_quantity",
    "resolve_config",
    "resolvent_bound_check",
    "run_parameter_sweep",
    "select_window",
    "simulate_ensemble",
    "spectral_abscissa",
    "splitmix64",
    "stationary_covariance_entry",
    "unit_gaussian_profile",
    "weyl_defect",
    "weyl_divergence_probe",
    "write_sweep_csv",
]
