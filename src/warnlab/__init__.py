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
    spectral_abscissa,
    weyl_defect,
)
from .lyapunov import model_covariance
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
)
from .config import ExperimentConfig, load_config

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
    "WarnlabError",
    "WarningSignVerdict",
    "WeylVector",
    "bifurcation_parameter",
    "build_weyl_sequence",
    "classify_warning_sign",
    "fit_power_law",
    "fit_quantity",
    "load_config",
    "make_p_grid",
    "model_covariance",
    "parse_quantity",
    "run_parameter_sweep",
    "select_window",
    "simulate_ensemble",
    "spectral_abscissa",
    "splitmix64",
    "weyl_defect",
]
