"""Kuramoto-Sivashinsky solver: fourth-order compact finite differences in
space, partial-fraction IMEX Runge-Kutta of order four in time."""

from .analysis import (
    StabilityField,
    amplification_factor,
    gre,
    linear_truncation_check,
    max_norm_error,
    observed_order,
    self_difference_error,
    stability_scan,
)
from .compact_fd import BoundaryScheme, Grid
from .problems import ProblemSpec, example1_exact, make_problem
from .stepper import (
    ImexCoefficients,
    InstabilityError,
    StepperWorkspace,
    coefficients,
    integrate,
    prepare,
    step,
)
from .system import KseParameters, SemiDiscreteKse, assemble

__version__ = "0.1.0"

__all__ = [
    "BoundaryScheme",
    "Grid",
    "ImexCoefficients",
    "InstabilityError",
    "KseParameters",
    "ProblemSpec",
    "SemiDiscreteKse",
    "StabilityField",
    "StepperWorkspace",
    "amplification_factor",
    "assemble",
    "coefficients",
    "example1_exact",
    "gre",
    "integrate",
    "linear_truncation_check",
    "make_problem",
    "max_norm_error",
    "observed_order",
    "prepare",
    "self_difference_error",
    "stability_scan",
    "step",
    "__version__",
]
