"""Kuramoto-Sivashinsky solver: fourth-order compact finite differences in
space, IMEX Runge-Kutta of order four in time whose stages divide each
transform mode by one of two quadratic denominators (the paper's partial
fractions, pinned in the acceptance gate)."""

from .analysis import (
    StabilityField,
    gre,
    max_norm_error,
    observed_order,
    stability_scan,
)
from .compact_fd import BoundaryScheme, Grid
from .problems import ProblemSpec, example1_exact, make_problem
from .stepper import (
    InstabilityError,
    StepperWorkspace,
    integrate,
    prepare,
    step,
)
from .system import KseParameters, SemiDiscreteKse, assemble

__version__ = "0.1.0"

__all__ = [
    "BoundaryScheme",
    "Grid",
    "InstabilityError",
    "KseParameters",
    "ProblemSpec",
    "SemiDiscreteKse",
    "StabilityField",
    "StepperWorkspace",
    "assemble",
    "example1_exact",
    "gre",
    "integrate",
    "make_problem",
    "max_norm_error",
    "observed_order",
    "prepare",
    "stability_scan",
    "step",
    "__version__",
]
