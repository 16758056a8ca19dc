"""Calculus and fractional dynamic equations on hybrid time scales.

Builds arbitrary bounded unions of intervals, uniform grids and isolated
points; provides the delta derivative/integral and the time-scale
exponential; fractional delta derivatives and integrals with the
non-singular exponential kernel; exact closed forms for the linear
equation; exponential-stability classification; and a fixed-point solver
for nonlinear initial value problems.
"""

from .calculus import delta_derivative, delta_integral, exp_ts, is_regressive, kernel_march
from .errors import (
    CftsError,
    DenseDerivativeUnavailable,
    DomainError,
    MaxIterationsExceeded,
    NonRegressiveKernel,
    NonRegressiveParameter,
    NotContractive,
    NotRegressive,
    OutsideKappaDomain,
    PointNotInTimeScale,
    QuadratureNonConvergence,
)
from .fractional import (
    CFOrder,
    cf_delta_left,
    cf_delta_left_prefix,
    cf_delta_right,
    cf_integral,
)
from .linear import (
    LinearCFProblem,
    classical_trajectory,
    residual_linear,
    solve_linear,
    solve_linear_trajectory,
)
from .nonlinear import (
    NonlinearCFProblem,
    PicardResult,
    contraction_check,
    max_contractive_window,
    picard_solve,
)
from .signals import Closure, Sampled, Signal, constant, value
from .stability import StabilityVerdict, classify_hz, classify_r, estimate_sc
from .timescale import (
    ContinuousInterval,
    IsolatedPoint,
    PointClass,
    Segment,
    TimeScale,
    UniformGrid,
    parse_timescale,
)

__version__ = "0.1.0"

__all__ = [
    "CFOrder",
    "CftsError",
    "Closure",
    "ContinuousInterval",
    "DenseDerivativeUnavailable",
    "DomainError",
    "IsolatedPoint",
    "LinearCFProblem",
    "MaxIterationsExceeded",
    "NonRegressiveKernel",
    "NonRegressiveParameter",
    "NonlinearCFProblem",
    "NotContractive",
    "NotRegressive",
    "OutsideKappaDomain",
    "PicardResult",
    "PointClass",
    "PointNotInTimeScale",
    "QuadratureNonConvergence",
    "Sampled",
    "Segment",
    "Signal",
    "StabilityVerdict",
    "TimeScale",
    "UniformGrid",
    "cf_delta_left",
    "cf_delta_left_prefix",
    "cf_delta_right",
    "cf_integral",
    "classical_trajectory",
    "classify_hz",
    "classify_r",
    "constant",
    "contraction_check",
    "delta_derivative",
    "delta_integral",
    "estimate_sc",
    "exp_ts",
    "is_regressive",
    "kernel_march",
    "max_contractive_window",
    "parse_timescale",
    "picard_solve",
    "residual_linear",
    "solve_linear",
    "solve_linear_trajectory",
    "value",
]
