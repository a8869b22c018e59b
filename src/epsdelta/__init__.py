"""Epsilon-delta analysis toolkit.

Computes optimal uniform-continuity tolerances delta(eps) on closed
intervals (grid search, closed forms, finite-space oracle), refines
extrema over nested dyadic nets with certified bounds, and runs
generalized intermediate-value bisection against target sets.
"""

from types import ModuleType as _ModuleType

from .delta import (
    BIAS_EXACT,
    BIAS_UPPER_BOUND,
    METHOD_CLOSED_FORM,
    METHOD_EXHAUSTIVE,
    METHOD_GRID,
    DeltaProfile,
    DeltaSample,
    GridConfig,
    VerificationReport,
    build_profile,
    modulus_of_continuity,
    optimal_delta_closed_form,
    optimal_delta_finite,
    optimal_delta_grid,
    verify_largest_delta,
)
from .errors import (
    DomainError,
    EmptyLevelSet,
    EpsDeltaError,
    LevelTooLarge,
    NotSelfMap,
    OutOfRange,
    ParseError,
    PreconditionViolated,
    UnsupportedFamily,
)
from .extremum import (
    MAX_NET_LEVEL,
    RefinementTrace,
    certified_max_bound,
    dyadic_net,
    envelope,
    first_maximizer,
    refine_extrema,
)
from .functions import (
    Chainsaw,
    Expression,
    FiniteMetricSpace,
    Interval,
    PiecewiseLinear,
    Polynomial,
    PowerFamily,
    RealFunction,
    anchor_points,
    canonical_text,
    chainsaw_function,
    evaluate,
    evaluate_many,
    expression_function,
    parse_function,
    piecewise_linear_function,
    polynomial_function,
    power_function,
    sample_grid,
)
from .intermediate import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    BisectionStep,
    BisectionTrace,
    FixedPointResult,
    TargetSet,
    bisect_boundary,
    classical_ivt,
    classify,
    fixed_point,
    parse_target_set,
)

__version__ = "0.1.0"

# every public name imported above; the submodules those imports bind stay out
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
