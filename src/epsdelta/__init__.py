"""Epsilon-delta analysis toolkit.

Computes optimal uniform-continuity tolerances delta(eps) on closed
intervals (grid search, closed forms, finite-space oracle), refines
extrema over nested dyadic nets with certified bounds, and runs
generalized intermediate-value bisection against target sets.

Importing the package loads none of its modules: each public name is
imported from its module on first use, so a CLI process compiles only
the modules of its own command.
"""

import importlib as _importlib

# every public name, and the module it lives in
_HOMES = {
    **dict.fromkeys((
        "BIAS_EXACT", "BIAS_UPPER_BOUND", "METHOD_CLOSED_FORM", "METHOD_EXHAUSTIVE",
        "METHOD_GRID", "DeltaProfile", "DeltaSample", "GridConfig", "VerificationReport",
        "build_profile", "modulus_of_continuity", "optimal_delta_closed_form",
        "optimal_delta_finite", "optimal_delta_grid", "verify_largest_delta",
    ), "delta"),
    **dict.fromkeys((
        "DomainError", "EmptyLevelSet", "EpsDeltaError", "LevelTooLarge", "NotSelfMap",
        "OutOfRange", "ParseError", "PreconditionViolated", "UnsupportedFamily",
    ), "errors"),
    **dict.fromkeys((
        "RefinementTrace", "certified_max_bound", "dyadic_net", "envelope", "first_maximizer",
        "refine_extrema",
    ), "extremum"),
    **dict.fromkeys((
        "MAX_NET_LEVEL", "Chainsaw", "Expression", "FiniteMetricSpace", "Interval",
        "PiecewiseLinear", "Polynomial", "PowerFamily", "RealFunction", "anchor_points",
        "canonical_text", "chainsaw_function", "evaluate", "evaluate_many",
        "expression_function", "parse_function", "piecewise_linear_function",
        "polynomial_function", "power_function", "sample_grid",
    ), "functions"),
    **dict.fromkeys((
        "BOUNDARY", "EXTERIOR", "INTERIOR", "BisectionStep", "BisectionTrace",
        "FixedPointResult", "TargetSet", "bisect_boundary", "classical_ivt", "classify",
        "fixed_point", "parse_target_set",
    ), "intermediate"),
}

__version__ = "0.1.0"

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # bound here on first use, so later lookups skip this hook
    value = globals()[name] = getattr(_importlib.import_module(f"{__name__}.{home}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
