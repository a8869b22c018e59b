"""Optimal uniform-continuity tolerances.

For a function f on [a, b] and a value gap epsilon, the optimal
tolerance is

    delta(eps) = inf { |x - y| : |f(x) - f(y)| >= eps },

the largest delta that still works in the uniform-continuity game (any
smaller separation forces |f(x) - f(y)| < eps).  The infimum runs over a
nonempty set exactly when eps is at most the range spread of f.

Three routes compute it:

* a grid search (`optimal_delta_grid`), exact on the sample set and an
  upper bound for the true infimum, sharpened by zooming in around the
  best pair found;
* closed forms (`optimal_delta_closed_form`) for the power family and
  the sawtooth's jump points, each its family's ``exact_delta`` method;
* an exhaustive scan over a finite metric space
  (`optimal_delta_finite`), which is the module's exact oracle.

The companion `modulus_of_continuity` runs the dual query: the largest
value gap over pairs at most delta apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import EmptyLevelSet, OutOfRange, UnsupportedFamily
from .functions import (
    FiniteMetricSpace,
    RealFunction,
    _sorted_distinct,
    canonical_text,
    evaluate_many,
    sample_grid,
)

# Pairs count toward the level set when their gap reaches
# eps * (1 - GAP_SLACK_REL): the float image of an exact boundary pair
# (gap == eps in exact arithmetic) can land a few ulp short, and a
# strict comparison would drop it.  That costs delta a few ulp, but for
# eps just above a jump of delta(eps) it gives the branch below the jump.
GAP_SLACK_REL: float = 1e-12

METHOD_CLOSED_FORM = "closed_form"
METHOD_GRID = "grid"
METHOD_EXHAUSTIVE = "exhaustive"

BIAS_EXACT = "exact"
BIAS_UPPER_BOUND = "upper_bound"

# each grid refinement round shrinks the windows around the best pair by this factor
ZOOM_FACTOR: float = 16.0


@dataclass(frozen=True)
class DeltaSample:
    """One (epsilon, delta) point of a tolerance profile.

    ``method`` records how delta was computed and ``bias`` which side of
    the true value it sits on: grid searches land on or above the
    infimum, except for eps just above a jump of delta(eps) (see
    GAP_SLACK_REL); closed forms and exhaustive scans hit it exactly.
    """

    epsilon: float
    delta: float
    method: str
    bias: str

    # the CSV header and the JSON keys, in the order of row()
    COLUMNS = ("epsilon", "delta", "method", "bias")

    def __post_init__(self) -> None:
        if self.method not in (METHOD_CLOSED_FORM, METHOD_GRID, METHOD_EXHAUSTIVE):
            raise ValueError(f"unknown method {self.method!r}")
        if self.bias not in (BIAS_EXACT, BIAS_UPPER_BOUND):
            raise ValueError(f"unknown bias {self.bias!r}")
        if self.method == METHOD_GRID and self.bias != BIAS_UPPER_BOUND:
            raise ValueError("grid samples are upper bounds")
        if self.method in (METHOD_CLOSED_FORM, METHOD_EXHAUSTIVE) and self.bias != BIAS_EXACT:
            raise ValueError(f"{self.method} samples are exact")
        if not (self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not (self.delta > 0.0):
            raise ValueError(f"delta must be positive, got {self.delta}")

    def row(self) -> tuple:
        return (self.epsilon, self.delta, self.method, self.bias)

    def table(self) -> tuple[tuple[str, ...], list[tuple]]:
        return self.COLUMNS, [self.row()]

    def to_json_dict(self) -> dict:
        return dict(zip(self.COLUMNS, self.row()))


@dataclass(frozen=True)
class GridConfig:
    """Sampling plan for grid-based tolerance searches.

    The base pass scans a uniform grid of ``resolution`` points plus
    the function's anchor points; each refinement round re-samples windows
    around the best pair so far, shrunk by ``ZOOM_FACTOR`` per round.
    The gap threshold is not part of the plan: every grid route admits
    pairs whose gap reaches eps * (1 - ``GAP_SLACK_REL``).
    """

    resolution: int = 4096
    refine_rounds: int = 2

    def __post_init__(self) -> None:
        if self.resolution < 2:
            raise ValueError(f"resolution must be at least 2, got {self.resolution}")
        if self.refine_rounds < 0:
            raise ValueError(f"refine_rounds must be nonnegative, got {self.refine_rounds}")


@dataclass
class DeltaProfile:
    """Tolerance samples for one function, sorted by epsilon."""

    function_id: str
    M_estimate: float
    samples: list[DeltaSample] = field(default_factory=list)

    def table(self) -> tuple[tuple[str, ...], list[tuple]]:
        return DeltaSample.COLUMNS, [s.row() for s in self.samples]

    def to_json_dict(self) -> dict:
        return {
            "function_id": self.function_id,
            "M_estimate": self.M_estimate,
            "samples": [s.to_json_dict() for s in self.samples],
        }


@dataclass
class VerificationReport:
    """Outcome of checking a claimed tolerance against a sample grid.

    ``valid`` means no grid pair closer than the claim reaches the gap;
    ``maximal`` means some pair within 0.1% above the claim does, so the
    claim cannot be meaningfully enlarged.  Both are read off the closest
    grid pair that reaches the gap up to GAP_SLACK_REL (ties to the
    smallest index pair), which is the witness (x, y, fx, fy):
    ``violation`` when the claim is not valid, ``threshold_witness`` when
    it is maximal, the same pair when both are set.  Just above a jump of
    delta(epsilon), a pair short of the gap can refute a valid claim.
    """

    epsilon: float
    delta_claimed: float
    valid: bool
    maximal: bool
    violation: tuple[float, float, float, float] | None = None
    threshold_witness: tuple[float, float, float, float] | None = None

    def table(self) -> tuple[tuple[str, ...], list[tuple]]:
        row = (self.epsilon, self.delta_claimed, self.valid, self.maximal)
        return ("epsilon", "delta_claimed", "valid", "maximal"), [row]

    def to_json_dict(self) -> dict:
        columns, (row,) = self.table()
        return {
            **dict(zip(columns, row)),
            "violation": list(self.violation) if self.violation else None,
            "threshold_witness": list(self.threshold_witness) if self.threshold_witness else None,
        }


# a violation needs to clear the claim by more than float noise
VALIDITY_MARGIN_REL: float = 1e-9

# how far above the claim the maximality probe is allowed to look
MAXIMALITY_MARGIN_REL: float = 1e-3


def optimal_delta_grid(
    f: RealFunction, epsilon: float, cfg: GridConfig = GridConfig()
) -> DeltaSample:
    """Grid estimate of the optimal tolerance, exact on the sample set.

    Scans all pairs of the base grid for the closest one with value gap
    at least epsilon, then re-scans zoomed windows around it.  The result
    overestimates the true infimum (bias upper_bound), except for epsilon
    just above a jump of delta(epsilon): see GAP_SLACK_REL.

    Raises EmptyLevelSet when epsilon exceeds the grid range spread, in
    which case no pair qualifies anywhere.
    """
    if not (epsilon > 0.0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    xs, fx = sample_grid(f, cfg.resolution, include_anchors=True)
    return _grid_search(f, epsilon, xs, fx, cfg)


def _grid_search(
    f: RealFunction, epsilon: float, xs: np.ndarray, fx: np.ndarray, cfg: GridConfig
) -> DeltaSample:
    """The grid search of `optimal_delta_grid` on an already sampled base grid."""
    eps_eff = epsilon * (1.0 - GAP_SLACK_REL)
    spread = float(fx.max() - fx.min())
    if spread < eps_eff:
        raise EmptyLevelSet(
            f"no pair can reach gap {epsilon!r}: grid range spread is only {spread!r}"
        )

    best, bi, bj = _kernels.min_dist_pair(xs, fx, eps_eff)
    bx, by = float(xs[bi]), float(xs[bj])

    lo, hi = f.domain.lo, f.domain.hi
    width = f.domain.span
    for r in range(1, cfg.refine_rounds + 1):
        half = width * ZOOM_FACTOR ** -r
        if half == 0.0:
            break  # underflowed: no window is narrower
        pts = _zoom_points(lo, hi, (bx, by), half, cfg.resolution)
        vals = evaluate_many(f, pts)
        dist, i, j = _kernels.min_dist_pair(pts, vals, eps_eff)
        if i >= 0 and dist < best:
            best, bx, by = dist, float(pts[i]), float(pts[j])

    return DeltaSample(epsilon=float(epsilon), delta=best, method=METHOD_GRID, bias=BIAS_UPPER_BOUND)


def _zoom_points(lo: float, hi: float, centers, half: float, n: int) -> np.ndarray:
    """The sorted distinct points of ``n``-point windows of half-width
    ``half`` about each of the ascending ``centers``, clipped to [lo, hi]."""
    pts = np.concatenate([np.linspace(max(lo, c - half), min(hi, c + half), n) for c in centers])
    # disjoint windows whose points all differ are sorted and distinct already
    if (pts[1:] > pts[:-1]).all():
        return pts
    return _sorted_distinct(pts)


def optimal_delta_closed_form(f: RealFunction, epsilon: float) -> DeltaSample:
    """Exact optimal tolerance where a formula exists.

    Power family (x^alpha on [0, b], spread M = b^alpha, 0 < eps < M):

        alpha >= 1:  delta = b - (b^alpha - eps)^(1/alpha)
        alpha <= 1:  delta = eps^(1/alpha)

    Sawtooth, at the jump points eps = 1/n only:

        delta(1/n) = 1 / (n (2n + 1))

    Raises UnsupportedFamily for other families, OutOfRange for epsilon
    outside the formula's validity.
    """
    if not (epsilon > 0.0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    delta = f.exact_delta(epsilon)
    return DeltaSample(float(epsilon), float(delta), METHOD_CLOSED_FORM, BIAS_EXACT)


def optimal_delta_finite(space: FiniteMetricSpace, epsilon: float) -> DeltaSample:
    """Exact optimal tolerance on a finite metric space.

    Exhaustive scan over all point pairs; this is the exact oracle the
    grid search is tested against.  The scan runs over the full matrix:
    the diagonal never qualifies (its gaps are 0 < epsilon) and symmetry
    only repeats each pair, which leaves the minimum unchanged.
    """
    if not (epsilon > 0.0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    # one n x n float temporary, made absolute in place
    gap = np.subtract.outer(space.values, space.values)
    qual = np.abs(gap, out=gap) >= epsilon
    if not qual.any():
        spread = float(space.values.max() - space.values.min())
        raise EmptyLevelSet(
            f"no pair can reach gap {epsilon!r}: value spread is only {spread!r}"
        )
    best = float(space.dist[qual].min())
    return DeltaSample(float(epsilon), best, METHOD_EXHAUSTIVE, BIAS_EXACT)


def modulus_of_continuity(f: RealFunction, delta: float, resolution: int) -> float:
    """Largest grid value gap over pairs at most delta apart.

    A lower bound for the true modulus w(delta).  The grid is uniform
    and holds no anchor points, not even piecewise-linear breakpoints,
    so the value is exact only when an extreme pair lies on the grid.
    delta = 0 gives 0 (the grid has no repeated abscissas).
    """
    if not (delta >= 0.0):
        raise ValueError(f"delta must be nonnegative, got {delta}")
    xs, fx = sample_grid(f, resolution)
    return _kernels.max_gap_within(xs, fx, float(delta))


def build_profile(
    f: RealFunction, epsilons, cfg: GridConfig = GridConfig()
) -> DeltaProfile:
    """Tolerance profile over a batch of epsilon values, sorted ascending.

    Uses the closed form whenever the family and the epsilon allow it,
    falling back to the grid search otherwise.  An epsilon beyond the
    range spread aborts the whole profile with EmptyLevelSet naming the
    offending value.
    """
    eps_list = sorted(float(e) for e in epsilons)
    if not eps_list:
        raise ValueError("need at least one epsilon")
    if any(e <= 0.0 for e in eps_list):
        raise ValueError(f"epsilons must be positive, got {eps_list[0]}")
    xs, fx = sample_grid(f, cfg.resolution, include_anchors=True)
    spread = float(fx.max()) - float(fx.min())
    samples: list[DeltaSample] = []
    for eps in eps_list:
        try:
            samples.append(optimal_delta_closed_form(f, eps))
            continue
        except (UnsupportedFamily, OutOfRange):
            pass
        try:
            samples.append(_grid_search(f, eps, xs, fx, cfg))
        except EmptyLevelSet as exc:
            raise EmptyLevelSet(f"epsilon={eps!r}: {exc}") from exc
    return DeltaProfile(
        function_id=canonical_text(f), M_estimate=float(spread), samples=samples
    )


def verify_largest_delta(
    f: RealFunction, epsilon: float, delta_claimed: float, resolution: int
) -> VerificationReport:
    """Check a claimed tolerance against the closest qualifying grid pair.

    One scan of the anchored sample grid finds the closest pair whose gap
    reaches epsilon; it attains the grid's optimal delta, and some pair
    is closer than a bound exactly when it is.  Validity: it is not closer
    than the claim (beyond float noise).  Maximality: it lies within 0.1%
    above the claim, otherwise a larger delta would also have worked.
    """
    if not (epsilon > 0.0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not (delta_claimed > 0.0):
        raise ValueError(f"delta_claimed must be positive, got {delta_claimed}")
    xs, fx = sample_grid(f, resolution, include_anchors=True)
    dist, i, j = _kernels.min_dist_pair(xs, fx, epsilon * (1.0 - GAP_SLACK_REL))
    valid = not dist < delta_claimed * (1.0 - VALIDITY_MARGIN_REL)
    maximal = dist < delta_claimed * (1.0 + MAXIMALITY_MARGIN_REL)
    witness = None if i < 0 else (float(xs[i]), float(xs[j]), float(fx[i]), float(fx[j]))
    return VerificationReport(
        epsilon=float(epsilon),
        delta_claimed=float(delta_claimed),
        valid=valid,
        maximal=maximal,
        violation=None if valid else witness,
        threshold_witness=witness if maximal else None,
    )
