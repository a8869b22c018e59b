"""Generalized intermediate-value search by bisection.

Instead of a root of f(x) = c, the search tracks membership of f(x) in
a target set D (a finite union of intervals).  Starting from a bracket
with f(a) in D and f(b) not in D, halving keeps that invariant, so the
bracket always pins a point where f crosses the boundary of D.  The
classical IVT (D = (-inf, c)) and fixed-point search (g = f - x against
D = (0, inf)) are thin wrappers.

No continuity is assumed anywhere: for discontinuous f the bracket
still converges, it just may land on a jump across the boundary rather
than a boundary value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotSelfMap, ParseError, PreconditionViolated
from .extremum import dyadic_net
from .functions import RealFunction, _Parser, evaluate, evaluate_many
from .serialize import format_float

INTERIOR = "interior"
BOUNDARY = "boundary"
EXTERIOR = "exterior"

# net level for the sampled self-map check in fixed_point
SELF_MAP_NET_LEVEL: int = 10


@dataclass(frozen=True)
class TargetSet:
    """Finite union of intervals, kept sorted, disjoint, non-adjacent.

    Each piece is (lo, hi, lo_open, hi_open); infinite ends are open by
    construction.  Construction merges overlapping or touching pieces,
    so equality of pieces is equality of the point sets they describe.
    """

    pieces: tuple[tuple[float, float, bool, bool], ...]

    def __post_init__(self) -> None:
        # each piece becomes a closed span of a line on which every point r
        # splits into r-, r, r+, keyed (r, -1), (r, 0), (r, 1)
        spans = []
        for lo, hi, lo_open, hi_open in self.pieces:
            lo, hi = float(lo), float(hi)
            if math.isnan(lo) or math.isnan(hi):
                raise ValueError("interval endpoints cannot be NaN")
            if lo > hi:
                raise ValueError(f"interval endpoints out of order: ({lo}, {hi})")
            left = (lo, 1 if lo_open or lo == -math.inf else 0)
            right = (hi, -1 if hi_open or hi == math.inf else 0)
            if left <= right:
                spans.append((left, right))
        merged: list[list[tuple[float, int]]] = []
        for left, right in sorted(spans):
            # overlapping or touching: left is at most the key just after the last right
            if merged and left <= (merged[-1][1][0], merged[-1][1][1] + 1):
                merged[-1][1] = max(merged[-1][1], right)
            else:
                merged.append([left, right])
        object.__setattr__(self, "pieces", tuple(
            (lo, hi, lo_side == 1, hi_side == -1) for (lo, lo_side), (hi, hi_side) in merged
        ))

    def contains(self, y: float) -> bool:
        for lo, hi, lo_open, hi_open in self.pieces:
            if lo < y < hi:
                return True
            if y == lo and not lo_open:
                return True
            if y == hi and not hi_open:
                return True
        return False

    def __str__(self) -> str:
        if not self.pieces:
            return "()"
        parts = []
        for lo, hi, lo_open, hi_open in self.pieces:
            left = "(" if lo_open else "["
            right = ")" if hi_open else "]"
            lo_s = "-inf" if lo == -math.inf else format_float(lo)
            hi_s = "inf" if hi == math.inf else format_float(hi)
            parts.append(f"{left}{lo_s},{hi_s}{right}")
        return "u".join(parts)


def parse_target_set(text: str) -> TargetSet:
    """Parse e.g. ``(-inf,0)``, ``[0,1]``, or ``(0,1)u(2,3)``: pieces
    joined by ``u`` or ``U``, each end a number as in function specs or
    a signed ``inf``."""
    parser = _Parser(text)
    pieces = []
    while True:
        left = parser.take()
        if left[1] not in ("(", "["):
            parser.fail(left, "'(' or '['")
        lo = parser.number(inf=True)
        parser.expect(",")
        hi = parser.number(inf=True)
        right = parser.take()
        if right[1] not in (")", "]"):
            parser.fail(right, "')' or ']'")
        if lo > hi:
            raise ParseError(f"endpoints out of order: {text[left[2]:right[2] + 1]!r}", left[2])
        pieces.append((lo, hi, left[1] == "(", right[1] == ")"))
        tok = parser.take()
        if tok[0] == "end":
            return TargetSet(tuple(pieces))
        if tok[1] not in ("u", "U"):
            parser.fail(tok, "'u' between pieces")


def classify(y: float, target: TargetSet) -> str:
    """Locate y relative to the target set: boundary beats interior.

    Boundary means equal to a finite piece endpoint (openness does not
    matter there; an infinite end never counts); otherwise interior when
    strictly inside a piece, exterior when outside all of them.
    """
    # the pieces are disjoint, so no endpoint lies inside another piece
    for lo, hi, _, _ in target.pieces:
        if (y == lo or y == hi) and math.isfinite(y):
            return BOUNDARY
        if lo < y < hi:
            return INTERIOR
    return EXTERIOR


@dataclass
class BisectionStep:
    k: int
    a: float
    b: float
    midpoint: float
    midpoint_class: str


@dataclass
class BisectionTrace:
    """Bracket history of one bisection run.

    Step k records the oriented bracket before its halving: f(a_k) is
    in the target set, f(b_k) is not.  ``error_bound`` is the width
    |b - a| of the final bracket, which is |b_0 - a_0| * 2^-n after n
    completed halvings on a dyadic domain; the run stops early once the
    midpoint rounds onto an end, where the bracket cannot shrink further.
    ``boundary_hit`` is set when a midpoint classified as boundary
    stopped the run early.
    """

    steps: list[BisectionStep] = field(default_factory=list)
    final_bracket: tuple[float, float] = (0.0, 0.0)
    error_bound: float = 0.0
    boundary_hit: float | None = None

    @property
    def final_midpoint(self) -> float:
        a, b = self.final_bracket
        return a + (b - a) / 2.0

    def table(self) -> tuple[tuple[str, ...], list[tuple]]:
        rows = [(s.k, s.a, s.b, s.midpoint, s.midpoint_class) for s in self.steps]
        return ("k", "a_k", "b_k", "midpoint", "class"), rows

    def to_json_dict(self) -> dict:
        columns, rows = self.table()
        return {
            "steps": [dict(zip(columns, row)) for row in rows],
            "final_bracket": list(self.final_bracket),
            "final_midpoint": self.final_midpoint,
            "error_bound": self.error_bound,
            "boundary_hit": self.boundary_hit,
        }


def _run_bisection(value_at, a: float, b: float, fa: float, fb: float,
                   target: TargetSet, steps: int) -> BisectionTrace:
    """Bisect [a, b] given the end values fa = value_at(a), fb = value_at(b)."""
    a_in, b_in = target.contains(fa), target.contains(fb)
    if a_in == b_in:
        state = "inside" if a_in else "outside"
        raise PreconditionViolated(
            f"need exactly one endpoint value in the target set; "
            f"f({a!r})={fa!r} and f({b!r})={fb!r} are both {state}"
        )
    if not a_in:
        a, b = b, a
    trace = BisectionTrace()
    for k in range(steps):
        mid = a + (b - a) / 2.0
        if mid == a or mid == b:
            break
        y = value_at(mid)
        cls = classify(y, target)
        trace.steps.append(BisectionStep(k, a, b, mid, cls))
        if cls == BOUNDARY:
            trace.boundary_hit = mid
            break
        # y is no piece endpoint here, so interior means inside the target
        if cls == INTERIOR:
            a = mid
        else:
            b = mid
    trace.final_bracket = (a, b)
    trace.error_bound = abs(b - a)
    return trace


def bisect_boundary(f: RealFunction, target: TargetSet, steps: int) -> BisectionTrace:
    """Bisect the domain toward a point where f crosses the target boundary.

    Requires exactly one of f(a), f(b) to lie in the target set
    (PreconditionViolated otherwise).  A midpoint whose value is a finite
    piece endpoint classifies as boundary, stops the run early and is
    reported as ``boundary_hit``.
    """
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    lo, hi = f.domain.lo, f.domain.hi
    return _run_bisection(
        lambda x: evaluate(f, x), lo, hi, evaluate(f, lo), evaluate(f, hi), target, steps
    )


def classical_ivt(f: RealFunction, c: float, steps: int) -> BisectionTrace:
    """Classical intermediate-value bisection for f(x) = c.

    Requires c strictly between f(a) and f(b); runs the target-set
    search against D = (-inf, c), whose boundary is exactly {c}.
    """
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    fa, fb = evaluate(f, f.domain.lo), evaluate(f, f.domain.hi)
    if not (fa < c < fb or fb < c < fa):
        raise PreconditionViolated(
            f"need c strictly between the endpoint values, got f(a)={fa!r}, f(b)={fb!r}, c={c!r}"
        )
    target = TargetSet(((-math.inf, float(c), True, True),))
    return _run_bisection(
        lambda x: evaluate(f, x), f.domain.lo, f.domain.hi, fa, fb, target, steps
    )


@dataclass
class FixedPointResult:
    """Outcome of a fixed-point search: an endpoint hit or a bracket.

    ``endpoint`` is set when f(e) = e at a domain endpoint e; otherwise
    ``trace`` holds the bisection run on g(x) = f(x) - x against the
    target (0, inf).
    """

    endpoint: float | None = None
    trace: BisectionTrace | None = None

    @property
    def estimate(self) -> float:
        if self.endpoint is not None:
            return self.endpoint
        assert self.trace is not None
        if self.trace.boundary_hit is not None:
            return self.trace.boundary_hit
        return self.trace.final_midpoint

    def table(self) -> tuple[tuple[str, ...], list[tuple]]:
        if self.trace is not None:
            return self.trace.table()
        return ("endpoint",), [(self.endpoint,)]

    def to_json_dict(self) -> dict:
        return {
            "endpoint": self.endpoint,
            "estimate": self.estimate,
            "trace": self.trace.to_json_dict() if self.trace is not None else None,
        }


def fixed_point(f: RealFunction, steps: int) -> FixedPointResult:
    """Bracket a fixed point of a self-map of its own domain.

    The self-map requirement is checked on a level-10 dyadic net;
    NotSelfMap (with a witness point) reports the first escape.  If an
    endpoint e has f(e) = e exactly it is returned directly; otherwise
    g(x) = f(x) - x has g(a) > 0 > g(b), and the boundary search on
    D = (0, inf) brackets a sign change of g.  A midpoint with g exactly
    0 stops early as a boundary hit.
    """
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")

    lo, hi = f.domain.lo, f.domain.hi
    net = dyadic_net(f.domain, SELF_MAP_NET_LEVEL)
    vals = evaluate_many(f, net)
    escaped = (vals < lo) | (vals > hi)
    if escaped.any():
        i = int(np.argmax(escaped))
        witness = (float(net[i]), float(vals[i]))
        raise NotSelfMap(
            f"f({witness[0]!r})={witness[1]!r} leaves the domain [{lo!r}, {hi!r}]", witness
        )

    # the net's ends are the domain's, so its end values are f(lo) and f(hi)
    ga = float(vals[0]) - lo
    if ga == 0.0:
        return FixedPointResult(endpoint=lo)
    gb = float(vals[-1]) - hi
    if gb == 0.0:
        return FixedPointResult(endpoint=hi)

    target = TargetSet(((0.0, math.inf, True, True),))
    trace = _run_bisection(lambda x: evaluate(f, x) - x, lo, hi, ga, gb, target, steps)
    return FixedPointResult(trace=trace)
