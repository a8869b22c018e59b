"""Function model: intervals, function families, parsing, and evaluation.

A :class:`RealFunction` pairs a closed interval domain with one of five
rule families.  Everything downstream (tolerance search, extremum
refinement, bisection) consumes functions only through
:func:`evaluate` / :func:`evaluate_many`, so each family is free to pick
its own fast evaluation path.

The text grammar accepted by :func:`parse_function`::

    power(alpha=<r>,b=<r>)        x^alpha on [0, b]
    chainsaw                      decreasing sawtooth on [0, 1]
    poly(<r>,<r>,...)             ascending coefficients, domain [0, 1]
    pwl((x0,y0),(x1,y1),...)      piecewise linear through breakpoints
    expr(<expression>,lo=<r>,hi=<r>)   arithmetic/trig expression in x

Expression primitives: ``+ - * / ^`` (also ``**``), ``sin``, ``cos``,
``abs``, numeric literals, and ``pi``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import pi as _PI

import numpy as np

from . import _kernels
from .errors import DomainError, LevelTooLarge, ParseError

# relative slack for accepting points a hair outside the domain
DOMAIN_TOL_REL: float = 2.0 ** -40

# how many sawtooth teeth contribute peak/zero anchor points to grids
CHAINSAW_ANCHOR_TEETH: int = 64

# point budget of every sampled grid: 2^24 + 1 points, the finest dyadic net
MAX_NET_LEVEL: int = 24


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with lo <= hi, both finite."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @property
    def span(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= x <= self.hi + tol


# ---------------------------------------------------------------------------
# rule families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerFamily:
    """x**alpha on [0, b] with alpha > 0, b > 0."""

    alpha: float
    b: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0 and np.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not (self.b > 0.0 and np.isfinite(self.b)):
            raise ValueError(f"b must be positive, got {self.b}")


@dataclass(frozen=True)
class Chainsaw:
    """Decreasing sawtooth on [0, 1]: tooth n on [1/(n+1), 1/n] has value
    |(2n+1)t - 2|, zero at 2/(2n+1), peak 1/n at the right edge; f(0) = 0."""


@dataclass(frozen=True)
class Polynomial:
    """Polynomial with ascending coefficients: c0 + c1*x + c2*x^2 + ..."""

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.coefficients) == 0:
            raise ValueError("polynomial needs at least one coefficient")


@dataclass(frozen=True)
class PiecewiseLinear:
    """Linear interpolation through breakpoints with strictly increasing x."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError("piecewise linear needs at least two breakpoints")
        xs = [p[0] for p in self.points]
        for a, b in zip(xs, xs[1:]):
            if not a < b:
                raise ValueError(f"breakpoint x-values must strictly increase, got {a} then {b}")


@dataclass(frozen=True)
class Expression:
    """Expression tree over x; nodes are nested tuples, e.g. ("sin", ("x",))."""

    tree: tuple


Rule = PowerFamily | Chainsaw | Polynomial | PiecewiseLinear | Expression


@dataclass(frozen=True)
class RealFunction:
    domain: Interval
    rule: Rule


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def power_function(alpha: float, b: float) -> RealFunction:
    return RealFunction(Interval(0.0, float(b)), PowerFamily(float(alpha), float(b)))


def chainsaw_function() -> RealFunction:
    return RealFunction(Interval(0.0, 1.0), Chainsaw())


def polynomial_function(coefficients, domain: Interval | None = None) -> RealFunction:
    rule = Polynomial(tuple(float(c) for c in coefficients))
    return RealFunction(domain if domain is not None else Interval(0.0, 1.0), rule)


def piecewise_linear_function(points) -> RealFunction:
    rule = PiecewiseLinear(tuple((float(x), float(y)) for x, y in points))
    return RealFunction(Interval(rule.points[0][0], rule.points[-1][0]), rule)


def expression_function(text: str, lo: float, hi: float) -> RealFunction:
    stream = _Tokens(text)
    tree = _parse_expression(stream)
    tok = stream.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected {tok.text!r} after expression", tok.pos)
    return RealFunction(Interval(float(lo), float(hi)), Expression(tree))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _eval_node(node: tuple, x: np.ndarray) -> np.ndarray:
    op = node[0]
    if op == "const":
        return np.full(x.shape, node[1])
    if op == "x":
        return x
    if op == "neg":
        return -_eval_node(node[1], x)
    if op in ("sin", "cos", "abs"):
        u = _eval_node(node[1], x)
        return {"sin": np.sin, "cos": np.cos, "abs": np.abs}[op](u)
    a = _eval_node(node[1], x)
    b = _eval_node(node[2], x)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    if op == "pow":
        return a ** b
    raise ValueError(f"unknown expression node {op!r}")


def evaluate_many(f: RealFunction, xs) -> np.ndarray:
    """Evaluate f at an array of points.

    Points may stick out of the domain by at most a 2^-40 relative slack
    (they are clamped); anything further raises DomainError, as does a
    non-finite value of any family (overflow, division blow-up and
    friends).
    """
    xs = np.asarray(xs, dtype=np.float64)
    lo, hi = f.domain.lo, f.domain.hi
    tol = DOMAIN_TOL_REL * f.domain.span
    # two reductions check the domain (a NaN propagates into both); masks
    # are built only to name the offender
    x_min, x_max = xs.min(initial=np.inf), xs.max(initial=-np.inf)
    if not (x_min >= lo - tol and x_max <= hi + tol):
        bad = ~np.isfinite(xs) | (xs < lo - tol) | (xs > hi + tol)
        offender = float(xs[np.argmax(bad)])
        raise DomainError(f"x={offender!r} outside domain [{lo!r}, {hi!r}]")
    # clamping is the identity (-0.0 included) when every point is inside
    xc = xs if lo <= x_min and x_max <= hi else np.clip(xs, lo, hi)

    rule = f.rule
    # floating-point errors surface as non-finite values, rejected below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if isinstance(rule, PowerFamily):
            vals = xc ** rule.alpha
        elif isinstance(rule, Chainsaw):
            vals = _kernels.chainsaw_values(xc)
        elif isinstance(rule, Polynomial):
            vals = np.polynomial.polynomial.polyval(xc, np.asarray(rule.coefficients))
        elif isinstance(rule, PiecewiseLinear):
            px = np.array([p[0] for p in rule.points])
            py = np.array([p[1] for p in rule.points])
            vals = np.interp(xc, px, py)
        elif isinstance(rule, Expression):
            vals = np.asarray(_eval_node(rule.tree, xc), dtype=np.float64)
            # a bare ``x`` returns its argument: never hand back the caller's array
            if vals.shape != xc.shape or vals is xs:
                vals = np.broadcast_to(vals, xc.shape).copy()
        else:
            raise TypeError(f"unknown rule type {type(rule).__name__}")
    if vals.size and not (np.isfinite(vals.min()) and np.isfinite(vals.max())):
        offender = float(xc[np.argmax(~np.isfinite(vals))])
        raise DomainError(f"f is non-finite at x={offender!r}")
    return vals


def evaluate(f: RealFunction, x: float) -> float:
    return float(evaluate_many(f, np.array([float(x)]))[0])


def sample_grid(
    f: RealFunction, resolution: int, include_anchors: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Abscissas and values ``(xs, fx)`` of f on a sorted sample grid.

    The grid holds ``resolution`` uniform points over the domain, plus
    the rule's anchor points when ``include_anchors`` is set.  Raises
    ValueError below 2 points and LevelTooLarge past the point budget
    of a level-``MAX_NET_LEVEL`` dyadic net, before allocating anything.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    if resolution > 2 ** MAX_NET_LEVEL + 1:
        raise LevelTooLarge(
            f"resolution {resolution} exceeds the maximum {2 ** MAX_NET_LEVEL + 1} points"
        )
    xs = np.linspace(f.domain.lo, f.domain.hi, int(resolution))
    if include_anchors:
        extra = anchor_points(f)
        if extra.size:
            xs = np.unique(np.concatenate((xs, extra)))
    return xs, evaluate_many(f, xs)


def range_bounds(f: RealFunction, resolution: int) -> tuple[float, float]:
    """(min, max) of f over a uniform grid of `resolution` points."""
    _, vals = sample_grid(f, resolution)
    return float(vals.min()), float(vals.max())


def anchor_points(f: RealFunction) -> np.ndarray:
    """Abscissas a sampling grid should include exactly for this rule.

    Sawtooth peaks/zeros and piecewise-linear breakpoints are where the
    optimal tolerance is attained; a uniform grid almost never hits them.
    Smooth families need no anchors.
    """
    rule = f.rule
    if isinstance(rule, Chainsaw):
        m = np.arange(1, CHAINSAW_ANCHOR_TEETH + 1, dtype=np.float64)
        pts = np.concatenate(([0.0], 1.0 / m, 2.0 / (2.0 * m + 1.0)))
    elif isinstance(rule, PiecewiseLinear):
        pts = np.array([p[0] for p in rule.points], dtype=np.float64)
    else:
        return np.empty(0, dtype=np.float64)
    lo, hi = f.domain.lo, f.domain.hi
    return np.unique(pts[(pts >= lo) & (pts <= hi)])


# ---------------------------------------------------------------------------
# canonical text form
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return "%.17g" % float(v)


_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}


def _expr_text(node: tuple, parent_prec: int = 0) -> str:
    op = node[0]
    if op == "const":
        text = _fmt(node[1])
        prec = _PREC["neg"] if node[1] < 0 else 9
    elif op == "x":
        text, prec = "x", 9
    elif op in ("sin", "cos", "abs"):
        text, prec = f"{op}({_expr_text(node[1])})", 9
    elif op == "neg":
        prec = _PREC["neg"]
        text = "-" + _expr_text(node[1], prec)
    else:
        prec = _PREC[op]
        sym = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}[op]
        if op == "pow":
            # right-associative
            text = _expr_text(node[1], prec + 1) + sym + _expr_text(node[2], prec)
        else:
            text = _expr_text(node[1], prec) + sym + _expr_text(node[2], prec + 1)
    return f"({text})" if prec < parent_prec else text


def canonical_text(f: RealFunction) -> str:
    """Round-trippable text form: parse_function(canonical_text(f)) has
    an identical rule."""
    rule = f.rule
    if isinstance(rule, PowerFamily):
        return f"power(alpha={_fmt(rule.alpha)},b={_fmt(rule.b)})"
    if isinstance(rule, Chainsaw):
        return "chainsaw"
    if isinstance(rule, Polynomial):
        return "poly(" + ",".join(_fmt(c) for c in rule.coefficients) + ")"
    if isinstance(rule, PiecewiseLinear):
        pts = ",".join(f"({_fmt(x)},{_fmt(y)})" for x, y in rule.points)
        return f"pwl({pts})"
    if isinstance(rule, Expression):
        return f"expr({_expr_text(rule.tree)},lo={_fmt(f.domain.lo)},hi={_fmt(f.domain.hi)})"
    raise TypeError(f"unknown rule type {type(rule).__name__}")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[()+\-*/^,=]))"
)


@dataclass
class _Token:
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    pos: int


@dataclass
class _Tokens:
    source: str
    index: int = 0
    _toks: list[_Token] = field(default_factory=list)

    def __post_init__(self) -> None:
        pos = 0
        s = self.source
        while pos < len(s):
            m = _TOKEN_RE.match(s, pos)
            if m is None:
                stripped = s[pos:].lstrip()
                if not stripped:
                    break
                at = len(s) - len(stripped)
                raise ParseError(f"unrecognized character {stripped[0]!r}", at)
            kind = m.lastgroup or "op"
            self._toks.append(_Token(kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self._toks.append(_Token("end", "", len(s)))

    def peek(self) -> _Token:
        return self._toks[self.index]

    def take(self) -> _Token:
        tok = self._toks[self.index]
        if tok.kind != "end":
            self.index += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"got {tok.text or 'end of input'!r}", tok.pos, expected=repr(text))
        return self.take()

    def expect_name(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "name" or tok.text != text:
            raise ParseError(f"got {tok.text or 'end of input'!r}", tok.pos, expected=repr(text))
        return self.take()

    def expect_number(self) -> float:
        sign = 1.0
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("+", "-"):
            self.take()
            sign = -1.0 if tok.text == "-" else 1.0
            tok = self.peek()
        if tok.kind != "num":
            raise ParseError(f"got {tok.text or 'end of input'!r}", tok.pos, expected="a number")
        self.take()
        return sign * float(tok.text)


def _parse_atom(ts: _Tokens) -> tuple:
    tok = ts.peek()
    if tok.kind == "num":
        ts.take()
        return ("const", float(tok.text))
    if tok.kind == "name":
        ts.take()
        if tok.text == "x":
            return ("x",)
        if tok.text == "pi":
            return ("const", _PI)
        if tok.text in ("sin", "cos", "abs"):
            ts.expect_op("(")
            inner = _parse_expression(ts)
            ts.expect_op(")")
            return (tok.text, inner)
        raise ParseError(f"unknown name {tok.text!r}", tok.pos, expected="x, pi, sin, cos, or abs")
    if tok.kind == "op" and tok.text == "(":
        ts.take()
        inner = _parse_expression(ts)
        ts.expect_op(")")
        return inner
    raise ParseError(
        f"got {tok.text or 'end of input'!r}", tok.pos, expected="a number, x, function, or '('"
    )


def _parse_power(ts: _Tokens) -> tuple:
    base = _parse_atom(ts)
    tok = ts.peek()
    if tok.kind == "op" and tok.text in ("^", "**"):
        ts.take()
        return ("pow", base, _parse_unary(ts))
    return base


def _parse_unary(ts: _Tokens) -> tuple:
    tok = ts.peek()
    if tok.kind == "op" and tok.text == "-":
        ts.take()
        inner = _parse_unary(ts)
        if inner[0] == "const":
            return ("const", -inner[1])
        return ("neg", inner)
    if tok.kind == "op" and tok.text == "+":
        ts.take()
        return _parse_unary(ts)
    return _parse_power(ts)


def _parse_term(ts: _Tokens) -> tuple:
    node = _parse_unary(ts)
    while True:
        tok = ts.peek()
        if tok.kind == "op" and tok.text in ("*", "/"):
            ts.take()
            rhs = _parse_unary(ts)
            node = ("mul" if tok.text == "*" else "div", node, rhs)
        else:
            return node


def _parse_expression(ts: _Tokens) -> tuple:
    node = _parse_term(ts)
    while True:
        tok = ts.peek()
        if tok.kind == "op" and tok.text in ("+", "-"):
            ts.take()
            rhs = _parse_term(ts)
            node = ("add" if tok.text == "+" else "sub", node, rhs)
        else:
            return node


def _parse_pair(ts: _Tokens) -> tuple[float, float]:
    ts.expect_op("(")
    x = ts.expect_number()
    ts.expect_op(",")
    y = ts.expect_number()
    ts.expect_op(")")
    return x, y


def parse_function(spec: str) -> RealFunction:
    """Parse a function spec string; see the module docstring for the grammar."""
    ts = _Tokens(spec)
    head = ts.peek()
    if head.kind != "name":
        raise ParseError(
            f"got {head.text or 'end of input'!r}",
            head.pos,
            expected="power, chainsaw, poly, pwl, or expr",
        )
    ts.take()

    if head.text == "chainsaw":
        f = chainsaw_function()
    elif head.text == "power":
        ts.expect_op("(")
        ts.expect_name("alpha")
        ts.expect_op("=")
        alpha = ts.expect_number()
        ts.expect_op(",")
        ts.expect_name("b")
        ts.expect_op("=")
        b = ts.expect_number()
        ts.expect_op(")")
        try:
            f = power_function(alpha, b)
        except ValueError as exc:
            raise ParseError(str(exc), head.pos) from exc
    elif head.text == "poly":
        ts.expect_op("(")
        coeffs = [ts.expect_number()]
        while ts.peek().text == ",":
            ts.take()
            coeffs.append(ts.expect_number())
        ts.expect_op(")")
        f = polynomial_function(coeffs)
    elif head.text == "pwl":
        ts.expect_op("(")
        points = [_parse_pair(ts)]
        while ts.peek().text == ",":
            ts.take()
            points.append(_parse_pair(ts))
        ts.expect_op(")")
        try:
            f = piecewise_linear_function(points)
        except ValueError as exc:
            raise ParseError(str(exc), head.pos) from exc
    elif head.text == "expr":
        ts.expect_op("(")
        tree = _parse_expression(ts)
        ts.expect_op(",")
        ts.expect_name("lo")
        ts.expect_op("=")
        lo = ts.expect_number()
        ts.expect_op(",")
        ts.expect_name("hi")
        ts.expect_op("=")
        hi = ts.expect_number()
        ts.expect_op(")")
        if lo >= hi:
            raise ParseError(f"need lo < hi, got lo={lo} hi={hi}", head.pos)
        f = RealFunction(Interval(lo, hi), Expression(tree))
    else:
        raise ParseError(
            f"unknown function family {head.text!r}",
            head.pos,
            expected="power, chainsaw, poly, pwl, or expr",
        )

    tail = ts.peek()
    if tail.kind != "end":
        raise ParseError(f"unexpected trailing {tail.text!r}", tail.pos)
    return f


# ---------------------------------------------------------------------------
# finite metric spaces
# ---------------------------------------------------------------------------


@dataclass
class FiniteMetricSpace:
    """A finite point set with a metric and a real value per point.

    Distances must form a genuine metric: zero diagonal, symmetric, and
    triangle inequality up to a small float-rounding slack.
    """

    labels: tuple[str, ...]
    dist: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.labels = tuple(str(s) for s in self.labels)
        self.dist = np.asarray(self.dist, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        n = len(self.labels)
        if self.dist.shape != (n, n):
            raise ValueError(f"dist must be {n}x{n}, got {self.dist.shape}")
        if self.values.shape != (n,):
            raise ValueError(f"values must have length {n}, got {self.values.shape}")
        if not np.isfinite(self.dist).all() or not np.isfinite(self.values).all():
            raise ValueError("distances and values must be finite")
        if (np.diagonal(self.dist) != 0.0).any():
            raise ValueError("dist diagonal must be exactly zero")
        if not np.array_equal(self.dist, self.dist.T):
            raise ValueError("dist must be symmetric")
        if (self.dist < 0.0).any():
            raise ValueError("distances must be nonnegative")
        # slack absorbs rounding when distances come from coordinate differences
        slack = 32.0 * np.finfo(np.float64).eps * max(float(self.dist.max()), 1.0)
        d = self.dist
        # one middle point j at a time keeps memory at O(n^2):
        # d[i, k] > d[i, j] + d[j, k] + slack for some (i, k)
        for j in range(n):
            if (d > (d[:, j, None] + d[None, j, :]) + slack).any():
                raise ValueError("triangle inequality violated")

    @property
    def size(self) -> int:
        return len(self.labels)

    @classmethod
    def from_line_points(cls, xs, values=None, labels=None) -> "FiniteMetricSpace":
        """Build the induced metric |x_i - x_j| from points on the line."""
        xs = np.asarray(xs, dtype=np.float64)
        if values is None:
            values = xs.copy()
        if labels is None:
            labels = tuple(f"p{i}" for i in range(xs.size))
        dist = np.abs(xs[:, None] - xs[None, :])
        np.fill_diagonal(dist, 0.0)
        return cls(tuple(labels), dist, np.asarray(values, dtype=np.float64))
