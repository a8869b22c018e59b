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
``abs``, numeric literals, and ``pi``.  An expression may nest at most
200 levels, counting every parenthesis, function, sign, power and
chained operator; a deeper one is a ParseError (CLI exit code 2).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import inf as _INF, pi as _PI

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
    """Closed interval [lo, hi] with lo < hi, both ends and the width finite."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise ValueError(f"interval needs lo < hi, got [{self.lo}, {self.hi}]")
        if not np.isfinite(float(self.hi) - float(self.lo)):
            raise ValueError(f"interval width overflows: [{self.lo}, {self.hi}]")

    @property
    def span(self) -> float:
        return self.hi - self.lo


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
    rule = PowerFamily(float(alpha), float(b))
    return RealFunction(Interval(0.0, rule.b), rule)


def chainsaw_function() -> RealFunction:
    return RealFunction(Interval(0.0, 1.0), Chainsaw())


def polynomial_function(coefficients, domain: Interval | None = None) -> RealFunction:
    rule = Polynomial(tuple(float(c) for c in coefficients))
    return RealFunction(domain if domain is not None else Interval(0.0, 1.0), rule)


def piecewise_linear_function(points) -> RealFunction:
    rule = PiecewiseLinear(tuple((float(x), float(y)) for x, y in points))
    return RealFunction(Interval(rule.points[0][0], rule.points[-1][0]), rule)


def expression_function(text: str, lo: float, hi: float) -> RealFunction:
    parser = _Parser(text)
    tree, _ = parser.expression()
    parser.end()
    return RealFunction(Interval(float(lo), float(hi)), Expression(tree))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


# Expression operators, name -> (symbol, precedence, numpy ufunc), read by
# the parser, the evaluator and the printer.  The ufuncs are the ones that
# ``+ - * / **`` and unary ``-`` call on arrays.
_OPERATORS = {
    "add": ("+", 1, np.add),
    "sub": ("-", 1, np.subtract),
    "mul": ("*", 2, np.multiply),
    "div": ("/", 2, np.divide),
    "neg": ("-", 3, np.negative),
    "pow": ("^", 4, np.power),
}
_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "abs": np.abs}
# symbol -> (name, precedence) of the left-associative binary operators
_BINARY = {_OPERATORS[n][0]: (n, _OPERATORS[n][1]) for n in ("add", "sub", "mul", "div")}


def _eval_node(node: tuple, x: np.ndarray) -> np.ndarray:
    op = node[0]
    if op == "const":
        return np.full(x.shape, node[1])
    if op == "x":
        return x
    ufunc = _FUNCTIONS[op] if op in _FUNCTIONS else _OPERATORS[op][2]
    return ufunc(*[_eval_node(arg, x) for arg in node[1:]])


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
            if vals is xs:
                vals = vals.copy()
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
    # the grammar has no inf; 1e999 reads back as one
    return ("%.17g" % float(v)).replace("inf", "1e999")


def _expr_text(node: tuple, parent_prec: int = 0) -> str:
    op = node[0]
    if op == "const":
        text = _fmt(node[1])
        # a printed sign binds like a prefix minus: (-0)^x is not -0^x
        prec = _OPERATORS["neg"][1] if text[0] == "-" else 9
    elif op == "x":
        text, prec = "x", 9
    elif op in _FUNCTIONS:
        text, prec = f"{op}({_expr_text(node[1])})", 9
    else:
        sym, prec, _ = _OPERATORS[op]
        if op == "neg":
            text = sym + _expr_text(node[1], prec)
        else:
            # ^ associates to the right, + - * / to the left
            left, right = (prec + 1, prec) if op == "pow" else (prec, prec + 1)
            text = _expr_text(node[1], left) + sym + _expr_text(node[2], right)
    return f"({text})" if prec < parent_prec else text


def canonical_text(f: RealFunction) -> str:
    """Round-trippable text form: parse_function(canonical_text(f)) has
    an identical rule.  A signed exponent prints in parentheses (x^-y as
    x^(-y)), one level more, so the text may nest past the depth bound."""
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

# an unsigned numeric literal; a sign is a token of its own
_NUMBER = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"

_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<num>{_NUMBER})"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[()\[\]+\-*/^,=]))"
)

# levels an expression may nest: each parenthesis, function, sign, power
# and chained operator counts one
_MAX_DEPTH = 200

_FAMILIES = "power, chainsaw, poly, pwl, or expr"


class _Parser:
    """Recursive descent over the ``(kind, text, pos)`` tokens of a spec, target set or number.

    Expression methods take the nesting level they start at and return
    ``(tree, depth)``; ``deeper`` holds both to ``_MAX_DEPTH``, which
    bounds this recursion and every tree that evaluation and printing
    recurse over.
    """

    def __init__(self, source: str) -> None:
        self.toks: list[tuple[str, str, int]] = []
        self.i = 0
        pos = 0
        while (m := _TOKEN_RE.match(source, pos)) is not None:
            kind = m.lastgroup or "op"
            self.toks.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        rest = source[pos:].lstrip()
        if rest:
            raise ParseError(f"unrecognized character {rest[0]!r}", len(source) - len(rest))
        self.toks.append(("end", "", len(source)))

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.i]

    def take(self) -> tuple[str, str, int]:
        tok = self.toks[self.i]
        if tok[0] != "end":
            self.i += 1
        return tok

    @staticmethod
    def fail(tok: tuple[str, str, int], expected: str):
        raise ParseError(f"got {tok[1] or 'end of input'!r}", tok[2], expected=expected)

    @staticmethod
    def deeper(depth: int, tok: tuple[str, str, int]) -> int:
        """``depth + 1``, or a ParseError at ``tok`` past ``_MAX_DEPTH``."""
        if depth >= _MAX_DEPTH:
            raise ParseError("expression nested too deeply", tok[2])
        return depth + 1

    def expect(self, text: str) -> None:
        """Take the name or operator ``text``."""
        tok = self.take()
        if tok[1] != text:
            self.fail(tok, repr(text))

    def end(self) -> None:
        if (tok := self.peek())[0] != "end":
            raise ParseError(f"unexpected trailing {tok[1]!r}", tok[2])

    def number(self, inf: bool = False) -> float:
        """A literal with an optional sign; with ``inf`` set, also ``inf``."""
        sign, tok = 1.0, self.take()
        if tok[1] in ("+", "-"):
            sign, tok = (-1.0 if tok[1] == "-" else 1.0), self.take()
        if inf and tok[1] == "inf":
            return sign * _INF
        if tok[0] != "num":
            self.fail(tok, "a number or a signed inf" if inf else "a number")
        return sign * float(tok[1])

    def count(self) -> int:
        """A whole number in digits only: no sign, point or exponent."""
        if (tok := self.take())[0] != "num" or not tok[1].isdigit():
            self.fail(tok, "a whole number")
        return int(tok[1])

    def keyword(self, name: str, before: str = ",") -> float:
        """``before``, then ``name=<number>``."""
        self.expect(before)
        self.expect(name)
        self.expect("=")
        return self.number()

    def pair(self) -> tuple[float, float]:
        self.expect("(")
        x = self.number()
        self.expect(",")
        y = self.number()
        self.expect(")")
        return x, y

    def items(self, item) -> list:
        """A parenthesized, comma-separated list of one or more ``item()``."""
        self.expect("(")
        values = [item()]
        while self.peek()[1] == ",":
            self.take()
            values.append(item())
        self.expect(")")
        return values

    def expression(self, level: int = 0, min_prec: int = 1) -> tuple[tuple, int]:
        """Precedence climbing over the left-associative + - * /."""
        node, depth = self.unary(level)
        while (op := _BINARY.get(self.peek()[1])) is not None and op[1] >= min_prec:
            tok = self.take()
            rhs, rhs_depth = self.expression(self.deeper(level, tok), op[1] + 1)
            node, depth = (op[0], node, rhs), self.deeper(max(depth, rhs_depth), tok)
        return node, depth

    def unary(self, level: int) -> tuple[tuple, int]:
        """Signs, then an atom with an optional right-associative power."""
        tok = self.peek()
        if tok[1] in ("-", "+"):
            self.take()
            node, depth = self.unary(self.deeper(level, tok))
            if tok[1] == "-":
                # -<number> folds into one negative constant
                node = ("const", -node[1]) if node[0] == "const" else ("neg", node)
            return node, self.deeper(depth, tok)
        node, depth = self.atom(level)
        tok = self.peek()
        if tok[1] not in ("^", "**"):
            return node, depth
        self.take()
        exponent, exp_depth = self.unary(self.deeper(level, tok))
        return ("pow", node, exponent), self.deeper(max(depth, exp_depth), tok)

    def atom(self, level: int) -> tuple[tuple, int]:
        """A number, x, pi, ``f(expression)`` or ``(expression)``."""
        kind, text, pos = tok = self.take()
        if kind == "num":
            return ("const", float(text)), 0
        if text in ("x", "pi"):
            return (("x",) if text == "x" else ("const", _PI)), 0
        if kind == "name":
            if text not in _FUNCTIONS:
                raise ParseError(f"unknown name {text!r}", pos, expected="x, pi, sin, cos, or abs")
            self.expect("(")
        elif text != "(":
            self.fail(tok, "a number, x, function, or '('")
        node, depth = self.expression(self.deeper(level, tok))
        self.expect(")")
        return (node if text == "(" else (text, node)), self.deeper(depth, tok)


def parse_function(spec: str) -> RealFunction:
    """Parse a function spec string (grammar in the module docstring);
    invalid family parameters are a ParseError at the family name."""
    parser = _Parser(spec)
    head = kind, family, pos = parser.take()
    if kind != "name":
        parser.fail(head, _FAMILIES)
    try:
        if family == "chainsaw":
            f = chainsaw_function()
        elif family == "power":
            alpha = parser.keyword("alpha", before="(")
            b = parser.keyword("b")
            parser.expect(")")
            f = power_function(alpha, b)
        elif family == "poly":
            f = polynomial_function(parser.items(parser.number))
        elif family == "pwl":
            f = piecewise_linear_function(parser.items(parser.pair))
        elif family == "expr":
            parser.expect("(")
            tree, _ = parser.expression()
            lo = parser.keyword("lo")
            hi = parser.keyword("hi")
            parser.expect(")")
            f = RealFunction(Interval(lo, hi), Expression(tree))
        else:
            raise ParseError(f"unknown function family {family!r}", pos, expected=_FAMILIES)
    except ValueError as exc:
        raise ParseError(str(exc), pos) from exc
    parser.end()
    return f


# ---------------------------------------------------------------------------
# finite metric spaces
# ---------------------------------------------------------------------------


@dataclass
class FiniteMetricSpace:
    """A nonempty finite point set with a metric and a real value per point.

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
        if n == 0:
            raise ValueError("a finite metric space needs at least one point")
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
