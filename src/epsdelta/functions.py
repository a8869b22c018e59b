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

import math
import operator
import re
from dataclasses import KW_ONLY, InitVar, dataclass, field
from math import inf as _INF, pi as _PI

import numpy as np

from .errors import DomainError, LevelTooLarge, OutOfRange, ParseError, UnsupportedFamily

# relative slack for accepting points a hair outside the domain
DOMAIN_TOL_REL: float = 2.0 ** -40

# how many sawtooth teeth contribute peak/zero anchor points to grids
CHAINSAW_ANCHOR_TEETH: int = 64

# point budget of every sampled grid: 2^24 + 1 points, the finest dyadic net
MAX_NET_LEVEL: int = 24

# point budget of a distance matrix checked for the triangle inequality:
# the O(n^3) check takes about 0.35 s at 512 points and 2.4-3.3 s at 1000
# on a 2-vCPU x86-64 machine
MAX_METRIC_POINTS: int = 512


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


class Rule:
    """Base of the five rule families, each of which owns its behaviour.

    ``values`` takes the clamped points ``xc``, a float64 array, to a
    fresh one, and runs with numpy's floating-point errors silenced;
    ``value`` takes one float to a float with the bits ``values`` gives
    that point at any array length, and raises no warning.  Either may
    give non-finite values; evaluate_many and evaluate reject them.
    ``text(domain)`` is the canonical spec, ``anchors()`` the points
    `anchor_points` clips to the domain, and ``exact_delta(eps)`` the
    optimal tolerance by formula or OutOfRange.  The defaults below give
    ``value`` as ``values`` on a one-point array, with evaluate_many's
    errors silenced, no anchors and no formula (UnsupportedFamily).
    """

    def value(self, xc: float) -> float:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return float(self.values(np.array([xc]))[0])

    def anchors(self) -> np.ndarray:
        return np.empty(0, dtype=np.float64)

    def exact_delta(self, eps: float) -> float:
        raise UnsupportedFamily(f"no closed form for {type(self).__name__}")


@dataclass(frozen=True)
class PowerFamily(Rule):
    """x**alpha on [0, b] with alpha > 0, b > 0."""

    alpha: float
    b: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0 and np.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not (self.b > 0.0 and np.isfinite(self.b)):
            raise ValueError(f"b must be positive, got {self.b}")

    def values(self, xc: np.ndarray) -> np.ndarray:
        return xc ** self.alpha

    def text(self, domain: Interval) -> str:
        return f"power(alpha={_fmt(self.alpha)},b={_fmt(self.b)})"

    def exact_delta(self, eps: float) -> float:
        alpha, b = self.alpha, self.b
        try:
            spread = b ** alpha
            if not (eps < spread):
                raise OutOfRange(f"epsilon must be below the range spread {spread!r}, got {eps!r}")
            if alpha >= 1.0:
                delta = b - (spread - eps) ** (1.0 / alpha)
            else:
                delta = eps ** (1.0 / alpha)
        except OverflowError:
            raise OutOfRange(
                f"power closed form overflows a float for alpha={alpha!r}, b={b!r}"
            ) from None
        # the formula underflows (alpha < 1) or cancels (alpha >= 1)
        if not (delta > 0.0):
            raise OutOfRange(f"power closed form rounds delta to {delta!r} at epsilon {eps!r}")
        return delta


@dataclass(frozen=True)
class Chainsaw(Rule):
    """Decreasing sawtooth on [0, 1]: tooth n on [1/(n+1), 1/n] has value
    |(2n+1)t - 2|, zero at 2/(2n+1), peak 1/n at the right edge; f(0) = 0."""

    def values(self, xc: np.ndarray) -> np.ndarray:
        # imported on use: a process that never evaluates the sawtooth or
        # scans pairs does not compile the kernels
        from ._kernels import chainsaw_values

        return chainsaw_values(xc)

    def text(self, domain: Interval) -> str:
        return "chainsaw"

    def anchors(self) -> np.ndarray:
        # peaks and zeros of the first teeth, where the optimal tolerance sits
        m = np.arange(1, CHAINSAW_ANCHOR_TEETH + 1, dtype=np.float64)
        return np.concatenate(([0.0], 1.0 / m, 2.0 / (2.0 * m + 1.0)))

    def exact_delta(self, eps: float) -> float:
        # n is the whole number, as a float (inf where 1/eps overflows), with
        # eps = 1/n up to rounding: the float nearest 1/n passes, a real
        # offset from it does not
        n = round(1.0 / eps, 0) if 0.0 < eps <= 1.0 else None
        if n is None or abs(eps - 1.0 / n) > 4.0 * np.spacing(1.0 / n):
            raise OutOfRange(
                f"sawtooth closed form needs epsilon = 1/n for a whole n >= 1, got {eps!r}"
            )
        delta = 1.0 / (n * (2.0 * n + 1.0))
        if delta == 0.0:
            raise OutOfRange(
                f"sawtooth closed form underflows below epsilon about 1e-154, got {eps!r}"
            )
        return delta


@dataclass(frozen=True)
class Polynomial(Rule):
    """Polynomial with ascending coefficients: c0 + c1*x + c2*x^2 + ..."""

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.coefficients) == 0:
            raise ValueError("polynomial needs at least one coefficient")

    def values(self, xc: np.ndarray) -> np.ndarray:
        # Horner in place, with polyval's arithmetic and signed zeros:
        # c[-1] + x*0, then c[-i] + acc*x
        c = self.coefficients
        vals = xc * 0.0
        np.add(c[-1], vals, out=vals)
        for ci in c[-2::-1]:
            np.multiply(vals, xc, out=vals)
            np.add(ci, vals, out=vals)
        return vals

    def value(self, xc: float) -> float:
        # the same operations in the same order, correctly rounded on floats too
        c = self.coefficients
        acc = float(c[-1]) + xc * 0.0
        for ci in c[-2::-1]:
            acc = float(ci) + acc * xc
        return acc

    def text(self, domain: Interval) -> str:
        return "poly(" + ",".join(_fmt(c) for c in self.coefficients) + ")"


@dataclass(frozen=True)
class PiecewiseLinear(Rule):
    """Linear interpolation through breakpoints with strictly increasing x.

    ``px`` and ``py`` hold the breakpoints' coordinates as read-only
    arrays, built once; equality, hashing and ``repr`` use ``points`` alone.
    """

    points: tuple[tuple[float, float], ...]
    px: np.ndarray = field(init=False, repr=False, compare=False)
    py: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError("piecewise linear needs at least two breakpoints")
        xs = [p[0] for p in self.points]
        for a, b in zip(xs, xs[1:]):
            if not a < b:
                raise ValueError(f"breakpoint x-values must strictly increase, got {a} then {b}")
        xy = np.array(self.points, dtype=np.float64).T.copy()
        xy.flags.writeable = False
        object.__setattr__(self, "px", xy[0])
        object.__setattr__(self, "py", xy[1])

    def values(self, xc: np.ndarray) -> np.ndarray:
        return np.interp(xc, self.px, self.py)

    def text(self, domain: Interval) -> str:
        return "pwl(" + ",".join(f"({_fmt(x)},{_fmt(y)})" for x, y in self.points) + ")"

    def anchors(self) -> np.ndarray:
        return self.px


@dataclass(frozen=True)
class Expression(Rule):
    """Expression tree over x; nodes are nested tuples, e.g. ("sin", ("x",))."""

    tree: tuple

    def values(self, xc: np.ndarray) -> np.ndarray:
        vals = _eval_node(self.tree, xc)
        if not isinstance(vals, np.ndarray):
            # a tree with neither x nor pow: one scalar, broadcast once
            return np.full(xc.shape, vals)
        # a bare ``x`` returns its argument: never hand back the caller's array
        return vals.copy() if vals is xc else vals

    def value(self, xc: float) -> float:
        return _eval_point(self.tree, xc)

    def text(self, domain: Interval) -> str:
        return f"expr({_expr_text(self.tree)},lo={_fmt(domain.lo)},hi={_fmt(domain.hi)})"


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


def _eval_node(node: tuple, x: np.ndarray) -> np.ndarray | np.float64:
    """Value of an expression tree at the points ``x``.

    A subtree with neither ``x`` nor ``pow`` stays a float64 scalar;
    every other node returns an array of ``x``'s shape.  Each ufunc but
    ``pow`` writes into a temporary that one of its operands owns (any
    array but ``x``), so only a node whose operands are ``x`` or
    scalars allocates, and ``x`` is never written.  ``pow`` takes both
    operands as full arrays and writes a fresh one: numpy's ``power``
    takes other loops for an exponent it sees as one scalar (2, 0.5, -1
    and others), and those differ in the last ulp from the elementwise
    loop.  A scalar operand is seen so, and so is a one-point operand
    written in place.
    """
    op = node[0]
    if op == "const":
        return np.float64(node[1])
    if op == "x":
        return x
    args = [_eval_node(arg, x) for arg in node[1:]]
    if op == "pow":
        return np.power(*[a if isinstance(a, np.ndarray) else np.full(x.shape, a) for a in args])
    ufunc = _FUNCTIONS[op] if op in _FUNCTIONS else _OPERATORS[op][2]
    for a in args:
        if isinstance(a, np.ndarray) and a is not x:
            return ufunc(*args, out=a)
    return ufunc(*args)


def _quiet(ufunc, *args: float) -> float:
    """``ufunc`` on one-point arrays of ``args``, as `_eval_node` calls it
    on one point, with numpy's floating-point errors silenced."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return float(ufunc(*[np.array([a]) for a in args])[0])


# op name -> a float function with the bits of that op's ufunc: + - * /,
# unary - and abs round correctly on floats too, and x/0 is numpy's signed
# inf or NaN.  sin and cos of inf are NaN without numpy's warning; a NaN's
# sign and payload change no finite result (only pow(NaN, 0) and
# pow(1, NaN) are finite)
_POINT_OPS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": lambda a, b: a / b if b else _quiet(np.divide, a, b),
    "neg": operator.neg,
    "abs": abs,
    "pow": lambda a, b: _quiet(np.power, a, b),
    "sin": lambda a: float(np.sin(a)) if math.isfinite(a) else math.nan,
    "cos": lambda a: float(np.cos(a)) if math.isfinite(a) else math.nan,
}


def _eval_point(node: tuple, x: float) -> float:
    """Value of an expression tree at the one point ``x``, with the bits
    `_eval_node` gives it at any array length."""
    op = node[0]
    if op == "const":
        return float(node[1])
    if op == "x":
        return x
    # spelled out by arity: a comprehension here costs more than the op
    if len(node) == 2:
        return _POINT_OPS[op](_eval_point(node[1], x))
    return _POINT_OPS[op](_eval_point(node[1], x), _eval_point(node[2], x))


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

    # floating-point errors surface as non-finite values, rejected below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = f.rule.values(xc)
    if vals.size and not (np.isfinite(vals.min()) and np.isfinite(vals.max())):
        offender = float(xc[np.argmax(~np.isfinite(vals))])
        raise DomainError(f"f is non-finite at x={offender!r}")
    return vals


def evaluate(f: RealFunction, x: float) -> float:
    """Evaluate f at one point: ``evaluate_many(f, [x])[0]`` bit for bit.

    The domain slack, the clamp, the DomainErrors and their messages
    are `evaluate_many`'s, and the work is the rule's ``value``: Python
    floats for poly and expr, ``values`` on one point for the rest.
    """
    x = float(x)
    lo, hi = f.domain.lo, f.domain.hi
    tol = DOMAIN_TOL_REL * f.domain.span
    # a NaN fails this test too
    if not (lo - tol <= x <= hi + tol):
        raise DomainError(f"x={x!r} outside domain [{lo!r}, {hi!r}]")
    # clamping is the identity (-0.0 included) inside the domain
    xc = float(lo) if x < lo else float(hi) if x > hi else x
    val = f.rule.value(xc)
    if not math.isfinite(val):
        raise DomainError(f"f is non-finite at x={xc!r}")
    return val


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
            xs = _sorted_distinct(np.concatenate((xs, extra)))
    return xs, evaluate_many(f, xs)


def _sorted_distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of ``a``, ascending: ``np.unique`` without its
    import of ``numpy.ma``.  Of equal values (-0.0 and 0.0) the first in
    ``a`` is kept, since the sort is stable."""
    s = np.sort(a, kind="stable")
    keep = np.empty(s.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def anchor_points(f: RealFunction) -> np.ndarray:
    """Abscissas a sampling grid should include exactly for this rule.

    Sawtooth peaks/zeros and piecewise-linear breakpoints are where the
    optimal tolerance is attained; a uniform grid almost never hits them.
    Smooth families need no anchors.
    """
    pts = f.rule.anchors()
    lo, hi = f.domain.lo, f.domain.hi
    return _sorted_distinct(pts[(pts >= lo) & (pts <= hi)])


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
    return f.rule.text(f.domain)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# an unsigned numeric literal; a sign is a token of its own
_NUMBER = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"

# re.ASCII: whitespace, like every other character of the grammars, is ASCII
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<num>{_NUMBER})"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[()\[\]+\-*/^,=]))",
    re.ASCII,
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
        rest = source[pos:].lstrip(" \t\n\r\f\v")
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


def _triangle_violated(d: np.ndarray) -> bool:
    """Whether some d[i, k] > d[i, j] + d[j, k] + slack, in O(n^3) time.

    The slack, 32 eps max(d, 1) for the float64 eps, absorbs rounding:
    a line metric fl(|x_i - x_j|) misses the inequality by at most
    about 3 eps max d (each distance is off by a relative eps/2, the sum
    by one more), and adding the slack rounds by under eps max d more.
    """
    slack = 32.0 * np.finfo(np.float64).eps * max(float(d.max()), 1.0)
    # one middle point j at a time keeps memory at O(n^2)
    return any((d > (d[:, j, None] + d[None, j, :]) + slack).any() for j in range(len(d)))


@dataclass(eq=False)
class FiniteMetricSpace:
    """A nonempty finite point set, given by its distance matrix, with a
    real value per point; spaces compare by identity.

    Values must be finite.  A matrix passed in must be finite, zero on
    the diagonal, symmetric and nonnegative, and is also checked for the
    triangle inequality, up to a small float-rounding slack; that check
    takes O(n^3) time, so past ``MAX_METRIC_POINTS`` points it raises
    LevelTooLarge instead.  :meth:`from_line_points` skips all five
    distance checks, which its matrix meets by construction.
    """

    dist: np.ndarray
    values: np.ndarray
    _: KW_ONLY
    _line_metric: InitVar[bool] = False

    def __post_init__(self, _line_metric: bool) -> None:
        self.dist = np.asarray(self.dist, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.dist.ndim != 2 or self.dist.shape[0] != self.dist.shape[1]:
            raise ValueError(f"dist must be a square matrix, got shape {self.dist.shape}")
        n = len(self.dist)
        if n == 0:
            raise ValueError("a finite metric space needs at least one point")
        if self.values.shape != (n,):
            raise ValueError(f"values must have length {n}, got {self.values.shape}")
        if not np.isfinite(self.values).all() or not (_line_metric or np.isfinite(self.dist).all()):
            raise ValueError("distances and values must be finite")
        if _line_metric:
            return
        if (np.diagonal(self.dist) != 0.0).any():
            raise ValueError("dist diagonal must be exactly zero")
        if not np.array_equal(self.dist, self.dist.T):
            raise ValueError("dist must be symmetric")
        if (self.dist < 0.0).any():
            raise ValueError("distances must be nonnegative")
        if n > MAX_METRIC_POINTS:
            raise LevelTooLarge(
                f"{n} points exceed the maximum {MAX_METRIC_POINTS} of a checked distance matrix"
            )
        if _triangle_violated(self.dist):
            raise ValueError("triangle inequality violated")

    @classmethod
    def from_line_points(cls, xs, values) -> "FiniteMetricSpace":
        """The points ``xs`` on the line with the induced metric
        |x_i - x_j|, and ``values`` at them.

        With a finite span every rounded difference is finite, x - x is
        +0.0 and fl(a - b) = -fl(b - a), so the matrix is finite, zero on
        the diagonal, symmetric and nonnegative, and its rounding stays
        inside the triangle check's slack: no distance check runs.
        """
        xs = np.asarray(xs, dtype=np.float64)
        # a NaN or infinite coordinate gives a NaN or infinite span too
        with np.errstate(over="ignore", invalid="ignore"):
            span = xs.max() - xs.min() if xs.size else 0.0
        if not np.isfinite(span):
            raise ValueError("coordinates and their span must be finite")
        dist = np.subtract.outer(xs, xs)
        np.abs(dist, out=dist)
        return cls(dist, values, _line_metric=True)
