"""Function model: construction, evaluation, parsing, metric spaces."""

import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import epsdelta
from epsdelta import (
    Chainsaw,
    DomainError,
    Expression,
    FiniteMetricSpace,
    Interval,
    LevelTooLarge,
    ParseError,
    PiecewiseLinear,
    Polynomial,
    PowerFamily,
    RealFunction,
    anchor_points,
    canonical_text,
    certified_max_bound,
    chainsaw_function,
    evaluate,
    evaluate_many,
    expression_function,
    parse_function,
    piecewise_linear_function,
    polynomial_function,
    power_function,
    refine_extrema,
    sample_grid,
)
from epsdelta import functions
from epsdelta.functions import DOMAIN_TOL_REL, MAX_METRIC_POINTS, _triangle_violated


class TestInterval:
    def test_orders_endpoints(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)

    def test_rejects_non_finite(self):
        # an infinite width would make the domain slack infinite too
        for lo, hi in ((0.0, np.inf), (-1e308, 1e308)):
            with pytest.raises(ValueError):
                Interval(lo, hi)

    @pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (2.0, 1.0)])
    def test_needs_positive_width(self, lo, hi):
        with pytest.raises(ValueError, match=r"interval needs lo < hi"):
            Interval(lo, hi)

    def test_span(self):
        assert Interval(-1.0, 3.0).span == 4.0


class TestPowerFamily:
    def test_values(self):
        f = power_function(2.0, 1.0)
        assert evaluate(f, 0.5) == 0.25
        assert evaluate(f, 0.0) == 0.0
        assert evaluate(f, 1.0) == 1.0

    def test_root_branch(self):
        f = power_function(0.5, 1.0)
        assert evaluate(f, 0.25) == 0.5
        assert evaluate(f, 0.0) == 0.0

    def test_domain_is_zero_to_b(self):
        f = power_function(3.0, 2.0)
        assert (f.domain.lo, f.domain.hi) == (0.0, 2.0)
        assert evaluate(f, 2.0) == 8.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PowerFamily(0.0, 1.0)
        with pytest.raises(ValueError):
            PowerFamily(2.0, -1.0)


class TestChainsaw:
    def test_pinned_values(self):
        f = chainsaw_function()
        assert evaluate(f, 0.0) == 0.0
        assert evaluate(f, 1.0) == 1.0
        assert evaluate(f, 0.4) == 0.0
        assert evaluate(f, 0.5) == 0.5
        assert evaluate(f, 2.0 / 3.0) == 0.0
        # tooth 1 descends with slope 3 from (2/3, 0) backwards: |3t - 2|
        assert evaluate(f, 0.75) == 0.25

    def test_tooth_peaks_and_zeros(self):
        f = chainsaw_function()
        for n in range(1, 21):
            peak = evaluate(f, 1.0 / n)
            # error scale is set by the product (2n+1)/n ~ 2, not by 1/n
            assert abs(peak - 1.0 / n) <= 4.0 * np.spacing(2.0)
            assert evaluate(f, 2.0 / (2.0 * n + 1.0)) == 0.0

    def test_linear_between_breakpoints(self):
        f = chainsaw_function()
        # inside tooth 2 = [1/3, 1/2]: value |5t - 2|
        assert evaluate(f, 0.45) == abs(5.0 * 0.45 - 2.0)
        assert evaluate(f, 0.35) == abs(5.0 * 0.35 - 2.0)

    def test_domain_clamp_and_reject(self):
        f = chainsaw_function()
        assert evaluate(f, 1.0 + 1e-14) == 1.0
        with pytest.raises(DomainError):
            evaluate(f, 1.001)
        with pytest.raises(DomainError):
            evaluate(f, -0.001)


class TestPolynomial:
    def test_ascending_coefficients(self):
        f = polynomial_function([-2.0, 0.0, 0.0, 1.0])  # x^3 - 2
        assert evaluate(f, 0.0) == -2.0
        assert evaluate(f, 1.0) == -1.0

    def test_default_domain(self):
        f = polynomial_function([1.0, 1.0])
        assert (f.domain.lo, f.domain.hi) == (0.0, 1.0)

    def test_custom_domain(self):
        f = polynomial_function([0.0, 0.0, 0.0, 1.0], Interval(0.0, 2.0))
        assert evaluate(f, 2.0) == 8.0

    def test_needs_a_coefficient(self):
        with pytest.raises(ValueError):
            Polynomial(())


class TestPiecewiseLinear:
    def test_breakpoints_exact(self):
        f = piecewise_linear_function([(0.0, 0.0), (0.25, 1.0), (1.0, 0.0)])
        assert evaluate(f, 0.25) == 1.0
        assert evaluate(f, 0.0) == 0.0
        assert evaluate(f, 1.0) == 0.0

    def test_interpolates(self):
        f = piecewise_linear_function([(0.0, 0.0), (1.0, 2.0)])
        assert evaluate(f, 0.5) == 1.0

    def test_x_must_increase(self):
        with pytest.raises(ValueError):
            piecewise_linear_function([(0.0, 0.0), (0.0, 1.0)])
        with pytest.raises(ValueError):
            piecewise_linear_function([(0.5, 0.0), (0.25, 1.0)])

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            piecewise_linear_function([(0.0, 0.0)])


    def test_breakpoint_arrays_are_built_once_and_kept_out_of_equality(self):
        a = parse_function("pwl((0,0),(0.3,1),(1,0))").rule
        b = piecewise_linear_function([(0, 0), (0.3, 1), (1, 0)]).rule
        assert a == b and hash(a) == hash(b)
        assert a != parse_function("pwl((0,0),(0.3,2),(1,0))").rule
        assert repr(a) == "PiecewiseLinear(points=((0.0, 0.0), (0.3, 1.0), (1.0, 0.0)))"
        assert a.px.tolist() == [0.0, 0.3, 1.0] and a.py.tolist() == [0.0, 1.0, 0.0]
        with pytest.raises(ValueError):
            a.px[0] = 1.0


class TestExpression:
    def test_arithmetic(self):
        f = expression_function("x^2+1", 0.0, 1.0)
        assert evaluate(f, 0.5) == 1.25

    def test_trig(self):
        f = expression_function("sin(pi*x)", 0.0, 1.0)
        assert evaluate(f, 0.5) == pytest.approx(1.0, abs=1e-15)
        g = expression_function("cos(x)", 0.0, 1.0)
        assert evaluate(g, 0.0) == 1.0

    def test_precedence(self):
        f = expression_function("-x^2", 0.0, 1.0)
        assert evaluate(f, 0.5) == -0.25
        g = expression_function("2*x^2", 0.0, 1.0)
        assert evaluate(g, 0.5) == 0.5
        h = expression_function("2^2^2", 0.0, 1.0)  # right-associative
        assert evaluate(h, 0.0) == 16.0

    def test_abs_and_division(self):
        f = expression_function("abs(x-1/2)", 0.0, 1.0)
        assert evaluate(f, 0.25) == 0.25

    def test_division_blowup_is_domain_error(self):
        f = expression_function("1/x", 0.0, 1.0)
        with pytest.raises(DomainError):
            evaluate(f, 0.0)

    def test_double_star_power(self):
        f = expression_function("x**3", 0.0, 1.0)
        assert evaluate(f, 0.5) == 0.125

    def test_trailing_text_rejected_as_in_specs(self):
        with pytest.raises(ParseError) as info:
            expression_function("x)", 0.0, 1.0)
        assert str(info.value) == "unexpected trailing ')' (at position 1)"


class TestParseFunction:
    @pytest.mark.parametrize(
        "spec",
        [
            "power(alpha=2,b=1)",
            "power(alpha=0.5,b=2.25)",
            "chainsaw",
            "poly(-2,0,0,1)",
            "pwl((0,0),(0.5,1),(1,0))",
            "expr(cos(x),lo=0,hi=1)",
            "expr(x^2-x/3+1,lo=-1,hi=2)",
            "expr(abs(sin(2*x)),lo=0,hi=3.14)",
        ],
    )
    def test_round_trip(self, spec):
        f = parse_function(spec)
        again = parse_function(canonical_text(f))
        assert again.rule == f.rule

    def test_whitespace_tolerated(self):
        f = parse_function("  power( alpha = 2 , b = 1 ) ")
        assert f.rule == PowerFamily(2.0, 1.0)

    def test_negative_numbers(self):
        f = parse_function("pwl((-1,-2),(1,2))")
        assert f.rule == PiecewiseLinear(((-1.0, -2.0), (1.0, 2.0)))

    @pytest.mark.parametrize(
        "bad",
        [
            "wedge(1,2)",
            "power(alpha=2)",
            "power(alpha=2,b=)",
            "poly()",
            "pwl((0,0))",
            "pwl((0,0),(0,1))",
            "expr(x,lo=1,hi=0)",
            "chainsaw()",
            "chainsaw garbage",
            "expr(x+*2,lo=0,hi=1)",
            "expr(sin(x,lo=0,hi=1)",
            "",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_function(bad)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_function("power(alpha=2;b=1)")
        assert info.value.position == 13

    def test_unknown_name_in_expression(self):
        with pytest.raises(ParseError) as info:
            parse_function("expr(foo(x),lo=0,hi=1)")
        assert str(info.value) == (
            "unknown name 'foo' (at position 5, expected x, pi, sin, cos, or abs)"
        )

    def test_canonical_text_examples(self):
        assert canonical_text(chainsaw_function()) == "chainsaw"
        assert canonical_text(power_function(2, 1)) == "power(alpha=2,b=1)"
        assert canonical_text(parse_function("poly(0.1,-2)")) == "poly(0.10000000000000001,-2)"

    @pytest.mark.parametrize(
        "spec, text",
        [
            ("expr((-0)^x,lo=0,hi=1)", "expr((-0)^x,lo=0,hi=1)"),
            ("expr(-0^x,lo=0,hi=1)", "expr(-0^x,lo=0,hi=1)"),
            ("expr(x+1/1e400,lo=0,hi=1)", "expr(x+1/1e999,lo=0,hi=1)"),
            ("expr(-1e400*x,lo=0,hi=1)", "expr(-1e999*x,lo=0,hi=1)"),
        ],
    )
    def test_canonical_text_of_signed_zero_and_inf(self, spec, text):
        f = parse_function(spec)
        assert canonical_text(f) == text
        assert repr(parse_function(text)) == repr(f)

    @given(st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_canonical_text_round_trips_generated_trees(self, data):
        tree = data.draw(expression_trees())
        f = RealFunction(Interval(-1.5, 2.0), Expression(tree))
        assert repr(parse_function(canonical_text(f))) == repr(f)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("expr(x,lo=-1e400,hi=1)", "interval endpoints must be finite"),
            ("expr(x,lo=0,hi=1e400)", "interval endpoints must be finite"),
            ("expr(x,lo=-1e308,hi=1e308)", "interval width overflows"),
            ("pwl((-1e308,0),(1e308,1))", "interval width overflows"),
            ("expr(x,lo=1,hi=1)", "interval needs lo < hi"),
            ("power(alpha=2,b=0)", "b must be positive, got 0.0"),
            ("power(alpha=2,b=-1)", "b must be positive, got -1.0"),
        ],
    )
    def test_bad_domain_is_a_parse_error_at_the_family(self, spec, message):
        with pytest.raises(ParseError, match=message) as info:
            parse_function(spec)
        assert info.value.position == 0


CONSTANTS = [0.0, -0.0, np.inf, -np.inf, 1e-300, -1e-300, 2.5, -2.5, 3.0, -7.0, np.pi]


@st.composite
def expression_trees(draw, depth=0):
    """Trees as the parser builds them: a sign on a number is part of the
    constant, so ``neg`` never holds a constant."""
    kinds = ["const", "x"] + (["neg", "fn", "bin"] if depth < 5 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "const":
        return ("const", draw(st.sampled_from(CONSTANTS) | st.floats(allow_nan=False)))
    if kind == "x":
        return ("x",)
    inner = draw(expression_trees(depth + 1))
    if kind == "neg":
        return ("neg", inner) if inner[0] != "const" else ("const", -inner[1])
    if kind == "fn":
        return (draw(st.sampled_from(["sin", "cos", "abs"])), inner)
    op = draw(st.sampled_from(["add", "sub", "mul", "div", "pow"]))
    return (op, inner, draw(expression_trees(depth + 1)))


# spec bodies 'depth' levels deep, one level per parenthesis, function, sign,
# power or chained operator
DEEP_SHAPES = {
    "parens": lambda n: "(" * n + "x" + ")" * n,
    "sin": lambda n: "sin(" * n + "x" + ")" * n,
    "sum": lambda n: "+".join(["x"] * (n + 1)),
    "minus": lambda n: "-" * n + "x",
    "power": lambda n: "x^" * n + "x",
    "differences": lambda n: "x-(" * (n // 2) + "x" + ")" * (n // 2) + "+x" * (n % 2),
}


class TestDepthBound:
    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    def test_deep_spec_parses_evaluates_and_round_trips(self, shape):
        f = parse_function(f"expr({DEEP_SHAPES[shape](199)},lo=0.5,hi=1)")
        assert np.isfinite(evaluate_many(f, np.linspace(0.5, 1.0, 9))).all()
        again = parse_function(canonical_text(f))
        assert repr(again) == repr(f)
        trace = refine_extrema(again, 4)
        assert certified_max_bound(again, trace, 4, 64) >= trace.max_values[-1]

    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    def test_bound_is_two_hundred_levels(self, shape):
        parse_function(f"expr({DEEP_SHAPES[shape](200)},lo=0.5,hi=1)")
        expression_function(DEEP_SHAPES[shape](200), 0.5, 1.0)
        for depth in (201, 3000):
            for parse in (
                lambda: parse_function(f"expr({DEEP_SHAPES[shape](depth)},lo=0.5,hi=1)"),
                lambda: expression_function(DEEP_SHAPES[shape](depth), 0.5, 1.0),
            ):
                with pytest.raises(ParseError, match="nested too deeply"):
                    parse()

    # "expr(" is 5 characters: the 201st "(", "sin", "+" or "-"
    @pytest.mark.parametrize(
        "shape, position", [("parens", 205), ("sin", 805), ("sum", 406), ("minus", 205)]
    )
    def test_error_names_the_first_token_past_the_bound(self, shape, position):
        with pytest.raises(ParseError) as info:
            parse_function(f"expr({DEEP_SHAPES[shape](201)},lo=0,hi=1)")
        assert info.value.position == position


class TestEvaluateMany:
    @pytest.mark.parametrize(
        "spec",
        ["power(alpha=2,b=1)", "power(alpha=0.5,b=3)", "power(alpha=1.7,b=2)", "chainsaw",
         "poly(1,-3,1)", "poly(0,0,0,1)", "pwl((0,0),(0.3,1),(1,0))",
         "pwl((-1,2),(0,-0.5),(0.25,0.125),(3,7))", "expr(sin(3*x)+x/2,lo=0,hi=2)",
         "expr(0.3*cos(x)+0.2,lo=0,hi=1)", "expr(x^0.5-abs(x-1)^3,lo=0,hi=2)"],
    )
    def test_matches_scalar_evaluate(self, spec):
        f = parse_function(spec)
        xs = np.linspace(f.domain.lo, f.domain.hi, 101)
        vals = evaluate_many(f, xs)
        assert vals.shape == xs.shape
        assert _bits([evaluate(f, float(x)) for x in xs]) == _bits(vals)
        assert all(type(evaluate(f, x)) is float for x in (xs[0], float(xs[50])))

    @pytest.mark.parametrize(
        "lo, hi",
        [(-2.0, 6.0), (0.0, 1.0), (-0.0, 1.0), (-1.0, -0.0)],
    )
    def test_scalar_evaluate_keeps_the_domain_handling(self, lo, hi):
        # slack, clamp, signed zeros and the domain message are evaluate_many's
        f = expression_function("x*1", lo, hi)
        tol = DOMAIN_TOL_REL * f.domain.span
        for x in (lo, hi, -0.0, 0.0, lo - tol / 2, hi + tol / 2, lo - tol, hi + tol,
                  lo - 2 * tol, hi + 2 * tol, np.nan, np.inf, -np.inf, (lo + hi) / 2):
            try:
                want = evaluate_many(f, [x])
            except DomainError as exc:
                with pytest.raises(DomainError) as info:
                    evaluate(f, x)
                assert str(info.value) == str(exc)
            else:
                assert _bits([evaluate(f, x)]) == _bits(want)

    @pytest.mark.parametrize(
        "text", ["1/(x-0.75)", "-1/(x-0.75)", "(x-0.75)/(x-0.75)", "sin(1/(x-0.75))", "1e300*x*1e300"]
    )
    def test_scalar_non_finite_value_message(self, text):
        f = expression_function(text, 0.0, 1.0)
        with pytest.raises(DomainError) as info:
            evaluate(f, 0.75)
        assert str(info.value) == "f is non-finite at x=0.75"
        with pytest.raises(DomainError, match=r"^f is non-finite at x=0\.75$"):
            evaluate_many(f, [0.75])

    def test_rejects_non_finite_input(self):
        f = power_function(2.0, 1.0)
        with pytest.raises(DomainError):
            evaluate_many(f, [0.5, np.nan])

    def test_reports_offending_point(self):
        f = chainsaw_function()
        with pytest.raises(DomainError, match="1.5"):
            evaluate_many(f, [0.5, 1.5])

    # overflow in polyval, an infinite breakpoint value, overflow in x**alpha
    @pytest.mark.parametrize(
        "spec", ["poly(1e308,1e308)", "pwl((0,0),(1,1e400))", "power(alpha=400,b=10)"]
    )
    def test_rejects_non_finite_values(self, spec):
        # pytest turns warnings into errors, so a numpy RuntimeWarning fails this too
        f = parse_function(spec)
        with pytest.raises(DomainError, match="non-finite"):
            evaluate_many(f, np.linspace(f.domain.lo, f.domain.hi, 64))

    @pytest.mark.parametrize(
        "xs, offender",
        [([0.5, np.nan], "nan"), ([np.inf], "inf"), ([0.25, -np.inf, np.nan], "-inf"),
         ([1.5, np.nan], "1.5"), ([0.5, 1.0 + 2.0 ** -30, 2.0], "1.0000000009313226")],
    )
    def test_domain_message_names_first_offender(self, xs, offender):
        f = power_function(2.0, 1.0)
        with pytest.raises(DomainError) as info:
            evaluate_many(f, xs)
        assert str(info.value) == f"x={offender} outside domain [0.0, 1.0]"

    # +inf, -inf and nan values at x = 0.75 and 0.5
    @pytest.mark.parametrize(
        "text", ["1/(x-0.5)+1/(x-0.75)", "-1/(x-0.5)-1/(x-0.75)", "(x-0.5)*(x-0.75)/(x-0.5)/(x-0.75)"]
    )
    def test_non_finite_value_message_names_first_offender(self, text):
        f = expression_function(text, 0.0, 1.0)
        with pytest.raises(DomainError) as info:
            evaluate_many(f, [0.25, 0.75, 0.5])
        assert str(info.value) == "f is non-finite at x=0.75"

    def test_slack_outside_domain_is_clamped(self):
        f = expression_function("x", -2.0, 6.0)
        tol = DOMAIN_TOL_REL * f.domain.span
        xs = np.array([-2.0 - tol / 2, 6.0 + tol / 2, -2.0 - tol, 1.0])
        assert evaluate_many(f, xs).tolist() == [-2.0, 6.0, -2.0, 1.0]
        for x in (-2.0 - 2 * tol, 6.0 + 2 * tol):
            with pytest.raises(DomainError, match="outside domain"):
                evaluate_many(f, [1.0, x])

    def test_negative_zero_keeps_its_sign(self):
        f = expression_function("x", 0.0, 1.0)
        vals = evaluate_many(f, [-0.0, 0.0])
        assert np.signbit(vals).tolist() == [True, False]

    def test_result_never_aliases_the_argument(self):
        f = expression_function("x", 0.0, 1.0)
        xs = np.linspace(0.0, 1.0, 5)
        vals = evaluate_many(f, xs)
        assert not np.shares_memory(vals, xs)
        vals[0] = 7.0
        assert xs[0] == 0.0

    @pytest.mark.parametrize(
        "spec",
        ["power(alpha=2,b=1)", "chainsaw", "poly(1,-3,1)", "pwl((0,0),(0.3,1),(1,0))",
         "expr(sin(3*x)+x/2,lo=0,hi=2)", "expr(2,lo=0,hi=1)"],
    )
    def test_empty_input_gives_empty_output(self, spec):
        # pytest turns warnings into errors: an empty reduction would fail here
        vals = evaluate_many(parse_function(spec), np.empty(0))
        assert vals.shape == (0,)
        assert vals.dtype == np.float64


# The expression evaluator as it was before evaluation in place: every
# constant a full array, every node a fresh array.
_ORACLE_UFUNCS = {
    "add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide,
    "neg": np.negative, "pow": np.power, "sin": np.sin, "cos": np.cos, "abs": np.abs,
}


def _oracle_eval_node(node, x):
    op = node[0]
    if op == "const":
        return np.full(x.shape, node[1])
    if op == "x":
        return x
    return _ORACLE_UFUNCS[op](*[_oracle_eval_node(arg, x) for arg in node[1:]])


# every point lies in [-2, 3]; lengths 1, 43 and 1000 meet SIMD loops'
# bodies and tails; -0.0 and 0.0 both appear
_BIT_DOMAIN = Interval(-2.0, 3.0)
_BIT_XS = (
    np.array([1.7]),
    np.concatenate(([-0.0, 0.0], np.linspace(-2.0, 3.0, 41))),
    np.linspace(0.125, 3.0, 1000),
)
_BIT_CONSTS = (0.0, -0.0, 0.5, 2.0, 3.0, -1.0, 1.5, -2.5, np.pi, 1e-300, 1e300)


def _const(c):
    return ("const", c)


_bit_trees = st.recursive(
    st.one_of(
        st.just(("x",)),
        st.sampled_from(_BIT_CONSTS).map(_const),
        st.floats(-100.0, 100.0).map(_const),
    ),
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(["sin", "cos", "abs", "neg"]), kids),
        st.tuples(st.sampled_from(["add", "sub", "mul", "div", "pow"]), kids, kids),
        st.tuples(st.just("pow"), kids, st.sampled_from([0.5, 2.0, 3.0, -1.0]).map(_const)),
    ),
    max_leaves=10,
)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64).tolist()


def _assert_same_evaluation(f, xs, want):
    """evaluate_many(f, xs) has the bits of ``want``, or the DomainError
    that a non-finite value of ``want`` names; ``xs`` stays as it was.
    So does evaluate(f, x) at each point of ``xs``."""
    before = _bits(xs)
    finite = np.isfinite(want)
    if finite.all():
        assert _bits(evaluate_many(f, xs)) == _bits(want)
    else:
        with pytest.raises(DomainError) as info:
            evaluate_many(f, xs)
        assert str(info.value) == f"f is non-finite at x={float(xs[np.argmax(~finite)])!r}"
    for x, w, ok in zip(xs.tolist(), want.tolist(), finite.tolist()):
        if ok:
            assert _bits([evaluate(f, x)]) == _bits([w]), x
        else:
            with pytest.raises(DomainError) as info:
                evaluate(f, x)
            assert str(info.value) == f"f is non-finite at x={x!r}"
    assert _bits(xs) == before


class TestEvaluationBits:
    """Evaluation in place gives the bits of the evaluation it replaced."""

    @staticmethod
    def check_tree(tree):
        f = RealFunction(_BIT_DOMAIN, Expression(tree))
        for xs in _BIT_XS:
            with np.errstate(all="ignore"):
                want = np.asarray(_oracle_eval_node(tree, xs), dtype=np.float64)
            _assert_same_evaluation(f, xs.copy(), want)

    @pytest.mark.parametrize(
        "text",
        ["x^0.5", "x^2", "x^3", "x^-1", "x^(-1)", "2^x", "0.5^x", "(-0)^x", "0^x", "pi^(x*2)",
         "(x+1)^0.5", "(x*x)^2", "sin(x)^3", "2^3", "(-1)^0.5", "2^0.5", "0^-1", "x^x",
         "sin(2)", "cos(-0)", "abs(-0)", "-0", "0", "-(0)", "sin(pi)+cos(1)*2", "sin(0)*x",
         "abs(-0)+x*0", "x*-0", "-0/x", "1/x", "x-x", "-x", "abs(x)-cos(x)", "x", "1e300*x*x",
         # x/0 is numpy's signed inf or NaN on one point too, and pow of a NaN
         # or inf can be finite again
         "1/(1/x)", "-1/(1/x)", "x/0", "x/-0", "0/(x*0)", "(x*0/0)^0", "1^(0/(x*0))",
         "sin(1/x)^0", "1^cos(1/x)", "cos(1/x)*0", "0^(1/x)", "0.5^(-1/x)", "(1/x)^-1", "1e300*x*1e300-1/x"],
    )
    def test_matches_full_array_evaluation(self, text):
        self.check_tree(expression_function(text, -2.0, 3.0).rule.tree)

    @given(_bit_trees)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_generated_trees_match(self, tree):
        self.check_tree(tree)

    @given(
        st.lists(
            st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e308, -1e308]), st.floats(-1e3, 1e3)),
            min_size=1,
            max_size=9,
        )
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    @example([-0.0])
    @example([0.0, -0.0, -0.0])
    @example([-0.0, 0.0, -1.0])
    def test_horner_matches_polyval(self, coefficients):
        f = polynomial_function(coefficients, _BIT_DOMAIN)
        for xs in _BIT_XS:
            with np.errstate(all="ignore"):
                want = np.polynomial.polynomial.polyval(xs, np.asarray(coefficients))
            _assert_same_evaluation(f, xs.copy(), want)

    @pytest.mark.parametrize(
        "spec",
        ["power(alpha=2,b=1)", "chainsaw", "poly(1,-3,1)", "poly(-0)", "pwl((0,0),(0.3,1),(1,0))",
         "expr(x,lo=0,hi=1)", "expr(2,lo=0,hi=1)", "expr(x^0.5,lo=0,hi=1)",
         "expr(-x*2+sin(x),lo=0,hi=1)"],
    )
    def test_callers_array_unchanged(self, spec):
        f = parse_function(spec)
        tol = DOMAIN_TOL_REL * f.domain.span
        # inside the domain the points are used as given; a hair outside they are clamped
        for xs in (np.linspace(0.0, 1.0, 33), np.array([-tol / 2, 0.5, 1.0 + tol / 2])):
            before = _bits(xs)
            vals = evaluate_many(f, xs)
            assert _bits(xs) == before
            assert not np.shares_memory(vals, xs)


def range_bounds(f, resolution):
    """(min, max) of f over a uniform sample grid of ``resolution`` points."""
    _, vals = sample_grid(f, resolution)
    return float(vals.min()), float(vals.max())


class TestRangeBounds:
    def test_identity(self):
        f = piecewise_linear_function([(0.0, 0.0), (1.0, 1.0)])
        assert range_bounds(f, 1024) == (0.0, 1.0)

    def test_chainsaw_spread_is_one(self):
        # the right endpoint sits on tooth 1's ascent, so the max is f(1) = 1
        lo, hi = range_bounds(chainsaw_function(), 2 ** 12)
        assert lo == 0.0
        assert hi == 1.0

    def test_resolution_validated(self):
        with pytest.raises(ValueError):
            range_bounds(chainsaw_function(), 1)

    @pytest.mark.parametrize(
        "spec",
        ["chainsaw", "power(alpha=3,b=2)", "poly(0,1,-1)", "pwl((0,0),(0.3,1),(1,0))",
         "expr(sin(5*x),lo=0,hi=2)"],
    )
    def test_nested_grids_never_shrink_spread(self, spec):
        # r -> 2r - 1 keeps every old point, so min/max are monotone
        f = parse_function(spec)
        r = 33
        lo_prev, hi_prev = range_bounds(f, r)
        for _ in range(5):
            r = 2 * r - 1
            lo, hi = range_bounds(f, r)
            assert lo <= lo_prev
            assert hi >= hi_prev
            lo_prev, hi_prev = lo, hi


class TestAnchorPoints:
    def test_chainsaw_anchors(self):
        pts = anchor_points(chainsaw_function())
        for want in (0.0, 0.4, 0.5, 2.0 / 3.0, 1.0, 2.0 / 11.0):
            assert want in pts
        assert ((pts >= 0.0) & (pts <= 1.0)).all()
        assert (np.diff(pts) > 0).all()

    def test_pwl_anchors_are_breakpoints(self):
        f = piecewise_linear_function([(0.0, 0.0), (0.375, 1.0), (1.0, 0.0)])
        assert anchor_points(f).tolist() == [0.0, 0.375, 1.0]

    def test_smooth_families_have_none(self):
        assert anchor_points(power_function(2, 1)).size == 0
        assert anchor_points(polynomial_function([1, 2])).size == 0
        assert anchor_points(expression_function("x*x", 0, 1)).size == 0


class TestSortedDistinct:
    """``np.unique`` of a float array, less its import of ``numpy.ma``."""

    @pytest.mark.parametrize(
        "values",
        [[], [0.5], [2.0] * 5, [3.0, -1.0, 3.0, 2.0, -1.0, 5e-324, -np.inf, np.inf],
         [1.0, 0.0, -0.0, 1.0, -0.0], [-0.0, 1.0, 0.0, 0.0]],
        ids=["empty", "one", "all-equal", "mixed", "zero-first", "negative-zero-first"],
    )
    def test_values_of_unique(self, values):
        a = np.array(values, dtype=np.float64)
        got = functions._sorted_distinct(a)
        assert got.dtype == np.float64
        assert np.array_equal(got, np.unique(a))
        # of -0.0 and 0.0 the first in the input stays, on any numpy
        zeros = a[a == 0]
        assert np.signbit(got[got == 0]).tolist() == np.signbit(zeros[:1]).tolist()

    def test_recorded_inputs_equal_unique(self, monkeypatch, capsys):
        # the arrays the grid commands sort, anchors and zoom windows among them
        from epsdelta import cli, delta

        sorted_distinct, seen = functions._sorted_distinct, []

        def recorded(a):
            seen.append(a.copy())
            return sorted_distinct(a)

        for module in (functions, delta):
            monkeypatch.setattr(module, "_sorted_distinct", recorded)
        for argv in (
            ["delta", "--fn", "chainsaw", "--eps", "0.3", "--resolution", "700"],
            ["delta-profile", "--fn", "chainsaw", "--eps", "0.2,0.25,0.7", "--resolution", "300"],
            ["verify-delta", "--fn", "chainsaw", "--eps", "0.25", "--delta", "0.02"],
            ["delta", "--fn", "pwl((0,0),(0.3,1),(0.6,-1),(1,0))", "--eps", "0.4"],
            ["delta", "--fn", "power(alpha=2,b=1)", "--eps", "0.19", "--resolution", "512"],
        ):
            assert cli.run(argv) == 0
        capsys.readouterr()
        assert len(seen) >= 10
        for a in seen:
            assert sorted_distinct(a).tobytes() == np.unique(a).tobytes()


class TestFiniteMetricSpace:
    def test_from_line_points(self):
        sp = FiniteMetricSpace.from_line_points([0.0, 1.0, 3.0], [0.5, 0, 2])
        assert sp.dist.shape == (3, 3)
        assert sp.dist[0, 2] == 3.0
        assert sp.dist[2, 0] == 3.0
        assert (np.diagonal(sp.dist) == 0.0).all()
        assert sp.values.dtype == np.float64
        assert sp.values.tolist() == [0.5, 0.0, 2.0]

    def test_fields_are_the_matrix_and_the_values(self):
        assert [f.name for f in dataclasses.fields(FiniteMetricSpace)] == ["dist", "values"]
        for name in ("labels", "size"):
            assert not hasattr(FiniteMetricSpace, name)
        with pytest.raises(TypeError):
            FiniteMetricSpace.from_line_points([0.0, 2.0])

    def test_spaces_compare_by_identity(self):
        # the generated __eq__ compared arrays and raised for two or more points
        a = FiniteMetricSpace.from_line_points([0.0, 0.5, 2.0], [1.0, 0.0, 1.0])
        b = FiniteMetricSpace.from_line_points([0.0, 0.5, 2.0], [1.0, 0.0, 1.0])
        assert (a == b) is False
        assert (a == a) is True
        assert len({a, b, a}) == 2

    def test_rejects_nonzero_diagonal(self):
        d = np.array([[0.1, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            FiniteMetricSpace(d, np.zeros(2))

    def test_rejects_asymmetry(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            FiniteMetricSpace(d, np.zeros(2))

    def test_rejects_triangle_violation(self):
        d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(ValueError):
            FiniteMetricSpace(d, np.zeros(3))

    def test_rejects_empty_space(self):
        with pytest.raises(ValueError, match="needs at least one point"):
            FiniteMetricSpace(np.zeros((0, 0)), np.zeros(0))

    @pytest.mark.parametrize(
        "d, values, message",
        [(np.zeros((2, 2)), np.zeros(3), "values must have length 2"),
         (np.zeros((1, 1)), 0.0, "values must have length 1"),
         (np.zeros((2, 3)), np.zeros(2), "dist must be a square matrix"),
         (np.zeros(2), np.zeros(2), "dist must be a square matrix"),
         (0.0, np.zeros(1), "dist must be a square matrix"),
         ([[0.0, 1.0], [1.0]], np.zeros(2), "inhomogeneous"),
         (np.zeros((2, 2)), [[0.0], [1.0, 2.0]], "inhomogeneous")],
        ids=["long-values", "0d-values", "non-square", "1d-dist", "0d-dist",
             "ragged-dist", "ragged-values"],
    )
    def test_rejects_shape_mismatch(self, d, values, message):
        # the point count is the matrix's; a 0-d or ragged input too is a
        # ValueError, not a TypeError
        with pytest.raises(ValueError, match=message):
            FiniteMetricSpace(d, values)

    def test_triangle_check_matches_cubic_form(self):
        # reference: the whole n x n x n comparison at once, same slack
        def cubic_rejects(d):
            slack = 32.0 * np.finfo(np.float64).eps * max(float(d.max()), 1.0)
            via = d[:, :, None] + d[None, :, :]  # (i, j, k)
            return bool((d[:, None, :] > via + slack).any())

        outcomes = []
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 12))
            if seed % 3 == 0:
                # collinear points in 3-d: rounded distances make tight triangles
                pts = rng.uniform(0, 10, n)[:, None] * rng.normal(size=3)[None, :]
            else:
                pts = rng.normal(size=(n, 3)) * rng.uniform(0.1, 100.0)
            d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
            if seed % 3 != 1:
                # lengthen one distance by a few ulp up to far past the slack
                i, k = rng.choice(n, size=2, replace=False)
                d[i, k] = d[k, i] = d[i, k] * (1.0 + float(rng.choice([1e-15, 1e-14, 1e-13, 0.5])))
            try:
                FiniteMetricSpace(d, np.zeros(n))
                rejected = False
            except ValueError as exc:
                assert "triangle" in str(exc)
                rejected = True
            assert rejected == cubic_rejects(d), seed
            outcomes.append(rejected)
        assert any(outcomes) and not all(outcomes)

    # coordinates of magnitude 1e-300 to 1e300 or zero, mixed signs,
    # unsorted, drawn from a pool so that points repeat
    @given(
        st.lists(
            st.one_of(
                st.just(0.0),
                st.builds(
                    lambda m, e, neg: (-m if neg else m) * 10.0 ** e,
                    st.floats(1.0, 9.99),
                    st.integers(-300, 299),
                    st.booleans(),
                ),
            ),
            min_size=1,
            max_size=24,
        ).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    @example([0.0, 0.1, 0.3, 0.7, 1.0, 0.1])
    @example([1e300, -1e300, 3e-300, -1e-300, 0.0])
    def test_line_points_pass_the_triangle_check(self, xs):
        # from_line_points skips the distance checks: run them here instead
        sp = FiniteMetricSpace.from_line_points(xs, np.zeros(len(xs)))
        assert sp.dist.shape == (len(xs), len(xs))
        assert np.isfinite(sp.dist).all()
        assert (np.diagonal(sp.dist) == 0.0).all()
        assert np.array_equal(sp.dist, sp.dist.T)
        assert (sp.dist >= 0.0).all()
        assert not _triangle_violated(sp.dist)
        # the bits of the matrix as it was formed before: one broadcast
        # difference, its absolute value, a zeroed diagonal
        a = np.asarray(xs, dtype=np.float64)
        want = np.abs(a[:, None] - a[None, :])
        np.fill_diagonal(want, 0.0)
        assert _bits(sp.dist) == _bits(want)

    @pytest.mark.parametrize(
        "xs", [[0.0, np.inf], [-np.inf, 0.0], [np.inf, np.inf], [np.nan, 1.0], [1e308, -1e308]]
    )
    def test_line_points_reject_infinite_coordinates_or_span(self, xs):
        # raised before |x_i - x_j| is formed, so no overflow or inf - inf warning
        with pytest.raises(ValueError, match="span must be finite"):
            FiniteMetricSpace.from_line_points(xs, np.zeros(len(xs)))

    @pytest.mark.parametrize(
        "d, message",
        [([[0.0, np.inf], [np.inf, 0.0]], "must be finite"),
         ([[0.0, 1.0], [1.0, 1e-300]], "diagonal must be exactly zero"),
         ([[0.0, 1.0], [np.nextafter(1.0, 2.0), 0.0]], "must be symmetric"),
         ([[0.0, -1.0], [-1.0, 0.0]], "must be nonnegative"),
         ([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]], "triangle inequality violated")],
    )
    def test_a_matrix_passed_in_meets_each_check(self, d, message):
        d = np.array(d)
        with pytest.raises(ValueError, match=message):
            FiniteMetricSpace(d, np.zeros(len(d)))

    def test_line_points_skip_the_distance_checks(self, monkeypatch):
        def never(d):
            raise AssertionError("cubic check ran")

        monkeypatch.setattr(functions, "_triangle_violated", never)
        n = MAX_METRIC_POINTS + 1
        xs = np.arange(n, dtype=np.float64)
        assert FiniteMetricSpace.from_line_points(xs, xs).dist.shape == (n, n)
        with pytest.raises(ValueError, match="must be finite"):
            FiniteMetricSpace.from_line_points([0.0, 1.0], values=[0.0, np.nan])
        with pytest.raises(ValueError, match="values must have length 2"):
            FiniteMetricSpace.from_line_points([0.0, 1.0], values=[0.0])

    def test_matrix_point_budget(self, monkeypatch):
        checked = []

        def spy(d):
            checked.append(len(d))
            return _triangle_violated(d)

        monkeypatch.setattr(functions, "_triangle_violated", spy)
        xs = np.linspace(0.0, 1.0, MAX_METRIC_POINTS)
        d = np.abs(xs[:, None] - xs[None, :])
        assert len(FiniteMetricSpace(d, xs).dist) == MAX_METRIC_POINTS
        assert checked == [MAX_METRIC_POINTS]
        # one point more fails before the cubic check starts
        n = MAX_METRIC_POINTS + 1
        with pytest.raises(LevelTooLarge, match=f"{n} points exceed the maximum {MAX_METRIC_POINTS}"):
            FiniteMetricSpace(np.zeros((n, n)), np.zeros(n))
        assert checked == [MAX_METRIC_POINTS]


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_chainsaw_values_in_unit_range(x):
    v = evaluate(chainsaw_function(), x)
    assert 0.0 <= v <= 1.0
    # value never exceeds the peak of the tooth containing x
    if x > 0:
        n = int(1.0 / x)
        assert v <= 1.0 / max(n, 1) + 1e-12


def test_all_lists_every_public_import():
    # __all__ is the name -> module table, once each, and every name is
    # the object its home module binds
    assert epsdelta.__all__ == sorted(set(epsdelta.__all__)) == sorted(epsdelta._HOMES)
    for name, home in epsdelta._HOMES.items():
        assert getattr(epsdelta, name) is getattr(importlib.import_module(f"epsdelta.{home}"), name)
    assert set(epsdelta.__all__) <= set(dir(epsdelta))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        epsdelta.no_such_name


def _epsdelta_modules(code: str) -> str:
    """The epsdelta modules a fresh process has loaded after ``code``: this
    process has loaded every module already."""
    probe = (f"{code}\nimport sys\n"
             "print(sorted(m for m in sys.modules if m.startswith('epsdelta')))")
    src = Path(epsdelta.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60, check=True).stdout


def test_import_loads_no_submodule():
    assert _epsdelta_modules("import epsdelta") == "['epsdelta']\n"


def test_max_net_level_loads_only_its_home():
    # the constant lives in functions: its lookup compiles no command module
    assert _epsdelta_modules("import epsdelta; epsdelta.MAX_NET_LEVEL") == (
        "['epsdelta', 'epsdelta.errors', 'epsdelta.functions']\n")


def test_all_is_the_star_import_namespace():
    assert not [n for n in epsdelta.__all__ if n.startswith("_")]
    assert not [n for n in epsdelta.__all__ if isinstance(getattr(epsdelta, n), ModuleType)]
    namespace: dict = {}
    exec("from epsdelta import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(epsdelta.__all__)
