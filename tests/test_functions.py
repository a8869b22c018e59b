"""Function model: construction, evaluation, parsing, metric spaces."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import epsdelta
from epsdelta import (
    Chainsaw,
    DomainError,
    Expression,
    FiniteMetricSpace,
    Interval,
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
from epsdelta.functions import DOMAIN_TOL_REL


class TestInterval:
    def test_orders_endpoints(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)

    def test_rejects_non_finite(self):
        # an infinite width would make the domain slack infinite too
        for lo, hi in ((0.0, np.inf), (-1e308, 1e308)):
            with pytest.raises(ValueError):
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
        ["power(alpha=2,b=1)", "chainsaw", "poly(1,-3,1)", "pwl((0,0),(0.3,1),(1,0))",
         "expr(sin(3*x)+x/2,lo=0,hi=2)"],
    )
    def test_matches_scalar_evaluate(self, spec):
        f = parse_function(spec)
        xs = np.linspace(f.domain.lo, f.domain.hi, 101)
        vals = evaluate_many(f, xs)
        assert vals.shape == xs.shape
        for x, v in zip(xs[::10], vals[::10]):
            assert evaluate(f, float(x)) == v

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


class TestFiniteMetricSpace:
    def test_from_line_points(self):
        sp = FiniteMetricSpace.from_line_points([0.0, 1.0, 3.0])
        assert sp.size == 3
        assert sp.dist[0, 2] == 3.0
        assert sp.dist[2, 0] == 3.0
        assert (np.diagonal(sp.dist) == 0.0).all()

    def test_values_default_to_coordinates(self):
        sp = FiniteMetricSpace.from_line_points([0.0, 2.0])
        assert sp.values.tolist() == [0.0, 2.0]

    def test_rejects_nonzero_diagonal(self):
        d = np.array([[0.1, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            FiniteMetricSpace(("a", "b"), d, np.zeros(2))

    def test_rejects_asymmetry(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            FiniteMetricSpace(("a", "b"), d, np.zeros(2))

    def test_rejects_triangle_violation(self):
        d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(ValueError):
            FiniteMetricSpace(("a", "b", "c"), d, np.zeros(3))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            FiniteMetricSpace(("a",), np.zeros((2, 2)), np.zeros(2))

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
                FiniteMetricSpace(tuple(range(n)), d, np.zeros(n))
                rejected = False
            except ValueError as exc:
                assert "triangle" in str(exc)
                rejected = True
            assert rejected == cubic_rejects(d), seed
            outcomes.append(rejected)
        assert any(outcomes) and not all(outcomes)

    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=8, unique=True))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_line_points_always_valid(self, xs):
        sp = FiniteMetricSpace.from_line_points(sorted(xs))
        assert sp.size == len(xs)


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
    # __all__ must name exactly the public names the package imports
    tree = ast.parse(Path(epsdelta.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert len(epsdelta.__all__) == len(set(epsdelta.__all__))
    assert set(epsdelta.__all__) == imported
