"""Target sets, classification, and bisection searches."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epsdelta import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    Interval,
    NotSelfMap,
    ParseError,
    PreconditionViolated,
    TargetSet,
    bisect_boundary,
    classical_ivt,
    classify,
    dyadic_net,
    evaluate,
    evaluate_many,
    expression_function,
    fixed_point,
    parse_function,
    parse_target_set,
    piecewise_linear_function,
    polynomial_function,
)
from epsdelta import intermediate
from epsdelta.serialize import csv_text, json_text


TARGET_ENDS = st.sampled_from([-math.inf, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, math.inf])
TARGET_PROBES = [-math.inf, -2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, math.inf]


class TestTargetSet:
    def test_parse_half_line(self):
        d = parse_target_set("(-inf,0)")
        assert d.pieces == ((-math.inf, 0.0, True, True),)

    def test_parse_closed_interval(self):
        d = parse_target_set("[0,1]")
        assert d.pieces == ((0.0, 1.0, False, False),)

    def test_parse_union(self):
        d = parse_target_set("(0,1)u(2,3)")
        assert len(d.pieces) == 2

    def test_pieces_sorted(self):
        d = parse_target_set("(2,3)u(0,1)")
        assert d.pieces[0][0] == 0.0

    def test_overlap_merges(self):
        d = parse_target_set("(0,2)u(1,3)")
        assert d.pieces == ((0.0, 3.0, True, True),)
        # an equal upper end is closed when either piece closes it
        assert parse_target_set("(0,2)u[1,2]").pieces == ((0.0, 2.0, True, False),)

    @pytest.mark.parametrize(
        "text, normal",
        [("(0,1)u[0,2]", "[0,2]"), ("(-1,2)u[-1,2)", "[-1,2)"), ("[0,0]u(0,1)", "[0,1)")],
    )
    def test_shared_lower_end_closed_by_either_piece(self, text, normal):
        d = parse_target_set(text)
        assert str(d) == normal
        assert d == parse_target_set(normal)

    @given(st.lists(st.tuples(TARGET_ENDS, TARGET_ENDS, st.booleans(), st.booleans()),
                    max_size=5))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_contains_matches_membership_of_any_piece(self, raw):
        pieces = [(min(a, b), max(a, b), lo_open, hi_open) for a, b, lo_open, hi_open in raw]
        d = TargetSet(tuple(pieces))
        for y in TARGET_PROBES:
            # infinite ends are open
            inside = any(
                (lo < y or (y == lo and not lo_open and lo > -math.inf))
                and (y < hi or (y == hi and not hi_open and hi < math.inf))
                for lo, hi, lo_open, hi_open in pieces
            )
            assert d.contains(y) == inside, (pieces, y)
        # sorted, disjoint and non-adjacent: only a point open on both sides separates
        for (_, hi, _, hi_open), (lo, _, lo_open, _) in zip(d.pieces, d.pieces[1:]):
            assert hi < lo or (hi == lo and hi_open and lo_open)

    def test_touching_merges_when_closed(self):
        assert len(parse_target_set("(0,1]u(1,2)").pieces) == 1
        assert len(parse_target_set("(0,1)u[1,2)").pieces) == 1
        assert len(parse_target_set("(0,1)u(1,2)").pieces) == 2

    def test_infinite_ends_forced_open(self):
        d = parse_target_set("[-inf,0]")
        assert d.pieces == ((-math.inf, 0.0, True, False),)

    def test_singleton_kept_empty_dropped(self):
        assert TargetSet(((0.0, 0.0, False, False),)).pieces != ()
        assert TargetSet(((0.0, 0.0, True, False),)).pieces == ()

    def test_contains_respects_openness(self):
        assert not parse_target_set("(0,1)").contains(0.0)
        assert parse_target_set("[0,1]").contains(0.0)
        assert parse_target_set("[0,1]").contains(1.0)
        assert parse_target_set("(0,1)").contains(0.5)
        assert parse_target_set("(-inf,0)").contains(-1e30)

    def test_boundary_points(self):
        # the finite piece endpoints, whatever their openness, and nothing else
        d = parse_target_set("(0,1]u[2,3)")
        for y in (0.0, 1.0, 2.0, 3.0):
            assert classify(y, d) == BOUNDARY
        for y in (-1.0, 0.5, 1.5, 2.5, 4.0):
            assert classify(y, d) != BOUNDARY

    def test_str_round_trips(self):
        for text in ("(-inf,0)", "[0,1]", "(0,1)u(2,3)", "(0.5,inf)"):
            d = parse_target_set(text)
            assert parse_target_set(str(d)) == d

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            TargetSet(((math.nan, 1.0, True, True),))

    def test_ordering_validated(self):
        with pytest.raises(ValueError):
            TargetSet(((2.0, 1.0, True, True),))

    @pytest.mark.parametrize("bad", ["", "0,1", "(0,1", "(0,1) (2,3)", "(a,b)", "(0,1)x(2,3)"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_target_set(bad)

    @pytest.mark.parametrize(
        "text, pieces",
        [
            ("( -inf , -0 )", ((-math.inf, -0.0, True, True),)),
            ("[-1,0]u(0.25,0.5]", ((-1.0, 0.0, False, False), (0.25, 0.5, True, False))),
            ("(- 1,0)", ((-1.0, 0.0, True, True),)),
        ],
    )
    def test_ends_read_as_spec_numbers(self, text, pieces):
        # signs are tokens of their own, as in function specs; repr tells -0.0 from 0.0
        assert repr(parse_target_set(text).pieces) == repr(pieces)

    @pytest.mark.parametrize(
        "text, position",
        [("(INF,0)", 1), ("(0,infinity)", 3), ("(1_0,20)", 2), ("(nan,1)", 1)],
    )
    def test_ends_outside_the_number_grammar_rejected(self, text, position):
        # the only non-numeric end is a lowercase inf, with an optional sign
        with pytest.raises(ParseError) as info:
            parse_target_set(text)
        assert info.value.position == position

    def test_out_of_order_piece(self):
        with pytest.raises(ParseError) as info:
            parse_target_set("(1,0)")
        assert info.value.position == 0
        assert str(info.value) == "endpoints out of order: '(1,0)' (at position 0)"

    def test_empty_set_prints_as_empty_parentheses(self):
        assert str(TargetSet(())) == "()"


class TestClassify:
    def test_open_interval(self):
        d = parse_target_set("(0,1)")
        assert classify(0.5, d) == INTERIOR
        assert classify(0.0, d) == BOUNDARY
        assert classify(1.0, d) == BOUNDARY
        assert classify(1.5, d) == EXTERIOR

    def test_closed_interval_same_boundary(self):
        d = parse_target_set("[0,1]")
        assert classify(0.0, d) == BOUNDARY
        assert classify(1.0, d) == BOUNDARY

    def test_tolerance_band(self):
        # boundary means equal to an endpoint: there is no band around it
        assert classify(0.999, parse_target_set("(0,1)")) == INTERIOR

    def test_half_line(self):
        d = parse_target_set("(-inf,0.5)")
        assert classify(-100.0, d) == INTERIOR
        assert classify(0.5, d) == BOUNDARY
        assert classify(10.0, d) == EXTERIOR

    def test_union_boundaries(self):
        d = parse_target_set("(0,1)u(2,3)")
        assert classify(2.0, d) == BOUNDARY
        assert classify(1.5, d) == EXTERIOR
        assert classify(2.5, d) == INTERIOR

    def test_infinite_values_are_exterior(self):
        # infinite ends are open and no boundary point, even where y equals one
        for text in ("(-inf,0)", "[0,1]", "(0,inf)"):
            d = parse_target_set(text)
            assert classify(-math.inf, d) == EXTERIOR
            assert classify(math.inf, d) == EXTERIOR


@pytest.mark.parametrize(
    "search",
    [lambda f: bisect_boundary(f, parse_target_set("(-inf,0)"), -1),
     lambda f: classical_ivt(f, 0.0, -1),
     lambda f: fixed_point(f, -1)],
    ids=["bisect_boundary", "classical_ivt", "fixed_point"],
)
def test_negative_step_count_is_refused(search):
    # the CLI reads counts as plain digits, so only library callers get here
    f = polynomial_function([-0.5, 1.0])
    with pytest.raises(ValueError, match="steps must be nonnegative, got -1"):
        search(f)


class TestBisectBoundary:
    def test_bracket_invariant_holds_at_every_step(self):
        f = polynomial_function([-1.0, 0.0, 3.0], Interval(0.0, 1.0))  # 3x^2 - 1
        d = parse_target_set("(-inf,0)")
        trace = bisect_boundary(f, d, 25)
        for step in trace.steps:
            assert d.contains(evaluate(f, step.a))
            assert not d.contains(evaluate(f, step.b))
        a, b = trace.final_bracket
        assert d.contains(evaluate(f, a))
        assert not d.contains(evaluate(f, b))

    def test_error_bound_exact(self):
        f = polynomial_function([-1.0, 0.0, 3.0], Interval(0.0, 1.0))
        trace = bisect_boundary(f, parse_target_set("(-inf,0)"), 12)
        assert trace.error_bound == 2.0 ** -12
        a, b = trace.final_bracket
        assert abs(b - a) == 2.0 ** -12

    def test_orientation_swaps_when_needed(self):
        # f(a) outside, f(b) inside: a_k must start at the right endpoint
        f = piecewise_linear_function([(0.0, 5.0), (1.0, -5.0)])
        d = parse_target_set("(-inf,0)")
        trace = bisect_boundary(f, d, 8)
        assert trace.steps[0].a == 1.0
        assert trace.steps[0].b == 0.0

    def test_precondition_both_inside(self):
        f = piecewise_linear_function([(0.0, -1.0), (1.0, -2.0)])
        with pytest.raises(PreconditionViolated):
            bisect_boundary(f, parse_target_set("(-inf,0)"), 5)

    def test_precondition_both_outside(self):
        f = piecewise_linear_function([(0.0, 1.0), (1.0, 2.0)])
        with pytest.raises(PreconditionViolated):
            bisect_boundary(f, parse_target_set("(-inf,0)"), 5)

    def test_union_target(self):
        # f(x) = 3x: f(0) = 0 outside (0,1)u(2,3), f(1) = 3 outside too -> violated
        f3 = polynomial_function([0.0, 3.0], Interval(0.0, 1.0))
        with pytest.raises(PreconditionViolated):
            bisect_boundary(f3, parse_target_set("(0,1)u(2,3)"), 5)
        # restrict to [0.5, 1]: f = 1.5 inside? no: 1.5 between pieces
        f = polynomial_function([0.0, 3.0], Interval(0.1, 0.5))
        trace = bisect_boundary(f, parse_target_set("(0,1)u(2,3)"), 20)
        a, _ = trace.final_bracket
        # crossing of the boundary value 1 at x = 1/3
        assert evaluate(f, a) < 1.0 < evaluate(f, trace.final_bracket[1])
        assert abs(trace.final_midpoint - 1.0 / 3.0) < 2.0 ** -18

    def test_boundary_hit_stops_early(self):
        # f(3/8) = 0 exactly, reached at the third midpoint
        f = piecewise_linear_function([(0.0, -3.0), (1.0, 5.0)])
        trace = bisect_boundary(f, parse_target_set("(-inf,0)"), 40)
        assert trace.boundary_hit == 0.375
        assert evaluate(f, trace.boundary_hit) == 0.0
        assert [s.midpoint_class for s in trace.steps] == [EXTERIOR, INTERIOR, BOUNDARY]

    def test_steps_are_slotted(self):
        # a trace keeps every step: slots hold them without a dict each
        f = polynomial_function([-1.0, 0.0, 3.0], Interval(0.0, 1.0))
        step = bisect_boundary(f, parse_target_set("(-inf,0)"), 5).steps[0]
        assert not hasattr(step, "__dict__")
        assert dataclasses.asdict(step) == {"k": 0, "a": 0.0, "b": 1.0, "midpoint": 0.5,
                                            "midpoint_class": INTERIOR}

    def test_zero_steps(self):
        f = piecewise_linear_function([(0.0, -1.0), (1.0, 1.0)])
        trace = bisect_boundary(f, parse_target_set("(-inf,0)"), 0)
        assert trace.steps == []
        assert trace.final_bracket == (0.0, 1.0)
        assert trace.error_bound == 1.0

    def test_csv_and_json(self):
        f = piecewise_linear_function([(0.0, -1.0), (1.0, 2.0)])  # crosses at 1/3
        trace = bisect_boundary(f, parse_target_set("(-inf,0)"), 3)
        lines = csv_text(*trace.table()).strip().split("\n")
        assert lines[0] == "k,a_k,b_k,midpoint,class"
        assert len(lines) == 4
        doc = json.loads(json_text(trace.to_json_dict()))
        assert doc["error_bound"] == 2.0 ** -3
        assert doc["steps"][0]["class"] in (INTERIOR, BOUNDARY, EXTERIOR)


class TestClassicalIvt:
    @pytest.mark.parametrize(
        "f, c, steps",
        [
            # dyadic domain, past the depth where midpoints round onto an end
            (polynomial_function([0.0, 0.0, 0.0, 1.0], Interval(0.0, 2.0)), 2.204336367358189, 56),
            (polynomial_function([0.0, 0.0, 0.0, 1.0], Interval(0.0, 2.0)), 5.0, 60),
            # non-dyadic domain: midpoints round at any depth
            (expression_function("cos(x)", 0.1, 0.7), 0.9, 20),
        ],
    )
    def test_error_bound_is_final_bracket_width(self, f, c, steps):
        trace = classical_ivt(f, c, steps)
        a, b = trace.final_bracket
        assert trace.error_bound == abs(b - a)
        # every recorded midpoint lies strictly inside its bracket
        for s in trace.steps:
            assert min(s.a, s.b) < s.midpoint < max(s.a, s.b)

    def test_cube_root_of_two(self):
        f = polynomial_function([0.0, 0.0, 0.0, 1.0], Interval(0.0, 2.0))
        trace = classical_ivt(f, 2.0, 20)
        a, b = trace.final_bracket
        assert abs(b - a) == 2.0 * 2.0 ** -20
        root = 2.0 ** (1.0 / 3.0)
        assert min(a, b) <= root <= max(a, b)

    def test_decreasing_function(self):
        f = piecewise_linear_function([(0.0, 3.0), (1.0, -1.0)])
        trace = classical_ivt(f, 0.0, 30)
        assert trace.final_midpoint == pytest.approx(0.75, abs=1e-8)

    def test_exact_hit_stops_at_boundary(self):
        f = piecewise_linear_function([(0.0, 0.0), (1.0, 1.0)])
        trace = classical_ivt(f, 0.5, 30)
        assert trace.boundary_hit == 0.5
        assert len(trace.steps) == 1

    def test_c_must_be_strictly_between(self):
        f = polynomial_function([0.0, 0.0, 0.0, 1.0], Interval(0.0, 2.0))
        with pytest.raises(PreconditionViolated):
            classical_ivt(f, 8.0, 5)
        with pytest.raises(PreconditionViolated):
            classical_ivt(f, -1.0, 5)
        with pytest.raises(PreconditionViolated):
            classical_ivt(f, 0.0, 5)


def net_end_specs():
    """Every family, signed zeros, and sin/cos on domains with awkward ends."""
    specs = ["chainsaw", "power(alpha=0.5,b=2.25)", "power(alpha=3,b=7.3)", "poly(-2,0,0,1)",
             "poly(-0.0,-1)", "pwl((-1.3,2),(0.2,-1),(5.7,3))", "expr(x,lo=-0,hi=1)",
             "expr(-x,lo=0,hi=1)", "expr(sin(x),lo=-0,hi=3.14)"]
    rng = np.random.default_rng(17)
    for k in range(60):
        lo = float(rng.choice([rng.uniform(-1e4, 1e4), rng.uniform(-10, 10), rng.uniform(1e5, 1e6)]))
        hi = lo + float(rng.choice([rng.uniform(1e-9, 1), rng.uniform(1, 1e4)]))
        fn = "sin" if k % 2 else "cos"
        scale = ["1", "3", "40", "0.37", "1e3", "pi"][k % 6]
        specs.append(f"expr({fn}({scale}*x)+{fn}(x)/3,lo={lo!r},hi={hi!r})")
    return specs


class TestSelfMapNetEnds:
    """fixed_point reads f(lo) and f(hi) off the ends of its self-map net."""

    @pytest.mark.parametrize("spec", net_end_specs())
    def test_net_end_values_match_evaluate_bit_for_bit(self, spec):
        f = parse_function(spec)
        vals = evaluate_many(f, dyadic_net(f.domain, intermediate.SELF_MAP_NET_LEVEL))
        for end, value in ((f.domain.lo, vals[0]), (f.domain.hi, vals[-1])):
            # repr tells -0.0 from 0.0 and prints every bit of a finite float
            assert repr(evaluate(f, end)) == repr(float(value))


class TestFixedPoint:
    def test_cosine(self):
        f = expression_function("cos(x)", 0.0, 1.0)
        result = fixed_point(f, 40)
        assert result.endpoint is None
        assert abs(result.estimate - 0.7390851332151607) <= 2.0 ** -30

    def test_bracket_pins_sign_change(self):
        f = expression_function("cos(x)", 0.0, 1.0)
        trace = fixed_point(f, 25).trace
        a, b = trace.final_bracket
        assert evaluate(f, a) - a > 0.0
        assert evaluate(f, b) - b <= 0.0

    def test_endpoint_fixed_point(self):
        f = polynomial_function([0.0, 0.0, 1.0])  # x^2 on [0, 1]
        result = fixed_point(f, 10)
        assert result.endpoint == 0.0
        assert result.trace is None
        assert result.estimate == 0.0

    def test_upper_endpoint_fixed_point(self):
        result = fixed_point(polynomial_function([0.5, 0.5]), 10)  # (1 + x) / 2
        assert result.endpoint == 1.0
        assert result.trace is None

    def test_endpoint_tol(self):
        # the endpoint test is exact: f(0) = 0.001 is no fixed point, and
        # the bisection finds x = 0.5
        f = polynomial_function([0.001, 0.998])
        result = fixed_point(f, 30)
        assert result.endpoint is None
        assert result.estimate == pytest.approx(0.5, abs=1e-8)

    def test_exact_interior_hit(self):
        f = piecewise_linear_function([(0.0, 1.0), (1.0, 0.0)])  # 1 - x
        result = fixed_point(f, 40)
        assert result.trace.boundary_hit == 0.5
        assert result.estimate == 0.5
        assert len(result.trace.steps) == 1

    def test_not_self_map(self):
        f = polynomial_function([0.0, 2.0])  # 2x leaves [0, 1]
        with pytest.raises(NotSelfMap) as info:
            fixed_point(f, 10)
        x, fx = info.value.witness
        assert fx > 1.0
        assert evaluate(f, x) == fx

    def test_constant_self_map(self):
        f = polynomial_function([0.5])
        result = fixed_point(f, 35)
        assert result.estimate == pytest.approx(0.5, abs=1e-9)

    def test_json_and_csv(self):
        f = expression_function("cos(x)", 0.0, 1.0)
        result = fixed_point(f, 6)
        doc = json.loads(json_text(result.to_json_dict()))
        assert doc["endpoint"] is None
        assert len(doc["trace"]["steps"]) == 6
        endpoint = fixed_point(polynomial_function([0.0, 0.0, 1.0]), 5)
        endpoint_doc = json.loads(json_text(endpoint.to_json_dict()))
        assert endpoint_doc["endpoint"] == 0.0
        assert endpoint_doc["trace"] is None
        lines = csv_text(*result.table()).strip().split("\n")
        assert lines[0] == "k,a_k,b_k,midpoint,class"


class TestSelfMapNetCheck:
    def test_narrow_escape_is_caught(self):
        # bump escapes [0, 1] only on (0.4995, 0.5005); the level-10 net
        # samples every 2^-10 < 0.001, so some net point lands inside
        f = piecewise_linear_function(
            [(0.0, 0.5), (0.4995, 0.5), (0.5, 1.0001), (0.5005, 0.5), (1.0, 0.5)]
        )
        with pytest.raises(NotSelfMap):
            fixed_point(f, 10)


def test_bisection_handles_discontinuous_functions():
    # no continuity assumed: the bracket still pins the jump location
    eps = 2.0 ** -24
    f = piecewise_linear_function([(0.0, -1.0), (0.375, -1.0), (0.375 + eps, 1.0), (1.0, 1.0)])
    trace = bisect_boundary(f, parse_target_set("(-inf,0)"), 20)
    a, b = trace.final_bracket
    assert abs(b - a) == 2.0 ** -20
    assert min(a, b) <= 0.375 <= max(a, b)
    assert np.isclose(trace.error_bound, 2.0 ** -20)


class TestEvaluationCount:
    # fixed_point takes both end values from its self-map net
    @pytest.mark.parametrize("steps", [0, 1, 40])
    @pytest.mark.parametrize(
        "search, end_calls",
        [(lambda n: classical_ivt(expression_function("x^3", 0.0, 2.0), 2.0, n), 2),
         (lambda n: fixed_point(expression_function("cos(x)", 0.0, 1.0), n).trace, 0)],
        ids=["ivt", "fixpoint"],
    )
    def test_each_end_and_midpoint_evaluated_once(self, monkeypatch, search, end_calls, steps):
        calls = []

        def counted(f, x):
            calls.append(x)
            return evaluate(f, x)

        monkeypatch.setattr(intermediate, "evaluate", counted)
        trace = search(steps)
        assert len(trace.steps) == steps
        assert len(calls) == steps + end_calls
