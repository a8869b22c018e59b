"""Optimal tolerance search: closed forms, grid search, oracle agreement."""

import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epsdelta import functions
from epsdelta import (
    MAX_NET_LEVEL,
    BIAS_EXACT,
    BIAS_UPPER_BOUND,
    METHOD_CLOSED_FORM,
    METHOD_EXHAUSTIVE,
    METHOD_GRID,
    DeltaSample,
    EmptyLevelSet,
    FiniteMetricSpace,
    GridConfig,
    LevelTooLarge,
    OutOfRange,
    UnsupportedFamily,
    build_profile,
    chainsaw_function,
    expression_function,
    modulus_of_continuity,
    optimal_delta_closed_form,
    optimal_delta_finite,
    optimal_delta_grid,
    parse_function,
    piecewise_linear_function,
    polynomial_function,
    power_function,
    sample_grid,
    verify_largest_delta,
)
from epsdelta import delta as delta_module
from epsdelta.delta import (
    GAP_SLACK_REL,
    MAXIMALITY_MARGIN_REL,
    VALIDITY_MARGIN_REL,
    _zoom_points,
    evaluate_many,
)
from epsdelta.serialize import csv_text, json_text

IDENTITY = piecewise_linear_function([(0.0, 0.0), (1.0, 1.0)])


class TestClosedForm:
    def test_parabola(self):
        s = optimal_delta_closed_form(power_function(2, 1), 0.19)
        assert s.delta == pytest.approx(0.1, abs=1e-15)
        assert (s.method, s.bias) == (METHOD_CLOSED_FORM, BIAS_EXACT)

    def test_cubic_on_wider_domain(self):
        s = optimal_delta_closed_form(power_function(3, 2), 1.0)
        assert s.delta == pytest.approx(2.0 - 7.0 ** (1.0 / 3.0), rel=1e-14)

    def test_square_root_branch(self):
        s = optimal_delta_closed_form(power_function(0.5, 1), 0.5)
        assert s.delta == 0.25

    def test_identity_power(self):
        s = optimal_delta_closed_form(power_function(1, 1), 0.19)
        assert s.delta == pytest.approx(0.19, abs=1e-15)

    def test_chainsaw_jump_points(self):
        f = chainsaw_function()
        for n in range(1, 8):
            s = optimal_delta_closed_form(f, 1.0 / n)
            want = 1.0 / (n * (2.0 * n + 1.0))
            assert abs(s.delta - want) <= 2.0 * np.spacing(want)

    def test_chainsaw_rejects_other_epsilons(self):
        f = chainsaw_function()
        with pytest.raises(OutOfRange):
            optimal_delta_closed_form(f, 0.3)
        with pytest.raises(OutOfRange):
            optimal_delta_closed_form(f, 1.0 / 3.0 + 1e-4)
        with pytest.raises(OutOfRange):
            optimal_delta_closed_form(f, 1.2)

    @pytest.mark.parametrize("eps", [5e-324, 1e-300, 1e-155])
    def test_chainsaw_underflow_is_out_of_range(self, eps):
        with pytest.raises(OutOfRange, match="underflows"):
            optimal_delta_closed_form(chainsaw_function(), eps)

    def test_chainsaw_smallest_exact_epsilon(self):
        # 1/(n(2n+1)) stays positive up to about n = 9e153
        s = optimal_delta_closed_form(chainsaw_function(), 1e-153)
        assert 0.0 < s.delta <= 1e-306

    @pytest.mark.parametrize(
        "alpha, b, eps",
        [(2.0, 1e200, 1.0),
         (0.999, sys.float_info.max, math.nextafter(sys.float_info.max ** 0.999, 0.0))],
        ids=["spread", "delta"],
    )
    def test_power_overflow_is_out_of_range(self, alpha, b, eps):
        # b ** alpha, or eps ** (1 / alpha) just below b, passes the largest float
        with pytest.raises(OutOfRange, match="overflows"):
            optimal_delta_closed_form(power_function(alpha, b), eps)

    @pytest.mark.parametrize(
        "alpha, b, eps",
        [(0.5, 1e-300, 1e-200), (3.0, 1.0, 1e-17), (1.5, 0.4363078791907446, 1e-17)],
        ids=["underflow", "cancellation-zero", "cancellation-negative"],
    )
    def test_power_delta_lost_to_rounding_is_out_of_range(self, alpha, b, eps):
        # eps ** (1/alpha) underflows for alpha < 1; b - (b^alpha - eps)^(1/alpha)
        # cancels to 0 or below for alpha >= 1, though the true delta is positive
        with pytest.raises(OutOfRange, match="rounds delta to"):
            optimal_delta_closed_form(power_function(alpha, b), eps)

    def test_epsilon_above_spread_is_out_of_range(self):
        with pytest.raises(OutOfRange):
            optimal_delta_closed_form(power_function(2, 1), 1.0)
        with pytest.raises(OutOfRange):
            optimal_delta_closed_form(power_function(2, 1), 1.5)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            optimal_delta_closed_form(power_function(2, 1), 0.0)

    def test_no_formula_for_other_families(self):
        with pytest.raises(UnsupportedFamily):
            optimal_delta_closed_form(polynomial_function([0, 1, -1]), 0.1)
        with pytest.raises(UnsupportedFamily):
            optimal_delta_closed_form(IDENTITY, 0.1)
        with pytest.raises(UnsupportedFamily):
            optimal_delta_closed_form(expression_function("x*x", 0, 1), 0.1)


def sawtooth_delta(eps):
    """Exact sawtooth tolerance on (0, 1].  An optimal pair lies on one
    rising flank, and the steepest flank that climbs eps is tooth
    m = floor(1/eps)'s: slope 2m + 1, height 1/m."""
    return eps / (2.0 * np.floor(1.0 / eps) + 1.0)


class TestSawtoothOracle:
    def test_closed_form_at_jump_points(self):
        f = chainsaw_function()
        for n in range(1, 13):
            want = sawtooth_delta(1.0 / n)
            assert optimal_delta_closed_form(f, 1.0 / n).delta == pytest.approx(want, rel=1e-15)

    def test_grid_brackets_exact_delta(self):
        f = chainsaw_function()
        step = f.domain.span / (GridConfig().resolution - 1)
        checked = 0
        for eps in np.geomspace(1e-3, 1.0, 20):
            n = round(1.0 / eps)
            # floor(1/eps) is fragile in floating point next to a jump point
            if abs(eps - 1.0 / n) <= 1e-9 * eps:
                continue
            exact = sawtooth_delta(eps)
            delta = optimal_delta_grid(f, float(eps)).delta
            assert exact * (1.0 - 1e-9) <= delta <= exact + 2.0 * step, eps
            checked += 1
        assert checked == 18


class TestGridSearch:
    def test_identity(self):
        s = optimal_delta_grid(IDENTITY, 0.25, GridConfig(resolution=1025))
        assert s.delta == pytest.approx(0.25, abs=1e-12)
        assert (s.method, s.bias) == (METHOD_GRID, BIAS_UPPER_BOUND)

    def test_empty_level_set(self):
        with pytest.raises(EmptyLevelSet, match="spread"):
            optimal_delta_grid(IDENTITY, 1.5)

    def test_spread_exactly_epsilon_is_allowed(self):
        s = optimal_delta_grid(IDENTITY, 1.0, GridConfig(resolution=257))
        assert s.delta == 1.0

    def test_tent(self):
        tent = piecewise_linear_function([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)])
        s = optimal_delta_grid(tent, 0.5, GridConfig(resolution=2048))
        # slope 2 on both sides: delta = 0.25
        assert s.delta == pytest.approx(0.25, rel=1e-6)

    def test_refinement_tightens(self):
        f = power_function(2, 1)
        coarse = optimal_delta_grid(f, 0.19, GridConfig(resolution=512, refine_rounds=0))
        fine = optimal_delta_grid(f, 0.19, GridConfig(resolution=512, refine_rounds=2))
        closed = optimal_delta_closed_form(f, 0.19).delta
        assert fine.delta <= coarse.delta
        assert abs(fine.delta - closed) < abs(coarse.delta - closed) + 1e-15

    @pytest.mark.parametrize("alpha,b", [(2.0, 1.0), (3.0, 2.0), (0.5, 1.0), (1.0, 1.0)])
    def test_upper_bound_bias(self, alpha, b):
        f = power_function(alpha, b)
        spread = b ** alpha
        cfg = GridConfig(resolution=4096)
        for frac in (0.07, 0.25, 0.5, 0.8):
            eps = frac * spread
            grid = optimal_delta_grid(f, eps, cfg).delta
            closed = optimal_delta_closed_form(f, eps).delta
            assert grid >= closed - 1e-12

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            optimal_delta_grid(IDENTITY, -0.5)

    def test_config_validated(self):
        with pytest.raises(ValueError):
            GridConfig(resolution=1)
        with pytest.raises(ValueError):
            GridConfig(refine_rounds=-1)


class TestZoomPoints:
    """A refinement round samples the sorted distinct points of its two windows."""

    @pytest.mark.parametrize(
        "lo, hi, centers, half",
        [
            (0.0, 1.0, (0.2, 0.7), 0.1),  # disjoint
            (0.0, 1.0, (0.25, 0.75), 0.25),  # touching: 0.5 ends one and starts the other
            (0.0, 1.0, (0.4, 0.5), 0.1),  # overlapping
            (0.0, 1.0, (0.5, 0.5), 0.1),  # one window twice
            (0.0, 1.0, (0.0, 1.0), 0.3),  # clipped to the domain
            (-1.0, 0.0, (-0.5, 0.0), 0.2),  # ending on a zero
            (1e6, 1e6 + 1e-6, (1e6 + 2e-7, 1e6 + 7e-7), 1e-6 / 16),  # tiny: linspace repeats
        ],
        ids=["disjoint", "touching", "overlapping", "same", "clipped", "zero", "tiny"],
    )
    @pytest.mark.parametrize("n", [2, 3, 4096])
    def test_equals_unique_of_the_windows(self, lo, hi, centers, half, n):
        windows = [np.linspace(max(lo, c - half), min(hi, c + half), n) for c in centers]
        want = np.unique(np.concatenate(windows))
        got = _zoom_points(lo, hi, centers, half, n)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_tiny_domain_search(self, monkeypatch):
        # every round's points reach the evaluation sorted and distinct
        f = parse_function("expr(sin(1e7*x),lo=1e6,hi=1000000.000001)")
        seen = []

        def recorded(g, xs):
            seen.append(np.array(xs))
            return evaluate_many(g, xs)

        monkeypatch.setattr(delta_module, "evaluate_many", recorded)
        optimal_delta_grid(f, 0.5, GridConfig(resolution=4096, refine_rounds=2))
        assert len(seen) == 2
        for xs in seen:
            assert xs.tobytes() == np.unique(xs).tobytes()
            assert xs.size < 2 * 4096  # linspace repeats points this close


class TestDeltaMonotonicity:
    def test_grid_deltas_weakly_increase(self):
        # one fixed grid: a larger gap requirement only shrinks the pair set
        tent = piecewise_linear_function([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)])
        cfg = GridConfig(resolution=2048, refine_rounds=0)
        deltas = [optimal_delta_grid(tent, e, cfg).delta for e in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert deltas == sorted(deltas)

    def test_closed_form_deltas_weakly_increase(self):
        f = power_function(3, 2)
        deltas = [optimal_delta_closed_form(f, e).delta for e in (0.5, 1.0, 2.0, 4.0, 7.0)]
        assert deltas == sorted(deltas)


class TestFiniteSpaces:
    def test_three_point_example(self):
        dist = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        sp = FiniteMetricSpace(("a", "b", "c"), dist, np.array([0.0, 0.4, 1.0]))
        s = optimal_delta_finite(sp, 0.5)
        # qualifying pairs: (a, c) gap 1.0 dist 2, (b, c) gap 0.6 dist 1
        assert s.delta == 1.0
        assert (s.method, s.bias) == (METHOD_EXHAUSTIVE, BIAS_EXACT)

    def test_empty_level_set(self):
        sp = FiniteMetricSpace.from_line_points([0.0, 1.0], values=[0.0, 0.1])
        with pytest.raises(EmptyLevelSet):
            optimal_delta_finite(sp, 0.5)

    def test_agrees_with_grid_base_pass(self):
        # sampling a function at k points and scanning is the same query
        rng = np.random.default_rng(42)
        specs = ["power(alpha=2,b=1)", "poly(0,1,-1)", "expr(sin(3*x),lo=0,hi=1)"]
        for spec in specs:
            f = parse_function(spec)
            for k in (5, 8, 12):
                xs = np.linspace(f.domain.lo, f.domain.hi, k)
                from epsdelta import evaluate_many

                fx = evaluate_many(f, xs)
                sp = FiniteMetricSpace.from_line_points(xs, values=fx)
                gaps = np.abs(fx[:, None] - fx[None, :])
                spread = float(gaps.max())
                for _ in range(3):
                    eps = float(rng.uniform(0.1, 0.9)) * spread
                    # these families have no anchor points: the grid is the k points
                    # and the oracle admits gaps at the grid's threshold
                    cfg = GridConfig(resolution=k, refine_rounds=0)
                    assert (
                        optimal_delta_finite(sp, eps * (1.0 - GAP_SLACK_REL)).delta
                        == optimal_delta_grid(f, eps, cfg).delta
                    )


class TestModulus:
    def test_identity(self):
        assert modulus_of_continuity(IDENTITY, 0.25, 2 ** 12 + 1) == 0.25

    def test_zero_delta(self):
        assert modulus_of_continuity(IDENTITY, 0.0, 257) == 0.0

    def test_whole_domain_gives_spread(self):
        tent = piecewise_linear_function([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)])
        assert modulus_of_continuity(tent, 1.0, 1025) == 1.0

    def test_tent_slope_two(self):
        tent = piecewise_linear_function([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)])
        assert modulus_of_continuity(tent, 0.25, 2 ** 12 + 1) == pytest.approx(0.5, abs=1e-12)

    def test_inverse_relation_on_identity(self):
        # w(delta(eps)) recovers eps for the identity in exact arithmetic
        for eps in (0.125, 0.25, 0.5):
            d = optimal_delta_grid(IDENTITY, eps, GridConfig(resolution=1025)).delta
            w = modulus_of_continuity(IDENTITY, d, 1025)
            assert w == pytest.approx(eps, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            modulus_of_continuity(IDENTITY, -0.1, 100)
        with pytest.raises(ValueError):
            modulus_of_continuity(IDENTITY, float("nan"), 100)
        with pytest.raises(ValueError):
            modulus_of_continuity(IDENTITY, 0.1, 1)


class TestDeltaSample:
    def test_method_bias_pairing_enforced(self):
        with pytest.raises(ValueError):
            DeltaSample(0.1, 0.1, METHOD_GRID, BIAS_EXACT)
        with pytest.raises(ValueError):
            DeltaSample(0.1, 0.1, METHOD_CLOSED_FORM, BIAS_UPPER_BOUND)
        with pytest.raises(ValueError):
            DeltaSample(0.1, 0.1, "magic", BIAS_EXACT)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            DeltaSample(0.0, 0.1, METHOD_GRID, BIAS_UPPER_BOUND)
        with pytest.raises(ValueError):
            DeltaSample(0.1, -0.1, METHOD_GRID, BIAS_UPPER_BOUND)


class TestBuildProfile:
    def test_chainsaw_mixes_methods(self):
        f = chainsaw_function()
        profile = build_profile(f, [0.5, 0.4, 1.0 / 3.0], GridConfig(resolution=2048))
        assert [s.epsilon for s in profile.samples] == sorted(
            s.epsilon for s in profile.samples
        )
        methods = {s.epsilon: s.method for s in profile.samples}
        assert methods[0.5] == METHOD_CLOSED_FORM
        assert methods[0.4] == METHOD_GRID
        assert profile.M_estimate == 1.0
        assert profile.function_id == "chainsaw"

    def test_deltas_weakly_increase_with_epsilon(self):
        f = power_function(2, 1)
        profile = build_profile(f, [0.8, 0.1, 0.4, 0.2], GridConfig(resolution=1024))
        deltas = [s.delta for s in profile.samples]
        assert deltas == sorted(deltas)

    def test_power_closed_form_lost_to_rounding_falls_back_to_grid(self):
        profile = build_profile(power_function(3, 1), [1e-17, 0.5], GridConfig(resolution=1024))
        assert [(s.epsilon, s.method) for s in profile.samples] == [
            (1e-17, METHOD_GRID), (0.5, METHOD_CLOSED_FORM)
        ]
        assert profile.samples[0].delta > 0.0

    def test_constant_function_fails_before_sampling(self):
        with pytest.raises(EmptyLevelSet, match="spread"):
            build_profile(polynomial_function([5.0]), [0.1, 0.2])

    def test_oversized_epsilon_names_the_offender(self):
        with pytest.raises(EmptyLevelSet, match="epsilon=0.9"):
            build_profile(
                piecewise_linear_function([(0.0, 0.0), (1.0, 0.5)]), [0.1, 0.9]
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            build_profile(chainsaw_function(), [])
        with pytest.raises(ValueError):
            build_profile(chainsaw_function(), [-0.1])

    def test_csv_and_json_round_trip(self):
        profile = build_profile(chainsaw_function(), [0.5, 0.25], GridConfig(resolution=512))
        csv = csv_text(*profile.table())
        lines = csv.strip().split("\n")
        assert lines[0] == "epsilon,delta,method,bias"
        assert len(lines) == 3
        doc = json.loads(json_text(profile.to_json_dict()))
        assert doc["function_id"] == "chainsaw"
        assert doc["samples"][0]["epsilon"] == 0.25
        # 17 significant digits reproduce the float exactly
        assert doc["samples"][0]["delta"] == profile.samples[0].delta


class TestVerifyLargestDelta:
    def test_chainsaw_optimum_is_valid_and_maximal(self):
        report = verify_largest_delta(chainsaw_function(), 0.5, 0.1, 2 ** 14)
        assert report.valid
        assert report.maximal
        x, y, fx, fy = report.threshold_witness
        assert abs(fy - fx) >= 0.5 * (1 - 1e-9)
        assert abs(y - x) < 0.1 * 1.001

    def test_undersized_claim_is_valid_but_not_maximal(self):
        report = verify_largest_delta(IDENTITY, 0.3, 0.2, 4096)
        assert report.valid
        assert not report.maximal
        assert report.violation is None

    def test_oversized_claim_is_invalid(self):
        report = verify_largest_delta(IDENTITY, 0.3, 0.4, 4096)
        assert not report.valid
        x, y, fx, fy = report.violation
        assert abs(y - x) < 0.4
        assert abs(fy - fx) >= 0.3 * (1 - 1e-9)

    def test_exact_claim_on_identity(self):
        report = verify_largest_delta(IDENTITY, 0.3, 0.3, 4096)
        assert report.valid
        assert report.maximal

    def test_json_shape(self):
        report = verify_largest_delta(IDENTITY, 0.3, 0.4, 512)
        doc = json.loads(json_text(report.to_json_dict()))
        assert doc["valid"] is False
        assert len(doc["violation"]) == 4
        csv = csv_text(*report.table()).strip().split("\n")
        assert csv[0] == "epsilon,delta_claimed,valid,maximal"
        assert csv[1].endswith("false,true")

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_largest_delta(IDENTITY, -0.1, 0.1, 100)
        with pytest.raises(ValueError):
            verify_largest_delta(IDENTITY, 0.1, 0.0, 100)
        # a grid of fewer than 2 points holds no pair to check
        sq = power_function(2.0, 1.0)
        for resolution in (1, 0):
            with pytest.raises(ValueError):
                verify_largest_delta(sq, 0.5, 0.9, resolution)

    def test_witness_attains_the_grid_delta(self):
        # the first violating pair of x^2 is 0.4999 apart; the closest
        # qualifying pair attains the grid delta, near 1 - sqrt(0.5)
        sq = power_function(2.0, 1.0)
        report = verify_largest_delta(sq, 0.5, 0.5, 4096)
        assert not report.valid and report.maximal
        assert report.violation == report.threshold_witness
        x, y, _, _ = report.violation
        assert y - x == optimal_delta_grid(sq, 0.5, GridConfig(4096, refine_rounds=0)).delta
        assert abs((y - x) - (1.0 - 0.5 ** 0.5)) < 2e-4


VERIFY_SPECS = (
    "chainsaw",
    "power(alpha=2,b=1)",
    "power(alpha=0.5,b=2)",
    "poly(0,1,-1)",
    "expr(sin(40*x),lo=0,hi=1)",
    "pwl((0,0),(0.5,1),(1,0))",
    "pwl((0,0),(0.3001,0),(0.30015,1),(0.3002,0),(1,0))",
)


class TestVerifyAgainstPairwise:
    """`verify_largest_delta` against an O(n^2) scan of the same grid."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        spec=st.sampled_from(VERIFY_SPECS),
        resolution=st.integers(2, 80),
        eps_frac=st.floats(0.001, 1.2),
        claim_kind=st.sampled_from(("scale", "random", "inf")),
        scale=st.sampled_from((0.5, 1.0 - 1e-9, 1.0 - 2e-9, 1.0, 1.0005, 1.001, 1.002, 2.0)),
        claim=st.floats(1e-6, 2.0),
    )
    def test_matches_pairwise_oracle(self, spec, resolution, eps_frac, claim_kind, scale, claim):
        f = parse_function(spec)
        xs, fx = sample_grid(f, resolution, include_anchors=True)
        eps = eps_frac * float(fx.max() - fx.min())
        dx = xs[None, :] - xs[:, None]
        qual = np.triu(np.abs(fx[None, :] - fx[:, None]) >= eps * (1.0 - GAP_SLACK_REL), k=1)
        dist = np.where(qual, dx, np.inf)
        k = int(np.argmin(dist))  # row-major: ties go to the smallest (i, j)
        i, j = divmod(k, xs.size)
        closest = float(dist[i, j])
        if claim_kind == "inf":
            claim = np.inf
        elif claim_kind == "scale" and closest < np.inf:
            claim = closest * scale

        report = verify_largest_delta(f, eps, claim, resolution)
        assert report.valid == (not (qual & (dx < claim * (1.0 - VALIDITY_MARGIN_REL))).any())
        assert report.maximal == bool((qual & (dx < claim * (1.0 + MAXIMALITY_MARGIN_REL))).any())
        if not qual.any():
            assert report.violation is None and report.threshold_witness is None
            with pytest.raises(EmptyLevelSet):
                optimal_delta_grid(f, eps, GridConfig(resolution, refine_rounds=0))
            return
        witness = (float(xs[i]), float(xs[j]), float(fx[i]), float(fx[j]))
        assert report.violation == (None if report.valid else witness)
        assert report.threshold_witness == (witness if report.maximal else None)
        grid = optimal_delta_grid(f, eps, GridConfig(resolution, refine_rounds=0))
        assert witness[1] - witness[0] == closest == grid.delta


def _no_evaluation(f, xs):
    raise AssertionError(f"evaluated a grid of {np.size(xs)} points")


class TestSampleGrid:
    def test_anchors_only_on_request(self):
        f = chainsaw_function()
        xs, fx = sample_grid(f, 5)
        assert xs.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert np.array_equal(fx, functions.evaluate_many(f, xs))
        xs, _ = sample_grid(f, 5, include_anchors=True)
        assert xs.size > 5
        assert 0.4 in xs.tolist()
        assert (np.diff(xs) > 0).all()

    @pytest.mark.parametrize(
        "query",
        [
            lambda r: sample_grid(IDENTITY, r),
            lambda r: optimal_delta_grid(IDENTITY, 0.5, GridConfig(resolution=r)),
            lambda r: build_profile(IDENTITY, [0.5], GridConfig(resolution=r)),
            lambda r: modulus_of_continuity(IDENTITY, 0.1, r),
            lambda r: verify_largest_delta(IDENTITY, 0.5, 0.5, r),
        ],
        ids=["sample_grid", "grid", "profile", "modulus", "verify"],
    )
    def test_point_budget_fails_before_allocating(self, monkeypatch, query):
        monkeypatch.setattr(functions, "evaluate_many", _no_evaluation)
        over = 2 ** MAX_NET_LEVEL + 2  # one point past the budget: a 134 MB grid
        tracemalloc.start()
        try:
            with pytest.raises(LevelTooLarge, match=str(over - 1)):
                query(over)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
