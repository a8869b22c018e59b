"""Dyadic nets, extremum refinement, certified bounds, envelopes."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from epsdelta import (
    DomainError,
    Interval,
    LevelTooLarge,
    RefinementTrace,
    canonical_text,
    certified_max_bound,
    chainsaw_function,
    dyadic_net,
    envelope,
    evaluate,
    evaluate_many,
    first_maximizer,
    parse_function,
    piecewise_linear_function,
    polynomial_function,
    refine_extrema,
    sample_grid,
)
from epsdelta import extremum
from epsdelta.serialize import csv_text, json_text

PARABOLA = polynomial_function([0.0, 1.0, -1.0])  # x(1-x)
IDENTITY = piecewise_linear_function([(0.0, 0.0), (1.0, 1.0)])
TWO_PEAK = piecewise_linear_function(
    [(0.0, 0.0), (0.25, 1.0), (0.5, 0.0), (0.75, 1.0), (1.0, 0.0)]
)


class TestDyadicNet:
    def test_small_example(self):
        net = dyadic_net(Interval(2.0, 6.0), 1)
        assert net.tolist() == [2.0, 4.0, 6.0]
        assert net[1] - net[0] == 2.0

    def test_point_count(self):
        for level in (0, 1, 5):
            assert dyadic_net(Interval(0.0, 1.0), level).size == 2 ** level + 1

    def test_endpoints_exact_on_awkward_domain(self):
        net = dyadic_net(Interval(0.1, 0.7), 4)
        assert net[0] == 0.1
        assert net[-1] == 0.7

    def test_nets_nest_exactly(self):
        dom = Interval(-1.5, 2.25)
        coarse = dyadic_net(dom, 4)
        fine = dyadic_net(dom, 7)
        assert np.isin(coarse, fine).all()

    def test_negative_zero_end_kept(self):
        # np.linspace would turn the -0.0 lower end into 0.0
        net = dyadic_net(Interval(-0.0, 1.0), 3)
        assert math.copysign(1.0, net[0]) == -1.0

    def test_points_strictly_increase(self):
        net = dyadic_net(Interval(0.0, 1.0), 10)
        assert (np.diff(net) > 0).all()

    def test_level_cap(self):
        with pytest.raises(LevelTooLarge):
            dyadic_net(Interval(0.0, 1.0), 25)
        with pytest.raises(ValueError):
            dyadic_net(Interval(0.0, 1.0), -1)

    def test_degenerate_domain_rejected(self):
        with pytest.raises(ValueError):
            dyadic_net(Interval(1.0, 1.0), 2)


class TestRefineExtrema:
    def test_parabola_trace(self):
        trace = refine_extrema(PARABOLA, 8)
        assert trace.levels == list(range(9))
        assert trace.max_values[0] == 0.0
        assert all(v == 0.25 for v in trace.max_values[1:])
        assert all(v == 0.0 for v in trace.min_values)
        assert all(x == 0.5 for x in trace.argmax[1:])

    def test_max_monotone_min_monotone(self):
        for spec in ("chainsaw", "expr(sin(5*x)+x/3,lo=0,hi=2)", "poly(0.2,-1,3,-1)"):
            trace = refine_extrema(parse_function(spec), 10)
            assert trace.max_values == sorted(trace.max_values)
            assert trace.min_values == sorted(trace.min_values, reverse=True)

    def test_mesh_halves_exactly(self):
        trace = refine_extrema(PARABOLA, 6)
        for i, level in enumerate(trace.levels):
            assert trace.mesh[i] == 1.0 * 2.0 ** (-level)

    def test_recorded_points_attain_recorded_values(self):
        f = parse_function("expr(sin(7*x),lo=0,hi=2)")
        trace = refine_extrema(f, 9)
        assert evaluate(f, trace.argmax[-1]) == trace.max_values[-1]
        assert evaluate(f, trace.argmin[-1]) == trace.min_values[-1]

    def test_constant_ties_go_left(self):
        trace = refine_extrema(polynomial_function([2.5]), 5)
        assert all(x == 0.0 for x in trace.argmax)
        assert all(x == 0.0 for x in trace.argmin)

    def test_negative_zero_end_kept_as_both_extremes(self):
        # == cannot tell -0.0 from 0.0; the sign bit can
        f = polynomial_function([2.5], Interval(-0.0, 1.0))
        for level in range(7):
            trace = refine_extrema(f, level)
            assert len(trace.argmax) == len(trace.argmin) == level + 1
            assert all(math.copysign(1.0, x) == -1.0 for x in trace.argmax + trace.argmin)

    def test_equal_peaks_tie_to_the_left(self):
        trace = refine_extrema(TWO_PEAK, 6)
        assert trace.argmax[-1] == 0.25

    def test_validation(self):
        with pytest.raises(LevelTooLarge):
            refine_extrema(PARABOLA, 30)
        with pytest.raises(ValueError):
            refine_extrema(PARABOLA, -1)

    def test_csv_format(self):
        trace = refine_extrema(PARABOLA, 2)
        lines = csv_text(*trace.table()).strip().split("\n")
        assert lines[0] == "level,mesh,M_n,m_n,argmax,argmin,certified_gap"
        assert len(lines) == 4
        assert lines[1].endswith(",")  # certified_gap empty until computed


class TestCertifiedMaxBound:
    def test_identity_aligned(self):
        trace = refine_extrema(IDENTITY, 3)
        bound = certified_max_bound(IDENTITY, trace, 3, 2 ** 12 + 1)
        assert bound == 1.125
        assert trace.certified_gap[3] == 0.125

    def test_bound_dominates_true_max(self):
        for spec in ("chainsaw", "poly(0,1,-1)", "expr(sin(3*x),lo=0,hi=2)",
                     "pwl((0,0),(0.3,2),(1,-1))"):
            f = parse_function(spec)
            trace = refine_extrema(f, 8)
            bound = certified_max_bound(f, trace, 8, 2 ** 12 + 1)
            _, fx = sample_grid(f, 2 ** 16 + 1)
            assert bound >= fx.max() - 1e-12

    def test_deeper_levels_tighten(self):
        f = parse_function("expr(sin(3*x),lo=0,hi=2)")
        trace = refine_extrema(f, 10)
        b4 = certified_max_bound(f, trace, 4, 2 ** 12)
        b10 = certified_max_bound(f, trace, 10, 2 ** 12)
        assert b10 <= b4

    def test_unrecorded_level_rejected(self):
        trace = refine_extrema(PARABOLA, 3)
        with pytest.raises(ValueError):
            certified_max_bound(PARABOLA, trace, 7, 256)

    def test_json_carries_gap(self):
        trace = refine_extrema(IDENTITY, 3)
        certified_max_bound(IDENTITY, trace, 3, 2 ** 12 + 1)
        doc = json.loads(json_text(trace.to_json_dict()))
        assert doc["levels"][3]["certified_gap"] == 0.125
        assert doc["levels"][0]["certified_gap"] is None


class TestEnvelope:
    def test_two_peak(self):
        pairs = envelope(TWO_PEAK, 9)
        assert pairs[:, 1].tolist() == [0.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]

    def test_nondecreasing_and_ends_at_max(self):
        f = parse_function("expr(sin(9*x)*cos(2*x),lo=0,hi=3)")
        pairs = envelope(f, 2048)
        g = pairs[:, 1]
        assert (np.diff(g) >= 0).all()
        vals = np.array([evaluate(f, x) for x in pairs[::97, 0]])
        assert g[-1] >= vals.max()

    def test_identity_envelope_is_identity(self):
        pairs = envelope(IDENTITY, 101)
        assert np.array_equal(pairs[:, 0], pairs[:, 1])

    def test_validation(self):
        with pytest.raises(ValueError):
            envelope(IDENTITY, 1)


class TestFirstMaximizer:
    def test_two_peak_picks_left(self):
        assert first_maximizer(TWO_PEAK, 2 ** 12 + 1) == 0.25

    def test_single_peak(self):
        assert first_maximizer(PARABOLA, 2 ** 10 + 1) == 0.5

    def test_monotone_function(self):
        assert first_maximizer(IDENTITY, 257) == 1.0

    def test_near_tie_goes_to_the_higher_peak(self):
        # the right peak wins by 1e-9: a tie up to rounding is no tie
        f = piecewise_linear_function(
            [(0.0, 0.0), (0.25, 1.0), (0.5, 0.0), (0.75, 1.0 + 1e-9), (1.0, 0.0)]
        )
        assert first_maximizer(f, 2 ** 12 + 1) == 0.75

    def test_validation(self):
        with pytest.raises(ValueError):
            first_maximizer(IDENTITY, 1)

    def test_past_point_budget(self):
        with pytest.raises(LevelTooLarge):
            first_maximizer(IDENTITY, 2 ** 24 + 2)


class TestChainsawRefinement:
    def test_grid_max_approaches_one(self):
        trace = refine_extrema(chainsaw_function(), 12)
        assert trace.max_values[-1] == 1.0  # f(1) = 1 sits on the net
        assert trace.min_values[-1] == 0.0

    def test_certified_bound_covers_sup(self):
        f = chainsaw_function()
        trace = refine_extrema(f, 10)
        bound = certified_max_bound(f, trace, 10, 2 ** 13)
        assert bound >= 1.0


def whole_level_trace(f, max_level):
    """Refinement without streaming: every level's whole net at once."""
    trace = RefinementTrace(function_id=canonical_text(f))
    for n in range(max_level + 1):
        net = dyadic_net(f.domain, n)
        vals = evaluate_many(f, net)
        i, j = int(np.argmax(vals)), int(np.argmin(vals))  # leftmost
        trace.levels.append(n)
        trace.mesh.append(f.domain.span / 2.0 ** n)
        trace.max_values.append(float(vals[i]))
        trace.min_values.append(float(vals[j]))
        trace.argmax.append(float(net[i]))
        trace.argmin.append(float(net[j]))
        trace.certified_gap.append(None)
    return trace


# the first level with at least _CHUNK new points (2^(n-1) of them)
CHUNK_LEVEL = (extremum._CHUNK - 1).bit_length() + 1
COS40 = parse_function("expr(cos(40*x),lo=0,hi=1)")


AWKWARD = parse_function("expr(sin(7*x)+x/3,lo=-0.3,hi=2.9)")  # rounding in lo + span*t


def tie_across_chunks(level):
    """Two equal peaks and two equal dips, all new at ``level``, one of each per half.

    The right half's peak and dip sit nearer the start of their half than
    the left half's do, so a tie rule that compares indices within a chunk
    picks the wrong one.
    """
    h = 2.0 ** -level
    pts = [(0.0, 0.0)]
    for x0, y in ((0.25, -1.0), (0.375, 1.0), (0.5, -1.0), (0.625, 1.0)):
        pts += [(x0, 0.0), (x0 + h, y), (x0 + 2 * h, 0.0)]
    return piecewise_linear_function(pts + [(1.0, 0.0)])


EACH_FUNCTION = pytest.mark.parametrize(
    "f", [PARABOLA, TWO_PEAK, COS40, AWKWARD, chainsaw_function()],
    ids=["parabola", "two-peak", "cos40", "awkward", "chainsaw"],
)


class TestStreamingMatchesWholeLevels:
    @EACH_FUNCTION
    @pytest.mark.parametrize("level", [0, 1])
    def test_ends_and_first_midpoint(self, f, level):
        # level 0 evaluates only the two ends, with no odd index at all
        assert refine_extrema(f, level) == whole_level_trace(f, level)

    @EACH_FUNCTION
    def test_two_full_chunks(self, f):
        level = CHUNK_LEVEL + 1
        assert 2 ** (level - 1) == 2 * extremum._CHUNK
        assert refine_extrema(f, level) == whole_level_trace(f, level)

    # at CHUNK_LEVEL the chunk holds one point more, exactly all, one point
    # less than the level's new points, or splits them as two full chunks
    # and a two-point rest
    @pytest.mark.parametrize(
        "chunk",
        [extremum._CHUNK + 1, extremum._CHUNK, extremum._CHUNK - 1, extremum._CHUNK // 2 - 1],
        ids=["chunk-1-points", "chunk-points", "chunk+1-points", "2chunks+2-points"],
    )
    @pytest.mark.parametrize(
        "f", [PARABOLA, COS40, AWKWARD, chainsaw_function(), tie_across_chunks(CHUNK_LEVEL)],
        ids=["parabola", "cos40", "awkward", "chainsaw", "tie"],
    )
    def test_chunk_boundaries(self, monkeypatch, f, chunk):
        monkeypatch.setattr(extremum, "_CHUNK", chunk)
        assert refine_extrema(f, CHUNK_LEVEL) == whole_level_trace(f, CHUNK_LEVEL)

    def test_constant_ties_go_left_in_every_chunk(self):
        f = polynomial_function([2.5])
        trace = refine_extrema(f, CHUNK_LEVEL + 1)
        assert trace == whole_level_trace(f, CHUNK_LEVEL + 1)
        assert set(trace.argmax) == set(trace.argmin) == {0.0}

    def test_equal_extrema_in_different_chunks_tie_to_the_left(self):
        level = CHUNK_LEVEL + 1
        f = tie_across_chunks(level)
        h = 2.0 ** -level
        trace = refine_extrema(f, level)
        assert trace == whole_level_trace(f, level)
        assert trace.max_values[-2:] == [0.0, 1.0]
        assert trace.argmax[-1] == 0.375 + h
        assert trace.argmin[-1] == 0.25 + h


class TestCoarseLevelsFromOneNet:
    """Levels up to ``_COARSE`` are read off one evaluated net."""

    @EACH_FUNCTION
    @pytest.mark.parametrize("offset", [-1, 0, 1, 3])
    def test_matches_whole_levels_around_the_coarse_level(self, f, offset):
        level = extremum._COARSE + offset
        assert refine_extrema(f, level) == whole_level_trace(f, level)

    @pytest.mark.parametrize("coarse", [0, 1, 5, 6])
    @pytest.mark.parametrize(
        "f", [PARABOLA, AWKWARD, tie_across_chunks(5), tie_across_chunks(6)],
        ids=["parabola", "awkward", "tie-at-5", "tie-at-6"],
    )
    def test_any_coarse_level_gives_the_same_trace(self, monkeypatch, f, coarse):
        monkeypatch.setattr(extremum, "_COARSE", coarse)
        assert refine_extrema(f, 6) == whole_level_trace(f, 6)

    def test_coarse_levels_take_one_evaluation(self, monkeypatch):
        sizes = []

        def counted(f, xs):
            sizes.append(len(xs))
            return evaluate_many(f, xs)

        monkeypatch.setattr(extremum, "evaluate_many", counted)
        c = extremum._COARSE
        refine_extrema(COS40, c + 2)
        assert sizes == [2 ** c + 1, 2 ** c, 2 ** (c + 1)]

    # the poles lie on the level-1, -2 and -0 nets; the first one a
    # level-by-level pass meets is named, not the leftmost
    @pytest.mark.parametrize(
        "text, offender",
        [("1/(x-0.25)+1/(x-0.5)", "0.5"), ("1/(x-0.5)+1/(x-1)", "1.0"),
         ("1/(x-0.25)+1/(x-0.375)", "0.25"), ("1/(x-0.3)", None)],
    )
    def test_error_names_the_point_level_order_meets_first(self, text, offender):
        f = parse_function(f"expr({text},lo=0,hi=1)")
        if offender is None:
            refine_extrema(f, 4)
            return
        with pytest.raises(DomainError, match=rf"^f is non-finite at x={offender}$"):
            refine_extrema(f, 4)


class TestRefineMemoryCeiling:
    @pytest.mark.parametrize(
        "spec", ["expr(sin(3*x)*cos(40*x)+x/2,lo=-1,hi=2)", "poly(0.2,-1,3,-1)",
                 "pwl((0,0),(0.3,2),(0.7,-1),(1,0))"],
        ids=["expr", "poly", "pwl"],
    )
    def test_traced_peak_independent_of_level(self, spec):
        f = parse_function(spec)
        tracemalloc.start()
        try:
            refine_extrema(f, 22)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20
