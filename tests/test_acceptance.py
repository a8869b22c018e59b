"""Acceptance suite: one checked criterion per test, one printed verdict each.

The ``[criterion N] PASS/FAIL`` lines bypass pytest's capture, so they
show up in any run.  Tolerances are fixed here and are not to be
loosened: a red criterion means the implementation regressed, not that
the bar moved.
"""

import time

import numpy as np
import pytest

from epsdelta import (
    EmptyLevelSet,
    FiniteMetricSpace,
    GridConfig,
    Interval,
    bisect_boundary,
    chainsaw_function,
    classical_ivt,
    evaluate,
    evaluate_many,
    first_maximizer,
    fixed_point,
    optimal_delta_closed_form,
    optimal_delta_finite,
    optimal_delta_grid,
    parse_target_set,
    piecewise_linear_function,
    polynomial_function,
    power_function,
    refine_extrema,
)
from epsdelta.cli import run
from epsdelta.delta import GAP_SLACK_REL


@pytest.fixture
def verdict(capsys):
    """Print a criterion verdict line past pytest's output capture."""
    def emit(num: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    return emit


def test_criterion_1_chainsaw_exact_deltas(verdict):
    """delta(1/n) = 1/(n(2n+1)) for n = 1..5: closed form to 2 ulp, grid
    at resolution 2^14 within 1e-3 absolute, all inside 30 seconds."""
    t0 = time.perf_counter()
    f = chainsaw_function()
    cfg = GridConfig(resolution=2 ** 14)
    worst_closed = 0.0
    worst_grid = 0.0
    for n in range(1, 6):
        want = 1.0 / (n * (2.0 * n + 1.0))
        closed = optimal_delta_closed_form(f, 1.0 / n).delta
        grid = optimal_delta_grid(f, 1.0 / n, cfg).delta
        worst_closed = max(worst_closed, abs(closed - want) / np.spacing(want))
        worst_grid = max(worst_grid, abs(grid - want))
    elapsed = time.perf_counter() - t0
    ok = worst_closed <= 2.0 and worst_grid <= 1e-3 and elapsed < 30.0
    verdict(
        1, ok,
        f"closed form within {worst_closed:.1f} ulp, grid off by {worst_grid:.2e} "
        f"(limit 1e-3), {elapsed:.1f}s (limit 30s)",
    )
    assert worst_closed <= 2.0
    assert worst_grid <= 1e-3
    assert elapsed < 30.0


def test_criterion_2_power_family_grid_vs_closed_form(verdict):
    """Four power families, four epsilons each: the grid search lands
    within relative 1e-3 of the closed form, never more than 1e-12
    below it, inside 2 minutes; one case is cross-checked against a
    brute-force pair scan."""
    t0 = time.perf_counter()
    families = [(2.0, 1.0), (3.0, 2.0), (0.5, 1.0), (1.0, 1.0)]
    fractions = (0.05, 0.19, 0.5, 0.75)
    cfg = GridConfig(resolution=2 ** 12)
    worst_rel = 0.0
    worst_under = 0.0
    for alpha, b in families:
        f = power_function(alpha, b)
        spread = b ** alpha
        for frac in fractions:
            eps = frac * spread
            grid = optimal_delta_grid(f, eps, cfg).delta
            closed = optimal_delta_closed_form(f, eps).delta
            worst_rel = max(worst_rel, abs(grid - closed) / closed)
            worst_under = max(worst_under, closed - grid)

    # independent oracle: blocked brute-force scan of the same base grid,
    # admitting pairs at the grid routes' gap threshold
    f = power_function(2.0, 1.0)
    xs = np.linspace(0.0, 1.0, 2 ** 12)
    fx = evaluate_many(f, xs)
    brute = np.inf
    for start in range(0, xs.size, 512):
        block = slice(start, start + 512)
        gaps = np.abs(fx[block, None] - fx[None, :])
        dists = np.abs(xs[block, None] - xs[None, :])
        mask = (gaps >= 0.19 * (1.0 - GAP_SLACK_REL)) & (dists > 0)
        if mask.any():
            brute = min(brute, float(dists[mask].min()))
    base_only = GridConfig(resolution=2 ** 12, refine_rounds=0)
    base = optimal_delta_grid(f, 0.19, base_only).delta
    oracle_ok = base == brute

    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-3 and worst_under <= 1e-12 and oracle_ok and elapsed < 120.0
    verdict(
        2, ok,
        f"16 cases: worst rel {worst_rel:.2e} (limit 1e-3), worst undershoot "
        f"{worst_under:.2e} (limit 1e-12), brute-force agreement {oracle_ok}, "
        f"{elapsed:.1f}s (limit 120s)",
    )
    assert worst_rel <= 1e-3
    assert worst_under <= 1e-12
    assert oracle_ok
    assert elapsed < 120.0


def test_criterion_3_chainsaw_jump_structure(verdict):
    """Just past the jump points, eps = 1/n + 1e-4, the optimal delta
    leaps up to at least 1/(n(2n-1)) - 1e-3; at n = 1 the level set is
    empty (eps exceeds the spread), which bounds inf over nothing."""
    f = chainsaw_function()
    cfg = GridConfig(resolution=2 ** 14)
    results = []
    for n in (1, 2, 3):
        floor = 1.0 / (n * (2.0 * n - 1.0))
        try:
            got = optimal_delta_grid(f, 1.0 / n + 1e-4, cfg).delta
        except EmptyLevelSet:
            got = np.inf  # inf over the empty set
        results.append((n, got, floor))
    ok = all(got >= floor - 1e-3 for _, got, floor in results)
    detail = ", ".join(
        f"n={n}: {got:.6g} >= {floor:.6g}-1e-3" for n, got, floor in results
    )
    verdict(3, ok, detail)
    for n, got, floor in results:
        assert got >= floor - 1e-3, f"jump floor violated at n={n}"


def test_criterion_4_finite_space_largest_delta(verdict):
    """On 200 seeded random finite metric spaces the computed delta is
    the largest workable tolerance: every strictly closer pair has a
    smaller gap, and a pair at exactly delta attains the gap."""
    rng = np.random.default_rng(20260814)
    checked = 0
    for case in range(200):
        size = int(rng.integers(3, 11))
        if case % 2 == 0:
            # distances in [0.5, 1]: any two sum past the largest, so
            # the triangle inequality holds automatically
            d = rng.uniform(0.5, 1.0, (size, size))
            d = np.triu(d, 1)
            d = d + d.T
            values = rng.uniform(0.0, 1.0, size)
            space = FiniteMetricSpace(d, values)
        else:
            xs = np.sort(rng.uniform(0.0, 10.0, size))
            space = FiniteMetricSpace.from_line_points(xs, values=rng.uniform(0, 1, size))

        iu, ju = np.triu_indices(size, k=1)
        gaps = np.abs(space.values[iu] - space.values[ju])
        if gaps.max() == 0.0:
            continue
        eps = float(rng.uniform(0.2, 0.95)) * float(gaps.max())
        if eps <= 0.0:
            continue
        delta = optimal_delta_finite(space, eps).delta

        dists = space.dist[iu, ju]
        closer = dists < delta
        validity = (gaps[closer] < eps).all()
        attained = (gaps[dists == delta] >= eps).any()
        assert validity, f"case {case}: a closer pair already reaches the gap"
        assert attained, f"case {case}: delta not attained by any pair"
        checked += 1
    ok = checked >= 190
    verdict(4, ok, f"{checked}/200 spaces checked, validity and attainment held on all")
    assert ok


def test_criterion_5_parabola_refinement_trace(verdict):
    """x(1-x): the level-0 net sees only the zero endpoints (M_0 = 0);
    every deeper net contains 0.5, so M_n = 0.25 exactly from level 1."""
    trace = refine_extrema(polynomial_function([0.0, 1.0, -1.0]), 12)
    ok = (
        trace.max_values[0] == 0.0
        and all(v == 0.25 for v in trace.max_values[1:])
        and all(v == 0.0 for v in trace.min_values)
        and trace.levels == list(range(13))
    )
    verdict(
        5, ok,
        f"M_0 = {trace.max_values[0]}, M_1..M_12 all 0.25: "
        f"{set(trace.max_values[1:]) == {0.25}}",
    )
    assert trace.max_values[0] == 0.0
    assert all(v == 0.25 for v in trace.max_values[1:])
    assert all(v == 0.0 for v in trace.min_values)


def test_criterion_6_first_maximizer_two_peak(verdict):
    """Two equal unit peaks at 0.25 and 0.75: the reported first
    maximizer is the left one."""
    f = piecewise_linear_function(
        [(0.0, 0.0), (0.25, 1.0), (0.5, 0.0), (0.75, 1.0), (1.0, 0.0)]
    )
    got = first_maximizer(f, 2 ** 12 + 1)
    ok = got == 0.25
    verdict(6, ok, f"first maximizer {got} (want 0.25)")
    assert got == 0.25


def test_criterion_7_cube_root_and_cosine_fixed_point(verdict):
    """x^3 = 2 after 20 halvings: bracket width exactly 2 * 2^-20 and it
    contains 2^(1/3); the cosine fixed point lands within 2^-30."""
    cube = polynomial_function([0.0, 0.0, 0.0, 1.0], Interval(0.0, 2.0))
    trace = classical_ivt(cube, 2.0, 20)
    a, b = trace.final_bracket
    width = abs(b - a)
    root = 2.0 ** (1.0 / 3.0)
    width_ok = width == 2.0 * 2.0 ** -20
    contains = min(a, b) <= root <= max(a, b)

    from epsdelta import expression_function

    cos_f = expression_function("cos(x)", 0.0, 1.0)
    est = fixed_point(cos_f, 40).estimate
    fix_err = abs(est - 0.7390851332151607)
    fix_ok = fix_err <= 2.0 ** -30

    ok = width_ok and contains and fix_ok
    verdict(
        7, ok,
        f"bracket width {width:.10g} == 2*2^-20: {width_ok}, contains 2^(1/3): "
        f"{contains}, cos fixed point error {fix_err:.2e} <= 2^-30: {fix_ok}",
    )
    assert width_ok
    assert contains
    assert fix_ok


def test_criterion_8_step_crossing_bracket(verdict):
    """A near-step function crossing zero just past 0.375: after n
    halvings the bracket width is exactly 2^-n and the crossing stays
    inside, with no assumption of continuity."""
    jump = 2.0 ** -24
    f = piecewise_linear_function(
        [(0.0, -1.0), (0.375, -1.0), (0.375 + jump, 1.0), (1.0, 1.0)]
    )
    target = parse_target_set("(-inf,0)")
    all_ok = True
    details = []
    for steps in (10, 20):
        trace = bisect_boundary(f, target, steps)
        a, b = trace.final_bracket
        width_ok = abs(b - a) == 2.0 ** -steps
        lo, hi = min(a, b), max(a, b)
        # the sign change happens inside (0.375, 0.375 + 2^-24]
        contains = lo <= 0.375 and 0.375 + jump <= hi + jump
        sign_ok = evaluate(f, lo) < 0.0 <= evaluate(f, hi)
        all_ok = all_ok and width_ok and contains and sign_ok
        details.append(f"n={steps}: width==2^-{steps} {width_ok}, crossing inside {sign_ok}")
    verdict(8, all_ok, "; ".join(details))
    assert all_ok


def test_criterion_9_cli_determinism(capsys, verdict):
    """The same CLI invocation twice produces byte-identical bytes."""
    argv = [
        "delta-profile", "--fn", "chainsaw", "--eps", "1.0,0.5,0.25,0.2,0.11",
        "--resolution", "4096", "--output", "json",
    ]
    code1 = run(list(argv))
    out1 = capsys.readouterr().out
    code2 = run(list(argv))
    out2 = capsys.readouterr().out
    ok = code1 == code2 == 0 and out1 == out2 and len(out1) > 0
    verdict(9, ok, f"{len(out1)} bytes, identical on rerun: {out1 == out2}")
    assert code1 == 0
    assert out1 == out2
