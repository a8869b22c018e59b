"""Pair-scan kernels against brute-force oracles.

Each kernel must match a direct O(n^2) Python scan bit for bit,
including the lexicographic tie-break on index pairs.  Inputs whose
answer lies past offset 16 reach the hit scans' lifting stage; the
2^12-point grids reach its deepest levels.  ``min_dist_pair`` first
reads what it can off the running extremes of finite values;
``TestRunningExtremes`` aims at the rounding of that stage,
``TestMonotoneValues`` at the values that take only one side.
``TestWindowExtremes`` aims at the window ends and range tables of
``max_gap_within``.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from epsdelta import _kernels, parse_function, sample_grid


def naive_min_dist_pair(x, fx, eps):
    best, bi, bj = np.inf, -1, -1
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(fx[j] - fx[i]) >= eps:
                d = x[j] - x[i]
                if d < best:
                    best, bi, bj = d, i, j
    return best, bi, bj


def naive_max_gap_within(x, fx, delta):
    best = 0.0
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            if x[j] - x[i] <= delta:
                best = max(best, abs(fx[j] - fx[i]))
    return best


def naive_find_violation(x, fx, eps, bound):
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            if x[j] - x[i] < bound and abs(fx[j] - fx[i]) >= eps:
                return i, j
    return -1, -1


# rows per block of the numpy oracles: 256 x n temporaries
_ORACLE_BLOCK = 256


def _oracle_blocks(x, fx):
    """Rows i in blocks, with dx[i, j] = x[j] - x[i], gap |fx[j] - fx[i]|, j > i."""
    n = x.size
    cols = np.arange(n)
    for start in range(0, n, _ORACLE_BLOCK):
        rows = np.arange(start, min(start + _ORACLE_BLOCK, n))
        dx = x[None, :] - x[rows, None]
        gap = np.abs(fx[None, :] - fx[rows, None])
        yield rows, dx, gap, cols[None, :] > rows[:, None]


def blocked_min_dist_pair(x, fx, eps):
    best, bi, bj = np.inf, -1, -1
    for rows, dx, gap, upper in _oracle_blocks(x, fx):
        cand = np.where(upper & (gap >= eps), dx, np.inf)
        m = float(cand.min())
        if m < best:
            r, j = np.argwhere(cand == m)[0]  # row-major: smallest (i, j)
            best, bi, bj = m, int(rows[r]), int(j)
    return best, bi, bj


def blocked_max_gap_within(x, fx, delta):
    best = 0.0
    for _, dx, gap, upper in _oracle_blocks(x, fx):
        sel = gap[upper & (dx <= delta)]
        if sel.size:
            best = max(best, float(sel.max()))
    return best


def blocked_find_violation(x, fx, eps, bound):
    for rows, dx, gap, upper in _oracle_blocks(x, fx):
        hit = upper & (dx < bound) & (gap >= eps)
        if hit.any():
            r, j = np.argwhere(hit)[0]
            return int(rows[r]), int(j)
    return -1, -1


def sample_inputs(seed, n, duplicates=False):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, n))
    if duplicates and n > 3:
        x[n // 2] = x[n // 2 - 1]
    fx = rng.uniform(-1.0, 1.0, n)
    return x, fx


class TestMinDistPair:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("eps", [0.05, 0.4, 1.2, 1.9])
    def test_matches_naive(self, seed, eps):
        x, fx = sample_inputs(seed, 80)
        want = naive_min_dist_pair(x, fx, eps)
        got = _kernels.min_dist_pair(x, fx, eps)
        assert got == want

    def test_no_qualifying_pair(self):
        x = np.array([0.0, 0.5, 1.0])
        fx = np.array([0.0, 0.1, 0.2])
        assert _kernels.min_dist_pair(x, fx, 0.5) == (np.inf, -1, -1)

    def test_tiny_inputs(self):
        assert _kernels.min_dist_pair(np.array([0.5]), np.array([1.0]), 0.1) == (np.inf, -1, -1)
        empty = np.array([], dtype=float)
        assert _kernels.min_dist_pair(empty, empty, 0.1) == (np.inf, -1, -1)

    def test_tie_break_lexicographic(self):
        # two pairs at distance 0.25 qualify; (0, 1) beats (2, 3)
        x = np.array([0.0, 0.25, 0.5, 0.75])
        fx = np.array([0.0, 1.0, 0.0, 1.0])
        assert _kernels.min_dist_pair(x, fx, 1.0) == (0.25, 0, 1)

    def test_duplicate_abscissas(self):
        x, fx = sample_inputs(11, 60, duplicates=True)
        for eps in (0.2, 0.9):
            assert _kernels.min_dist_pair(x, fx, eps) == naive_min_dist_pair(x, fx, eps)

    def test_adversarial_tiny_gap(self):
        # a near-duplicate point weakens the early exit but not correctness
        x = np.sort(np.concatenate([np.linspace(0, 1, 50), [0.5 + 1e-13]]))
        rng = np.random.default_rng(3)
        fx = rng.uniform(-1, 1, x.size)
        assert _kernels.min_dist_pair(x, fx, 0.7) == naive_min_dist_pair(x, fx, 0.7)

    @given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_property_matches_naive(self, n, seed):
        x, fx = sample_inputs(seed, n)
        eps = float(np.ptp(fx)) * 0.6 + 1e-9
        assert _kernels.min_dist_pair(x, fx, eps) == naive_min_dist_pair(x, fx, eps)


class TestMaxGapWithin:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("delta", [0.0, 0.01, 0.2, 1.5])
    def test_matches_naive(self, seed, delta):
        x, fx = sample_inputs(seed, 80)
        assert _kernels.max_gap_within(x, fx, delta) == naive_max_gap_within(x, fx, delta)

    def test_delta_below_min_gap_gives_zero(self):
        x = np.linspace(0, 1, 11)
        fx = x ** 2
        assert _kernels.max_gap_within(x, fx, 0.01) == 0.0

    def test_whole_domain_gives_spread(self):
        x = np.linspace(0, 1, 101)
        fx = np.sin(7 * x)
        assert _kernels.max_gap_within(x, fx, 1.0) == float(fx.max() - fx.min())


class TestFindViolation:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_naive(self, seed):
        x, fx = sample_inputs(seed, 80)
        for eps, bound in [(0.3, 0.1), (0.3, 0.5), (1.9, 1.0), (0.05, 0.02)]:
            assert _kernels.find_violation(x, fx, eps, bound) == naive_find_violation(
                x, fx, eps, bound
            )

    def test_returns_first_in_index_order(self):
        x = np.array([0.0, 0.1, 0.2, 0.3])
        fx = np.array([0.0, 1.0, 0.0, 1.0])
        # (0,1) and (2,3) both violate; index order picks (0,1)
        assert _kernels.find_violation(x, fx, 0.9, 0.15) == (0, 1)

    def test_no_violation(self):
        x = np.linspace(0, 1, 20)
        assert _kernels.find_violation(x, x.copy(), 0.5, 0.1) == (-1, -1)


class TestChainsawKernel:
    def test_piecewise_formula(self):
        # direct check of |(2n+1)t - 2| on each tooth, n from the interval
        rng = np.random.default_rng(1)
        for n in range(1, 30):
            lo, hi = 1.0 / (n + 1), 1.0 / n
            ts = rng.uniform(lo, hi, 20)
            got = _kernels.chainsaw_values(ts)
            want = np.abs((2.0 * n + 1.0) * ts - 2.0)
            assert np.array_equal(got, want)

    def test_tiny_positive_values_stay_bounded(self):
        t = np.array([1e-300, 5e-324, 1e-40, 1e-19])
        v = _kernels.chainsaw_values(t)
        assert (v >= 0.0).all()
        assert (v <= t + 1e-12).all()  # f(t) <= t on (0, 1]

    def test_zero_and_negative_clamp(self):
        assert _kernels.chainsaw_values(np.array([0.0, -0.5])).tolist() == [0.0, 0.0]


@st.composite
def tie_heavy_inputs(draw):
    """Sorted abscissas with repeats and values in quarter steps with flat runs.

    Up to 400 points, so many answers lie past the direct stage.
    """
    n = draw(st.integers(min_value=0, max_value=400))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    # abscissas on n or n / 3 quarter steps: a few or many repeats
    steps = max(1, n // draw(st.sampled_from([1, 3])))
    x = np.sort(rng.integers(0, steps, n) * 0.25)
    run = draw(st.sampled_from([1, 7, 40]))
    fx = np.repeat(rng.integers(-4, 5, n // run + 1) * 0.25, run)[:n]
    return x, fx


quarters = st.integers(min_value=-1, max_value=10).map(lambda k: k * 0.25)
tie_heavy = settings(max_examples=30, deadline=None, derandomize=True)


def ramp(n, repeats=()):
    """Quarter-step abscissas with ``x[b] == x[b - 1]`` for each b in
    ``repeats``, and values rising by one a point, so that the largest gap
    in a window names the window's last point."""
    k = np.arange(n)
    return (k - np.searchsorted(repeats, k, side="right")) * 0.25, k * 1.0


def spike(k, nan_at=None, n=100):
    """Quarter-step abscissas and values 0.5 but for 0 at point 0 and 1 at
    point k, so that (0, k) is the only pair 1 apart; a NaN at ``nan_at``
    sends every row of ``min_dist_pair`` through the lifting stage."""
    x = np.arange(n) * 0.25
    fx = np.full(n, 0.5)
    fx[[0, k]] = [0.0, 1.0]
    if nan_at is not None:
        fx[nan_at] = np.nan
    return x, fx


def spike_examples(*bounds):
    """``spike`` inputs at offsets 17 to 65, with and without a NaN, as
    hypothesis examples at eps 1, and at each of ``bounds``, functions of
    the offset, when given."""
    def add(test):
        for k in (17, 32, 63, 64, 65):
            for nan_at in (None, 99):
                for bound in bounds or [None]:
                    extra = () if bound is None else (bound(k),)
                    test = example(spike(k, nan_at), 1.0, *extra)(test)
        return test
    return add


# a far pair's exact distance, and one ulp either side of it
PAIR = sample_inputs(9, 100)
PAIR_DIST = float(PAIR[0][60] - PAIR[0][5])


class TestLiftingStage:
    @given(tie_heavy_inputs(), quarters)
    @spike_examples()
    @tie_heavy
    def test_min_dist_pair_tie_heavy(self, inputs, eps):
        x, fx = inputs
        assert _kernels.min_dist_pair(x, fx, eps) == naive_min_dist_pair(x, fx, eps)

    @given(tie_heavy_inputs(), quarters)
    @example(ramp(17), math.inf)
    @example(ramp(31), math.inf)
    @example(ramp(32), math.inf)
    @example(ramp(33), math.inf)
    @example(ramp(64), 31 * 0.25)  # row 0's window ends on block 1's last point
    @example(ramp(64), 47 * 0.25)  # and on block 2's
    @example(ramp(60), 50 * 0.25)  # windows end inside the padded final block
    @example(ramp(60), 58 * 0.25)
    @example(ramp(64, repeats=[16, 32, 48]), 30 * 0.25)  # x[16k - 1] == x[16k]
    @example(PAIR, PAIR_DIST)
    @example(PAIR, float(np.nextafter(PAIR_DIST, -np.inf)))
    @example(PAIR, float(np.nextafter(PAIR_DIST, np.inf)))
    @tie_heavy
    def test_max_gap_within_tie_heavy(self, inputs, delta):
        x, fx = inputs
        assert _kernels.max_gap_within(x, fx, delta) == naive_max_gap_within(x, fx, delta)

    @given(tie_heavy_inputs(), quarters, quarters)
    @spike_examples(lambda k: k * 0.25, lambda k: (k + 1) * 0.25)  # the pair's distance, a step past
    @tie_heavy
    def test_find_violation_tie_heavy(self, inputs, eps, bound):
        x, fx = inputs
        assert _kernels.find_violation(x, fx, eps, bound) == naive_find_violation(x, fx, eps, bound)

    def test_tie_past_the_direct_stage(self):
        # (17, 18) at offset 1 and (0, 17) at offset 17 both sit 1.0 apart;
        # the repeated abscissas keep the direct stage from settling
        x = np.array([0.0] + [1.0] * 17 + [2.0] * 4)
        fx = np.array([0.0] + [0.5] * 16 + [1.0] + [0.0] * 4)
        assert _kernels.min_dist_pair(x, fx, 1.0) == (1.0, 0, 17)
        assert naive_min_dist_pair(x, fx, 1.0) == (1.0, 0, 17)

    def test_far_hit_beats_near_hit(self):
        # dense points climb slowly: index offset 60 but 0.06 apart; sparse
        # points climb fast: offset 20 but 0.07 apart
        k = np.arange(200)
        x = np.concatenate([k * 0.001, 0.2 + k * 0.0035])
        fx = np.concatenate([k / 60, 200 / 60 + k / 20])
        eps = 1.0 - 1e-9
        got = _kernels.min_dist_pair(x, fx, eps)
        assert got == naive_min_dist_pair(x, fx, eps)
        assert got[2] - got[1] == 60

    @pytest.mark.parametrize(
        "start, step, last, pair", [(0.9, 1e-4, 1.0, (0, 70)), (0.3, 0.01, 0.5, (198, 199))]
    )
    def test_lifting_against_the_direct_stage_pair(self, start, step, last, pair):
        # row 0 first reaches the gap at offset 70; the direct stages find
        # (198, 199), `last` apart, and repeated abscissas keep them going
        x = np.concatenate([[0.0], start + step * np.arange(99), [1.5] * 91,
                            2.0 + 0.01 * np.arange(7), [5.0, 5.0 + last]])
        fx = np.full(200, 0.5)
        fx[[0, 70, 199]] = [0.0, 1.0, 1.5]
        got = _kernels.min_dist_pair(x, fx, 1.0)
        assert got == naive_min_dist_pair(x, fx, 1.0)
        assert got[1:] == pair

    def test_pair_one_ulp_below_the_bound(self):
        # (0, 17) lies one ulp below dist_bound; no pair within offset 16 qualifies
        x = np.array([0.0] + [np.nextafter(0.5, 0.0)] * 39)
        fx = np.array([0.0] + [0.5] * 16 + [1.0] * 23)
        assert _kernels.find_violation(x, fx, 1.0, 0.5) == (0, 17)
        assert naive_find_violation(x, fx, 1.0, 0.5) == (0, 17)

    def test_row_before_the_direct_stage_pair(self):
        # the direct stage finds (1, 2); row 0 comes first with (0, 20)
        x = np.arange(30) * 0.01
        fx = np.full(30, 0.5)
        fx[[0, 2, 20]] = [0.0, -0.5, 1.0]
        assert _kernels.find_violation(x, fx, 1.0, 1.0) == (0, 20)
        assert naive_find_violation(x, fx, 1.0, 1.0) == (0, 20)

    def test_window_ending_exactly_at_delta(self):
        x = np.arange(60) * 0.25
        fx = np.arange(60.0)
        assert _kernels.max_gap_within(x, fx, 40 * 0.25) == 40.0
        assert naive_max_gap_within(x, fx, 40 * 0.25) == 40.0

    def test_window_ending_exactly_at_offset_17(self):
        x = np.arange(40) * 0.25
        fx = np.arange(40.0)
        assert _kernels.max_gap_within(x, fx, 17 * 0.25) == 17.0
        assert naive_max_gap_within(x, fx, 17 * 0.25) == 17.0

    @pytest.mark.parametrize("seed", range(4))
    def test_far_pairs_on_random_walks(self, seed):
        # a slow walk puts the first qualifying pair hundreds of offsets out
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(0.0, 1.0, 300))
        fx = np.cumsum(rng.normal(size=300)) * 0.05
        spread = float(np.ptp(fx))
        for frac in (0.3, 0.7, 1.0):
            eps = frac * spread
            assert _kernels.min_dist_pair(x, fx, eps) == naive_min_dist_pair(x, fx, eps)
            for bound in (0.2, 0.6):
                assert _kernels.find_violation(x, fx, eps, bound) == naive_find_violation(
                    x, fx, eps, bound
                )
        for delta in (0.1, 0.4, 0.9):
            assert _kernels.max_gap_within(x, fx, delta) == naive_max_gap_within(x, fx, delta)


class TestEdgeCases:
    """Behaviour the kernels keep at degenerate sizes and parameters."""

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_sizes(self, n):
        x = np.linspace(0.0, 1.0, n)
        fx = np.arange(n, dtype=float)
        assert _kernels.min_dist_pair(x, fx, 0.5) == ((1.0, 0, 1) if n == 2 else (np.inf, -1, -1))
        assert _kernels.max_gap_within(x, fx, 1.0) == (1.0 if n == 2 else 0.0)
        assert _kernels.find_violation(x, fx, 0.5, 2.0) == ((0, 1) if n == 2 else (-1, -1))

    @pytest.mark.parametrize("n", [5, 40])
    def test_nonpositive_eps_takes_the_closest_pair(self, n):
        x, fx = sample_inputs(5, n)
        for eps in (0.0, -1.0):
            got = _kernels.min_dist_pair(x, fx, eps)
            assert got == naive_min_dist_pair(x, fx, eps)
            assert got[0] == float(np.diff(x).min())
            assert _kernels.find_violation(x, fx, eps, 1.0) == (0, 1)

    @pytest.mark.parametrize("n", [5, 40])
    def test_nan_eps_hits_nothing(self, n):
        x, fx = sample_inputs(6, n)
        assert _kernels.min_dist_pair(x, fx, math.nan) == (np.inf, -1, -1)
        assert _kernels.find_violation(x, fx, math.nan, 1.0) == (-1, -1)

    def test_infinite_value_within_offset_16_of_every_point(self):
        # the direct stage's reach covers every pair, so no block walk runs
        x = np.linspace(0.0, 1.0, 17)
        fx = np.concatenate([[np.inf], np.zeros(16)])
        assert _kernels.min_dist_pair(x, fx, math.nan) == (np.inf, -1, -1)
        assert _kernels.min_dist_pair(x, fx, 0.5) == (float(x[1] - x[0]), 0, 1)

    @pytest.mark.parametrize("n", [5, 40])
    def test_delta_below_zero_zero_and_nan(self, n):
        x, fx = sample_inputs(7, n, duplicates=True)
        dup = naive_max_gap_within(x, fx, 0.0)
        assert dup == abs(fx[n // 2] - fx[n // 2 - 1])
        assert _kernels.max_gap_within(x, fx, 0.0) == dup
        assert _kernels.max_gap_within(x, fx, -0.0) == dup
        assert _kernels.max_gap_within(x, fx, -0.1) == 0.0
        assert _kernels.max_gap_within(x, fx, math.nan) == 0.0
        top = float(np.finfo(np.float64).max)
        assert _kernels.max_gap_within(x, fx, top) == naive_max_gap_within(x, fx, top)

    @pytest.mark.parametrize("n", [5, 40])
    def test_nonpositive_or_nan_bound_finds_nothing(self, n):
        x, fx = sample_inputs(8, n, duplicates=True)
        for bound in (0.0, -1.0, math.nan):
            assert _kernels.find_violation(x, fx, 0.1, bound) == (-1, -1)

    @pytest.mark.parametrize("n", [5, 40, 300])
    def test_constant_values(self, n):
        x = np.linspace(0.0, 1.0, n)
        for v in (0.3, 0.0, -0.0):
            fx = np.full(n, v)
            assert _kernels.min_dist_pair(x, fx, 0.1) == (np.inf, -1, -1)
            assert _kernels.min_dist_pair(x, fx, 0.0) == naive_min_dist_pair(x, fx, 0.0)
            assert _kernels.max_gap_within(x, fx, 1.0) == 0.0
            assert _kernels.find_violation(x, fx, 0.1, 2.0) == (-1, -1)


def _grid(spec, n=2 ** 12):
    return sample_grid(parse_function(spec), n, include_anchors=True)


GRIDS = ["chainsaw", "power(alpha=2,b=1)"]


class TestLargeGrids:
    """2^12-point grids against blocked numpy O(n^2) oracles."""

    @pytest.mark.parametrize("spec", GRIDS)
    def test_min_dist_pair(self, spec):
        x, fx = _grid(spec)
        for eps in (0.3, 0.5001, 0.9):
            assert _kernels.min_dist_pair(x, fx, eps) == blocked_min_dist_pair(x, fx, eps)

    @pytest.mark.parametrize("spec", GRIDS)
    def test_max_gap_within(self, spec):
        x, fx = _grid(spec)
        for delta in (0.01, 0.16, 0.7):
            assert _kernels.max_gap_within(x, fx, delta) == blocked_max_gap_within(x, fx, delta)

    def test_max_gap_within_one_point_final_block(self):
        # 2^12 + 1 points leave one point and 15 pads in the final block
        x, fx = sample_inputs(10, 2 ** 12 + 1)
        for delta in (0.5, math.inf):
            assert _kernels.max_gap_within(x, fx, delta) == blocked_max_gap_within(x, fx, delta)

    @pytest.mark.parametrize("spec", GRIDS)
    def test_find_violation(self, spec):
        x, fx = _grid(spec)
        # bounds of a few grid steps leave most rows no close hit
        for eps, bound in ((0.5, 0.3), (0.9, 0.95), (0.45, 0.2), (0.05, 6 / 4095), (0.2, 6 / 4095)):
            assert _kernels.find_violation(x, fx, eps, bound) == blocked_find_violation(
                x, fx, eps, bound
            )


FAMILIES = ["chainsaw", "power(alpha=0.5,b=2)", "poly(0,1,-1)",
            "pwl((0,0),(0.3,1),(0.31,0.2),(1,0.9))", "expr(sin(7*x)+x/3,lo=-0.3,hi=2.9)"]
DUALITY_EPS = (1e-3, 0.01, 0.1, 0.25, 0.5, 0.5001, 0.9, 1.0)


def assert_duality(x, fx, eps):
    """delta(eps) and the modulus are generalized inverses on one grid: the
    smallest distance with a gap of eps brings an eps gap into the window,
    and one rounded distance less does not."""
    d = _kernels.min_dist_pair(x, fx, eps)[0]
    if not math.isfinite(d):
        return 0
    assert _kernels.max_gap_within(x, fx, d) >= eps
    assert _kernels.max_gap_within(x, fx, np.nextafter(d, -np.inf)) < eps
    return 1


class TestDuality:
    """Oracle-free: min_dist_pair and max_gap_within check each other."""

    @pytest.mark.parametrize("n", [64, 1000, 4096])
    @pytest.mark.parametrize("spec", FAMILIES)
    def test_sampled_grids(self, spec, n):
        x, fx = _grid(spec, n)
        spread = float(fx.max() - fx.min())
        checked = sum(assert_duality(x, fx, t * spread) for t in DUALITY_EPS)
        assert checked == len(DUALITY_EPS)

    @pytest.mark.parametrize("n", [5, 40, 400, 3000])
    def test_random_inputs_with_a_repeated_abscissa(self, n):
        for seed in range(10):
            x, fx = sample_inputs(seed, n, duplicates=True)
            for eps in (1e-6, 0.05, 0.3, 1.0, 1.9):
                assert_duality(x, fx, eps)


def two_windows(rise, n=200):
    """Two disjoint linspace windows, each spanning far less than ``rise``,
    the gap between their values."""
    h = n // 2
    x = np.concatenate([np.linspace(0.1, 0.2, h), np.linspace(0.6, 0.7, n - h)])
    fx = np.concatenate([np.linspace(0.0, 0.05, h), rise + np.linspace(0.0, 0.05, n - h)])
    return x, fx


class TestRunningExtremes:
    """Inputs whose first hits the running maximum and minimum decide."""

    @pytest.mark.parametrize("spec", FAMILIES)
    def test_eps_at_the_spread_and_at_one_pair_gap(self, spec):
        # at eps == spread, fx[i] + eps can round past the last running max
        x, fx = _grid(spec, 1000)
        gaps = [fx.max() - fx.min(), abs(fx[700] - fx[40]), abs(fx[501] - fx[500])]
        for eps in gaps:
            eps = float(eps)
            assert _kernels.min_dist_pair(x, fx, eps) == blocked_min_dist_pair(x, fx, eps)

    @pytest.mark.parametrize("seed", range(4))
    def test_running_max_plateaus(self, seed):
        # values rounded to one decimal: the running extremes stand still
        # for long runs, and many gaps equal eps exactly
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(0.0, 1.0, 300))
        fx = np.round(np.cumsum(rng.normal(size=300)) * 0.3, 1)
        for eps in (0.1, 0.3, 1.0, float(fx.max() - fx.min())):
            assert _kernels.min_dist_pair(x, fx, eps) == naive_min_dist_pair(x, fx, eps)

    @pytest.mark.parametrize("rise", [1.0, -1.0])
    def test_union_of_two_windows(self, rise):
        x, fx = two_windows(rise)
        for eps in (0.5, 0.95, 1.0, 1.05, 1.06):
            assert _kernels.min_dist_pair(x, fx, eps) == naive_min_dist_pair(x, fx, eps)

    @pytest.mark.parametrize("transform", [
        lambda v: -v,  # decreasing
        lambda v: v - 3.0,  # negative
        lambda v: 1e6 + v * 1e-6,  # an offset far above the gaps
        lambda v: -1e6 + v * 1e-9,
    ], ids=["decreasing", "negative", "offset", "negative-offset"])
    def test_decreasing_negative_and_offset_values(self, transform):
        x, raw = sample_inputs(12, 300)
        fx = transform(np.cumsum(raw) * 0.1)
        spread = float(fx.max() - fx.min())
        for eps in (0.2 * spread, 0.7 * spread, spread, abs(float(fx[250] - fx[3]))):
            assert _kernels.min_dist_pair(x, fx, eps) == naive_min_dist_pair(x, fx, eps)

    def test_rounded_sum_misses_by_many_values(self):
        # fx[0] + eps rounds to 0, above every later value; yet each tiny
        # value lies eps above fx[0] once the difference is rounded.  Row 0
        # first reaches one at offset 21, and 70 repeats of one abscissa
        # keep the direct stages from settling the answer.
        x = np.linspace(0.0, 1.0, 300)
        x[100:170] = x[100]
        fx = np.concatenate([[-1e6], [1.0 - 1e6] * 20, -1e-13 * np.arange(279, 0, -1)])
        assert _kernels.min_dist_pair(x, fx, 1e6) == naive_min_dist_pair(x, fx, 1e6)
        assert _kernels.min_dist_pair(x, fx, 1e6)[1:] == (0, 21)

    @pytest.mark.parametrize("seed", range(3))
    def test_eps_below_half_an_ulp_of_the_values(self, seed):
        # fx[i] + eps rounds to fx[i] itself, so searchsorted lands on or
        # before the row; the first hit is the first other value.  Runs of
        # 40 equal values, and 70 repeats of one abscissa, keep the direct
        # stages from settling the answer.
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(0.0, 1.0, 400))
        x[205:275] = x[205]
        fx = 1.0 + np.repeat(np.cumsum(rng.integers(-2, 3, 10)), 40) * 2.0 ** -52
        for eps in (1e-17, 2.0 ** -52, 3 * 2.0 ** -52):
            assert _kernels.min_dist_pair(x, fx, eps) == naive_min_dist_pair(x, fx, eps)

    @given(st.lists(st.sampled_from([-1e6, -1.0, -1e-13, 0.0, 1e-13, 1.0, 1.0 + 2.0 ** -52, 1e6]),
                    min_size=1, max_size=40),
           st.sampled_from([1e-17, 1e-13, 2.0 ** -52, 0.5, 1.0, 1e6, 2e6]))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_first_reaching(self, values, eps):
        run = np.maximum.accumulate(np.array(values))
        f = np.array(values[::-1])
        want = [next((j for j in range(run.size) if run[j] - v >= eps), run.size) for v in f]
        assert _kernels._first_reaching(run, f, eps).tolist() == want

    def test_values_near_the_largest_float(self):
        # no difference of values overflows, but fx[i] + eps can: 3 * 2^970
        # plus the rounded difference to the largest float is that float
        # plus half an ulp, which rounds to inf
        top = float(np.finfo(np.float64).max)
        x = np.linspace(0.0, 1.0, 300)
        fx = np.full(300, 3 * 2.0 ** 970)
        fx[-1] = top
        eps = float(fx[-1] - fx[0])
        assert fx[0].item() + eps == math.inf
        assert _kernels.min_dist_pair(x, fx, eps) == naive_min_dist_pair(x, fx, eps)
        x, raw = sample_inputs(13, 300)
        fx = 1e308 * (1.0 + 0.5 * np.sin(np.cumsum(raw) * 0.3))
        for eps in (0.3e308, 0.7e308, float(fx.max() - fx.min())):
            assert _kernels.min_dist_pair(x, fx, eps) == naive_min_dist_pair(x, fx, eps)

    @pytest.mark.parametrize("where", [0, 150, 299])
    def test_nan_values(self, where):
        rng = np.random.default_rng(where)
        x = np.sort(rng.uniform(0.0, 1.0, 300))
        fx = np.cumsum(rng.normal(size=300)) * 0.05
        fx[where] = np.nan
        spread = float(np.nanmax(fx) - np.nanmin(fx))
        for eps in (0.3 * spread, spread):
            assert _kernels.min_dist_pair(x, fx, eps) == naive_min_dist_pair(x, fx, eps)
        assert _kernels.min_dist_pair(x, fx, math.nan) == (np.inf, -1, -1)

    @pytest.mark.parametrize("spec", ["power(alpha=2,b=1)", "power(alpha=0.5,b=2)",
                                      "expr(3-x^3,lo=-1,hi=2)", "poly(0,1,1)"])
    def test_monotone_values_never_walk(self, spec, monkeypatch):
        def walk(*args):
            raise AssertionError("monotone values reached a block stage")

        x, fx = _grid(spec)
        for stage in ("_block_extremes", "_scan_offsets", "_first_hits", "_block_tables"):
            monkeypatch.setattr(_kernels, stage, walk)
        spread = float(fx.max() - fx.min())
        for eps in (0.01 * spread, 0.5 * spread, spread):
            assert _kernels.min_dist_pair(x, fx, eps) == blocked_min_dist_pair(x, fx, eps)


def monotone_inputs(seed, n, trend, step=0.1):
    """Sorted abscissas with a run of up to 70 repeats of one value, so
    that many pairs tie at distance 0, and values that never fall
    (trend 1) or never rise (-1): plateaus of values rounded to
    ``step``, zeros of both signs."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, n))
    x[n // 3:n // 3 + 70] = x[n // 3]
    fx = np.sort(np.round(rng.uniform(-1.0, 1.0, n) / step) * step)[::trend]
    zero = fx == 0.0
    fx[zero] = np.where(rng.random(int(zero.sum())) < 0.5, -0.0, 0.0)
    return x, np.ascontiguousarray(fx)


class TestMonotoneValues:
    """``min_dist_pair`` reads monotone values' hits off one side only."""

    @pytest.mark.parametrize("trend", [1, -1])
    @pytest.mark.parametrize("seed", range(3))
    def test_plateaus_and_signed_zeros(self, trend, seed):
        x, fx = monotone_inputs(seed, 300, trend)
        assert ((fx == 0.0) & np.signbit(fx)).any() and ((fx == 0.0) & ~np.signbit(fx)).any()
        assert _kernels._trend(fx, 0.5) == trend
        gaps = (0.05, 0.1, 0.5, 1.0, float(abs(fx[250] - fx[20])), float(fx.max() - fx.min()))
        for eps in gaps:
            assert _kernels.min_dist_pair(x, fx, eps) == naive_min_dist_pair(x, fx, eps)

    @pytest.mark.parametrize("trend", [1, -1])
    @pytest.mark.parametrize("strict", [False, True], ids=["plateaus", "strict"])
    def test_eps_zero_negative_and_nan_take_no_side(self, trend, strict):
        # at eps <= 0 equal values hit, and a side whose values never rise
        # has hits; NaN hits nothing
        x, fx = monotone_inputs(3, 300, trend)
        if strict:
            x = np.linspace(0.0, 1.0, 300)
            fx = np.ascontiguousarray(np.linspace(-1.0, 1.0, 300)[::trend])
        for eps in (0.0, -0.0, -0.5, math.nan):
            assert _kernels.min_dist_pair(x, fx, eps) == naive_min_dist_pair(x, fx, eps)
            assert _kernels._trend(fx, eps) == 0

    @pytest.mark.parametrize("trend", [1, -1])
    @pytest.mark.parametrize("where", [0, 1, 150, 298, 299])
    def test_one_nan_breaks_the_run(self, trend, where):
        x, fx = monotone_inputs(4, 300, trend)
        fx[where] = np.nan
        assert _kernels._trend(fx, 0.5) == 0
        for eps in (0.3, 0.5, float(np.nanmax(fx) - np.nanmin(fx))):
            assert _kernels.min_dist_pair(x, fx, eps) == naive_min_dist_pair(x, fx, eps)

    @pytest.mark.parametrize("trend", [1, -1])
    def test_infinite_end_takes_no_side(self, trend):
        x, fx = monotone_inputs(5, 100, trend)
        fx[-1 if trend > 0 else 0] = np.inf
        assert _kernels._trend(fx, 0.5) == 0
        assert _kernels.min_dist_pair(x, fx, 0.5) == naive_min_dist_pair(x, fx, 0.5)

    @pytest.mark.parametrize("n", [16, 17, 31, 32, 33, 100])
    def test_block_edge_sizes(self, n):
        # sizes at a block's edge: one block, a block and a point, a short
        # last block; sorted values' block extremes are their block ends
        fx = np.sort(np.random.default_rng(n).uniform(-1.0, 1.0, n))
        x = np.linspace(0.0, 1.0, n)
        for trend, g in ((1, fx), (-1, fx[::-1].copy())):
            top, bot = _kernels._block_extremes(g)
            ends = g[np.minimum(np.arange(_kernels._BLOCK - 1, n + _kernels._BLOCK - 1,
                                          _kernels._BLOCK), n - 1)]
            starts = g[::_kernels._BLOCK]
            assert np.array_equal(top, ends if trend > 0 else starts)
            assert np.array_equal(bot, starts if trend > 0 else ends)
            assert _kernels._trend(g, 0.5) == trend
            for eps in (0.01, 0.5, float(g.max() - g.min()), 2.5):
                assert _kernels.min_dist_pair(x, g, eps) == naive_min_dist_pair(x, g, eps)

    @given(st.integers(min_value=2, max_value=300), st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.sampled_from([1, -1]), st.sampled_from([0.001, 0.1, 0.5]),
           st.one_of(st.sampled_from([0.0, -0.25, math.nan, 0.3, 1.9]),
                     st.tuples(st.integers(0, 299), st.integers(0, 299), st.sampled_from([-1, 0, 1]))))
    @settings(max_examples=60, deadline=None, derandomize=True)
    # sizes that the direct stage alone decides for values that are not
    # monotone: a pair, one block, a block and a point; the second has no pair
    @example(2, 1, -1, 0.5, (0, 1, 0))
    @example(2, 0, 1, 0.1, 0.3)
    @example(16, 3, -1, 0.1, (2, 9, 1))
    @example(16, 0, 1, 0.1, (0, 15, 0))
    @example(17, 0, -1, 0.001, (0, 16, -1))
    def test_property_matches_oracle(self, n, seed, trend, step, eps):
        x, fx = monotone_inputs(seed, n, trend, step)
        if isinstance(eps, tuple):  # one pair's gap, or the float below or above it
            i, j, side = eps
            eps = float(abs(fx[j % n] - fx[i % n]))
            if side:
                eps = float(np.nextafter(eps, side * np.inf))
        assert _kernels.min_dist_pair(x, fx, eps) == blocked_min_dist_pair(x, fx, eps)


def abscissas(kind, n, seed):
    """Sorted abscissas on [0, 1]: uniform, in six tight clusters, or on
    n / 4 levels, each repeated about four times."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return np.linspace(0.0, 1.0, n)
    if kind == "clustered":
        centers = rng.uniform(0.0, 1.0, 6)
        return np.sort(centers[rng.integers(0, 6, n)] + rng.normal(0.0, 1e-3, n))
    levels = max(1, n // 4)
    return np.sort(rng.integers(0, levels + 1, n) / levels)


KINDS = ["uniform", "clustered", "repeated"]


class TestWindowExtremes:
    """``max_gap_within`` reads each window's extremes off range tables."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(2))
    def test_window_widths(self, kind, seed):
        # in grid steps of 300 points: below one step, inside one block,
        # across a few blocks, across many, the whole array and past it
        n = 300
        x = abscissas(kind, n, seed)
        fx = np.random.default_rng(seed + 10).uniform(-1.0, 1.0, n)
        for steps in (0.5, 1.0, 3.0, 10.0, 40.0, 150.0, 299.0, math.inf):
            delta = steps / (n - 1)
            assert _kernels.max_gap_within(x, fx, delta) == naive_max_gap_within(x, fx, delta)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_delta_a_multiple_of_the_dyadic_step(self, k):
        # x[i] + nextafter(delta) rounds onto x[i + k] on every row: each
        # window's search first misses by one point
        x = np.linspace(0.0, 1.0, 4097)
        fx = np.sin(40.0 * x) + np.random.default_rng(k).normal(0.0, 1e-3, x.size)
        delta = k / 4096
        # the pairwise definition, one row at a time
        want = max(float(np.abs(fx[i + 1:][x[i + 1:] - x[i] <= delta] - fx[i]).max(initial=0.0))
                   for i in range(x.size))
        assert _kernels.max_gap_within(x, fx, delta) == want
        for d in (delta, np.nextafter(delta, 0.0)):
            assert _kernels.max_gap_within(x[:300], fx[:300], d) == naive_max_gap_within(
                x[:300], fx[:300], d)

    @pytest.mark.parametrize("kind", KINDS)
    def test_window_ends_on_a_pair_distance(self, kind):
        n = 300
        x = abscissas(kind, n, 2)
        fx = np.cumsum(np.random.default_rng(3).normal(size=n))
        for i, j in ((0, 5), (10, 26), (3, 60), (100, 299), (0, 299)):
            d = float(x[j] - x[i])
            for delta in (d, np.nextafter(d, -np.inf), np.nextafter(d, np.inf)):
                got = _kernels.max_gap_within(x, fx, delta)
                assert got == blocked_max_gap_within(x, fx, delta)

    def test_delta_below_one_step(self):
        x = np.linspace(0.0, 1.0, 1000)
        fx = np.sin(40.0 * x)
        step = float(np.diff(x).min())
        assert _kernels.max_gap_within(x, fx, np.nextafter(step, -np.inf)) == 0.0
        assert _kernels.max_gap_within(x, fx, step) == blocked_max_gap_within(x, fx, step)

    def test_infinite_delta_where_distances_overflow(self):
        # every pair lies within inf, also those whose distance overflows
        # to inf, as the two ends' does: their gap is the spread
        x = np.linspace(-1.0, 1.0, 300) * 1.6e308
        fx = np.linspace(-1.0, 1.0, 300)
        with np.errstate(over="ignore"):
            assert _kernels.max_gap_within(x, fx, math.inf) == 2.0

    @pytest.mark.parametrize("n", [17, 33, 64, 65, 4097])
    def test_whole_array(self, n):
        x, fx = sample_inputs(n, n)
        for delta in (1.0, math.inf):
            assert _kernels.max_gap_within(x, fx, delta) == float(fx.max() - fx.min())

    @given(st.integers(min_value=2, max_value=400), st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.sampled_from(KINDS),
           st.one_of(st.sampled_from([0.0, 1e-3, 0.01, 0.05, 0.2, 0.6, 1.0]),
                     st.tuples(st.integers(0, 399), st.integers(0, 399), st.sampled_from([-1, 0, 1]))))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_property_matches_oracle(self, n, seed, kind, delta):
        x = abscissas(kind, n, seed)
        fx = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        if isinstance(delta, tuple):  # one pair's distance, or the float below or above it
            i, j, side = delta
            delta = float(abs(x[j % n] - x[i % n]))
            if side:
                delta = float(np.nextafter(delta, side * np.inf))
        assert _kernels.max_gap_within(x, fx, delta) == blocked_max_gap_within(x, fx, delta)


class TestMemoryCeiling:
    @pytest.mark.parametrize(
        "spec, scan",
        [
            ("chainsaw", lambda x, fx: _kernels.min_dist_pair(x, fx, 0.5001)),
            # every row is decided by the running extremes: their arrays peak
            ("power(alpha=2,b=1)", lambda x, fx: _kernels.min_dist_pair(x, fx, 0.5001)),
            ("chainsaw", lambda x, fx: _kernels.max_gap_within(x, fx, 0.16)),
            ("chainsaw", lambda x, fx: _kernels.find_violation(x, fx, 0.5, 0.3)),
            # every window reaches nearly to the end of the array
            ("chainsaw", lambda x, fx: _kernels.max_gap_within(x, fx, 0.9)),
            # nonincreasing values: the downward side, on negated values
            ("expr(1-x*x,lo=0,hi=1)", lambda x, fx: _kernels.min_dist_pair(x, fx, 0.5001)),
        ],
        ids=["min_dist_pair", "min_dist_pair-monotone", "max_gap_within", "find_violation",
             "max_gap_within-wide", "min_dist_pair-nonincreasing"],
    )
    def test_traced_peak_per_point(self, spec, scan):
        x, fx = _grid(spec, 2 ** 20 + 1)
        tracemalloc.start()
        try:
            scan(x, fx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 128 * x.size
