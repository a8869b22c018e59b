"""Pair-scan kernels against brute-force oracles.

Each kernel must match a direct O(n^2) Python scan bit for bit,
including the lexicographic tie-break on index pairs.  Inputs whose
answer lies past offset 16 (past offset 64 for ``min_dist_pair`` where
values change fast) reach the kernels' lifting stage; the 2^12-point
grids reach its deepest levels.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


class TestLiftingStage:
    @given(tie_heavy_inputs(), quarters)
    @tie_heavy
    def test_min_dist_pair_tie_heavy(self, inputs, eps):
        x, fx = inputs
        assert _kernels.min_dist_pair(x, fx, eps) == naive_min_dist_pair(x, fx, eps)

    @given(tie_heavy_inputs(), quarters)
    @tie_heavy
    def test_max_gap_within_tie_heavy(self, inputs, delta):
        x, fx = inputs
        assert _kernels.max_gap_within(x, fx, delta) == naive_max_gap_within(x, fx, delta)

    @given(tie_heavy_inputs(), quarters, quarters)
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

    @pytest.mark.parametrize("n", [5, 40])
    def test_delta_below_zero_zero_and_nan(self, n):
        x, fx = sample_inputs(7, n, duplicates=True)
        dup = naive_max_gap_within(x, fx, 0.0)
        assert dup == abs(fx[n // 2] - fx[n // 2 - 1])
        assert _kernels.max_gap_within(x, fx, 0.0) == dup
        assert _kernels.max_gap_within(x, fx, -0.1) == 0.0
        assert _kernels.max_gap_within(x, fx, math.nan) == 0.0

    @pytest.mark.parametrize("n", [5, 40])
    def test_nonpositive_or_nan_bound_finds_nothing(self, n):
        x, fx = sample_inputs(8, n, duplicates=True)
        for bound in (0.0, -1.0, math.nan):
            assert _kernels.find_violation(x, fx, 0.1, bound) == (-1, -1)

    @pytest.mark.parametrize("n", [5, 40])
    def test_constant_values(self, n):
        x = np.linspace(0.0, 1.0, n)
        fx = np.full(n, 0.3)
        assert _kernels.min_dist_pair(x, fx, 0.1) == (np.inf, -1, -1)
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

    @pytest.mark.parametrize("spec", GRIDS)
    def test_find_violation(self, spec):
        x, fx = _grid(spec)
        for eps, bound in ((0.5, 0.3), (0.9, 0.95), (0.45, 0.2)):
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


class TestMemoryCeiling:
    @pytest.mark.parametrize(
        "scan",
        [
            lambda x, fx: _kernels.min_dist_pair(x, fx, 0.5001),
            lambda x, fx: _kernels.max_gap_within(x, fx, 0.16),
            lambda x, fx: _kernels.find_violation(x, fx, 0.5, 0.3),
        ],
        ids=["min_dist_pair", "max_gap_within", "find_violation"],
    )
    def test_traced_peak_per_point(self, scan):
        x, fx = _grid("chainsaw", 2 ** 20 + 1)
        tracemalloc.start()
        try:
            scan(x, fx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 128 * x.size
