"""Pair-scan kernels against brute-force oracles.

Each kernel must match a direct O(n^2) Python scan bit for bit,
including the lexicographic tie-break on index pairs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epsdelta import _kernels


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
