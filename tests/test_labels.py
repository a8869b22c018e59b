"""Label contracts: each printed label against an exact oracle.

A grid ``upper_bound`` must sit on or above the true optimal delta of
the float epsilon, admitting the one ulp that rounding its distance may
cost; an ``exact`` delta must be the true delta rounded upward; a
``certified`` bound must reach sup f; ``"valid": true`` must mean
that no pair closer than the claim reaches epsilon; and "no pair can
reach gap epsilon" must mean that no pair of the domain does.  The
oracles use the standard library alone: ``fractions`` for pwl, the
sawtooth, the quadratic and the bump, ``decimal`` at 60 digits for x^2.

Each label known to be false is a strict xfail that names the ROADMAP
item which mends it; the fix turns it into a pass, and its marker goes.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from epsdelta import (
    EmptyLevelSet,
    EpsDeltaError,
    certified_max_bound,
    chainsaw_function,
    optimal_delta_closed_form,
    optimal_delta_grid,
    parse_function,
    piecewise_linear_function,
    power_function,
    refine_extrema,
    verify_largest_delta,
)
from epsdelta.delta import GAP_SLACK_REL

SAWTOOTH = chainsaw_function()

# a tall tooth far narrower than the 4097-point modulus grid's step; sup f = 1
SPIKE = "pwl((0,0),(0.3001,0),(0.30015,1),(0.3002,0),(1,0))"

# 40 > pi/2, so sin(40x) reaches sup f = 1 on [0, 1]
SIN40 = "expr(sin(40*x),lo=0,hi=1)"

# c1 x - x^2 on [0, 1]: sup f = c1^2 / 4 at the vertex c1 / 2
QUADRATIC_C1 = 0.6666666666666666
QUADRATIC = f"poly(0,{QUADRATIC_C1!r},-1)"

# a pole inside the domain: sup f = +inf
POLE = "expr(1/(x-0.3),lo=0,hi=1)"

# a bump of height 1 at the float 0.3 and half-width 1e-5, far narrower than
# a 4096-point grid's step; BUMP_PAIR reaches a gap above 0.5 at 2e-5
BUMP = "expr(1/(1+10000000000*(x-0.3)^2),lo=0,hi=1)"
BUMP_PAIR = (0.3, 0.3 + 2e-5)

# the modulus grid of `epsdelta maximize` at its default --resolution;
# certified_max_bound's own default is 2^12 + 1
CLI_GRID = 4096

# delta(eps) jumps at eps = 0.5: at and below it the pair (0, 0.1) reaches the
# gap, above it the nearest pair is 0.2 * eps / 0.5 apart on the rising or
# falling flank
JUMP = ((0.0, 0.0), (0.1, 0.5), (0.2, 0.0), (0.6, 1.0), (1.0, 0.0))
JUMP_EPS = math.nextafter(0.5, 1.0)

# a line of slope 1/2: delta(0.5) = 1
LINE = ((0.0, 0.0), (1.0, 0.5), (2.0, 1.0))

# fl(0.1 - (-0.2)) = 0.30000000000000004 lies above the exact gap of the two
# floats, so no pair reaches it
SPREAD = ((0.0, 0.1), (1.0, -0.2))
SPREAD_EPS = 0.1 - (-0.2)

# x^2 on [0, 1]: eps and the true delta of the float eps, rounded upward
POWER_CASES = [(0.19, 0.1), (0.5, 0.2928932188134525), (1e-12, 5.00000000000125e-13)]


def false_label(reason: str):
    """A strict xfail for a label known to be false: ``reason`` names the
    ROADMAP item that mends it, and only a failed assertion counts."""
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


def pwl_delta(points, eps: float) -> Fraction | None:
    """Exact optimal delta of the pwl through ``points`` at gap ``eps``;
    None when no pair reaches it.

    An optimal pair can slide, keeping its distance, until one end sits
    on a breakpoint, so delta is the distance from some breakpoint to the
    nearest point, searched outward, whose value differs from it by eps.
    """
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    eps = Fraction(eps)
    best = None
    for k in range(len(xs)):
        for step in (1, -1):
            u = k
            while 0 <= u + step < len(xs) and (best is None or abs(xs[u] - xs[k]) < best):
                v = u + step
                if abs(ys[v] - ys[k]) >= eps:
                    # the first crossing of yk +- eps lies in this segment
                    target = ys[k] + eps if ys[v] > ys[k] else ys[k] - eps
                    t = xs[u] + (target - ys[u]) / (ys[v] - ys[u]) * (xs[v] - xs[u])
                    best = abs(t - xs[k]) if best is None else min(best, abs(t - xs[k]))
                    break
                u = v
    return best


def sawtooth_delta(eps: float) -> Fraction:
    """Exact optimal delta of the sawtooth: eps / (2 floor(1/eps) + 1)."""
    eps = Fraction(eps)
    return eps / (2 * math.floor(1 / eps) + 1)


def square_delta(eps: float) -> Decimal:
    """Optimal delta of x^2 on [0, 1], 1 - sqrt(1 - eps), at 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        return 1 - (1 - Decimal(eps)).sqrt()


def bump_value(x: float) -> Fraction:
    """BUMP at the float ``x``, exactly."""
    t = Fraction(x) - Fraction(0.3)
    return 1 / (1 + 10 ** 10 * t * t)


def certified(spec: str, level: int, resolution: int = 2 ** 12 + 1) -> float:
    """The certified bound of ``spec`` at ``level`` on a ``resolution``-point modulus grid."""
    f = parse_function(spec)
    return certified_max_bound(f, refine_extrema(f, level), level, resolution)


def round_up(q) -> float:
    """The smallest float at or above the exact value ``q``."""
    d = float(q)
    return d if Fraction(d) >= Fraction(q) else math.nextafter(d, math.inf)


def assert_upper_bound(delta: float, exact: Fraction | None) -> None:
    """``delta`` is on or above the exact value, admitting one ulp; None
    (no pair reaches the gap) stands for an infinite delta."""
    assert exact is not None, f"no pair reaches the gap, yet the grid gives {delta!r}"
    assert Fraction(delta) + Fraction(math.ulp(delta)) >= exact, (delta, float(exact))


@st.composite
def pwls(draw) -> list[tuple[float, float]]:
    """Breakpoints of a random pwl: 3 to 12 of them, not all at one height."""
    n = draw(st.integers(3, 12))
    coord = st.floats(-4.0, 4.0, allow_subnormal=False)
    xs = sorted(draw(st.lists(coord, min_size=n, max_size=n, unique=True)))
    ys = draw(st.lists(coord, min_size=n, max_size=n))
    assume(max(ys) > min(ys))
    return list(zip(xs, ys))


def sawtooth_points(eps: float) -> list[tuple[Fraction, Fraction]]:
    """The sawtooth's breakpoints, exactly, from the first tooth lower than eps."""
    m_max = math.ceil(1 / Fraction(eps)) + 1
    points = [(Fraction(1, m_max + 1), Fraction(1, m_max + 1))]
    for m in range(m_max, 0, -1):
        points += [(Fraction(2, 2 * m + 1), Fraction(0)), (Fraction(1, m), Fraction(1, m))]
    return points


class TestOracles:
    """The oracles agree with each other and with the figures the xfails rest on."""

    @pytest.mark.parametrize("eps", [0.9, 0.45, 0.3, 0.2, 0.1, 0.07])
    def test_sawtooth_formula_is_its_pwl_delta(self, eps):
        assert sawtooth_delta(eps) == pwl_delta(sawtooth_points(eps), eps)

    def test_pwl(self):
        assert pwl_delta(JUMP, 0.5) == Fraction(0.1)
        assert round_up(pwl_delta(JUMP, JUMP_EPS)) == 0.20000000000000004
        assert pwl_delta(LINE, 0.5) == 1
        assert pwl_delta(SPREAD, SPREAD_EPS) is None

    @pytest.mark.parametrize("n", [5, 10])
    def test_sawtooth_above_a_jump(self, n):
        # fl(1/n) lies above 1/n, so floor(1/eps) is n - 1
        eps = 1 / n
        assert Fraction(eps) > Fraction(1, n)
        assert sawtooth_delta(eps) == Fraction(eps) / (2 * n - 1)

    @pytest.mark.parametrize("eps, rounded_up", POWER_CASES)
    def test_power(self, eps, rounded_up):
        assert round_up(square_delta(eps)) == rounded_up

    def test_bump(self):
        assert bump_value(0.3) == 1
        x, y = BUMP_PAIR
        assert y - x == 2.0000000000020002e-05 and Fraction(y) - Fraction(x) < Fraction(0.1)
        assert 1 - bump_value(y) >= Fraction(1, 2)
        assert float(1 - bump_value(y)) == 0.80000000000032


class TestUpperBound:
    """A grid delta is on or above the exact delta of the float epsilon."""

    @given(pwls(), st.floats(0.0, 1.0, exclude_min=True))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_pwl_at_random_eps(self, points, share):
        eps = share * (max(y for _, y in points) - min(y for _, y in points))
        assume(eps > 0.0)
        sample = optimal_delta_grid(piecewise_linear_function(points), eps)
        assert_upper_bound(sample.delta, pwl_delta(points, eps))

    @given(pwls(), st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_pwl_at_a_breakpoint_gap(self, points, data):
        # where delta(eps) may jump: the gap of a pair of breakpoint values.
        # The grid answers for eps (1 - GAP_SLACK_REL), and the float gap may
        # round above the exact one, so it is held to the delta there; the
        # xfails below show what that costs the label
        i, j = data.draw(st.lists(st.sampled_from(range(len(points))),
                                  min_size=2, max_size=2, unique=True))
        eps = abs(points[i][1] - points[j][1])
        assume(eps > 0.0)
        sample = optimal_delta_grid(piecewise_linear_function(points), eps)
        assert_upper_bound(sample.delta, pwl_delta(points, eps * (1.0 - GAP_SLACK_REL)))

    def test_pwl_jump_at_the_gap(self):
        sample = optimal_delta_grid(piecewise_linear_function(JUMP), 0.5)
        assert_upper_bound(sample.delta, pwl_delta(JUMP, 0.5))

    # the grid prints 0.9999999999999998
    @false_label("ROADMAP item 1: GAP_SLACK_REL admits pairs whose gap is up to 1e-12 relative "
                 "below eps")
    def test_pwl_at_an_exact_gap(self):
        sample = optimal_delta_grid(piecewise_linear_function(LINE), 0.5)
        assert_upper_bound(sample.delta, pwl_delta(LINE, 0.5))

    # the grid prints delta 1
    @false_label("ROADMAP item 1: the grid compares rounded gaps, and the rounding can reach "
                 "eps where the exact gap does not")
    def test_pwl_just_above_the_spread(self):
        sample = optimal_delta_grid(piecewise_linear_function(SPREAD), SPREAD_EPS)
        assert_upper_bound(sample.delta, pwl_delta(SPREAD, SPREAD_EPS))

    @false_label("ROADMAP item 1: GAP_SLACK_REL admits the pair (0, 0.1), whose gap 0.5 is "
                 "below eps, and the grid prints 0.1")
    def test_pwl_just_above_a_jump(self):
        sample = optimal_delta_grid(piecewise_linear_function(JUMP), JUMP_EPS)
        assert_upper_bound(sample.delta, pwl_delta(JUMP, JUMP_EPS))

    # the grid's own witness pair reaches only a gap 4-8 ulp below eps:
    # the grid delta is 9.25e-16 (0.3) and 6.17e-16 (0.9) relative below
    @false_label("ROADMAP item 1: GAP_SLACK_REL admits pairs whose gap is up to 1e-12 relative "
                 "below eps")
    @pytest.mark.parametrize("eps", [0.3, 0.9])
    def test_sawtooth(self, eps):
        assert_upper_bound(optimal_delta_grid(SAWTOOTH, eps).delta, sawtooth_delta(eps))

    # fl(1/n) lies above 1/n, so floor(1/eps) is n - 1; the grid prints about
    # 1/(n(2n+1)), 18.2% (n = 5) and 9.5% (n = 10) below eps/(2n-1)
    @false_label("ROADMAP item 1: GAP_SLACK_REL admits the pairs of the tooth whose height 1/n "
                 "is below eps")
    @pytest.mark.parametrize("n", [5, 10])
    def test_sawtooth_just_above_a_jump(self, n):
        eps = 1 / n
        assert_upper_bound(optimal_delta_grid(SAWTOOTH, eps).delta, sawtooth_delta(eps))


class TestExact:
    """An exact delta is the true delta of the float epsilon, rounded upward."""

    # it prints 0.09999999999999998, 0.2928932188134524 and 5.000444502911705e-13
    @false_label("ROADMAP item 20: b - (b^alpha - eps)^(1/alpha) cancels and rounds to nearest")
    @pytest.mark.parametrize("eps, rounded_up", POWER_CASES)
    def test_power_closed_form(self, eps, rounded_up):
        assert optimal_delta_closed_form(power_function(2.0, 1.0), eps).delta == rounded_up

    # the 1/n test takes eps = fl(1/n) for 1/n and prints 1/(n(2n+1))
    @false_label("ROADMAP items 2 and 20: the sawtooth's closed form answers for 1/n, not for "
                 "the float eps")
    @pytest.mark.parametrize("n", [5, 10])
    def test_sawtooth_closed_form_above_a_jump(self, n):
        eps = 1 / n
        delta = optimal_delta_closed_form(SAWTOOTH, eps).delta
        assert delta == round_up(sawtooth_delta(eps))


class TestCertified:
    """A certified bound is at least sup f."""

    # it reads 0.0, 0.0, 0.582 and 0.887
    @false_label("ROADMAP item 19: the bound adds a grid lower bound of the modulus, 0 once "
                 "the mesh is finer than its grid")
    @pytest.mark.parametrize("level", [5, 12, 14, 16])
    def test_spike(self, level):
        assert certified(SPIKE, level) >= 1.0

    # the CLI's figure: it reads 0.4420024420027022
    @false_label("ROADMAP item 19: the bound adds a grid lower bound of the modulus, and the "
                 "4096-point grid misses the spike's tooth")
    def test_spike_on_the_cli_grid(self):
        assert certified(SPIKE, 5, CLI_GRID) >= 1.0

    # it reads 0.9999999997519728 at both levels
    @false_label("ROADMAP items 15 and 1: the grid modulus is 0 once the mesh is finer than its "
                 "grid, and expr has no enclosure to replace it")
    @pytest.mark.parametrize("level", [14, 16])
    def test_sin40(self, level):
        assert certified(SIN40, level) >= 1.0

    # the two grids disagree: 1.0097654935746487 on 4097 points, 0.9999999073893983
    # on the CLI's 4096
    @pytest.mark.parametrize("resolution", [
        2 ** 12 + 1,
        pytest.param(CLI_GRID, marks=false_label(
            "ROADMAP items 15 and 1: the 4096-point grid's step 1/4095 exceeds the level-12 "
            "mesh, so the grid modulus is 0")),
    ])
    def test_sin40_at_level_12(self, resolution):
        assert certified(SIN40, 12, resolution) >= 1.0

    # it reads 0.11111111069718996
    @false_label("ROADMAP item 19: the grid modulus is 0 once the mesh is finer than the grid "
                 "step, so the bound is the net maximum")
    def test_quadratic(self):
        c1 = Fraction(QUADRATIC_C1)
        assert Fraction(certified(QUADRATIC, 14)) >= c1 * c1 / 4

    # it reads 26879.999999995616 (17660.00000000004 on 4096 points)
    @false_label("ROADMAP items 15 and 1: a grid modulus is finite, so the bound is, even "
                 "across a pole")
    @pytest.mark.parametrize("resolution", [2 ** 12 + 1, CLI_GRID])
    def test_pole(self, resolution):
        try:
            bound = certified(POLE, 8, resolution)
        except EpsDeltaError:
            return  # a typed refusal is a true answer
        assert bound == math.inf

    # it reads 0.04277412423404193 (0.009140632502228112 on 4096 points)
    @false_label("ROADMAP item 15: the bump is far narrower than the grid's step, so the "
                 "grid modulus misses it")
    @pytest.mark.parametrize("resolution", [2 ** 12 + 1, CLI_GRID])
    def test_bump(self, resolution):
        assert certified(BUMP, 10, resolution) >= bump_value(0.3)


class TestValid:
    """``valid`` means that no pair closer than the claim reaches the gap."""

    # it prints "valid": false with the violation (0, 0.1), whose gap 0.5 is below eps
    @false_label("ROADMAP item 1: GAP_SLACK_REL admits the pair (0, 0.1), whose gap 0.5 is "
                 "below eps")
    def test_pwl_just_above_a_jump(self):
        report = verify_largest_delta(piecewise_linear_function(JUMP), JUMP_EPS, 0.2, 4096)
        assert report.valid

    # it prints "valid": true, though BUMP_PAIR, 2.0000000000020002e-05 apart,
    # reaches a gap of 0.8000000000003
    @false_label("ROADMAP item 12: no 4096-point grid pair comes near the bump's crest, and "
                 "the verdict reads the grid as the function")
    def test_bump(self):
        assert not verify_largest_delta(parse_function(BUMP), 0.5, 0.1, CLI_GRID).valid


class TestNoPairCan:
    """An ``EmptyLevelSet`` that says "no pair can reach gap eps" means it."""

    # it raises "no pair can reach gap 0.5: grid range spread is only
    # 0.006662917542214183", and BUMP_PAIR reaches that gap
    @false_label("ROADMAP item 12: the message reads the grid's range spread as the function's")
    def test_bump(self):
        try:
            optimal_delta_grid(parse_function(BUMP), 0.5)
        except EmptyLevelSet as exc:
            assert "no pair can" not in str(exc)
