"""The three workloads: seeded query lists, how each query runs, and its check.

A query's `run` calls the program and returns its output; its `check`
raises `Wrong` when that output disagrees with an answer computed here
apart from the program (see reference.py) or breaks a property the
method must have.  Checks run after the timed loop, on stored outputs.

Parameters come from continuous ranges, drawn stratified (see `design`):
a kind with k queries gets one draw from each k-th of every range, paired
the same way on every seed.  The seed only moves draws within their
slices, so each seed's pass has nearly the same cost profile, and the
percentiles meet the same kinds of query on every seed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import epsdelta as ed
from reference import (
    check_bracket,
    chainsaw_jump_delta,
    chainsaw_points,
    cos_fixed_point,
    cube_root,
    finite_delta,
    power_delta,
    power_modulus,
    pwl_delta,
    pwl_value,
    require,
)

RESOLUTION = 4096  # GridConfig's default; the base grid step is span / 4095
GRID_UNDERSHOOT_REL = 1e-9  # a grid delta may undershoot the exact value by this much


@dataclass
class Query:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    known_fault: bool = False
    argv: list[str] | None = None  # set for CLI queries; run/check then use stdout


def interleave(queries: list[Query]) -> list[Query]:
    """Round-robin over the kinds, in a fixed order.

    The order is the same on every seed: allocation history, and with it
    the peak resident set, then depends on the query sizes alone.
    """
    kinds: dict[str, list[Query]] = {}
    for q in queries:
        kinds.setdefault(q.kind, []).append(q)
    out: list[Query] = []
    while kinds:
        for kind in list(kinds):
            out.append(kinds[kind].pop(0))
            if not kinds[kind]:
                del kinds[kind]
    return out


def design(rng: random.Random, k: int, *ranges: tuple[float, float]) -> list[tuple]:
    """k points with one coordinate in each k-th of every range.

    Coordinate j of point i lies in slice (i * m_j) mod k of range j, for
    fixed multipliers m_j prime to k: a Latin pairing that does not depend
    on the seed.  Point i holds slice i of the first range.
    """
    units = [m for m in range(1, k + 1) if math.gcd(m, k) == 1]
    cols = []
    for j, (lo, hi) in enumerate(ranges):
        m = units[(j * len(units)) // len(ranges)]
        cols.append([lo + (hi - lo) * ((i * m) % k + rng.random()) / k for i in range(k)])
    return list(zip(*cols))


def check_grid(sample, eps: float, exact: float, step: float) -> None:
    """A grid tolerance lies in [exact (1 - 1e-9), exact + 2 base-grid steps]."""
    require(sample.method == ed.METHOD_GRID and sample.bias == ed.BIAS_UPPER_BOUND,
            f"grid sample labelled {sample.method}/{sample.bias}")
    require(sample.epsilon == eps, f"epsilon {sample.epsilon!r} != {eps!r}")
    require(sample.delta >= exact * (1.0 - GRID_UNDERSHOOT_REL),
            f"eps={eps!r}: grid delta {sample.delta!r} below exact {exact!r}")
    require(sample.delta <= exact + 2.0 * step,
            f"eps={eps!r}: grid delta {sample.delta!r} above exact {exact!r} + 2 steps")


def check_exact(sample, eps: float, exact: float) -> None:
    require(sample.bias == ed.BIAS_EXACT, f"sample labelled {sample.bias}")
    require(sample.epsilon == eps, f"epsilon {sample.epsilon!r} != {eps!r}")
    require(abs(sample.delta - exact) <= 1e-12 * exact,
            f"eps={eps!r}: delta {sample.delta!r}, exact {exact!r}")


def fmt(v: float) -> str:
    return repr(float(v))


# ---------------------------------------------------------------------------
# function specs with independently known answers
# ---------------------------------------------------------------------------


@dataclass
class Spec:
    """A function spec and what the benchmark knows about it exactly."""

    text: str
    delta: Callable[[float], float]  # exact optimal tolerance at a gap
    spread: float
    span: float


def power_spec(alpha: float, b: float) -> Spec:
    return Spec(f"power(alpha={fmt(alpha)},b={fmt(b)})",
                functools.cache(lambda e: power_delta(alpha, b, e)), b ** alpha, b)


def expr_power_spec(c: float, p: float, d: float, b: float) -> Spec:
    """c x^p + d on [0, b]: a scaled power function written as an expression."""
    return Spec(f"expr({fmt(c)}*x^{fmt(p)}+{fmt(d)},lo=0,hi={fmt(b)})",
                functools.cache(lambda e: power_delta(p, b, e / c)), c * b ** p, b)


def pwl_text(points) -> str:
    return "pwl(" + ",".join(f"({fmt(x)},{fmt(y)})" for x, y in points) + ")"


def pwl_spec(points) -> Spec:
    ys = [y for _, y in points]
    return Spec(pwl_text(points), functools.cache(lambda e: pwl_delta(points, e)),
                max(ys) - min(ys), points[-1][0] - points[0][0])


def saw_spec() -> Spec:
    return Spec("chainsaw", functools.cache(lambda e: pwl_delta(chainsaw_points(e), e)),
                1.0, 1.0)


def random_pwl(rng: random.Random, k: int) -> list[tuple[float, float]]:
    """k breakpoints on [0, 1]; values alternate between a low and a high band,
    so no segment is nearly flat."""
    gaps = [0.3 + rng.random() for _ in range(k - 1)]
    total = sum(gaps)
    xs = [0.0]
    for g in gaps[:-1]:
        xs.append(xs[-1] + g / total)
    xs.append(1.0)
    up = rng.random() < 0.5
    ys = []
    for _ in range(k):
        ys.append(0.6 + 0.4 * rng.random() if up else 0.4 * rng.random())
        up = not up
    return list(zip(xs, ys))


def dyadic_pwl(rng: random.Random, k: int, bits: int) -> list[tuple[float, float]]:
    """k breakpoints at multiples of 2^-bits on [0, 1], random values."""
    inner = sorted(rng.sample(range(1, 2 ** bits), k - 2))
    xs = [0.0] + [i / 2 ** bits for i in inner] + [1.0]
    return [(x, rng.random()) for x in xs]


# ---------------------------------------------------------------------------
# tolerance-grid
# ---------------------------------------------------------------------------


def grid_query(kind: str, spec: Spec, eps: float) -> Query:
    def run():
        return ed.optimal_delta_grid(ed.parse_function(spec.text), eps)

    def check(sample):
        check_grid(sample, eps, spec.delta(eps), spec.span / (RESOLUTION - 1))

    return Query(kind, run, check)


def saw_jump_query(n: int) -> Query:
    eps = 1.0 / n

    def run():
        return ed.optimal_delta_grid(ed.parse_function("chainsaw"), eps)

    def check(sample):
        check_grid(sample, eps, chainsaw_jump_delta(n), 1.0 / (RESOLUTION - 1))

    return Query("grid-saw-jump", run, check)


def profile_query(kind: str, spec: Spec, gaps: list[float], jumps: dict[float, int]) -> Query:
    """A profile; gaps in `jumps` are sawtooth jump gaps 1/n with a closed form."""

    def run():
        return ed.build_profile(ed.parse_function(spec.text), gaps)

    def check(profile):
        require([s.epsilon for s in profile.samples] == sorted(gaps), "profile gaps out of order")
        require(profile.M_estimate == spec.spread,
                f"M_estimate {profile.M_estimate!r}, spread {spec.spread!r}")
        for s in profile.samples:
            if s.epsilon in jumps:
                require(s.method == ed.METHOD_CLOSED_FORM, f"eps={s.epsilon!r} not closed form")
                check_exact(s, s.epsilon, chainsaw_jump_delta(jumps[s.epsilon]))
            else:
                check_grid(s, s.epsilon, spec.delta(s.epsilon), spec.span / (RESOLUTION - 1))

    return Query(kind, run, check)


def verify_query(alpha: float, b: float, eps: float, stretch: float) -> Query:
    """Claim the exact tolerance (valid) or one stretched past it (invalid)."""
    exact = power_delta(alpha, b, eps)
    step = b / (RESOLUTION - 1)
    claim = exact if stretch == 0.0 else exact * (1.0 + stretch) + 2.0 * step
    spec = power_spec(alpha, b).text

    def run():
        return ed.verify_largest_delta(ed.parse_function(spec), eps, claim, RESOLUTION)

    def witness(w, bound, what):
        x, y, fx, fy = w
        for t, ft in ((x, fx), (y, fy)):
            require(abs(ft - t ** alpha) <= 1e-12 * max(1.0, b ** alpha), f"{what}: f({t!r}) != {ft!r}")
        require(abs(y - x) < bound, f"{what}: pair {x!r},{y!r} not closer than {bound!r}")
        require(abs(fy - fx) >= eps * (1.0 - 1e-12), f"{what}: gap {abs(fy - fx)!r} below {eps!r}")

    def check(report):
        require(report.valid == (stretch == 0.0),
                f"claim {claim!r} (exact {exact!r}) judged valid={report.valid}")
        require((report.violation is None) == report.valid, "violation witness disagrees")
        if report.violation is not None:
            witness(report.violation, claim, "violation")
        require((report.threshold_witness is None) != report.maximal, "threshold witness disagrees")
        if report.threshold_witness is not None:
            witness(report.threshold_witness, claim * (1.0 + 1e-3), "threshold")

    return Query("verify-power", run, check)


def modulus_query(alpha: float, b: float, d: float) -> Query:
    """A grid modulus lies between the exact modulus two grid steps narrower and
    the exact modulus itself."""
    spec = power_spec(alpha, b).text
    step = b / (RESOLUTION - 1)

    def run():
        return ed.modulus_of_continuity(ed.parse_function(spec), d, RESOLUTION)

    def check(w):
        hi = power_modulus(alpha, b, d)
        lo = power_modulus(alpha, b, d - 2.0 * step)
        require(lo <= w <= hi * (1.0 + 1e-12) + 1e-15, f"modulus {w!r} outside [{lo!r}, {hi!r}]")

    return Query("modulus-power", run, check)


def tolerance_grid(seed: int) -> list[Query]:
    rng = random.Random(seed)
    saw = saw_spec()
    qs: list[Query] = []
    qs += [grid_query("grid-saw", saw, e) for e, in design(rng, 10, (0.1, 0.95))]
    qs += [saw_jump_query(int(n)) for n, in design(rng, 4, (2, 11))]
    for a, b, frac in design(rng, 38, (0.4, 3.0), (0.5, 2.0), (0.1, 0.95)):
        spec = power_spec(a, b)
        qs.append(grid_query("grid-power", spec, frac * spec.spread))
    for k, frac in design(rng, 8, (6, 15), (0.1, 0.95)):
        spec = pwl_spec(random_pwl(rng, int(k)))
        qs.append(grid_query("grid-pwl", spec, frac * spec.spread))
    for c, p, d, b, frac in design(rng, 8, (0.5, 2.0), (0.5, 2.5), (-1.0, 1.0), (0.5, 2.0),
                                   (0.1, 0.95)):
        spec = expr_power_spec(c, p, d, b)
        qs.append(grid_query("grid-expr", spec, frac * spec.spread))
    for n, f1, f2 in design(rng, 4, (2, 11), (0.1, 0.95), (0.1, 0.95)):
        jump = 1.0 / int(n)
        qs.append(profile_query("profile-saw", saw, [jump, f1, f2], {jump: int(n)}))
    for k, f1, f2 in design(rng, 4, (6, 15), (0.1, 0.95), (0.1, 0.95)):
        spec = pwl_spec(random_pwl(rng, int(k)))
        qs.append(profile_query("profile-pwl", spec, [f1 * spec.spread, f2 * spec.spread], {}))
    for i, (a, b, frac, stretch) in enumerate(design(rng, 10, (0.4, 3.0), (0.5, 2.0),
                                                     (0.1, 0.95), (0.02, 0.3))):
        qs.append(verify_query(a, b, frac * b ** a, stretch if i % 2 else 0.0))
    for a, b, frac in design(rng, 14, (0.4, 3.0), (0.5, 2.0), (0.02, 0.9)):
        qs.append(modulus_query(a, b, frac * b))
    return interleave(qs)


def tolerance_grid_warmup() -> None:
    small = ed.GridConfig(resolution=64)
    f = ed.parse_function("power(alpha=2,b=1)")
    ed.optimal_delta_grid(f, 0.5, small)
    ed.build_profile(ed.parse_function("chainsaw"), [0.5, 0.3], small)
    ed.verify_largest_delta(f, 0.5, 0.3, 64)
    ed.modulus_of_continuity(f, 0.1, 64)


# ---------------------------------------------------------------------------
# analysis-light
# ---------------------------------------------------------------------------

SPIKE = ((0.0, 0.0), (0.3001, 0.0), (0.30015, 1.0), (0.3002, 0.0), (1.0, 0.0))
SPIKE_LEVEL = 12


def finite_query(xs: list[float], values: list[float], eps: float) -> Query:
    brute_force = functools.cache(lambda: finite_delta(xs, values, eps)[0])

    def run():
        space = ed.FiniteMetricSpace.from_line_points(xs, values)
        return ed.optimal_delta_finite(space, eps)

    def check(sample):
        exact = brute_force()
        require(sample.method == ed.METHOD_EXHAUSTIVE, f"finite sample is {sample.method}")
        require(sample.delta == exact, f"finite delta {sample.delta!r}, brute force {exact!r}")

    return Query("finite", run, check)


@dataclass
class Peaked:
    """A function whose supremum sits on a dyadic point, with its Lipschitz bound."""

    text: str
    value: Callable[[float], float]
    sup: float
    lipschitz: float


def peaked(rng: random.Random, family: int) -> Peaked:
    if family == 0:
        pts = dyadic_pwl(rng, rng.randint(5, 12), 8)
        slopes = [abs(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(pts, pts[1:])]
        return Peaked(pwl_text(pts), lambda x: pwl_value(pts, x), max(y for _, y in pts),
                      max(slopes))
    c = rng.randrange(1, 1024) / 1024
    if family == 1:
        a, top = rng.uniform(0.5, 4.0), rng.uniform(-1.0, 1.0)
        coef = (top - a * c * c, 2.0 * a * c, -a)
        return Peaked(f"poly({fmt(coef[0])},{fmt(coef[1])},{fmt(coef[2])})",
                      lambda x: coef[0] + coef[1] * x + coef[2] * x * x,
                      coef[0] - coef[1] ** 2 / (4.0 * coef[2]), 2.0 * a)
    a, k, top = rng.uniform(0.5, 2.0), rng.uniform(3.0, 12.0), rng.uniform(-1.0, 1.0)
    return Peaked(f"expr({fmt(a)}*cos({fmt(k)}*(x-{fmt(c)}))+{fmt(top)},lo=0,hi=1)",
                  lambda x: a * math.cos(k * (x - c)) + top, a + top, a * k)


def check_refinement(trace, bound: float, level: int, sup: float) -> None:
    tol = 1e-12 * max(1.0, abs(sup))
    require(trace.levels == list(range(level + 1)), f"levels {trace.levels}")
    mx, mn = trace.max_values, trace.min_values
    require(all(a <= b for a, b in zip(mx, mx[1:])), "M_n decreases")
    require(all(a >= b for a, b in zip(mn, mn[1:])), "m_n increases")
    require(mx[-1] <= sup + tol, f"M_n {mx[-1]!r} above sup f {sup!r}")
    require(bound >= sup - tol, f"certified bound {bound!r} below sup f {sup!r}")


def refine_query(p: Peaked, level: int) -> Query:
    resolution = 2 ** (level - 4) + 1

    def run():
        f = ed.parse_function(p.text)
        trace = ed.refine_extrema(f, level)
        bound = ed.certified_max_bound(f, trace, level)
        return trace, bound, ed.first_maximizer(f, resolution)

    def check(out):
        trace, bound, x = out
        check_refinement(trace, bound, level, p.sup)
        # the maximum sits on a dyadic point of every recorded level from 10 on
        require(abs(trace.max_values[-1] - p.sup) <= 1e-12 * max(1.0, abs(p.sup)),
                f"M_n {trace.max_values[-1]!r} misses sup f {p.sup!r} on the net")
        floor = p.sup - p.lipschitz / (resolution - 1) - 1e-12
        require(0.0 <= x <= 1.0 and p.value(x) >= floor,
                f"first maximizer {x!r} has f={p.value(x)!r} < {floor!r}")

    return Query("refine", run, check)


def spike_query() -> Query:
    """sup f = 1, but the certified bound is 0.0: the modulus misses the spike."""
    text = pwl_text(SPIKE)

    def run():
        f = ed.parse_function(text)
        trace = ed.refine_extrema(f, SPIKE_LEVEL)
        return trace, ed.certified_max_bound(f, trace, SPIKE_LEVEL)

    def check(out):
        check_refinement(out[0], out[1], SPIKE_LEVEL, 1.0)

    return Query("spike", run, check, known_fault=True)


def bracket_check(a0: float, b0: float, point: float, tol: float):
    """Check a BisectionTrace against the crossing the benchmark computed."""

    def check(trace):
        halvings = len(trace.steps) - (trace.boundary_hit is not None)
        check_bracket(a0, b0, trace.final_bracket, trace.error_bound, halvings, point, tol)
        if trace.boundary_hit is not None:
            require(abs(trace.boundary_hit - point) <= tol, "boundary hit off the crossing")

    return check


# Each bisection case gives the crossing the benchmark computes, and how far
# from it a rounded evaluation can put a midpoint on the wrong side.
FIXPOINT_TOL = 8.0 * math.ulp(1.0)


def ivt_case(c: float) -> tuple[float, float]:
    root = cube_root(c)
    return root, 8.0 * math.ulp(c) / (3.0 * root * root)


def bisect_case(slope: float, cross: float, t: float) -> tuple[float, float, float]:
    """(c0, crossing, tol) for f = c0 + slope x against (-inf, t)."""
    c0 = t - slope * cross
    return c0, (t - c0) / slope, 8.0 * math.ulp(2.0 + abs(c0) + abs(t)) / slope


def ivt_query(hi: float, c: float, steps: int) -> Query:
    check = bracket_check(0.0, hi, *ivt_case(c))

    def run():
        f = ed.polynomial_function([0.0, 0.0, 0.0, 1.0], ed.Interval(0.0, hi))
        return ed.classical_ivt(f, c, steps)

    return Query("ivt", run, check)


def fixpoint_query(a: float, d: float, steps: int) -> Query:
    text = f"expr({fmt(a)}*cos(x)+{fmt(d)},lo=0,hi=1)"
    check_trace = bracket_check(0.0, 1.0, cos_fixed_point(a, d), FIXPOINT_TOL)

    def run():
        return ed.fixed_point(ed.parse_function(text), steps)

    def check(result):
        require(result.trace is not None, f"fixed point at an endpoint {result.endpoint!r}")
        check_trace(result.trace)

    return Query("fixpoint", run, check)


def bisect_query(slope: float, cross: float, t: float, steps: int) -> Query:
    c0, point, tol = bisect_case(slope, cross, t)
    text = f"poly({fmt(c0)},{fmt(slope)})"
    target = f"(-inf,{fmt(t)})"
    check = bracket_check(0.0, 1.0, point, tol)

    def run():
        return ed.bisect_boundary(ed.parse_function(text), ed.parse_target_set(target), steps)

    return Query("bisect", run, check)


def analysis_light(seed: int) -> list[Query]:
    rng = random.Random(seed)
    qs: list[Query] = []
    spaces = design(rng, 10, (100, 220), (0.3, 0.9))
    for i, (n, eps) in enumerate(spaces):
        n = 220 if i == len(spaces) - 1 else int(n)  # the largest space sets peak memory
        xs = sorted(rng.random() for _ in range(n))
        qs.append(finite_query(xs, [rng.random() for _ in range(n)], eps))
    # refinement cost doubles per level: one query per (level, family)
    for level in range(16, 23):
        qs += [refine_query(peaked(rng, family), level) for family in range(3)]
    for steps, hi, cfrac in design(rng, 8, (20, 49), (10, 25), (0.05, 0.95)):
        h = int(hi) / 8.0  # dyadic domains keep every midpoint exact
        qs.append(ivt_query(h, cfrac * h ** 3, int(steps)))
    for steps, a, d in design(rng, 8, (20, 49), (0.2, 0.5), (0.1, 0.45)):
        qs.append(fixpoint_query(a, d, int(steps)))
    for steps, slope, cross, t in design(rng, 8, (20, 49), (0.5, 2.0), (0.05, 0.95),
                                         (-1.0, 1.0)):
        qs.append(bisect_query(slope, cross, t, int(steps)))
    saw = saw_spec()
    for log_eps, in design(rng, 12, (math.log(0.001), math.log(0.01))):
        qs.append(grid_query("grid-saw-tiny", saw, math.exp(log_eps)))
    qs.append(spike_query())
    return interleave(qs)


def analysis_light_warmup() -> None:
    f = ed.parse_function("pwl((0,0),(0.5,1),(1,0))")
    trace = ed.refine_extrema(f, 6)
    ed.certified_max_bound(f, trace, 6)
    ed.first_maximizer(f, 65)
    space = ed.FiniteMetricSpace.from_line_points([0.0, 0.3, 1.0], [0.0, 1.0, 0.5])
    ed.optimal_delta_finite(space, 0.5)
    ed.classical_ivt(ed.polynomial_function([0, 0, 0, 1], ed.Interval(0.0, 2.0)), 2.0, 5)
    ed.fixed_point(ed.parse_function("expr(cos(x),lo=0,hi=1)"), 5)
    ed.bisect_boundary(ed.parse_function("poly(-0.3,1)"), ed.parse_target_set("(-inf,0)"), 5)
    ed.optimal_delta_grid(ed.parse_function("chainsaw"), 0.01, ed.GridConfig(resolution=64))


# ---------------------------------------------------------------------------
# cli-oneshot
# ---------------------------------------------------------------------------


def cli_query(kind: str, argv: list[str], check: Callable[[bytes], None]) -> Query:
    return Query(kind, run=lambda: None, check=check, argv=argv)


def check_rerun(first: bytes, digest: str) -> None:
    """A rerun's stdout, given by its SHA-256, is byte-identical to the first run's."""
    require(hashlib.sha256(first).hexdigest() == digest, "rerun stdout differs from the first run")


def as_json(out: bytes) -> dict:
    return json.loads(out.decode())


def as_csv(out: bytes) -> list[list[str]]:
    lines = out.decode().splitlines()
    return [line.split(",") for line in lines[1:]]


def cli_delta(eps: float, resolution: int) -> Query:
    def check(out):
        doc = as_json(out)
        sample = ed.DeltaSample(doc["epsilon"], doc["delta"], doc["method"], doc["bias"])
        check_grid(sample, eps, saw_spec().delta(eps), 1.0 / (resolution - 1))

    argv = ["delta", "--fn", "chainsaw", "--eps", fmt(eps), "--resolution", str(resolution),
            "--refine", "1", "--output", "json"]
    return cli_query("delta", argv, check)


def cli_profile(n: int, gaps: list[float], resolution: int) -> Query:
    jump = 1.0 / n
    eps_list = sorted([jump] + gaps)

    def check(out):
        rows = as_csv(out)
        require([float(r[0]) for r in rows] == [float("%.12g" % e) for e in eps_list],
                "profile gaps")
        for (_, d_txt, method, _), eps in zip(rows, eps_list):
            delta = float(d_txt)
            if eps == jump:
                exact = chainsaw_jump_delta(n)
                require(method == "closed_form" and abs(delta - exact) <= 1e-11 * exact,
                        f"jump gap {eps!r}: {method} {delta!r}")
            else:
                exact = saw_spec().delta(eps)
                step = 1.0 / (resolution - 1)
                require(method == "grid" and exact * (1 - 1e-9) <= delta <= exact + 2 * step,
                        f"eps={eps!r}: {method} {delta!r} vs exact {exact!r}")

    argv = ["delta-profile", "--fn", "chainsaw", "--eps", ",".join(fmt(e) for e in eps_list),
            "--resolution", str(resolution), "--refine", "1", "--output", "csv"]
    return cli_query("delta-profile", argv, check)


def cli_verify(n: int, resolution: int) -> Query:
    delta = chainsaw_jump_delta(n)

    def check(out):
        doc = as_json(out)
        require(doc["valid"] is True and doc["violation"] is None,
                f"exact tolerance {delta!r} at eps=1/{n} judged invalid")
        require(doc["delta_claimed"] == delta, "claimed delta not echoed")

    argv = ["verify-delta", "--fn", "chainsaw", "--eps", fmt(1.0 / n), "--delta", fmt(delta),
            "--resolution", str(resolution)]
    return cli_query("verify-delta", argv, check)


def cli_modulus(alpha: float, b: float, d: float, resolution: int) -> Query:
    step = b / (resolution - 1)

    def check(out):
        w = as_json(out)["modulus"]
        hi = power_modulus(alpha, b, d)
        lo = power_modulus(alpha, b, d - 2.0 * step)
        require(lo <= w <= hi * (1.0 + 1e-12) + 1e-15, f"modulus {w!r} outside [{lo!r}, {hi!r}]")

    argv = ["modulus", "--fn", power_spec(alpha, b).text, "--delta", fmt(d),
            "--resolution", str(resolution)]
    return cli_query("modulus", argv, check)


def cli_maximize(p: Peaked, level: int, resolution: int) -> Query:
    def check(out):
        doc = as_json(out)
        trace = SimpleNamespace(levels=[lv["level"] for lv in doc["levels"]],
                                max_values=[lv["M_n"] for lv in doc["levels"]],
                                min_values=[lv["m_n"] for lv in doc["levels"]])
        check_refinement(trace, doc["certified_bound"], level, p.sup)
        x = doc["first_maximizer"]
        floor = p.sup - p.lipschitz / (resolution - 1) - 1e-12
        require(p.value(x) >= floor, f"first maximizer {x!r} below {floor!r}")

    argv = ["maximize", "--fn", p.text, "--level", str(level), "--resolution", str(resolution)]
    return cli_query("maximize", argv, check)


def cli_envelope(coef: tuple[float, ...], resolution: int, output: str) -> Query:
    def value(x):
        acc = 0.0
        for c in reversed(coef):
            acc = acc * x + c
        return acc

    def check(out):
        if output == "json":
            rows = as_json(out)["points"]
            rel = 1e-12
        else:
            rows = [[float(a), float(b)] for a, b in as_csv(out)]
            rel = 1e-10
        require(len(rows) == resolution, f"{len(rows)} rows, expected {resolution}")
        running = -math.inf
        for k, (x, g) in enumerate(rows):
            require(abs(x - k / (resolution - 1)) <= rel, f"row {k} at x={x!r}")
            running = max(running, value(k / (resolution - 1)))
            require(abs(g - running) <= rel * max(1.0, abs(running)) + 1e-12,
                    f"row {k}: envelope {g!r}, running max {running!r}")

    argv = ["envelope", "--fn", "poly(" + ",".join(fmt(c) for c in coef) + ")",
            "--resolution", str(resolution), "--output", output]
    return cli_query(f"envelope-{output}", argv, check)


def cli_bracket(kind: str, argv: list[str], a0: float, b0: float, point: float, tol: float,
                output: str, steps: int) -> Query:
    trace_check = bracket_check(a0, b0, point, tol)

    def check(out):
        if output == "csv":
            rows = as_csv(out)
            require(len(rows) == steps or rows[-1][4] == "boundary",
                    f"{len(rows)} trace rows, expected {steps}")
            require(all(r[4] != "boundary" for r in rows[:-1]), "early boundary row")
            a, b = float(rows[-1][1]), float(rows[-1][2])
            csv_tol = tol + 5e-12 * max(1.0, abs(point))  # CSV keeps 12 significant digits
            require(min(a, b) - csv_tol <= point <= max(a, b) + csv_tol,
                    f"last bracket {a!r},{b!r} misses {point!r}")
            return
        doc = as_json(out)
        if kind == "fixpoint":
            require(doc["endpoint"] is None, "fixed point at an endpoint")
            doc = doc["trace"]
        trace_check(SimpleNamespace(steps=doc["steps"], boundary_hit=doc["boundary_hit"],
                                    final_bracket=tuple(doc["final_bracket"]),
                                    error_bound=doc["error_bound"]))

    return cli_query(kind, argv + ["--steps", str(steps), "--output", output], check)


def cli_oneshot(seed: int) -> list[Query]:
    rng = random.Random(seed)
    qs: list[Query] = []
    for eps, res in design(rng, 2, (0.1, 0.95), (512, 1025)):
        qs.append(cli_delta(eps, int(res)))
    for n, res, f1, f2 in design(rng, 2, (2, 11), (256, 513), (0.1, 0.95), (0.1, 0.95)):
        qs.append(cli_profile(int(n), [f1, f2], int(res)))
    for n, res in design(rng, 2, (2, 11), (512, 1025)):
        qs.append(cli_verify(int(n), int(res)))
    for a, b, frac in design(rng, 2, (0.4, 3.0), (0.5, 2.0), (0.02, 0.3)):
        qs.append(cli_modulus(a, b, frac * b, 1024))
    # light refinements up to level 12 and deep ones up to level 20; the
    # largest child sets peak memory, so the deepest level and the largest
    # envelope are fixed
    levels = [int(v) for v, in design(rng, 2, (8, 13)) + design(rng, 2, (16, 21))]
    levels[-1] = 20
    for i, level in enumerate(levels):
        qs.append(cli_maximize(peaked(rng, i % 3), level, 4096))
    # the eight envelopes of 2^12..2^14 points are over a quarter of the mix,
    # so the 90th percentile falls among them and not in a gap
    big = [int(2.0 ** v) for v, in design(rng, 6, (12.0, 14.0))]
    big[-1] = 2 ** 14
    envelopes = [(n, "json") for n in big]
    envelopes += [(int(2.0 ** v), "csv") for v, in design(rng, 2, (12.0, 14.0))]
    envelopes += [(int(v), "json") for v, in design(rng, 2, (257, 1025))]
    for res, output in envelopes:
        coef = (rng.uniform(-1, 1), rng.uniform(-2, 2), rng.uniform(-2, 2))
        qs.append(cli_envelope(coef, res, output))
    for i, (steps, slope, cross, t) in enumerate(design(rng, 3, (20, 49), (0.5, 2.0),
                                                        (0.05, 0.95), (-1.0, 1.0))):
        c0, point, tol = bisect_case(slope, cross, t)
        argv = ["bisect", "--fn", f"poly({fmt(c0)},{fmt(slope)})", "--target", f"(-inf,{fmt(t)})"]
        qs.append(cli_bracket("bisect", argv, 0.0, 1.0, point, tol,
                              "csv" if i == 2 else "json", int(steps)))
    for steps, hi, cfrac in design(rng, 2, (20, 49), (10, 25), (0.05, 0.95)):
        h = int(hi) / 8.0
        c = cfrac * h ** 3
        argv = ["ivt", "--fn", "poly(0,0,0,1)", "--lo", "0", "--hi", fmt(h), "--c", fmt(c)]
        qs.append(cli_bracket("ivt", argv, 0.0, h, *ivt_case(c), "json", int(steps)))
    for steps, a, d in design(rng, 2, (20, 49), (0.2, 0.5), (0.1, 0.45)):
        argv = ["fixpoint", "--fn", f"expr({fmt(a)}*cos(x)+{fmt(d)},lo=0,hi=1)"]
        qs.append(cli_bracket("fixpoint", argv, 0.0, 1.0, cos_fixed_point(a, d),
                              FIXPOINT_TOL, "json", int(steps)))
    return interleave(qs)


CLI_WARMUP = ["delta", "--fn", "chainsaw", "--eps", "0.5", "--resolution", "64"]

WORKLOADS = {
    "tolerance-grid": (tolerance_grid, tolerance_grid_warmup),
    "analysis-light": (analysis_light, analysis_light_warmup),
    "cli-oneshot": (cli_oneshot, None),
}
