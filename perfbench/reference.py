"""Answers computed apart from epsdelta, against which its outputs are checked.

Nothing here imports the package under test.  The closed forms, the exact
piecewise-linear tolerance, the brute-force finite-space scan and the
O(n^2) pair-scan references are written from their definitions.
"""

from __future__ import annotations

import bisect
import math

import numpy as np


class Wrong(Exception):
    """An output of the program failed a check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise Wrong(message)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def power_delta(alpha: float, b: float, eps: float) -> float:
    """Optimal tolerance of x^alpha on [0, b] for a gap 0 < eps < b^alpha."""
    if alpha >= 1.0:
        return b - (b ** alpha - eps) ** (1.0 / alpha)
    return eps ** (1.0 / alpha)


def power_modulus(alpha: float, b: float, d: float) -> float:
    """Exact modulus of continuity of x^alpha on [0, b] at width d."""
    d = min(max(d, 0.0), b)
    if alpha >= 1.0:
        return b ** alpha - (b - d) ** alpha
    return d ** alpha


def chainsaw_jump_delta(n: int) -> float:
    """Optimal tolerance of the sawtooth at eps = 1/n."""
    return 1.0 / (n * (2.0 * n + 1.0))


def chainsaw_points(eps: float) -> list[tuple[float, float]]:
    """Breakpoints of the sawtooth's teeth that can take part in a gap eps.

    Teeth past number ceil(1/eps) + 2 are lower than eps everywhere; a
    pair with an end among them is never closer than the zero of the
    other end's own tooth, so they are left out.
    """
    m_max = math.ceil(1.0 / eps) + 2
    pts = [(1.0 / (m_max + 1), 1.0 / (m_max + 1))]
    for m in range(m_max, 0, -1):
        pts.append((2.0 / (2.0 * m + 1.0), 0.0))
        pts.append((1.0 / m, 1.0 / m))
    return pts


def pwl_delta(points, eps: float) -> float:
    """Exact optimal tolerance of the continuous piecewise-linear function.

    An optimal pair can be slid, keeping its distance, until one end sits
    on a breakpoint, so it suffices to search outward from every
    breakpoint for the nearest point whose value differs by eps.  The
    scan runs from the right, where the sawtooth's wide teeth give a
    small bound early that cuts the scans among its narrow teeth short.
    """
    xs = [float(p[0]) for p in points]
    ys = [float(p[1]) for p in points]
    n = len(xs)
    best = math.inf
    for k in reversed(range(n)):
        xk, yk = xs[k], ys[k]
        for step in (1, -1):
            s = k
            while 0 <= s + step < n and abs(xs[s] - xk) < best:
                u, v = s, s + step
                yu, yv = ys[u], ys[v]
                target = None
                if yv - yk >= eps:
                    target = yk + eps
                elif yk - yv >= eps:
                    target = yk - eps
                if target is not None:
                    t = xs[u] + (target - yu) / (yv - yu) * (xs[v] - xs[u])
                    best = min(best, abs(t - xk))
                    break
                s = v
    return best


def pwl_value(points, x: float) -> float:
    xs = [p[0] for p in points]
    k = min(max(bisect.bisect_right(xs, x) - 1, 0), len(xs) - 2)
    (x0, y0), (x1, y1) = points[k], points[k + 1]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


# ---------------------------------------------------------------------------
# finite spaces and roots
# ---------------------------------------------------------------------------


def finite_delta(xs, values, eps: float) -> tuple[float, int, int]:
    """Brute-force closest pair of line points whose values differ by eps."""
    best, bi, bj = math.inf, -1, -1
    n = len(xs)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) >= eps:
                d = abs(xs[i] - xs[j])
                if d < best:
                    best, bi, bj = d, i, j
    return best, bi, bj


def newton(g, dg, x: float, iters: int = 60) -> float:
    for _ in range(iters):
        step = g(x) / dg(x)
        x -= step
        if abs(step) <= 1e-17 * max(1.0, abs(x)):
            break
    return x


def cube_root(c: float) -> float:
    return newton(lambda x: x * x * x - c, lambda x: 3.0 * x * x, c ** (1.0 / 3.0))


def cos_fixed_point(a: float, d: float) -> float:
    """The x with a*cos(x) + d = x."""
    return newton(lambda x: a * math.cos(x) + d - x, lambda x: -a * math.sin(x) - 1.0, d)


def check_bracket(a0: float, b0: float, bracket, error_bound: float, halvings: int,
                  point: float, tol: float) -> None:
    """Width exactly |b0 - a0| 2^-halvings, and the bracket holds the point.

    Containment allows `tol`: the distance from the point within which a
    rounded evaluation can put a midpoint on the wrong side.
    """
    a, b = bracket
    width = abs(b0 - a0) * 2.0 ** (-halvings)
    require(abs(b - a) == width, f"bracket width {abs(b - a)!r}, expected {width!r}")
    require(error_bound == width, f"error_bound {error_bound!r}, expected {width!r}")
    require(min(a, b) - tol <= point <= max(a, b) + tol,
            f"bracket {bracket!r} misses {point!r}")


# ---------------------------------------------------------------------------
# O(n^2) references for the pair-scan kernels
# ---------------------------------------------------------------------------

_BLOCK = 256


def _blocks(x, fx):
    """Rows i in blocks, with dx[i, j] = x[j] - x[i], gap |fx[j] - fx[i]|, j > i."""
    n = x.size
    cols = np.arange(n)
    for start in range(0, n, _BLOCK):
        rows = np.arange(start, min(start + _BLOCK, n))
        dx = x[None, :] - x[rows, None]
        gap = np.abs(fx[None, :] - fx[rows, None])
        upper = cols[None, :] > rows[:, None]
        yield rows, dx, gap, upper


def min_dist_pair_ref(x, fx, eps):
    best, bi, bj = math.inf, -1, -1
    for rows, dx, gap, upper in _blocks(x, fx):
        cand = np.where(upper & (gap >= eps), dx, np.inf)
        m = float(cand.min())
        if m < best:
            r, j = np.argwhere(cand == m)[0]  # row-major: smallest (i, j)
            best, bi, bj = m, int(rows[r]), int(j)
    return best, bi, bj


def max_gap_within_ref(x, fx, delta):
    best = 0.0
    for _, dx, gap, upper in _blocks(x, fx):
        sel = gap[upper & (dx <= delta)]
        if sel.size:
            best = max(best, float(sel.max()))
    return best


def find_violation_ref(x, fx, eps, dist_bound):
    for rows, dx, gap, upper in _blocks(x, fx):
        hit = upper & (dx < dist_bound) & (gap >= eps)
        if hit.any():
            r, j = np.argwhere(hit)[0]
            return int(rows[r]), int(j)
    return -1, -1


KERNEL_REFERENCES = {
    "min_dist_pair": min_dist_pair_ref,
    "max_gap_within": max_gap_within_ref,
    "find_violation": find_violation_ref,
}
