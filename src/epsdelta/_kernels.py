"""Hot pair-scan kernels and the sawtooth evaluator, vectorized in numpy.

Each pair scan walks index offsets d = 1, 2, ... and compares all pairs
``(i, i + d)`` at once; it stops as soon as the smallest abscissa gap
at the current offset rules out every later offset.

All scans are serial and deterministic; ties between point pairs are
broken toward the lexicographically smallest index pair ``(i, j)``.

Inputs are 1-d float64 arrays with ``x`` sorted ascending.  Callers are
responsible for deduplicating ``x``: a repeated abscissa makes the
sorted-gap early exit useless (never wrong, just slow).
"""

from __future__ import annotations

import numpy as np


def min_dist_pair(x: np.ndarray, fx: np.ndarray, eps: float):
    """Closest pair ``(dist, i, j)`` with ``|fx[j] - fx[i]| >= eps``.

    Returns ``(inf, -1, -1)`` when no pair qualifies.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    fx = np.ascontiguousarray(fx, dtype=np.float64)
    eps = float(eps)
    n = x.size
    best = np.inf
    bi = -1
    bj = -1
    for d in range(1, n):
        dx = x[d:] - x[:-d]
        offset_min = float(dx.min())
        qual = np.abs(fx[d:] - fx[:-d]) >= eps
        if qual.any():
            cand = np.where(qual, dx, np.inf)
            i = int(np.argmin(cand))
            dmin = float(cand[i])
            j = i + d
            if dmin < best or (dmin == best and (i < bi or (i == bi and j < bj))):
                best = dmin
                bi = i
                bj = j
        # offsets only widen: min over offset d+1 >= min over offset d
        if bi >= 0 and offset_min > best:
            break
    return float(best), bi, bj


def max_gap_within(x: np.ndarray, fx: np.ndarray, delta: float) -> float:
    """Largest ``|fx[j] - fx[i]|`` over pairs with ``x[j] - x[i] <= delta``.

    Zero when no pair is that close (e.g. ``delta`` below the smallest gap).
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    fx = np.ascontiguousarray(fx, dtype=np.float64)
    delta = float(delta)
    n = x.size
    best = 0.0
    for d in range(1, n):
        dx = x[d:] - x[:-d]
        offset_min = float(dx.min())
        mask = dx <= delta
        if mask.any():
            g = float(np.abs(fx[d:] - fx[:-d])[mask].max())
            if g > best:
                best = g
        if offset_min > delta:
            break
    return best


def find_violation(x: np.ndarray, fx: np.ndarray, eps: float, dist_bound: float):
    """Lexicographically first ``(i, j)`` with ``x[j]-x[i] < dist_bound``
    and ``|fx[j]-fx[i]| >= eps``; ``(-1, -1)`` when no such pair exists.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    fx = np.ascontiguousarray(fx, dtype=np.float64)
    eps = float(eps)
    dist_bound = float(dist_bound)
    n = x.size
    bi = -1
    bj = -1
    for d in range(1, n):
        dx = x[d:] - x[:-d]
        hit = (dx < dist_bound) & (np.abs(fx[d:] - fx[:-d]) >= eps)
        if hit.any():
            i = int(np.argmax(hit))
            j = i + d
            if bi < 0 or i < bi or (i == bi and j < bj):
                bi = i
                bj = j
        if float(dx.min()) >= dist_bound:
            break
    return bi, bj


# below the smallest normal float 1/v overflows; the true value there
# is at most 2v < 1e-307, indistinguishable from zero
_TINY = np.finfo(np.float64).tiny


def chainsaw_values(t: np.ndarray) -> np.ndarray:
    """Decreasing-tooth sawtooth on [0, 1].

    Tooth ``n`` lives on ``[1/(n+1), 1/n]`` where the value is
    ``|(2n+1)t - 2|``: it falls from ``1/(n+1)`` to zero at ``2/(2n+1)``
    and climbs back to ``1/n``.  The origin maps to 0.
    """
    t = np.ascontiguousarray(t, dtype=np.float64)
    out = np.zeros(t.size, dtype=np.float64)
    pos = t >= _TINY
    v = t[pos]
    # np.floor keeps n in float64: 1/v overflows int64 for tiny v
    n = np.floor(1.0 / v)
    np.maximum(n, 1.0, out=n)
    # one-step correction for rounding of 1/v at tooth boundaries
    n = np.where(v < 1.0 / (n + 1.0), n + 1.0, n)
    n = np.where((n > 1.0) & (v > 1.0 / n), n - 1.0, n)
    out[pos] = np.abs((2.0 * n + 1.0) * v - 2.0)
    return out
