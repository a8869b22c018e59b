"""Hot pair-scan kernels and the sawtooth evaluator, vectorized in numpy.

Each pair scan runs in two stages.

1. The direct stage compares all pairs ``(i, i + d)`` at once for the
   offsets d = 1, ..., 16 and stops as soon as the smallest abscissa gap
   at the current offset rules out every later offset.  Small answers
   are the common case, and most scans end here.  Where some 64
   consecutive points hold values eps apart, ``min_dist_pair`` goes on
   to offset 64, because an answer that close costs less to reach this
   way than by lifting.
2. If that does not settle the answer, the lifting stage finds for
   every row i its first hit past its own block: the first j with
   ``|fx[j] - fx[i]| >= eps``, or the end of the window
   ``x[j] - x[i] <= delta``.  It queries range maxima and minima of
   ``fx`` from a sparse table over blocks of 16 points (the block
   decomposition of Bender & Farach-Colton, "The LCA Problem
   Revisited", LATIN 2000) by binary lifting, one level for all rows of
   a chunk at a time.  The best gap so far, or the distance bound,
   rules out rows whose next block starts too far away.

The lifting stage takes O(n log n) time.  Its tables hold a blocked copy
of ``fx`` and ``2 (log2(n / 16) + 1)`` floats per block, about 25 bytes
per point at 2^20 points, and rows go through it in chunks of 4096, so a
scan needs well under 128 bytes per point beyond its inputs.

Two rounding facts make both stages give bit-identical results:

- rounded subtraction is monotone, so ``fx[j] - fx[i] >= eps`` holds for
  some j in a range exactly when ``max - fx[i] >= eps`` does for the
  range's maximum (and likewise ``fx[i] - min``).  The range tables use
  ``fmax``/``fmin``, which skip NaN as the pairwise test does;
- ``x[j] - x[i]`` is nondecreasing in j for sorted x, so a row's first
  hit is also its closest, and window ends are found by bisecting on
  that rounded difference (``x[i] + delta`` rounds differently).

Every hit test is written as ``>=``, so a NaN eps or delta hits nothing.
All scans are serial and deterministic; ties between point pairs are
broken toward the lexicographically smallest index pair ``(i, j)``.

Inputs are 1-d float64 arrays with ``x`` sorted ascending; repeated
abscissas are allowed.  ``min_dist_pair`` and ``find_violation`` match
the pairwise definitions for any ``fx``, ``max_gap_within`` for finite
``fx``.
"""

from __future__ import annotations

import numpy as np

# offsets compared directly before the lifting stage
_STAGE = 16
# points per block of the range tables; the points between a row and the
# block after its own lie within _BLOCK - 1 <= _STAGE offsets of the row,
# so the direct stage covers them
_BLOCK = 16
# rows per pass of the lifting stage, which bounds its temporaries
_CHUNK = 1 << 12
# min_dist_pair scans on directly to offset 16 * 2^_NEAR where some
# 2^_NEAR consecutive blocks hold values eps apart
_NEAR = 2


def min_dist_pair(x: np.ndarray, fx: np.ndarray, eps: float):
    """Closest pair ``(dist, i, j)`` with ``|fx[j] - fx[i]| >= eps``.

    Returns ``(inf, -1, -1)`` when no pair qualifies.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    fx = np.ascontiguousarray(fx, dtype=np.float64)
    eps = float(eps)
    n = x.size
    pair, done = _scan_offsets(x, fx, eps, 1, _STAGE, (np.inf, -1, -1))
    if done:
        return pair

    tables = _block_tables(fx)
    _, tmax, tmin = tables
    # an answer within reach of the direct scan costs less to find by it
    g = min(_NEAR, tmax.shape[0] - 1)
    m = tmax.shape[1] - (1 << g) + 1
    if (tmax[g, :m] - tmin[g, :m] >= eps).any():
        pair, done = _scan_offsets(x, fx, eps, _STAGE + 1, _BLOCK << _NEAR, pair)
        if done:
            return pair
    for rows in _row_chunks(n, n - 1):
        # a hit past the best gap so far cannot win
        rows, hits = _first_hits(x, fx, tables, rows, eps, pair[0])
        if rows.size:
            dist = x[hits] - x[rows]
            k = int(np.argmin(dist))
            pair = min(pair, (float(dist[k]), int(rows[k]), int(hits[k])))
    return pair


def _offset_gaps(x: np.ndarray, fx: np.ndarray, first: int, last: int):
    """``(d, x[d:] - x[:-d], |fx[d:] - fx[:-d]|)`` for the direct stage's
    offsets ``d = first .. last`` below ``x.size``."""
    for d in range(first, min(x.size, last + 1)):
        yield d, x[d:] - x[:-d], np.abs(fx[d:] - fx[:-d])


def _scan_offsets(x: np.ndarray, fx: np.ndarray, eps: float, first: int, last: int, pair):
    """The direct stage of `min_dist_pair` over offsets ``first .. last``.

    ``pair`` is the closest pair ``(dist, i, j)`` found so far.  Returns
    the closest pair after these offsets, and whether it is final: no
    later offset can beat it.
    """
    for d, dx, gap in _offset_gaps(x, fx, first, last):
        qual = gap >= eps
        if qual.any():
            cand = np.where(qual, dx, np.inf)
            i = int(np.argmin(cand))
            # ties go to the lexicographically smaller (i, j)
            pair = min(pair, (float(cand[i]), i, i + d))
        # offsets only widen: min over offset d+1 >= min over offset d
        if pair[1] >= 0 and float(dx.min()) > pair[0]:
            return pair, True
    return pair, x.size <= last + 1


def max_gap_within(x: np.ndarray, fx: np.ndarray, delta: float) -> float:
    """Largest ``|fx[j] - fx[i]|`` over pairs with ``x[j] - x[i] <= delta``.

    Zero when no pair is that close (e.g. ``delta`` below the smallest gap).
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    fx = np.ascontiguousarray(fx, dtype=np.float64)
    delta = float(delta)
    n = x.size
    best = 0.0
    for _, dx, gap in _offset_gaps(x, fx, 1, _STAGE):
        mask = dx <= delta
        if mask.any():
            g = float(gap[mask].max())
            if g > best:
                best = g
        if float(dx.min()) > delta:
            return best
    if n <= _STAGE + 1:
        return best

    blocks, tmax, tmin = _block_tables(fx)
    for rows in _row_chunks(n, n - _STAGE - 1):
        # rows whose window ends within the direct stage are settled
        rows = rows[x[rows + _STAGE + 1] - x[rows] <= delta]
        if not rows.size:
            continue
        # window end: the last j with x[j] - x[i] <= delta, by bisection
        lo = rows + _STAGE + 1
        hi = np.full(rows.size, n)
        for _ in range(n.bit_length()):
            mid = (lo + hi) // 2
            inside = x[mid] - x[rows] <= delta
            lo = np.where(inside, mid, lo)
            hi = np.where(inside, hi, mid)
        f = fx[rows]
        # the window past the direct stage: full blocks from the row's
        # first block up to the block holding the window end, then the
        # head of that block up to the window end, whose first point
        # stands in for the points past it
        first = rows // _BLOCK + 1
        last = lo // _BLOCK
        vals = blocks[last]
        past = np.arange(_BLOCK) > (lo - last * _BLOCK)[:, None]
        np.copyto(vals, vals[:, :1], where=past)
        top = vals.max(axis=1)
        bot = vals.min(axis=1)
        count = last - first
        full = np.flatnonzero(count > 0)
        if full.size:
            c = count[full]
            k = np.frexp(c)[1] - 1  # floor(log2(c)), exact for integers
            b0 = first[full]
            b1 = b0 + c - (1 << k)
            top[full] = np.fmax(top[full], np.fmax(tmax[k, b0], tmax[k, b1]))
            bot[full] = np.fmin(bot[full], np.fmin(tmin[k, b0], tmin[k, b1]))
        g = float(np.maximum(top - f, f - bot).max())
        if g > best:
            best = g
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
    bi = bj = -1
    for d, dx, gap in _offset_gaps(x, fx, 1, _STAGE):
        hit = (dx < dist_bound) & (gap >= eps)
        if hit.any():
            i = int(np.argmax(hit))
            # a later offset pairs row bi only with a later point
            if bi < 0 or i < bi:
                bi, bj = i, i + d
        if float(dx.min()) >= dist_bound:
            return bi, bj
    if n <= _STAGE + 1:
        return bi, bj

    # only rows before the direct stage's pair can still come first; a
    # gap is below dist_bound exactly when it is at most the next float down
    tables = _block_tables(fx)
    cap = float(np.nextafter(dist_bound, -np.inf))
    for rows in _row_chunks(n, bi if bi >= 0 else n - 1):
        rows, hits = _first_hits(x, fx, tables, rows, eps, cap)
        close = x[hits] - x[rows] < dist_bound
        if close.any():
            k = int(np.argmax(close))
            return int(rows[k]), int(hits[k])
    return bi, bj


def _row_chunks(n: int, stop: int):
    """Row indices ``0 .. stop - 1`` that have a block after their own, in chunks."""
    stop = min(stop, (n - 1) // _BLOCK * _BLOCK)
    for start in range(0, stop, _CHUNK):
        yield np.arange(start, min(start + _CHUNK, stop))


def _block_tables(fx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``fx`` in blocks, with sparse tables of block maxima and minima.

    ``blocks`` holds ``fx`` in rows of ``_BLOCK`` points, the last row
    padded with repeats of the last point, which leaves every block's
    extremes and first hit unchanged.  ``tmax[k, b]`` is the largest value
    in blocks ``b .. b + 2^k - 1``; columns past ``nblocks - 2^k`` are
    unused and hold zeros.  ``tmin`` holds the smallest values alike.
    """
    nb = -(-fx.size // _BLOCK)
    blocks = np.full(nb * _BLOCK, fx[-1])
    blocks[:fx.size] = fx
    blocks = blocks.reshape(nb, _BLOCK)
    tmax = np.zeros((nb.bit_length(), nb))
    tmin = np.zeros((nb.bit_length(), nb))
    np.fmax.reduce(blocks, axis=1, out=tmax[0])
    np.fmin.reduce(blocks, axis=1, out=tmin[0])
    for k in range(1, nb.bit_length()):
        half = 1 << (k - 1)
        m = nb - (1 << k) + 1
        np.fmax(tmax[k - 1, :m], tmax[k - 1, half:half + m], out=tmax[k, :m])
        np.fmin(tmin[k - 1, :m], tmin[k - 1, half:half + m], out=tmin[k, :m])
    return blocks, tmax, tmin


def _first_hits(x: np.ndarray, fx: np.ndarray, tables, rows: np.ndarray, eps: float,
                cap: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows with a hit past their own block, and each one's first hit.

    A row's hit is a ``j`` from the block after its own on with
    ``|fx[j] - fx[i]| >= eps``.  Rows whose next block starts more than
    ``cap`` past them are left out.
    """
    blocks, tmax, tmin = tables
    nb = tmax.shape[1]
    q = rows // _BLOCK + 1
    near = x[q * _BLOCK] - x[rows] <= cap
    rows = rows[near]
    q = q[near]
    f = fx[rows]
    # binary lifting: each row steps over blocks without a hit
    for k in range(tmax.shape[0] - 1, -1, -1):
        start = nb - (1 << k)  # the last block a step of 2^k blocks can start at
        b = np.minimum(q, start)
        hit = tmax[k].take(b) - f >= eps
        hit |= f - tmin[k].take(b) >= eps
        np.add(q, 1 << k, out=q, where=(q <= start) & ~hit)
    # block q holds the first hit; find it point by point
    found = q < nb
    q = q[found]
    gap = blocks[q]
    gap -= f[found, None]
    hit = np.abs(gap, out=gap) >= eps
    return rows[found], q * _BLOCK + hit.argmax(axis=1)


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
