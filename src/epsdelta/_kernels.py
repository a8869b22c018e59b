"""Hot pair-scan kernels and the sawtooth evaluator, vectorized in numpy.

The hit scans ``min_dist_pair`` and ``find_violation`` run in stages.

1. ``min_dist_pair`` takes monotone values first.  Where finite ``fx``
   never falls and ``0 < eps < inf``, no downward hit exists, and each
   row's first upward hit ``fx[j] - fx[i] >= eps`` is its closest: one
   ``searchsorted`` of ``fx[i] + eps`` in ``fx``, then a bisection on
   the test itself for the rows where that rounded sum lands off.
   Values that never rise are the mirror case.  The stages below run
   in ``min_dist_pair`` only on values that are not monotone.
2. The direct stage compares all pairs ``(i, i + d)`` at once for the
   offsets d = 1, ..., 16 and stops as soon as the smallest abscissa gap
   at the current offset rules out every later offset.  A pair at
   offset 16 or less lies in two neighbouring blocks of 16 points, so
   ``min_dist_pair`` runs this stage only where two such blocks hold
   values eps apart.
3. ``min_dist_pair`` then reads most rows' first hits off the running
   extremes of ``fx``.  Take the upward hits ``fx[j] - fx[i] >= eps``;
   the downward ones are the upward hits of ``-fx``.  Where no point up
   to row i lies eps above ``fx[i]``, the row's first hit is the first j
   with ``P[j] - fx[i] >= eps`` for the running maximum P: the
   ``searchsorted`` and bisection of stage 1 on P.  Where some point
   does, the row has no upward hit unless the largest value past it
   lies eps above, and only then is it left to the lifting stage.  Two
   disjoint windows that each span less than eps leave no row to it.
4. The lifting stage walks every row that is left (every row, in
   ``find_violation``) over the blocks of 16 points past its own, by
   binary lifting on a sparse table of block maxima and minima of
   ``fx`` (the block decomposition of Bender & Farach-Colton, "The LCA
   Problem Revisited", LATIN 2000), one level for all rows of a chunk
   at a time.  From the top level down, a row steps over 2^k blocks
   when they hold no hit ``|fx[j] - fx[i]| >= eps``.  The block where
   it stops is read point by point for the first hit.
   ``min_dist_pair`` builds the tables only when some row is left.

``max_gap_within`` reads each row's window ``(i, J(i)]``, the points with
``x[j] - x[i] <= delta``, off range tables.  ``J(i) + 1`` is the first
point past the window, found as the running-extreme stage finds a first
hit, with x as its own running maximum: one ``searchsorted``, then the
bisection on the test itself.  The search goes right of points equal to
``x[i]`` plus the next float above delta, since that sum rounds onto
the window's last point where delta is a distance of the grid; so those
rows need no bisection.  A window that leaves its row's block is the
rest of that block, the head of the block where it ends, and the whole
blocks between.  The extremes of the first two come from maxima
and minima within each block from its start, and to its end (van Herk,
Pattern Recogn. Lett. 13, 1992); those of the blocks between come from
two overlapping runs of 2^k blocks in the sparse table.  A window
inside its row's block is compared point by point.

The lifting stage and ``max_gap_within`` take O(n log n) time.  The
tables hold a blocked copy of ``fx`` and ``2 (log2(n / 16) + 1)`` floats
per block, about 25 bytes per point at 2^20 points; the within-block
extremes of ``max_gap_within`` add 32.  Rows go through both in chunks
of 4096.  The running-extreme stage holds a few arrays of n floats or
indices at a time, so a scan needs well under 128 bytes per point
beyond its inputs.

Four rounding facts make every stage give bit-identical results:

- rounded subtraction is monotone, so ``fx[j] - fx[i] >= eps`` holds for
  some j in a range exactly when ``max - fx[i] >= eps`` does for the
  range's maximum (and likewise ``fx[i] - min``), and the largest
  ``|fx[j] - fx[i]|`` in a window is ``max - fx[i]`` or ``fx[i] - min``.
  For the running maximum, the test thus first holds where the first
  passing point lies; where no point up to row i passes, that point
  lies past i.  For values that never fall, ``fx[i] - fx[j]`` is at most
  0 for every ``j > i``.  The range tables use ``fmax``/``fmin``, which
  skip NaN as the pairwise test does.  A NaN would break the order
  ``searchsorted`` needs, and ``inf - inf`` the test, so the
  running-extreme stage runs only on finite ``fx`` and eps, and
  otherwise every row walks;
- negation is exact and ``fl(a - b) == -fl(b - a)``, so a downward hit
  of ``fx`` is exactly an upward hit of ``-fx``;
- ``x[j] - x[i]`` is nondecreasing in j for sorted x, so a row's first
  hit is also its closest, and a window's points are the ones before
  the first j where ``x[j] - x[i] > delta`` (``x[i] + delta`` rounds
  differently);
- for delta below inf, ``x[j] - x[i] > delta`` holds exactly when
  ``x[j] - x[i] >= nextafter(delta, inf)``, the next float up.  At inf
  it never holds, even where a difference of x overflows to inf, and
  neither does ``>= NaN``.  So a window ends before its row's first hit
  of the next float up, or of NaN at inf.

Every hit test is written as ``>=``, so a NaN eps hits nothing, and a
NaN or negative delta leaves every window empty.
All scans are serial and deterministic; ties between point pairs are
broken toward the lexicographically smallest index pair ``(i, j)``.
Each row's first hit is its smallest pair in that order, so it does not
matter in which stage a row's hit is found.

Inputs are 1-d float64 arrays with ``x`` finite and sorted ascending;
repeated abscissas are allowed.  ``min_dist_pair`` and
``find_violation`` match the pairwise definitions for any ``fx``,
``max_gap_within`` for finite ``fx``.

``find_violation`` has no caller in the library: ``verify_largest_delta``
reads both of its answers off the closest pair of ``min_dist_pair``.  It
stays because the benchmark's checks and tracer (``perfbench/``) name it.
"""

from __future__ import annotations

import math

import numpy as np

# points per block of the range tables, and the offsets 1 .. _BLOCK the
# direct stage compares: the points between a row and the block after
# its own lie within _BLOCK - 1 offsets of it, so that stage covers them
_BLOCK = 16
# rows per pass of the lifting stage and of max_gap_within, which bounds
# their temporaries
_CHUNK = 1 << 12


# inf - inf comes out NaN, and a difference past the largest float inf;
# both hit as in the pairwise test, and which stage forms them depends
# on the stages before it, so the hit scans form them quietly
@np.errstate(invalid="ignore", over="ignore")
def min_dist_pair(x: np.ndarray, fx: np.ndarray, eps: float):
    """Closest pair ``(dist, i, j)`` with ``|fx[j] - fx[i]| >= eps``.

    Returns ``(inf, -1, -1)`` when no pair qualifies.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    fx = np.ascontiguousarray(fx, dtype=np.float64)
    eps = float(eps)
    n = x.size
    pair = (np.inf, -1, -1)
    if n < 2:
        return pair
    trend = _trend(fx, eps)
    if trend:
        # only hits along the trend exist, and its values are their own
        # running maximum: every row's first hit is read off them
        g = fx if trend > 0 else -fx
        rows = np.flatnonzero(g[-1] - g >= eps)
        return _closest(x, rows, _first_reaching(g, g[rows], eps))
    # a pair at offset <= 16 lies in two neighbouring blocks
    done = n <= _BLOCK + 1
    if _spans(*_block_extremes(fx), eps):
        pair, done = _scan_offsets(x, fx, eps)
    if done:
        return pair
    if np.isfinite(eps) and np.isfinite(fx).all():
        walk = np.zeros(n, dtype=bool)
        for g in (fx, -fx):  # hits upward, then downward as upward hits of -fx
            pair = min(pair, _closest(x, *_running_hits(g, eps, walk)))
        rows = np.flatnonzero(walk)
        if not rows.size:
            return pair
    else:
        rows = np.arange(n)
    tables = _block_tables(fx)
    for chunk in _row_chunks(n, n - 1, rows):
        pair = min(pair, _closest(x, *_first_hits(fx, tables, chunk, eps)))
    return pair


def _trend(fx: np.ndarray, eps: float) -> int:
    """1 where ``fx`` never falls, -1 where it never rises, else 0; 0 also
    unless ``fx`` and ``eps`` are finite and ``eps`` positive."""
    # monotone values are finite when their ends are; NaN is neither
    if not (0.0 < eps < np.inf and np.isfinite(fx[0]) and np.isfinite(fx[-1])):
        return 0
    if fx[-1] >= fx[0] and (fx[1:] >= fx[:-1]).all():
        return 1
    if fx[-1] <= fx[0] and (fx[1:] <= fx[:-1]).all():
        return -1
    return 0


def _running_hits(g: np.ndarray, eps: float, walk: np.ndarray):
    """Rows with a first upward hit ``g[j] - g[i] >= eps``, ``j > i``, that
    the running maximum of ``g`` decides, and those hits.

    Marks in ``walk`` the rows whose hit it cannot decide: some point up
    to the row already lies eps above it, and some later one does too.
    """
    # on finite values fmax is maximum, and its accumulate runs faster
    run = np.fmax.accumulate(g)
    early = run - g >= eps
    if early.any():
        # the largest value past each row
        later = np.fmax.accumulate(g[:0:-1])[::-1]
        later -= g[:-1]
        walk[:-1] |= early[:-1] & (later >= eps)
    rows = np.flatnonzero(~early & (run[-1] - g >= eps))
    return rows, _first_reaching(run, g[rows], eps)


# f + eps and run[j] - f may overflow to inf, which compares as it should
@np.errstate(over="ignore")
def _first_reaching(run: np.ndarray, f: np.ndarray, eps: float,
                    side: str = "left") -> np.ndarray:
    """First ``j`` with ``run[j] - f >= eps`` for each ``f``, ``run.size``
    where there is none, for nondecreasing ``run``.  ``side`` is where
    the first guess falls among values of ``run`` equal to ``f + eps``."""
    n = run.size
    c = run.searchsorted(f + eps, side=side)
    # f + eps is rounded, so c can miss by the values of run within an ulp
    # or so of it, and there may be many: bisect those rows on the test
    k = np.flatnonzero((c < n) & ~(run.take(c, mode="clip") - f >= eps)
                       | (c > 0) & (run.take(c - 1, mode="clip") - f >= eps))
    if k.size:
        f = f[k]
        lo = np.zeros(k.size, dtype=np.intp)
        hi = np.full(k.size, n, dtype=np.intp)
        for _ in range(n.bit_length()):
            mid = (lo + hi) // 2
            ok = (mid == hi) | (run.take(mid, mode="clip") - f >= eps)
            np.copyto(hi, mid, where=ok)
            np.copyto(lo, mid + 1, where=~ok)
        c[k] = lo
    return c


def _closest(x: np.ndarray, rows: np.ndarray, hits: np.ndarray):
    """The closest pair ``(dist, i, j)`` of ascending ``rows`` and their hits."""
    if not rows.size:
        return np.inf, -1, -1
    dist = x[hits] - x[rows]
    k = int(np.argmin(dist))
    return float(dist[k]), int(rows[k]), int(hits[k])


def _spans(top: np.ndarray, bot: np.ndarray, eps: float) -> bool:
    """Whether some two neighbouring blocks, or the one block there is,
    hold values eps apart, from the blocks' extremes ``top`` and ``bot``."""
    if top.size > 1:
        top = np.fmax(top[:-1], top[1:])
        bot = np.fmin(bot[:-1], bot[1:])
    return bool((top - bot >= eps).any())


def _offset_gaps(x: np.ndarray, fx: np.ndarray):
    """``(d, x[d:] - x[:-d], |fx[d:] - fx[:-d]|)`` for the direct stage's
    offsets ``d = 1 .. 16`` below ``x.size``."""
    for d in range(1, min(x.size, _BLOCK + 1)):
        yield d, x[d:] - x[:-d], np.abs(fx[d:] - fx[:-d])


def _scan_offsets(x: np.ndarray, fx: np.ndarray, eps: float):
    """The direct stage of `min_dist_pair`: the closest pair
    ``(dist, i, j)`` at offsets 1 to 16, ``(inf, -1, -1)`` where none
    qualifies, and whether it is final: no later offset can beat it.
    """
    pair = (np.inf, -1, -1)
    for d, dx, gap in _offset_gaps(x, fx):
        qual = gap >= eps
        if qual.any():
            cand = np.where(qual, dx, np.inf)
            i = int(np.argmin(cand))
            # ties go to the lexicographically smaller (i, j)
            pair = min(pair, (float(cand[i]), i, i + d))
        # offsets only widen: min over offset d+1 >= min over offset d
        if pair[1] >= 0 and float(dx.min()) > pair[0]:
            return pair, True
    return pair, x.size <= _BLOCK + 1


def max_gap_within(x: np.ndarray, fx: np.ndarray, delta: float) -> float:
    """Largest ``|fx[j] - fx[i]|`` over pairs with ``x[j] - x[i] <= delta``.

    Zero when no pair is that close (e.g. ``delta`` below the smallest gap).
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    fx = np.ascontiguousarray(fx, dtype=np.float64)
    delta = float(delta)
    n = x.size
    best = 0.0
    # some window holds a point past its row only if a neighbour does
    if n < 2 or not float((x[1:] - x[:-1]).min()) <= delta:
        return best
    blocks, tmax, tmin = _block_tables(fx)
    nb = tmax.shape[1]
    sides = [(np.fmax, tmax, *_block_scans(blocks, np.fmax)),
             (np.fmin, tmin, *_block_scans(blocks, np.fmin))]
    # a window ends before the first point this far past its row; math's
    # nextafter steps from the largest float to inf without numpy's warning
    above = math.nextafter(delta, math.inf) if delta < math.inf else math.nan
    for start in range(0, n - 1, _CHUNK):
        rows = np.arange(start, min(start + _CHUNK, n - 1))
        f = fx[rows]
        # the last point of each row's window; where delta is a distance of
        # the grid, x[i] + above rounds onto the window's last point, so the
        # first guess goes right of points equal to it
        end = _first_reaching(x, x[rows], above, "right") - 1
        b = rows // _BLOCK
        c = end // _BLOCK
        # a window that leaves its row's block is the rest of that block
        # (the row adds a gap of 0), the head of block c, and the blocks
        # between, two overlapping runs of 2^k blocks
        far = b < c
        i, j, g = rows[far], end[far], f[far]
        lo, hi = b[far] + 1, c[far]
        k = np.frexp(np.maximum(hi - lo, 1))[1] - 1  # floor(log2(blocks between))
        between = lo < hi
        runs = k * nb + lo, k * nb + np.maximum(hi - (1 << k), lo)
        for ext, table, head, rest in sides:
            e = ext(rest.take(i), head.take(j))
            ext(e, ext(table.take(runs[0]), table.take(runs[1])), out=e, where=between)
            e -= g
            np.abs(e, out=e)
            best = max(best, float(e.max(initial=0.0)))
        # a window inside its row's block: compare point by point
        near = ~far
        i, reach, g = rows[near], end[near] - rows[near], f[near]
        d = np.arange(1, int(reach.max(initial=0)) + 1)
        gap = fx.take(i[:, None] + d, mode="clip")
        gap -= g[:, None]
        np.abs(gap, out=gap)
        best = max(best, float(gap.max(initial=0.0, where=d <= reach[:, None])))
    return best


def _block_scans(blocks: np.ndarray, ext: np.ufunc) -> tuple[np.ndarray, np.ndarray]:
    """``ext`` over each block from its start to each point, and from each
    point to the block's end, flat."""
    head = ext.accumulate(blocks, axis=1)
    rest = np.empty_like(blocks)
    ext.accumulate(blocks[:, ::-1], axis=1, out=rest[:, ::-1])
    return head.ravel(), rest.ravel()


@np.errstate(invalid="ignore", over="ignore")
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
    for d, dx, gap in _offset_gaps(x, fx):
        hit = (dx < dist_bound) & (gap >= eps)
        if hit.any():
            i = int(np.argmax(hit))
            # a later offset pairs row bi only with a later point
            if bi < 0 or i < bi:
                bi, bj = i, i + d
        if float(dx.min()) >= dist_bound:
            return bi, bj
    if n <= _BLOCK + 1:
        return bi, bj

    # only rows before the direct stage's pair can still come first
    tables = _block_tables(fx)
    for rows in _row_chunks(n, bi if bi >= 0 else n - 1, np.arange(n)):
        rows, hits = _first_hits(fx, tables, rows, eps)
        close = x[hits] - x[rows] < dist_bound
        if close.any():
            k = int(np.argmax(close))
            return int(rows[k]), int(hits[k])
    return bi, bj


def _row_chunks(n: int, stop: int, rows: np.ndarray):
    """The ascending ``rows`` below ``stop`` that have a block after their
    own, in chunks."""
    rows = rows[:rows.searchsorted(min(stop, (n - 1) // _BLOCK * _BLOCK))]
    for start in range(0, rows.size, _CHUNK):
        yield rows[start:start + _CHUNK]


def _block_extremes(fx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The largest and the smallest value in each block of ``_BLOCK``
    points, skipping NaN."""
    starts = np.arange(0, fx.size, _BLOCK)
    return np.fmax.reduceat(fx, starts), np.fmin.reduceat(fx, starts)


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
    tmax[0], tmin[0] = _block_extremes(fx)
    for k in range(1, nb.bit_length()):
        half = 1 << (k - 1)
        m = nb - (1 << k) + 1
        np.fmax(tmax[k - 1, :m], tmax[k - 1, half:half + m], out=tmax[k, :m])
        np.fmin(tmin[k - 1, :m], tmin[k - 1, half:half + m], out=tmin[k, :m])
    return blocks, tmax, tmin


def _first_hits(fx: np.ndarray, tables, rows: np.ndarray,
                eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows with a hit past their own block, and each one's first hit.

    A row's hit is a ``j`` from the block after its own on with
    ``|fx[j] - fx[i]| >= eps``.
    """
    blocks, tmax, tmin = tables
    nb = tmax.shape[1]
    q = rows // _BLOCK + 1
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
