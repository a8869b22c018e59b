"""Extremum refinement on nested dyadic nets, with certified bounds.

Level n splits [a, b] into 2^n equal pieces; the net holds the 2^n + 1
split points.  Nets are nested (every level-n point reappears at level
n+1), so the running grid maximum M_n can only grow and the minimum m_n
can only shrink as the level increases.  Combining M_n with a modulus
of continuity estimate w gives a certified upper bound

    sup f  <=  M_n + w(mesh_n),

valid whenever w really bounds how much f moves across one mesh cell.

Refinement takes in only each level's new points: the two ends at
level 0, the new midpoints after that.  The coarse levels read them off
one evaluated net; finer ones evaluate them in cache-sized chunks.  One
fold takes every chunk into the running extremes, so its memory does
not grow with the level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LevelTooLarge
from .functions import (
    MAX_NET_LEVEL,
    Interval,
    RealFunction,
    canonical_text,
    dyadic_net,
    evaluate_many,
    sample_grid,
)

# points per evaluation chunk in refine_extrema: 256 KB of float64 each
# for the points, the values and every evaluation temporary, within L2
_CHUNK = 2 ** 15

# refine_extrema evaluates the nets up to this level in one call: up to
# a few thousand points, a call per level costs more than its points do
_COARSE = 12


@dataclass
class RefinementTrace:
    """Per-level extremum record of a dyadic refinement run.

    ``max_values``/``min_values`` are the grid max/min at each level,
    ``argmax``/``argmin`` the points attaining them (ties resolved to
    the smallest net index, hence the leftmost point).  A slot of
    ``certified_gap`` is filled by :func:`certified_max_bound`.
    """

    function_id: str
    levels: list[int] = field(default_factory=list)
    mesh: list[float] = field(default_factory=list)
    max_values: list[float] = field(default_factory=list)
    min_values: list[float] = field(default_factory=list)
    argmax: list[float] = field(default_factory=list)
    argmin: list[float] = field(default_factory=list)
    certified_gap: list[float | None] = field(default_factory=list)

    def index_of_level(self, level: int) -> int:
        try:
            return self.levels.index(level)
        except ValueError:
            raise ValueError(f"level {level} was not recorded in this trace") from None

    def table(self) -> tuple[tuple[str, ...], list[tuple]]:
        columns = ("level", "mesh", "M_n", "m_n", "argmax", "argmin", "certified_gap")
        rows = list(zip(self.levels, self.mesh, self.max_values, self.min_values,
                        self.argmax, self.argmin, self.certified_gap))
        return columns, rows

    def to_json_dict(self) -> dict:
        columns, rows = self.table()
        return {
            "function_id": self.function_id,
            "levels": [dict(zip(columns, row)) for row in rows],
        }


def refine_extrema(f: RealFunction, max_level: int) -> RefinementTrace:
    """Track grid extrema over nested dyadic nets up to ``max_level``.

    Each level takes in only the points no coarser net has, the two ends
    at level 0 and the new midpoints after it, so the whole run costs one
    evaluation per point of the finest net.  Levels up to ``_COARSE``
    read theirs off one evaluation of the level-``_COARSE`` net; finer
    levels stream their midpoints through one reused buffer in chunks of
    ``_CHUNK`` points, so memory stays the same at every level.  The
    trace is the one a whole-level pass gives, and an evaluation error
    names the point that level order meets first.
    """
    if max_level < 0:
        raise ValueError(f"max_level must be nonnegative, got {max_level}")
    if max_level > MAX_NET_LEVEL:
        raise LevelTooLarge(f"level {max_level} exceeds the maximum {MAX_NET_LEVEL}")

    trace = RefinementTrace(function_id=canonical_text(f))
    # values are finite, so the first chunk replaces these
    cur_max, max_x, cur_min, min_x = -np.inf, None, np.inf, None
    for n, chunks in enumerate(_level_chunks(f, max_level)):
        for pts, vals in chunks:
            # argmax and argmin return the first extreme, and net points
            # never decrease with their index: ties move only leftward
            i = int(np.argmax(vals))
            if vals[i] > cur_max or (vals[i] == cur_max and pts[i] < max_x):
                cur_max, max_x = float(vals[i]), float(pts[i])
            i = int(np.argmin(vals))
            if vals[i] < cur_min or (vals[i] == cur_min and pts[i] < min_x):
                cur_min, min_x = float(vals[i]), float(pts[i])
        trace.levels.append(n)
        trace.mesh.append(float(f.domain.span / 2.0 ** n))
        trace.max_values.append(cur_max)
        trace.min_values.append(cur_min)
        trace.argmax.append(max_x)
        trace.argmin.append(min_x)
        trace.certified_gap.append(None)
    return trace


def _level_chunks(f: RealFunction, max_level: int):
    """For each level 0 .. ``max_level``, the ``(points, values)`` chunks of its new points.

    Up to level ``c = min(max_level, _COARSE)`` the points are the
    level-c net's in level order, evaluated at once, so an error names
    the offender a level-by-level pass meets first: its ends at level 0
    (slice 0:2), and every 2^(c-n+1)-th point from the 2^(c-n)-th at
    level n (slice 2^(n-1)+1 : 2^n+1).  They are the points
    `_new_points` makes, bit for bit: k / 2^c is (2j+1) / 2^n exactly,
    and ``+`` and ``*`` commute.
    """
    c = min(max_level, _COARSE)
    net = dyadic_net(f.domain, c)
    pts = np.concatenate(
        [net[:: 2 ** c]] + [net[2 ** (c - n) :: 2 ** (c - n + 1)] for n in range(1, c + 1)]
    )
    vals = evaluate_many(f, pts)
    for n in range(c + 1):
        sl = slice(2 ** (n - 1) + 1 if n else 0, 2 ** n + 1)
        yield [(pts[sl], vals[sl])]
    # odd net indices 1, 3, 5, ... of one chunk, and the buffer its points go to
    odd = np.arange(1, 2 * min(_CHUNK, 2 ** max_level // 2), 2, dtype=np.float64)
    buf = np.empty_like(odd)
    for n in range(c + 1, max_level + 1):
        yield ((pts, evaluate_many(f, pts)) for pts in _new_points(f.domain, n, odd, buf))


def _new_points(domain: Interval, level: int, odd: np.ndarray, buf: np.ndarray):
    """The points of the level-``level`` net, ``level >= 1``, that no
    coarser net has: the odd multiples of 2^-level, ``_CHUNK`` at a time
    in ``buf``."""
    count = 2 ** (level - 1)
    for start in range(0, count, _CHUNK):
        pts = buf[: min(count - start, _CHUNK)]
        # in place, the same roundings as lo + span * ((2j + 1) / 2^n)
        np.add(odd[: pts.size], 2.0 * start, out=pts)
        pts /= 2.0 ** level
        pts *= domain.span
        pts += domain.lo
        yield pts


def certified_max_bound(f: RealFunction, trace: RefinementTrace, level: int,
                        modulus_resolution: int = 2 ** 12 + 1) -> float:
    """The bound M_n + w(mesh_n) for sup f, where ``level`` is in the trace.

    w is :func:`modulus_of_continuity`'s grid estimate, a lower bound of
    the true modulus, so the bound holds only where it dominates how far
    f moves within one mesh cell; once the mesh is finer than the grid
    step, w is 0.  The bound minus M_n fills the trace's ``certified_gap``
    slot.  The default 2^12 + 1 points make every dyadic mesh an exact
    grid spacing.  ``epsdelta maximize`` passes ``--resolution``, 4096 by
    default, so the CLI and the library certify on different grids:
    ``expr(sin(40*x),lo=0,hi=1)`` at level 12 gives 0.9999999073893983
    on 4096 points and 1.0097654935746487 on 4097.  ROADMAP item 19
    ends this for pwl, power, poly and the sawtooth.
    """
    # imported on use: an envelope process does not compile the kernels
    from ._kernels import max_gap_within

    i = trace.index_of_level(level)
    xs, fx = sample_grid(f, modulus_resolution)
    # modulus_of_continuity on this grid; a mesh is never negative
    bound = trace.max_values[i] + max_gap_within(xs, fx, trace.mesh[i])
    trace.certified_gap[i] = bound - trace.max_values[i]
    return float(bound)


def envelope(f: RealFunction, resolution: int) -> np.ndarray:
    """Running maximum g(x) = max of f over [a, x], sampled on a grid.

    Returned as an (resolution, 2) array of (x, g(x)) rows; g is
    nondecreasing and ends at the grid maximum of f.
    """
    xs, fx = sample_grid(f, resolution)
    g = np.maximum.accumulate(fx)
    return np.column_stack((xs, g))


def first_maximizer(f: RealFunction, resolution: int) -> float:
    """Leftmost grid point whose value is the grid maximum.

    Values are finite, so ``argmax`` returns the first maximum.
    """
    xs, fx = sample_grid(f, resolution)
    return float(xs[np.argmax(fx)])
