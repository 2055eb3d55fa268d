"""Exact discrepancy of rational point sets in [0,1)^d.

Extreme discrepancy (free boxes) is computed exactly for d <= 2; anchored
(star) discrepancy for d <= 3.  All arithmetic is integer: with points on the
grid k/den the objective count/N - volume is scaled by N * den^d, so the
supremum over boxes is resolved exactly.  The supremum over real boxes is
attained in the limit at "critical" configurations: closed boxes with faces
on point coordinates (excess side) and open boxes with faces on point
coordinates or the domain boundary (deficit side); both sides are searched.

The extreme value reads box counts from a zero-padded prefix-count table
P[i, k] (points with x-index < i and y-index < k).  A strip is an x-range
(a pair of left and right box edges); one vectorised kernel scores a batch
of strips exactly over every y-interval, O(N) integer element operations a
strip, in row chunks of at most _CHUNK_ELEMS elements.  In 1-D the kernel
scores a single strip of width 1.  In 2-D the O(N^2) strips are pruned by
branch and bound with exact integer bounds (see _box_scan): at each level
the blocks' upper bounds are scored first, blocks of strips that cannot
beat the best value found are dropped, only the survivors have their lower
bound scored, and the rest are refined down to single strips.  The worst
case scores about 5/3 as many strips as there are x-ranges; the stream
point sets below score 0.5-8.4 % of them (N = 64 to 4096).

The star value, in every d, comes from one sweep along one axis over a
count grid on the other axes (see _star): O(K^d) integer element
operations and O(K^(d-1)) memory for K distinct coordinates a side.  The
sweep is refused above STAR_WORK_CAP = 2^27 grid cells (510 distinct
coordinates a side in 3-D, 11 584 in 2-D).  On one core of an Intel Xeon
host (numpy 2.4), the first N points of the Fibonacci stream mod 3^8 from
u0 = (1, 0) took:

    N       extreme    star
    256     0.009 s    0.003 s
    1024    0.10 s     0.016 s
    2048    0.46 s     0.036 s
    4096    1.7 s      0.089 s

Exact discrepancy and the frequency-sum bound run in one thread.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import groupby
from typing import NamedTuple, Sequence

import numpy as np

from ..errors import ResourceGuardError
from ..generator import PointSet
from ..stream import int_dtype

EXTREME_POINT_CAP = 4096
STAR_WORK_CAP = 2**27  # grid cells the star sweep touches (see _star)
# elements per temporary in the 2-D box scans: of 2^10 .. 2^20, 2^14 (128 KB
# of int64) timed fastest on the N = 1024 and 2048 point sets of the table above
_CHUNK_ELEMS = 2**14
BOX_BLOCK_CAP = 2**12  # largest starting block side of _box_scan; 1 scans every strip


class BoxCount(NamedTuple):
    """Diagnostic count of points in one closed box."""

    bounds: tuple[tuple[Fraction, Fraction], ...]
    count: int
    volume: Fraction


class DiscrepancyReport(NamedTuple):
    """Exact discrepancy (a rational number) plus optional box diagnostics
    and, when requested, the frequency-sum bound next to it."""

    n: int
    d: int
    kind: str  # "extreme" | "star"
    value: Fraction
    value_float: float
    extreme_upper_bound: Fraction | None = None  # 2^d * star, reported for kind="star"
    boxes: tuple[BoxCount, ...] = ()
    ks_bound: float | None = None
    ks_v: int | None = None


def _normalize(points) -> tuple[list[tuple[int, ...]], int, int]:
    if isinstance(points, PointSet):
        return [tuple(pt) for pt in points.nums], points.den, points.d
    pts = [tuple(Fraction(c) for c in pt) for pt in points]
    if not pts:
        raise ValueError("empty point set")
    d = len(pts[0])
    den = 1
    for pt in pts:
        for c in pt:
            den = den * c.denominator // math.gcd(den, c.denominator)
    nums = [tuple(int(c * den) for c in pt) for pt in pts]
    for pt in nums:
        if any(x < 0 or x >= den for x in pt):
            raise ValueError("points must lie in [0, 1)^d")
    return nums, den, d


def _axes(nums: list[tuple[int, int]], den: int) -> tuple[list[int], list[int], list[int], list[int]]:
    """Sorted distinct point coordinates per axis (the excess grid), and the
    same with 0 and den added (the deficit grid)."""
    xs = sorted({x for x, _ in nums})
    ys = sorted({y for _, y in nums})
    return xs, ys, sorted({0, den, *xs}), sorted({0, den, *ys})


def _prefix_counts(nums: list[tuple[int, int]], xs: list[int], ys: list[int]) -> np.ndarray:
    """Zero-padded 2-D prefix counts on the grid xs x ys: P[i, k] is the number
    of points with x-index < i and y-index < k.  Counts are <= N, so int32;
    widen before scaling by den^2."""
    x_index = {x: i for i, x in enumerate(xs)}
    y_index = {y: i for i, y in enumerate(ys)}
    table = np.zeros((len(xs) + 1, len(ys) + 1), dtype=np.int32)
    np.add.at(table, ([x_index[x] + 1 for x, _ in nums], [y_index[y] + 1 for _, y in nums]), 1)
    np.cumsum(table, axis=0, out=table)
    np.cumsum(table, axis=1, out=table)
    return table


def _row_chunks(start: int, stop: int, width: int):
    """Row ranges [lo, hi) covering [start, stop), each small enough that a
    temporary of `width` columns has at most _CHUNK_ELEMS elements."""
    step = max(1, _CHUNK_ELEMS // width)
    for lo in range(start, stop, step):
        yield lo, min(lo + step, stop)


def _strip_values(
    table: np.ndarray, xv: np.ndarray, yv: np.ndarray, strips: tuple, den2: int, n: int, dtype, closed: bool
) -> np.ndarray:
    """Best scaled y-interval value of each strip, given as index arrays
    (lo, hi, wa, wb).  Strip i counts the points of table[hi[i]] -
    table[lo[i]] (a row of y-prefix counts; empty when hi <= lo) against the
    x-width xv[wb[i]] - xv[wa[i]].  closed=True scores count - volume over
    closed y-intervals [ys[j], ys[k]], closed=False volume - count over open
    ones (ys[j], ys[k]), j < k."""
    lo, hi, wa, wb = strips
    hi = np.maximum(hi, lo)
    out = np.empty(len(lo), dtype=dtype)
    for c0, c1 in _row_chunks(0, len(lo), table.shape[1]):
        # cnt[i, k]: points of strip i with y-index < k, times den^2
        cnt = np.subtract(table[hi[c0:c1]], table[lo[c0:c1]], dtype=dtype)
        cnt *= den2
        vol = np.multiply.outer((xv[wb[c0:c1]] - xv[wa[c0:c1]]) * n, yv)
        if closed:
            # count with y in [ys[j], ys[k]] is cnt[k + 1] - cnt[j], j <= k
            run = vol - cnt[:, :-1]
            np.maximum.accumulate(run, axis=1, out=run)
            run += cnt[:, 1:]
            run -= vol
        else:
            # count with y in (ys[j], ys[k]) is cnt[k] - cnt[j + 1], j < k
            inner = cnt[:, 1:-1]
            run = inner - vol[:, :-1]
            np.maximum.accumulate(run, axis=1, out=run)
            run -= inner
            run += vol[:, 1:]
        out[c0:c1] = run.max(axis=1)
    return out


def _box_scan(
    nums: list[tuple[int, int]], xs: list[int], ys: list[int], den2: int, n: int, dtype: type, closed: bool,
    best: int = 0,
) -> int:
    """Largest scaled excess (closed=True: closed boxes [xs[a], xs[b]] x
    [ys[j], ys[k]], a <= b) or deficit (closed=False: open boxes
    (xs[a], xs[b]) x (ys[j], ys[k]), a < b, j < k) over every box with faces
    on the grid.

    Branch and bound over blocks A x B = [a0, a1] x [b0, b1] of x-edge
    pairs.  The strip of one pair (a, b) is scored exactly over every
    y-interval by _strip_values.  For a block, the strip (a0, b1) gives a
    lower bound.  Its upper bound scores the widest count (x-range
    [xs[a0], xs[b1]]) against the least width (closed), or the narrowest
    count (x-range (xs[a1], xs[b0])) against the greatest width (open): no
    pair of the block does better, since counts grow and volumes shrink in
    the objective's favour.  At each level the upper bounds are scored
    first, and the blocks whose bound is at most the best value found are
    dropped; the lower bounds of the rest raise the best value, which prunes
    them again, and the survivors are split in four, down to single pairs,
    where both bounds are the exact value.  The starting blocks are the
    least power of two s with 8 s >= len(xs) on a side, at most
    BOX_BLOCK_CAP, read at each call (at 1 every strip is scored: the
    exhaustive scan).  `dtype` holds every scaled value (see
    _scaled_dtype).  The scan returns max(best, its own value): a `best`
    known beforehand, such as the other side's value, prunes from the first
    level on."""
    table = _prefix_counts(nums, xs, ys)
    xv = np.array(xs, dtype=dtype)
    yv = np.array(ys, dtype=dtype)
    k = len(xs)
    gap = 0 if closed else 1  # least b - a of a pair
    s = 1
    while 8 * s < k and 2 * s <= BOX_BLOCK_CAP:
        s *= 2
    i, j = np.divmod(np.arange(((k - 1) // s + 1) ** 2), (k - 1) // s + 1)
    while True:
        a0, b0 = i * s, j * s
        a1, b1 = np.minimum(a0 + s, k) - 1, np.minimum(b0 + s, k) - 1
        keep = (b0 < k) & (b1 - a0 >= gap)  # B is not empty and the block holds a pair
        a0, a1, b0, b1, i, j = (v[keep] for v in (a0, a1, b0, b1, i, j))
        if not len(a0):
            return best
        if closed:
            lower, upper = (a0, b1 + 1, a0, b1), (a0, b1 + 1, a1, np.maximum(a1, b0))
        else:
            lower, upper = (a0 + 1, b1, a0, b1), (a1 + 1, b0, a0, b1)
        if s == 1:  # single pairs: the lower bound is the value
            return max(best, int(_strip_values(table, xv, yv, lower, den2, n, dtype, closed).max()))
        bound = _strip_values(table, xv, yv, upper, den2, n, dtype, closed)
        live = np.flatnonzero(bound > best)
        lower = tuple(v[live] for v in lower)
        best = max(best, int(_strip_values(table, xv, yv, lower, den2, n, dtype, closed).max(initial=0)))
        live = live[bound[live] > best]
        s //= 2
        i = (2 * i[live, None] + [0, 0, 1, 1]).ravel()
        j = (2 * j[live, None] + [0, 1, 0, 1]).ravel()


def _scaled_dtype(n: int, den: int, d: int) -> type:
    """The dtype of the scans at scale n den^d: every value they form is a
    count or volume in [0, n den^d], or a sum or difference of two."""
    return int_dtype(2 * n * den**d)


def _extreme_1d(nums: list[int], den: int, n: int) -> Fraction:
    """One strip of x-width 1 over the 1-D prefix counts, scored by
    _strip_values at scale n * den: closed intervals with ends on point
    coordinates, then open ones with ends on coordinates, 0 or den."""
    dtype = _scaled_dtype(n, den, 1)
    strip = tuple(np.array([i]) for i in (0, 1, 0, 1))  # lo, hi, wa, wb
    xv = np.array([0, 1], dtype=dtype)
    best = 0
    for grid, closed in ((sorted(set(nums)), True), (sorted({0, den, *nums}), False)):
        table = _prefix_counts([(0, y) for y in nums], [0], grid)
        yv = np.array(grid, dtype=dtype)
        best = max(best, int(_strip_values(table, xv, yv, strip, den, n, dtype, closed)[0]))
    return Fraction(best, n * den)


def _extreme_2d(nums: list[tuple[int, int]], den: int, n: int) -> Fraction:
    den2 = den * den
    dtype = _scaled_dtype(n, den, 2)
    xs, ys, ex, ey = _axes(nums, den)
    excess = _box_scan(nums, xs, ys, den2, n, dtype, closed=True)
    return Fraction(_box_scan(nums, ex, ey, den2, n, dtype, closed=False, best=excess), n * den2)


def _star(nums: list[tuple[int, ...]], den: int, n: int, d: int) -> Fraction:
    """Exact star discrepancy by one sweep along one axis, called x below
    (Bundschuh & Zhu 1993).

    Every anchored box is scored at its corners: the excess on closed
    corners [0, c] with c on point coordinates, the deficit on open corners
    [0, c) with c on point coordinates or den.  The sweep walks the distinct
    x-values in ascending order and adds each point to a zero-padded grid
    over the other d - 1 axes, whose edges are the distinct coordinates and
    den (a 0-dimensional grid for d = 1).  The cumsum C of the grid counts
    points with x <= the current value: C[i + 1, ...] counts those with
    y <= edge i (closed), C[i, ...] those with y < edge i (open).  The open
    corners at x are scored against C before the points at x are added, and
    those at x = den after the last x-value.

    With K_j distinct coordinates on axis j and axis 1 swept, the sweep
    touches K_1 (K_2 + 2) ... (K_d + 2) cells of the padded grid; above
    STAR_WORK_CAP it raises the guard `star_cells` before allocating the grid.
    Distinct coordinates are counted in one sorted list at a time."""
    edges = [[c for c, _ in groupby(sorted(pt[j] for pt in nums))] for j in range(d)]
    # sweep the axis with the most distinct values, so that the grid holds
    # the fewest cells (the value is symmetric in the axes)
    order = sorted(range(d), key=lambda j: -len(edges[j]))
    edges = [edges[j] for j in order]
    work = len(edges[0]) * math.prod(len(e) + 2 for e in edges[1:])
    if work > STAR_WORK_CAP:
        raise ResourceGuardError("star_cells", work, STAR_WORK_CAP)
    nums = [tuple(pt[j] for j in order) for pt in nums]
    scale = den**d
    dtype = _scaled_dtype(n, den, d)
    cell = [{c: i + 1 for i, c in enumerate(e)} for e in edges[1:]]  # padded grid index
    vol = np.array(n, dtype=dtype)  # n times the corner volume at x = 1
    for e in edges[1:]:
        vol = np.multiply.outer(vol, np.array(e + [den], dtype=dtype))
    grid = np.zeros(tuple(len(e) + 2 for e in edges[1:]), dtype=np.int64)
    scaled = np.zeros(grid.shape, dtype=dtype)  # den^d times C
    closed = (slice(1, None),) * (d - 1)
    opened = (slice(None, -1),) * (d - 1)
    best = 0
    for x, group in groupby(sorted(nums), key=lambda pt: pt[0]):
        corner = x * vol
        best = max(best, int(np.max(corner - scaled[opened])))
        for pt in group:
            grid[tuple(ix[c] for ix, c in zip(cell, pt[1:]))] += 1
        counts = grid
        for axis in range(d - 1):
            counts = np.cumsum(counts, axis=axis)
        np.multiply(counts, scale, out=scaled, dtype=dtype)
        best = max(best, int(np.max(scaled[closed] - corner)))
    best = max(best, int(np.max(den * vol - scaled[opened])))
    return Fraction(best, n * scale)


def box_counts(points, boxes: Sequence[Sequence[Sequence]]) -> tuple[BoxCount, ...]:
    """Exact closed-box counts A(N, B) for diagnostic boxes given as
    [[lo_1, hi_1], ..., [lo_d, hi_d]] with rational bounds.  A point x/den
    lies in [lo, hi] iff lo.numerator den <= x lo.denominator and
    x hi.denominator <= hi.numerator den: one integer array test a box, in
    the dtype that holds every such product."""
    nums, den, d = _normalize(points)
    all_bounds = [tuple((Fraction(lo), Fraction(hi)) for lo, hi in box) for box in boxes]
    if any(len(bounds) != d for bounds in all_bounds):
        raise ValueError("box dimension mismatch")
    edges = [b for bounds in all_bounds for pair in bounds for b in pair]
    dtype = int_dtype(den * max((abs(b.numerator) + b.denominator for b in edges), default=1))
    x = np.array(nums, dtype=dtype).reshape(len(nums), d)
    out = []
    for bounds in all_bounds:
        # (numerators, denominators) of the lower and of the upper bounds
        low, high = (
            np.array([(b.numerator, b.denominator) for b in side], dtype=dtype).T for side in zip(*bounds)
        )
        inside = (low[0] * den <= x * low[1]) & (x * high[1] <= high[0] * den)
        count = int(np.count_nonzero(inside.all(axis=1)))
        volume = math.prod((hi - lo for lo, hi in bounds), start=Fraction(1))
        out.append(BoxCount(bounds, count, volume))
    return tuple(out)


def exact_discrepancy(
    points,
    kind: str = "extreme",
    boxes: Sequence | None = None,
) -> DiscrepancyReport:
    """Exact discrepancy of a rational point set.

    kind="extreme": free boxes, d <= 2, N <= 4096.
    kind="star": anchored boxes [0, y), d <= 3, at most STAR_WORK_CAP cells
    to sweep (about the product of the numbers of distinct coordinates on
    the axes, see _star); the report carries 2^d * star as an upper bound
    for the extreme value.
    """
    nums, den, d = _normalize(points)
    n = len(nums)
    if kind == "extreme":
        if d > 2:
            raise ResourceGuardError("extreme_dimension", d, 2)
        if n > EXTREME_POINT_CAP:
            raise ResourceGuardError("extreme_points", n, EXTREME_POINT_CAP)
        if d == 1:
            value = _extreme_1d([pt[0] for pt in nums], den, n)
        else:
            value = _extreme_2d(nums, den, n)
        upper = None
    elif kind == "star":
        if d > 3:
            raise ResourceGuardError("star_dimension", d, 3)
        value = _star(nums, den, n, d)
        upper = Fraction(2**d) * value
    else:
        raise ValueError(f"unknown kind {kind!r}")
    diag = box_counts(points, boxes) if boxes else ()
    return DiscrepancyReport(
        n=n, d=d, kind=kind, value=value, value_float=float(value),
        extreme_upper_bound=upper, boxes=diag,
    )


def full_discrepancy_report(
    cfg,
    n_points: int,
    v_range: int,
    boxes: Sequence | None = None,
    constant_base: float = 1.5,
) -> DiscrepancyReport:
    """Exact discrepancy of the first N stream points together with the
    frequency-sum bound at range V; extreme for d <= 2, star for d = 3."""
    from ..generator import fractional_points
    from .bounds import koksma_szusz_bound

    pts = fractional_points(cfg, n_points)
    kind = "extreme" if cfg.a.d <= 2 else "star"
    rep = exact_discrepancy(pts, kind=kind, boxes=boxes)
    ks = koksma_szusz_bound(cfg, n_points, v_range, constant_base=constant_base)
    return rep._replace(ks_bound=float(ks.value), ks_v=v_range)
