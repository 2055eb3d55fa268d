"""Exact discrepancy of rational point sets in [0,1)^d.

Extreme discrepancy (free boxes) is computed exactly for d <= 2; anchored
(star) discrepancy for d <= 3.  All arithmetic is integer: with points on the
grid k/den the objective count/N - volume is scaled by N * den^d, so the
supremum over boxes is resolved exactly.  The supremum over real boxes is
attained in the limit at "critical" configurations: closed boxes with faces
on point coordinates (excess side) and open boxes with faces on point
coordinates or the domain boundary (deficit side); both sides are searched.

In 2-D both sides read box counts from a zero-padded prefix-count table
P[i, k] (points with x-index < i and y-index < k).  A strip is an x-range
(a pair of left and right box edges); one vectorised kernel scores a batch
of strips exactly over every y-interval, O(N) integer element operations a
strip, in row chunks of at most _CHUNK_ELEMS elements.  The extreme value
prunes the O(N^2) strips by branch and bound with exact integer bounds
(see _box_scan): blocks of strips that cannot beat the best value found are
dropped, and the rest are refined down to single strips.  The worst case
scores about 5/3 as many strips as there are x-ranges; the stream point
sets below score 1-11 % of them.  On one core of an Intel Xeon host
(numpy 2.4), the first N points of the Fibonacci stream mod 3^8 from
u0 = (1, 0) took:

    N       extreme    star
    256     0.02 s     < 0.01 s
    1024    0.42 s     0.04 s
    2048    1.7 s      0.08 s
    4096    6.0 s      0.34 s

Exact discrepancy and the frequency-sum bound run in one thread.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Sequence

import numpy as np

from ..arith import STREAM_MEMORY_BUDGET
from ..errors import DimensionTooLargeError, TooManyPointsError
from ..generator import PointSet

EXTREME_POINT_CAP = 4096
STAR_POINT_CAP_3D = 512
_CHUNK_ELEMS = 2**20  # elements per temporary in the 2-D box scans


@dataclass(frozen=True)
class BoxCount:
    """Diagnostic count of points in one closed box."""

    bounds: tuple[tuple[Fraction, Fraction], ...]
    count: int
    volume: Fraction


@dataclass(frozen=True)
class DiscrepancyReport:
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


def _int_array(values, big: bool) -> np.ndarray:
    return np.array(values, dtype=object if big else np.int64)


def _extreme_1d(nums: list[int], den: int, n: int) -> Fraction:
    sorted_vals = sorted(nums)
    xs = sorted(set(nums))
    big = n * den * den >= 2**62
    xv = _int_array(xs, big)
    cnt = _int_array([bisect.bisect_right(sorted_vals, x) - bisect.bisect_left(sorted_vals, x) for x in xs], big)
    cum = np.cumsum(cnt)  # points with value <= xs[k]
    # excess: closed interval [xs[a], xs[b]]
    p_term = cum * den - n * xv
    q_term = n * xv - (cum - cnt) * den  # subtracts count with value < xs[a]
    best = int(np.max(p_term + np.maximum.accumulate(q_term)))
    # deficit: open interval with edges from {0} + xs + {den}
    ev = sorted({0, den, *xs})
    e_arr = _int_array(ev, big)
    cle = _int_array([bisect.bisect_right(sorted_vals, e) for e in ev], big)
    clt = _int_array([bisect.bisect_left(sorted_vals, e) for e in ev], big)
    val_b = n * e_arr - clt * den
    val_a = cle * den - n * e_arr
    run = np.maximum.accumulate(val_a)
    if len(ev) > 1:
        best = max(best, int(np.max(val_b[1:] + run[:-1])))
    return Fraction(best, n * den)


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
    nums: list[tuple[int, int]], xs: list[int], ys: list[int], den2: int, n: int, big: bool, closed: bool
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
    the objective's favour.  Blocks whose upper bound is at most the best
    value found are dropped, and the rest are split in four, down to single
    pairs, where both bounds are the exact value.  The starting blocks are
    the least power of two s with 8 s >= len(xs) on a side."""
    dtype = object if big else np.int64
    table = _prefix_counts(nums, xs, ys)
    xv = _int_array(xs, big)
    yv = _int_array(ys, big)
    k = len(xs)
    gap = 0 if closed else 1  # least b - a of a pair
    s = 1
    while 8 * s < k:
        s *= 2
    i, j = np.divmod(np.arange(((k - 1) // s + 1) ** 2), (k - 1) // s + 1)
    best = 0
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
        best = max(best, int(_strip_values(table, xv, yv, lower, den2, n, dtype, closed).max()))
        if s == 1:
            return best
        keep = _strip_values(table, xv, yv, upper, den2, n, dtype, closed) > best
        s //= 2
        i = (2 * i[keep, None] + [0, 0, 1, 1]).ravel()
        j = (2 * j[keep, None] + [0, 1, 0, 1]).ravel()


def _extreme_2d(nums: list[tuple[int, int]], den: int, n: int) -> Fraction:
    den2 = den * den
    big = n * den2 >= 2**62
    xs, ys, ex, ey = _axes(nums, den)
    best = max(
        _box_scan(nums, xs, ys, den2, n, big, closed=True),
        _box_scan(nums, ex, ey, den2, n, big, closed=False),
    )
    return Fraction(best, n * den2)


def _star_1d(nums: list[int], den: int, n: int) -> Fraction:
    sorted_vals = sorted(nums)
    # excess at closed [0, y] for y a coordinate; deficit at open [0, y) for
    # y a coordinate or den (the latter gives 0, so best >= 0)
    best = max(bisect.bisect_right(sorted_vals, y) * den - n * y for y in set(nums))
    best = max(best, max(n * y - bisect.bisect_left(sorted_vals, y) * den for y in {den, *nums}))
    return Fraction(best, n * den)


def _star_2d_bytes(nums: list[tuple[int, int]], n: int, den2: int, big: bool) -> int:
    """Estimated peak of _star_2d: its two int32 prefix-count tables, held at
    once, three temporaries of its largest row chunk (a chunk's two arrays
    live on while the next chunk's are built), 8 bytes an entry plus one
    Python int per entry when big, and 256 bytes a point for the coordinate
    lists, dicts and index lists (about 200 measured).  Distinct coordinates
    are counted in one sorted list at a time (a set of N ints would take
    several times its size), so the estimate itself allocates little."""
    sizes = []
    for axis in (0, 1):
        vals = sorted(pt[axis] for pt in nums)
        distinct = sum(1 for _ in groupby(vals))
        sizes.append((distinct, distinct + 1 + (vals[0] != 0)))  # excess, deficit grid
    (kx, ex), (ky, ey) = sizes
    tables = 4 * ((kx + 1) * (ky + 1) + (ex + 1) * (ey + 1))
    chunk = max(min(rows, max(1, _CHUNK_ELEMS // cols)) * cols for rows, cols in ((kx, ky), (ex, ey)))
    entry = 8 + sys.getsizeof(n * den2) if big else 8
    return tables + 3 * chunk * entry + 256 * len(nums)


def _star_2d(nums: list[tuple[int, int]], den: int, n: int) -> Fraction:
    den2 = den * den
    big = n * den2 >= 2**62
    dtype = object if big else np.int64
    xs, ys, ex, ey = _axes(nums, den)
    best = 0
    # excess at closed [0, xs[i]] x [0, ys[k]]: count P[i + 1, k + 1]
    table = _prefix_counts(nums, xs, ys)
    xv = _int_array(xs, big)
    yv = _int_array(ys, big)
    for lo, hi in _row_chunks(0, len(xs), len(ys)):
        cnt = table[lo + 1:hi + 1, 1:].astype(dtype)
        cnt *= den2
        cnt -= np.multiply.outer(xv[lo:hi] * n, yv)
        best = max(best, int(cnt.max()))
    # deficit at open [0, ex[i]) x [0, ey[k]): strict count P[i, k]
    table = _prefix_counts(nums, ex, ey)
    exv = _int_array(ex, big)
    eyv = _int_array(ey, big)
    for lo, hi in _row_chunks(0, len(ex), len(ey)):
        cnt = table[lo:hi, :-1].astype(dtype)
        cnt *= den2
        vol = np.multiply.outer(exv[lo:hi] * n, eyv)
        vol -= cnt
        best = max(best, int(vol.max()))
    return Fraction(best, n * den2)


def _star_3d(nums: list[tuple[int, int, int]], den: int, n: int) -> Fraction:
    den3 = den * den * den
    big = n * den3 >= 2**62
    dtype = object if big else np.int64
    xs = sorted({p[0] for p in nums})
    ys = sorted({p[1] for p in nums})
    zs = sorted({p[2] for p in nums})
    y_index = {y: i for i, y in enumerate(ys)}
    z_index = {z: i for i, z in enumerate(zs)}
    ysv = _int_array(ys, big)
    zsv = _int_array(zs, big)
    best = 0
    # excess: closed counts, corner coordinates on points
    grid = np.zeros((len(ys), len(zs)), dtype=dtype)
    by_x: dict[int, list[tuple[int, int]]] = {}
    for x, y, z in nums:
        by_x.setdefault(x, []).append((y_index[y], z_index[z]))
    for x in xs:
        for yi, zi in by_x[x]:
            grid[yi, zi] += 1
        cum = np.cumsum(np.cumsum(grid, axis=0), axis=1)
        vol = (n * x) * np.multiply.outer(ysv, zsv)
        best = max(best, int(np.max(cum * den3 - vol)))
    # deficit: strict counts, corners on coordinates or 1
    ey = sorted({den, *ys})
    ez = sorted({den, *zs})
    ey_index = {y: i for i, y in enumerate(ey)}
    ez_index = {z: i for i, z in enumerate(ez)}
    eyv = _int_array(ey, big)
    ezv = _int_array(ez, big)
    grid2 = np.zeros((len(ey), len(ez)), dtype=dtype)
    by_x_e: dict[int, list[tuple[int, int]]] = {}
    for x, y, z in nums:
        by_x_e.setdefault(x, []).append((ey_index[y], ez_index[z]))
    xs_sorted = sorted(by_x_e)
    xi = 0
    for y1 in sorted({den, *xs}):
        while xi < len(xs_sorted) and xs_sorted[xi] < y1:
            for yi, zi in by_x_e[xs_sorted[xi]]:
                grid2[yi, zi] += 1
            xi += 1
        cum = np.cumsum(np.cumsum(grid2, axis=0), axis=1)
        clt = np.zeros_like(cum)
        clt[1:, 1:] = cum[:-1, :-1]  # strict in both y and z
        vol = (n * y1) * np.multiply.outer(eyv, ezv)
        best = max(best, int(np.max(vol - clt * den3)))
    return Fraction(best, n * den3)


def box_counts(points, boxes: Sequence[Sequence[Sequence]]) -> tuple[BoxCount, ...]:
    """Exact closed-box counts A(N, B) for diagnostic boxes given as
    [[lo_1, hi_1], ..., [lo_d, hi_d]] with rational bounds."""
    nums, den, d = _normalize(points)
    out = []
    for box in boxes:
        bounds = tuple((Fraction(lo), Fraction(hi)) for lo, hi in box)
        if len(bounds) != d:
            raise ValueError("box dimension mismatch")
        count = 0
        for pt in nums:
            if all(lo <= Fraction(x, den) <= hi for x, (lo, hi) in zip(pt, bounds)):
                count += 1
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
    kind="star": anchored boxes [0, y), d <= 3 (N <= 512 for d = 3, and for
    d = 2 count tables within arith.STREAM_MEMORY_BUDGET); the report
    carries 2^d * star as an upper bound for the extreme value.
    """
    nums, den, d = _normalize(points)
    n = len(nums)
    if kind == "extreme":
        if d > 2:
            raise DimensionTooLargeError("exact extreme discrepancy is limited to d <= 2")
        if n > EXTREME_POINT_CAP:
            raise TooManyPointsError(f"N = {n} exceeds cap {EXTREME_POINT_CAP}")
        if d == 1:
            value = _extreme_1d([pt[0] for pt in nums], den, n)
        else:
            value = _extreme_2d(nums, den, n)
        upper = None
    elif kind == "star":
        if d > 3:
            raise DimensionTooLargeError("exact star discrepancy is limited to d <= 3")
        if d == 3 and n > STAR_POINT_CAP_3D:
            raise TooManyPointsError(f"N = {n} exceeds cap {STAR_POINT_CAP_3D} for d = 3")
        if d == 1:
            value = _star_1d([pt[0] for pt in nums], den, n)
        elif d == 2:
            need = _star_2d_bytes(nums, n, den * den, n * den * den >= 2**62)
            if need > STREAM_MEMORY_BUDGET:
                raise TooManyPointsError(
                    f"N = {n} points need about {need} bytes of count tables, "
                    f"over the budget of {STREAM_MEMORY_BUDGET}"
                )
            value = _star_2d(nums, den, n)
        else:
            value = _star_3d(nums, den, n)
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
    return DiscrepancyReport(
        n=rep.n, d=rep.d, kind=rep.kind, value=rep.value, value_float=rep.value_float,
        extreme_upper_bound=rep.extreme_upper_bound, boxes=rep.boxes,
        ks_bound=float(ks.value), ks_v=v_range,
    )


def extreme_discrepancy_bruteforce(points) -> Fraction:
    """Reference implementation: enumerate every pair of critical edge values
    per axis with every open/closed combination.  Exponential in d and
    quadratic-per-axis; for small cross-check sets only."""
    nums, den, d = _normalize(points)
    n = len(nums)
    axes = []
    for j in range(d):
        vals = sorted({0, den, *(pt[j] for pt in nums)})
        axes.append(vals)

    from itertools import product as iproduct

    best = Fraction(0)
    intervals_per_axis = []
    for j in range(d):
        intervals = []
        vals = axes[j]
        for ai in range(len(vals)):
            for bi in range(ai, len(vals)):
                for open_lo in (False, True):
                    for open_hi in (False, True):
                        intervals.append((vals[ai], vals[bi], open_lo, open_hi))
        intervals_per_axis.append(intervals)
    for combo in iproduct(*intervals_per_axis):
        count = 0
        for pt in nums:
            ok = True
            for x, (lo, hi, open_lo, open_hi) in zip(pt, combo):
                if open_lo:
                    if x <= lo:
                        ok = False
                        break
                elif x < lo:
                    ok = False
                    break
                if open_hi:
                    if x >= hi:
                        ok = False
                        break
                elif x > hi:
                    ok = False
                    break
            if ok:
                count += 1
        vol = Fraction(1)
        for lo, hi, _, _ in combo:
            vol *= Fraction(hi - lo, den)
        best = max(best, abs(Fraction(count, n) - vol))
    return best
