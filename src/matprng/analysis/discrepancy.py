"""Exact discrepancy of rational point sets in [0,1)^d.

Extreme discrepancy (free boxes) is computed exactly for d <= 2; anchored
(star) discrepancy for d <= 3.  All arithmetic is integer: with points on the
grid k/den the objective count/N - volume is scaled by N * den^d, so the
supremum over boxes is resolved exactly.  The supremum over real boxes is
attained in the limit at "critical" configurations: closed boxes with faces
on point coordinates (excess side) and open boxes with faces on point
coordinates or the domain boundary (deficit side); both are enumerated.

In 2-D both sides read box counts from a zero-padded prefix-count table
P[i, k] (points with x-index < i and y-index < k).  The extreme value scores
every candidate box exactly: one vectorised step per left box edge evaluates
all right edges at once, so N points cost O(N^3) integer element operations
in O(N) numpy steps.  Right edges are split into row chunks so that no
temporary exceeds _CHUNK_ELEMS elements, which adds steps once N > 1023.
On one core of an Intel Xeon host (numpy 2.4), the first N points of the
Fibonacci stream mod 3^8 from u0 = (1, 0) took:

    N       extreme    star
    256     0.15 s     < 0.01 s
    1024    9.9 s      0.04 s
    2048    76 s       0.08 s

Exact discrepancy and the frequency-sum bound run in one thread.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

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


def _box_scan(
    nums: list[tuple[int, int]], xs: list[int], ys: list[int], den2: int, n: int, big: bool, closed: bool
) -> int:
    """Largest scaled excess (closed=True: closed boxes [xs[a], xs[b]] x
    [ys[j], ys[k]]) or deficit (closed=False: open boxes (xs[a], xs[b]) x
    (ys[j], ys[k]), a < b, j < k) over every box with faces on the grid.
    One vectorised step per left edge a and chunk of right edges b."""
    dtype = object if big else np.int64
    table = _prefix_counts(nums, xs, ys)
    xv = _int_array(xs, big)
    yv = _int_array(ys, big)
    s = 1 if closed else 0
    best = 0
    for a in range(len(xs) - 1 + s):
        base = table[a + 1 - s]
        for lo, hi in _row_chunks(a + 1 - s, len(xs), len(ys) + 1):
            # cnt[b, k]: points with x-index in [a, b] (closed) or (a, b) (open)
            # and y-index < k, times den^2
            cnt = np.subtract(table[lo + s:hi + s], base, dtype=dtype)
            cnt *= den2
            vol = np.multiply.outer((xv[lo:hi] - xv[a]) * n, yv)
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
            best = max(best, int(run.max()))
    return best


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
    kind="star": anchored boxes [0, y), d <= 3 (N <= 512 for d = 3); the
    report carries 2^d * star as an upper bound for the extreme value.
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
        if n > EXTREME_POINT_CAP:
            raise TooManyPointsError(f"N = {n} exceeds cap {EXTREME_POINT_CAP}")
        if d == 1:
            value = _star_1d([pt[0] for pt in nums], den, n)
        elif d == 2:
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
