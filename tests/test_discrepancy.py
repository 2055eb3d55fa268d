import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from matprng.arith import STREAM_MEMORY_BUDGET, PrimePowerModulus
from matprng.errors import DimensionTooLargeError, TooManyPointsError
from matprng.generator import GeneratorConfig, PointSet, fractional_points
from matprng.analysis import discrepancy
from matprng.analysis.discrepancy import (
    box_counts,
    exact_discrepancy,
    extreme_discrepancy_bruteforce,
)


def rational_points(rng, n, d, den):
    return [tuple(Fraction(rng.randrange(den), den) for _ in range(d)) for _ in range(n)]


def box_scan_oracle(nums, xs, ys, den2, n, big, closed):
    """The exhaustive scan the pruned discrepancy._box_scan replaced: one
    vectorised step per left edge a and chunk of right edges b, scoring every
    box with faces on the grid."""
    dtype = object if big else np.int64
    table = discrepancy._prefix_counts(nums, xs, ys)
    xv = discrepancy._int_array(xs, big)
    yv = discrepancy._int_array(ys, big)
    s = 1 if closed else 0
    best = 0
    for a in range(len(xs) - 1 + s):
        base = table[a + 1 - s]
        for lo, hi in discrepancy._row_chunks(a + 1 - s, len(xs), len(ys) + 1):
            cnt = np.subtract(table[lo + s:hi + s], base, dtype=dtype)
            cnt *= den2
            vol = np.multiply.outer((xv[lo:hi] - xv[a]) * n, yv)
            if closed:
                run = vol - cnt[:, :-1]
                np.maximum.accumulate(run, axis=1, out=run)
                run += cnt[:, 1:]
                run -= vol
            else:
                inner = cnt[:, 1:-1]
                run = inner - vol[:, :-1]
                np.maximum.accumulate(run, axis=1, out=run)
                run -= inner
                run += vol[:, 1:]
            best = max(best, int(run.max()))
    return best


def scan_pairs(nums, den):
    """(pruned, oracle) values of the closed (excess) and the open (deficit)
    scan of one 2-D point set on the integer grid 0..den-1."""
    n, den2 = len(nums), den * den
    big = n * den2 >= 2**62
    xs, ys, ex, ey = discrepancy._axes(nums, den)
    return [
        (discrepancy._box_scan(nums, gx, gy, den2, n, big, closed),
         box_scan_oracle(nums, gx, gy, den2, n, big, closed))
        for gx, gy, closed in ((xs, ys, True), (ex, ey, False))
    ]


def structured_sets(n):
    """Point sets at the extremes of the scan's pruning, on the grid 0..4n-1."""
    den = 4 * n
    side = math.isqrt(n)
    return {
        "diagonal": [(4 * i, 4 * i) for i in range(n)],
        "antidiagonal": [(4 * i, den - 4 - 4 * i) for i in range(n)],
        # every point in [0, 1/4)^2, on distinct coordinates
        "corner_cluster": [(i, (37 * i) % n) for i in range(n)],
        "two_lines": [(4 * i, 0 if i % 2 else den // 2) for i in range(n)],
        "grid": [(den * (i % side) // side, den * (i // side) // side) for i in range(n)],
    }, den


class TestKnownValues:
    def test_single_point_at_origin_d2(self):
        rep = exact_discrepancy([(Fraction(0), Fraction(0))])
        assert rep.value == 1

    def test_two_point_d1(self):
        rep = exact_discrepancy([(Fraction(0),), (Fraction(1, 2),)])
        assert rep.value == Fraction(1, 2)

    def test_equally_spaced_grid_d1(self):
        for n in (2, 5, 8, 16):
            rep = exact_discrepancy([(Fraction(i, n),) for i in range(n)])
            assert rep.value == Fraction(1, n)

    def test_star_equally_spaced_d1(self):
        rep = exact_discrepancy([(Fraction(i, 8),) for i in range(8)], kind="star")
        assert rep.value == Fraction(1, 8)

    def test_full_period_fib(self, fib):
        cfg = GeneratorConfig.create(fib, PrimePowerModulus(3, 4), (1, 0))
        rep = exact_discrepancy(fractional_points(cfg, 216))
        assert rep.value == Fraction(761, 6561)  # frozen from the first exact run


class TestAgainstBruteForce:
    @pytest.mark.parametrize("d", [1, 2])
    def test_random_sets(self, d):
        rng = random.Random(100 + d)
        for _ in range(10):
            pts = rational_points(rng, rng.randint(1, 8), d, rng.choice([6, 10, 16]))
            fast = exact_discrepancy(pts).value
            assert fast == extreme_discrepancy_bruteforce(pts)
            assert 0 <= fast <= 1

    def test_duplicated_points(self):
        pts = [(Fraction(1, 4), Fraction(1, 2))] * 3 + [(Fraction(3, 4), Fraction(1, 4))]
        assert exact_discrepancy(pts).value == extreme_discrepancy_bruteforce(pts)

    @pytest.mark.parametrize("chunk_elems", [None, 3])
    def test_duplicates_and_zero_coordinates(self, monkeypatch, chunk_elems):
        # chunk_elems=3 splits every batch of strips into many row chunks
        if chunk_elems is not None:
            monkeypatch.setattr(discrepancy, "_CHUNK_ELEMS", chunk_elems)
        rng = random.Random(300)
        for _ in range(12):
            den = rng.choice([4, 6, 9])
            pool = [(Fraction(0), Fraction(0)), (Fraction(0), Fraction(rng.randrange(den), den)),
                    (Fraction(rng.randrange(den), den), Fraction(0))]
            pool += rational_points(rng, 3, 2, den)
            pts = [rng.choice(pool) for _ in range(rng.randint(2, 7))]
            assert exact_discrepancy(pts).value == extreme_discrepancy_bruteforce(pts)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_star_random_sets(self, d):
        rng = random.Random(200 + d)
        for _ in range(8):
            pts = rational_points(rng, rng.randint(1, 7), d, rng.choice([6, 12]))
            rep = exact_discrepancy(pts, kind="star")
            # brute force over the corner grid
            nums = [tuple(int(c * 12) for c in pt) for pt in pts] if False else None
            best = Fraction(0)
            from itertools import product

            axes = [sorted({Fraction(1), *(pt[j] for pt in pts)}) for j in range(d)]
            for corner in product(*axes):
                le = sum(1 for pt in pts if all(pt[j] <= corner[j] for j in range(d)))
                lt = sum(1 for pt in pts if all(pt[j] < corner[j] for j in range(d)))
                vol = Fraction(1)
                for c in corner:
                    vol *= c
                best = max(best, Fraction(le, len(pts)) - vol, vol - Fraction(lt, len(pts)))
            assert rep.value == best

    def test_star_extreme_sandwich_fib_stream(self, fib):
        cfg = GeneratorConfig.create(fib, PrimePowerModulus(3, 8), (1, 0))
        pts = fractional_points(cfg, 256)
        star = exact_discrepancy(pts, kind="star")
        extreme = exact_discrepancy(pts, kind="extreme")
        assert 0 < star.value <= extreme.value <= 4 * star.value == star.extreme_upper_bound

    def test_star_dominated_by_extreme_times_bound(self):
        rng = random.Random(9)
        for _ in range(6):
            pts = rational_points(rng, 6, 2, 8)
            star = exact_discrepancy(pts, kind="star")
            extreme = exact_discrepancy(pts, kind="extreme")
            assert star.value <= extreme.value <= star.extreme_upper_bound


class TestPrunedScan:
    """The bound-and-prune box scan against the exhaustive one, value for
    value on both grids."""

    @pytest.mark.parametrize("chunk_elems", [None, 3])
    def test_random_sets(self, monkeypatch, chunk_elems):
        # chunk_elems=3 puts every strip in a row chunk of its own
        if chunk_elems is not None:
            monkeypatch.setattr(discrepancy, "_CHUNK_ELEMS", chunk_elems)
        rng = random.Random(500)
        for _ in range(200):
            den = rng.choice([3, 7, 16, 81, 1000])
            pool = [(0, 0), (0, rng.randrange(den)), (rng.randrange(den), 0)]
            pool += [(rng.randrange(den), rng.randrange(den)) for _ in range(rng.randint(1, 40))]
            nums = [rng.choice(pool) for _ in range(rng.randint(1, 40))]
            for pruned, oracle in scan_pairs(nums, den):
                assert pruned == oracle

    @pytest.mark.parametrize("name", ["diagonal", "antidiagonal", "corner_cluster", "two_lines", "grid"])
    def test_structured_sets(self, name):
        sets, den = structured_sets(256)
        for pruned, oracle in scan_pairs(sets[name], den):
            assert pruned == oracle

    def test_extreme_fib_1024_under_two_seconds(self, fib):
        # the exhaustive scan takes 5-10 s here; the pruned one about 0.4 s
        cfg = GeneratorConfig.create(fib, PrimePowerModulus(3, 8), (1, 0))
        pts = fractional_points(cfg, 1024)
        start = time.perf_counter()
        extreme = exact_discrepancy(pts)
        assert time.perf_counter() - start < 2
        star = exact_discrepancy(pts, kind="star")
        assert star.value <= extreme.value <= star.extreme_upper_bound


class TestIntegerPaths:
    """int64 arithmetic is used while n * den^2 < 2^62, Python ints beyond."""

    @pytest.mark.parametrize("kind", ["extreme", "star"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_scale_invariance_across_object_boundary(self, kind, d):
        rng = random.Random(400 + d)
        den, n = 97, 30
        nums = [tuple(rng.randrange(den) for _ in range(d)) for _ in range(n - 4)]
        nums += [nums[0], nums[1], (0,) * d, (0,) + (den - 1,) * (d - 1)]
        q = n * den * den
        c = math.isqrt(2**62 // q)
        while q * c * c < 2**62:
            c += 1
        assert q * (c - 1) ** 2 < 2**62 <= q * c * c
        base = exact_discrepancy(PointSet(tuple(nums), den, d), kind=kind).value
        for scale in (c - 1, c, c * 3**20):
            scaled = PointSet(tuple(tuple(x * scale for x in pt) for pt in nums), den * scale, d)
            assert exact_discrepancy(scaled, kind=kind).value == base


class TestGuards:
    def test_extreme_d3_rejected(self):
        pts = [(Fraction(0), Fraction(0), Fraction(0))]
        with pytest.raises(DimensionTooLargeError):
            exact_discrepancy(pts, kind="extreme")

    def test_star_d4_rejected(self):
        pts = [tuple(Fraction(0) for _ in range(4))]
        with pytest.raises(DimensionTooLargeError):
            exact_discrepancy(pts, kind="star")

    def test_too_many_points(self):
        pts = [(Fraction(i, 8192),) for i in range(5000)]
        with pytest.raises(TooManyPointsError):
            exact_discrepancy(pts)

    def test_star_2d_beyond_extreme_cap(self, fib):
        cfg = GeneratorConfig.create(fib, PrimePowerModulus(3, 8), (1, 0))
        rep = exact_discrepancy(fractional_points(cfg, 5000), kind="star")
        assert rep.n == 5000 > discrepancy.EXTREME_POINT_CAP
        assert 0 < rep.value <= 1 and rep.extreme_upper_bound == 4 * rep.value

    def test_star_2d_table_guard_fires_before_allocating(self):
        # 12000 distinct coordinates per axis: two int32 tables of about
        # 12000^2 entries each, over the 2^30-byte budget
        n = 12000
        pts = PointSet(tuple((i, (7 * i) % n) for i in range(n)), n, 2)
        assert discrepancy._star_2d_bytes(list(pts.nums), n, n * n, False) > STREAM_MEMORY_BUDGET
        tracemalloc.start()
        try:
            with pytest.raises(TooManyPointsError):
                exact_discrepancy(pts, kind="star")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("chunk_elems", [None, 5000])
    @pytest.mark.parametrize("n, den", [(400, 400), (2000, 2000), (200, 2**40)])
    def test_star_2d_estimate_bounds_peak(self, monkeypatch, chunk_elems, n, den):
        if chunk_elems is not None:
            monkeypatch.setattr(discrepancy, "_CHUNK_ELEMS", chunk_elems)
        rng = random.Random(n)
        pts = PointSet(tuple((rng.randrange(den), rng.randrange(den)) for _ in range(n)), den, 2)
        need = discrepancy._star_2d_bytes(list(pts.nums), n, den * den, n * den * den >= 2**62)
        tracemalloc.start()
        try:
            exact_discrepancy(pts, kind="star")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= need

    def test_star_3d_cap(self):
        rng = random.Random(1)
        pts = rational_points(rng, 513, 3, 1024)
        with pytest.raises(TooManyPointsError):
            exact_discrepancy(pts, kind="star")


class TestBoxCounts:
    def test_quadrant(self, fib):
        cfg = GeneratorConfig.create(fib, PrimePowerModulus(3, 2), (1, 0))
        pts = fractional_points(cfg, 8)
        (bc,) = box_counts(pts, [[["0", "1/2"], ["0", "1/2"]]] if False else [
            [[Fraction(0), Fraction(1, 2)], [Fraction(0), Fraction(1, 2)]]
        ])
        manual = sum(
            1 for pt in pts.fractions() if pt[0] <= Fraction(1, 2) and pt[1] <= Fraction(1, 2)
        )
        assert bc.count == manual
        assert bc.volume == Fraction(1, 4)

    def test_report_carries_diagnostics(self):
        pts = [(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1, 2))]
        rep = exact_discrepancy(
            pts, boxes=[[[Fraction(0), Fraction(1, 2)], [Fraction(0), Fraction(1, 2)]]]
        )
        assert rep.boxes[0].count == 2


class TestFullReport:
    def test_combined_report(self, fib):
        from matprng.analysis import full_discrepancy_report

        cfg = GeneratorConfig.create(fib, PrimePowerModulus(3, 4), (1, 0), (1, 0), level="thm1")
        rep = full_discrepancy_report(cfg, 216, 8)
        assert rep.value == Fraction(761, 6561)
        assert rep.ks_v == 8
        assert float(rep.value) <= rep.ks_bound

    def test_ks_constant_override_scales(self, fib):
        from matprng.analysis import full_discrepancy_report

        cfg = GeneratorConfig.create(fib, PrimePowerModulus(3, 4), (1, 0), (1, 0), level="thm1")
        base = full_discrepancy_report(cfg, 72, 4)
        doubled = full_discrepancy_report(cfg, 72, 4, constant_base=3.0)
        assert doubled.ks_bound == pytest.approx(base.ks_bound * 4.0, rel=1e-12)
