import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from matprng.arith import IntMatrix, PrimePowerModulus
from matprng.errors import ResourceGuardError
from matprng.generator import GeneratorConfig, PointSet, fractional_points
from matprng.analysis import discrepancy
from matprng.analysis.discrepancy import box_counts, exact_discrepancy


def extreme_discrepancy_bruteforce(points) -> Fraction:
    """The extreme discrepancy by enumeration: every box whose faces lie on
    the points' coordinates (or 0 and 1), each face open or closed.
    Exponential in d and quadratic per axis; for small sets only."""
    nums, den, d = discrepancy._normalize(points)
    intervals_per_axis = []
    for j in range(d):
        vals = sorted({0, den, *(pt[j] for pt in nums)})
        intervals_per_axis.append([
            (lo, hi, open_lo, open_hi)
            for i, lo in enumerate(vals) for hi in vals[i:]
            for open_lo in (False, True) for open_hi in (False, True)
        ])
    best = Fraction(0)
    for combo in product(*intervals_per_axis):
        count = sum(
            all((lo < x if open_lo else lo <= x) and (x < hi if open_hi else x <= hi)
                for x, (lo, hi, open_lo, open_hi) in zip(pt, combo))
            for pt in nums
        )
        vol = math.prod(Fraction(hi - lo, den) for lo, hi, _, _ in combo)
        best = max(best, abs(Fraction(count, len(nums)) - vol))
    return best


def rational_points(rng, n, d, den):
    return [tuple(Fraction(rng.randrange(den), den) for _ in range(d)) for _ in range(n)]


def box_scan_oracle(nums, xs, ys, den2, n, dtype, closed):
    """The exhaustive scan the pruned discrepancy._box_scan replaced: one
    vectorised step per left edge a and chunk of right edges b, scoring every
    box with faces on the grid, in arrays of `dtype`."""
    table = discrepancy._prefix_counts(nums, xs, ys)
    xv = np.array(xs, dtype=dtype)
    yv = np.array(ys, dtype=dtype)
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
    dtype = object if n * den2 >= 2**62 else np.int64
    xs, ys, ex, ey = discrepancy._axes(nums, den)
    return [
        (discrepancy._box_scan(nums, gx, gy, den2, n, dtype, closed),
         box_scan_oracle(nums, gx, gy, den2, n, dtype, closed))
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

    @pytest.mark.parametrize("rows, u0, n, value", [
        ([[0, 1], [1, 1]], (1, 0), 1024, Fraction(439963871, 11019960576)),
        ([[0, 1], [1, 1]], (1, 0), 5000, Fraction(67409467, 4782969000)),
        ([[0, 1, 0], [0, 0, 1], [1, 1, 0]], (1, 2, 3), 512, Fraction(9126336135437, 144603922678272)),
    ], ids=["fib-1024", "fib-5000", "3x3-512"])
    def test_star_stream_mod_3_8(self, rows, u0, n, value):
        # frozen from the separate 1-, 2- and 3-D star routines this sweep replaced
        cfg = GeneratorConfig.create(IntMatrix.from_rows(rows), PrimePowerModulus(3, 8), u0)
        assert exact_discrepancy(fractional_points(cfg, n), kind="star").value == value

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

    def test_extreme_1d_random_sets(self):
        # den = 3^40 takes the object path of the strip kernel
        rng = random.Random(150)
        for den in (6, 12, 2**40, 3**40):
            for n in (1, 2, 3, 5, 9, 25) * 2:
                pool = [0, den - 1] + [rng.randrange(den) for _ in range(rng.randint(1, n))]
                pts = PointSet(tuple((rng.choice(pool),) for _ in range(n)), den, 1)
                assert exact_discrepancy(pts).value == extreme_discrepancy_bruteforce(pts)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_star_random_sets(self, d):
        # den = 2^40 takes the object path for d >= 2, den = 3^40 for every d
        rng = random.Random(200 + d)
        for den in (6, 12, 2**40, 3**40):
            for n in (1, 2, 3, 5, 9, 25):
                pool = [(0,) * d, tuple(0 if j else rng.randrange(den) for j in range(d))]
                pool += [tuple(rng.randrange(den) for _ in range(d)) for _ in range(rng.randint(1, n))]
                nums = [rng.choice(pool) for _ in range(n)]
                # brute force over the corner grid, scaled by n * den^d
                best = 0
                axes = [sorted({den, *(pt[j] for pt in nums)}) for j in range(d)]
                for corner in product(*axes):
                    le = sum(1 for pt in nums if all(x <= c for x, c in zip(pt, corner)))
                    lt = sum(1 for pt in nums if all(x < c for x, c in zip(pt, corner)))
                    vol = n * math.prod(corner)
                    best = max(best, le * den**d - vol, vol - lt * den**d)
                rep = exact_discrepancy(PointSet(tuple(nums), den, d), kind="star")
                assert rep.value == Fraction(best, n * den**d)

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

    @staticmethod
    def strips_scored(monkeypatch, nums, den) -> int:
        """Strips _strip_values scores in both scans of one 2-D set, each
        scan checked against the oracle."""
        scored = []
        strip_values = discrepancy._strip_values

        def spy(table, xv, yv, strips, *args):
            scored.append(len(strips[0]))
            return strip_values(table, xv, yv, strips, *args)

        monkeypatch.setattr(discrepancy, "_strip_values", spy)
        for pruned, oracle in scan_pairs(nums, den):
            assert pruned == oracle
        return sum(scored)

    def test_fib_256_strips_scored(self, fib, monkeypatch):
        # the upper bounds are scored first and only the blocks they leave
        # have their lower bound scored: 2862 strips here (scoring both
        # bounds of every block of a level scores 4344)
        pts = fractional_points(GeneratorConfig.create(fib, PrimePowerModulus(3, 8), (1, 0)), 256)
        assert self.strips_scored(monkeypatch, list(pts.nums), pts.den) <= 2862

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_deficit_scan_starts_from_the_excess(self, fib, monkeypatch, n):
        # _extreme_2d seeds the deficit scan's best value with the excess
        # value: the result is still the larger of the two, the exhaustive
        # scan's value, and the seeded scan scores no more strips
        pts = fractional_points(GeneratorConfig.create(fib, PrimePowerModulus(3, 8), (1, 0)), n)
        nums, den = list(pts.nums), pts.den
        den2, dtype = den * den, np.int64
        xs, ys, ex, ey = discrepancy._axes(nums, den)
        excess = discrepancy._box_scan(nums, xs, ys, den2, n, dtype, True)
        scored = []
        strip_values = discrepancy._strip_values

        def spy(table, xv, yv, strips, *args):
            scored[-1] += len(strips[0])
            return strip_values(table, xv, yv, strips, *args)

        monkeypatch.setattr(discrepancy, "_strip_values", spy)
        values = []
        for best in (0, excess):
            scored.append(0)
            values.append(discrepancy._box_scan(nums, ex, ey, den2, n, dtype, False, best))
        unseeded, seeded = scored
        assert seeded <= unseeded
        assert values[1] == max(excess, values[0])
        value = exact_discrepancy(pts).value
        assert value == Fraction(values[1], n * den2)
        monkeypatch.setattr(discrepancy, "BOX_BLOCK_CAP", 1)
        assert exact_discrepancy(pts).value == value

    def test_block_cap_one_scores_every_pair(self, monkeypatch):
        # the reference switch: blocks of one pair from the start, the
        # exhaustive scan, scoring each closed pair a <= b and open pair a < b once
        sets, den = structured_sets(64)
        nums = sets["grid"]
        monkeypatch.setattr(discrepancy, "BOX_BLOCK_CAP", 1)
        xs, _, ex, _ = discrepancy._axes(nums, den)
        pairs = len(xs) * (len(xs) + 1) // 2 + len(ex) * (len(ex) - 1) // 2
        assert self.strips_scored(monkeypatch, nums, den) == pairs

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
    """int64 arithmetic is used while n * den^d < 2^62, Python ints beyond."""

    @pytest.mark.parametrize(
        "d, kind", [(1, "extreme"), (1, "star"), (2, "extreme"), (2, "star"), (3, "star")]
    )
    def test_scale_invariance_across_object_boundary(self, kind, d):
        rng = random.Random(400 + d)
        den, n = 97, 30
        nums = [tuple(rng.randrange(den) for _ in range(d)) for _ in range(n - 4)]
        nums += [nums[0], nums[1], (0,) * d, (0,) + (den - 1,) * (d - 1)]
        # the objective is scaled by n * den^d; scales c - 1 and c straddle 2^62
        q = n * den**d
        c = round((2**62 / q) ** (1 / d))
        while q * c**d >= 2**62:
            c -= 1
        while q * c**d < 2**62:
            c += 1
        assert q * (c - 1) ** d < 2**62 <= q * c**d
        base = exact_discrepancy(PointSet(tuple(nums), den, d), kind=kind).value
        for scale in (c - 1, c, c * 3**20):
            scaled = PointSet(tuple(tuple(x * scale for x in pt) for pt in nums), den * scale, d)
            assert exact_discrepancy(scaled, kind=kind).value == base

    @pytest.mark.parametrize("above, dtype", [(False, np.int64), (True, object)])
    def test_box_scan_dtype_edge(self, above, dtype, monkeypatch):
        # two points: every value a 2-D scan forms lies below 2 n den^2 =
        # 4 den^2, which is just below 2^63 at den = isqrt(2^61 - 1) and
        # just above it at den + 1
        den = math.isqrt(2**61 - 1) + above
        assert (4 * den * den < 2**63) is not above
        seen = []
        box_scan = discrepancy._box_scan

        def spy(nums, xs, ys, den2, n, dtype, closed, best=0):
            seen.append(np.dtype(dtype))
            return box_scan(nums, xs, ys, den2, n, dtype, closed, best)

        monkeypatch.setattr(discrepancy, "_box_scan", spy)
        points = PointSet(((1, den - 1), (den - 2, 3)), den, 2)
        value = exact_discrepancy(points).value
        assert seen == [np.dtype(dtype)] * 2
        assert value == extreme_discrepancy_bruteforce(points)


class TestGuards:
    def test_extreme_d3_rejected(self):
        pts = [(Fraction(0), Fraction(0), Fraction(0))]
        with pytest.raises(ResourceGuardError, match="^extreme_dimension: 3, limit 2$"):
            exact_discrepancy(pts, kind="extreme")

    def test_star_d4_rejected(self):
        pts = [tuple(Fraction(0) for _ in range(4))]
        with pytest.raises(ResourceGuardError, match="^star_dimension: 4, limit 3$"):
            exact_discrepancy(pts, kind="star")

    def test_too_many_points(self):
        pts = [(Fraction(i, 8192),) for i in range(5000)]
        with pytest.raises(ResourceGuardError, match="^extreme_points: 5000, limit 4096$"):
            exact_discrepancy(pts)

    def test_star_2d_beyond_extreme_cap(self, fib):
        cfg = GeneratorConfig.create(fib, PrimePowerModulus(3, 8), (1, 0))
        rep = exact_discrepancy(fractional_points(cfg, 5000), kind="star")
        assert rep.n == 5000 > discrepancy.EXTREME_POINT_CAP
        assert 0 < rep.value <= 1 and rep.extreme_upper_bound == 4 * rep.value

    def test_star_2d_table_guard_fires_before_allocating(self):
        # 12000 distinct coordinates per axis: 12000^2 grid cells to sweep,
        # over the 2^27 cap
        n = 12000
        pts = PointSet(tuple((i, (7 * i) % n) for i in range(n)), n, 2)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceGuardError, match="^star_cells: "):
                exact_discrepancy(pts, kind="star")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_star_2d_peak_is_small(self, fib):
        # the sweep holds a few arrays over one axis, not an N x N table
        cfg = GeneratorConfig.create(fib, PrimePowerModulus(3, 8), (1, 0))
        pts = fractional_points(cfg, 5000)
        tracemalloc.start()
        try:
            exact_discrepancy(pts, kind="star")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("chunk_elems", [None, 5000])
    @pytest.mark.parametrize("n, den", [(400, 400), (2000, 2000), (200, 2**40)])
    def test_star_2d_estimate_bounds_peak(self, monkeypatch, chunk_elems, n, den):
        # the 2-D sweep's peak is linear in N, on the int64 and the object
        # path alike, and independent of the box scans' chunk size; an N x N
        # count table would need 4 * N^2 bytes
        if chunk_elems is not None:
            monkeypatch.setattr(discrepancy, "_CHUNK_ELEMS", chunk_elems)
        rng = random.Random(n)
        pts = PointSet(tuple((rng.randrange(den), rng.randrange(den)) for _ in range(n)), den, 2)
        tracemalloc.start()
        try:
            exact_discrepancy(pts, kind="star")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 512 * n + 2**16

    def test_star_3d_cap(self):
        # 513 distinct coordinates on every axis: 513^3 > 2^27 cells
        pts = PointSet(tuple((i, 5 * i % 513, 7 * i % 513) for i in range(513)), 513, 3)
        with pytest.raises(ResourceGuardError, match="^star_cells: "):
            exact_discrepancy(pts, kind="star")

    def test_star_guard_counts_padded_grid_cells(self):
        # one distinct value on an axis: 11000 x 11000 x 1 distinct
        # coordinates, but the sweep over the first axis touches
        # 11000 * 11002 * 3 cells of the zero- and den-padded grid
        n = 11000
        pts = PointSet(tuple((0, i, 7 * i % n) for i in range(n)), n, 3)
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(ResourceGuardError, match="^star_cells: 363066000, limit 134217728$"):
                exact_discrepancy(pts, kind="star")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert time.perf_counter() - start < 2

    @pytest.mark.parametrize("d, side", [(2, 11585), (3, 511)])
    def test_star_cap_side_limits(self, d, side):
        # K (K + 2)^(d - 1) > 2^27 from K = 11 585 in 2-D and K = 511 in 3-D
        pts = PointSet(tuple((i, 3 * i % side, 11 * i % side)[:d] for i in range(side)), side, d)
        with pytest.raises(ResourceGuardError, match="^star_cells: "):
            exact_discrepancy(pts, kind="star")
        assert (side - 1) * (side + 1) ** (d - 1) <= discrepancy.STAR_WORK_CAP

    def test_star_3d_cap_counts_distinct_coordinates(self):
        # 513 points, but at most 450 distinct coordinates a side
        pts = PointSet(tuple((i % 450, 5 * i % 449, 7 * i % 450) for i in range(513)), 513, 3)
        rep = exact_discrepancy(pts, kind="star")
        assert rep.n == 513 and 0 < rep.value <= 1


class TestBoxCounts:
    def test_quadrant(self, fib):
        cfg = GeneratorConfig.create(fib, PrimePowerModulus(3, 2), (1, 0))
        pts = fractional_points(cfg, 8)
        (bc,) = box_counts(pts, [[[Fraction(0), Fraction(1, 2)], [Fraction(0), Fraction(1, 2)]]])
        manual = sum(1 for x, y in pts.nums if 2 * x <= pts.den and 2 * y <= pts.den)
        assert bc.count == manual
        assert bc.volume == Fraction(1, 4)

    @pytest.mark.parametrize("d, den", [(1, 7), (2, 81), (3, 16), (2, 3**40)])
    def test_matches_the_fraction_loop(self, d, den):
        # bounds on the points' own coordinates (closed faces), between them,
        # outside [0, 1] and with lo > hi; den = 3^40 takes the object path
        rng = random.Random(700 + d)
        nums = [tuple(rng.randrange(den) for _ in range(d)) for _ in range(60)]
        pts = PointSet(tuple(nums), den, d)

        def edge():
            kind = rng.randrange(4)
            if kind == 0:
                return Fraction(rng.choice(nums)[rng.randrange(d)], den)
            if kind == 1:
                return Fraction(rng.randrange(-2, 3 * den), 2 * den + rng.randrange(3))
            return Fraction(rng.randrange(-3, 9), rng.randrange(1, 7))

        boxes = [[[edge(), edge()] for _ in range(d)] for _ in range(300)]
        for bc, box in zip(box_counts(pts, boxes), boxes):
            assert bc.bounds == tuple((lo, hi) for lo, hi in box)
            assert bc.count == sum(
                all(lo <= Fraction(x, den) <= hi for x, (lo, hi) in zip(pt, box)) for pt in nums
            )
            assert bc.volume == math.prod((hi - lo for lo, hi in box), start=Fraction(1))
        assert len({bc.count for bc in box_counts(pts, boxes)}) > 5

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="box dimension mismatch"):
            box_counts([(Fraction(0), Fraction(0))], [[[0, 1]]])

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
