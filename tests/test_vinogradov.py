import time
import tracemalloc
from fractions import Fraction
from math import factorial

import pytest

import matprng.analysis.vinogradov as vinogradov
from matprng import stream
from matprng.analysis.bounds import ford_bound
from matprng.analysis.vinogradov import _enumeration_bytes, vinogradov_count, vinogradov_count_naive
from matprng.arith import STREAM_MEMORY_BUDGET
from matprng.errors import ResourceGuardError


class TestKnownCounts:
    def test_n_1_1_of_2(self):
        assert vinogradov_count(1, 1, 2) == 2  # only x1 = y1

    def test_n_2_1_of_2(self):
        # exhaustive over 16 tuples: sums 2,3,3,4 -> 1 + 4 + 1 = 6
        assert vinogradov_count(2, 1, 2) == 6

    def test_n_2_2_of_2(self):
        assert vinogradov_count(2, 2, 2) == 6  # multiset equality forced

    def test_bad_args(self):
        with pytest.raises(ValueError):
            vinogradov_count(0, 1, 2)

    def test_guards(self):
        with pytest.raises(ResourceGuardError, match="^multiset_bytes: "):
            vinogradov_count(30, 1, 10)
        with pytest.raises(ResourceGuardError, match=f"^naive_tuples: {10**30}, limit {10**8}$"):
            vinogradov_count_naive(15, 1, 10)

    def test_naive_guard_is_read_at_each_call(self, monkeypatch):
        assert vinogradov_count_naive(2, 1, 2) == 6
        monkeypatch.setattr(vinogradov, "DEFAULT_ENUMERATION_GUARD", 15)
        with pytest.raises(ResourceGuardError, match="^naive_tuples: 16, limit 15$"):
            vinogradov_count_naive(2, 1, 2)

    def test_naive_guard_names_no_huge_power(self):
        # 2^16000 has more digits than the interpreter converts to str
        with pytest.raises(ResourceGuardError, match="^naive_tuples: an integer of 16001 bits, limit 100000000$"):
            vinogradov_count_naive(8000, 1, 2)

    @pytest.mark.parametrize("k, r", [(2, 1), (2, 2), (16, 16)])
    def test_byte_guard_fires_before_allocation(self, k, r):
        # the least M whose estimate is over the 2^30-byte budget
        m = 1
        while _enumeration_bytes(k, r, m + 1) <= STREAM_MEMORY_BUDGET:
            m += 1
        tracemalloc.start()
        try:
            with pytest.raises(ResourceGuardError, match="^multiset_bytes: "):
                vinogradov_count(k, r, m + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_huge_k_and_m_refused_at_once(self):
        # C(2 10^8 - 1, 10^8) multisets: refused before M^k is formed
        start = time.perf_counter()
        with pytest.raises(ResourceGuardError, match="^multiset_bytes: "):
            vinogradov_count(10**8, 1, 10**8)
        assert time.perf_counter() - start < 0.1

    # c = min(r, k) < k groups the multisets, c = k does not
    @pytest.mark.parametrize(
        "k, r, m",
        [(1, 1, 5000), (2, 2, 1000), (2, 1, 1000), (3, 1, 100), (3, 2, 100), (4, 4, 20), (8, 4, 6),
         (8, 8, 4), (12, 12, 3), (16, 16, 2), (16, 16, 3)],
    )
    def test_estimate_bounds_peak(self, k, r, m):
        assert traced_peak(k, r, m) <= _enumeration_bytes(k, r, m)

    @pytest.mark.parametrize("k, r, m", [(1, 1, 5000), (2, 2, 1000), (2, 1, 1000), (3, 2, 100), (8, 4, 6)])
    def test_estimate_bounds_peak_on_exact_ints(self, k, r, m, monkeypatch):
        monkeypatch.setattr(stream, "INT64_EDGE", 0)  # every key and weight an exact int
        assert traced_peak(k, r, m) <= _enumeration_bytes(k, r, m)


def traced_peak(k, r, m):
    tracemalloc.start()
    try:
        vinogradov_count(k, r, m)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAgainstNaive:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_agreement(self, k, r, m):
        assert vinogradov_count(k, r, m) == vinogradov_count_naive(k, r, m)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_m_one(self, k):
        for r in (1, 2, k + 1):
            assert vinogradov_count(k, r, 1) == vinogradov_count_naive(k, r, 1) == 1

    def test_m_one_is_immediate(self):
        # the only tuple pair is all ones, whatever k: no enumeration
        start = time.perf_counter()
        assert vinogradov_count(10**8, 3, 1) == 1
        assert time.perf_counter() - start < 0.1

    def test_agreement_larger_m(self):
        for m in (6, 7, 8):
            assert vinogradov_count(2, 2, m) == vinogradov_count_naive(2, 2, m)

    # r > k: only p_1 .. p_k enter the grouping key (Newton's identities)
    @pytest.mark.parametrize(
        "k, r, m", [(1, 4, 9), (2, 3, 9), (2, 5, 12), (3, 4, 7), (3, 6, 6), (4, 6, 4), (4, 5, 5)]
    )
    def test_agreement_r_above_k(self, k, r, m):
        assert vinogradov_count(k, r, m) == vinogradov_count_naive(k, r, m)

    @pytest.mark.parametrize("k, m", [(5, 7), (16, 3), (16, 8)])
    def test_r_at_least_k_counts_permuted_pairs(self, k, m):
        # for r >= k, y solves iff it permutes x: the count is the sum over
        # multisets of (k!/prod mult!)^2 = (k!)^2 [t^k] (sum_j t^j/(j!)^2)^M,
        # past 2^63 at (16, 16, 8)
        series = [Fraction(1)] + [Fraction(0)] * k
        for _ in range(m):
            series = [sum(series[i - j] / factorial(j) ** 2 for j in range(i + 1)) for i in range(k + 1)]
        assert vinogradov_count(k, k, m) == factorial(k) ** 2 * series[k]

    @pytest.mark.parametrize("k, r, m", [(2, 1, 9), (3, 2, 7), (4, 4, 6), (8, 4, 6), (16, 16, 3)])
    def test_exact_ints_give_the_same_counts(self, k, r, m, monkeypatch):
        want = vinogradov_count(k, r, m)
        monkeypatch.setattr(stream, "INT64_EDGE", 0)
        assert vinogradov_count(k, r, m) == want


class TestStructure:
    @pytest.mark.parametrize("k,r,m", [(1, 1, 5), (2, 1, 4), (2, 2, 6), (3, 2, 4)])
    def test_diagonal_lower_bound(self, k, r, m):
        assert vinogradov_count(k, r, m) >= m**k

    def test_symmetric_upper_bound(self):
        for k, r, m in ((2, 1, 4), (2, 2, 5), (3, 3, 3)):
            assert vinogradov_count(k, r, m) <= m ** (2 * k)

    @pytest.mark.parametrize("k,m", [(2, 4), (2, 6), (3, 3)])
    def test_moments_determine_multisets(self, k, m):
        # for r >= k the power sums pin down the multiset, so the count
        # stabilizes
        base = vinogradov_count(k, k, m)
        for r in range(k, k + 3):
            assert vinogradov_count(k, r, m) == base
        assert vinogradov_count_naive(k, k, m) == base


class TestFordComparison:
    def test_bound_dominates_when_hypothesis_granted(self):
        # with the c0 knob at 1 the validity flag is granted for r >= d and
        # the (enormous) bound must dominate the exact count
        for k, r, m in ((2, 2, 4), (3, 2, 6), (3, 3, 5)):
            bound = ford_bound(r, 2, m, c0=1)
            assert bound.valid
            assert vinogradov_count(k, r, m) <= bound.value

    def test_comparison_reported_not_asserted_below_threshold(self):
        bound = ford_bound(2, 2, 4)  # default c0 = 1000
        assert not bound.valid  # reported; nothing asserted about order
        # 4 equal pairs + 6 two-element multisets with 2 arrangements each:
        # 4 * 1 + 6 * 4 = 28
        assert vinogradov_count(2, 2, 4) == 28
