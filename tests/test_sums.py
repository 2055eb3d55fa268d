import cmath
import itertools
import math
import random
import tracemalloc

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import matprng.analysis.sums as sums
from matprng import padic, stream
from matprng.arith import IntMatrix, PrimePowerModulus, vec_dot
from matprng.errors import (
    DegenerateMatrixError,
    PreconditionViolatedError,
    ResourceGuardError,
)
from matprng.generator import GeneratorConfig
from matprng.analysis.sums import (
    _EXACT_SUM_CHUNK,
    _HISTOGRAM_LIMIT,
    _angles,
    _exact_parts,
    _exact_sums,
    _phase_terms,
    _product_multiplicities,
    _rounded,
    _row_sums,
    double_sum_sigma,
    exp_sum,
    exp_sums,
    full_period_exponent,
    korobov_reduction_check,
    korobov_reduction_residual,
    phase_sum,
    scalar_residues,
)
from matprng.padic import order_mod, order_sequence, period_profile, theta_matrix
from matprng.stream import mat_stream


@pytest.fixture
def cfg(fib) -> GeneratorConfig:
    return GeneratorConfig.create(fib, PrimePowerModulus(3, 4), (1, 0), (1, 0), level="thm1")


def reference_sum(cfg: GeneratorConfig, n: int) -> complex:
    mod = cfg.m.modulus
    xs = scalar_residues(cfg, n)
    return sum(cmath.exp(2j * math.pi * int(x) / mod) for x in xs)


class TestScalarResidues:
    def test_fast_path_matches_iteration(self, cfg):
        fast = scalar_residues(cfg, 300)
        state_u = cfg.u0
        expected = []
        from matprng.arith import mat_vec_mod, vec_dot

        u = cfg.u0
        for _ in range(300):
            expected.append(vec_dot(cfg.v, u) % 81)
            u = mat_vec_mod(cfg.a, u, cfg.m)
        assert fast.tolist() == expected

    def test_offset(self, cfg):
        full = scalar_residues(cfg, 50)
        tail = scalar_residues(cfg, 30, n0=20)
        assert full[20:].tolist() == tail.tolist()

    def test_big_modulus_path(self, fib):
        big = GeneratorConfig.create(fib, PrimePowerModulus(3, 40), (1, 0), (1, 0))
        xs = scalar_residues(big, 10)
        assert isinstance(xs, list)
        small = scalar_residues(
            GeneratorConfig.create(fib, PrimePowerModulus(3, 4), (1, 0), (1, 0)), 10
        )
        assert [x % 81 for x in xs] == small.tolist()


class TestExpSum:
    def test_single_term(self, cfg):
        assert exp_sum(cfg, 1).abs_value == pytest.approx(1.0)

    def test_zero_v_gives_n(self, fib):
        zero_v = GeneratorConfig.create(fib, PrimePowerModulus(3, 4), (1, 0), (0, 0))
        with pytest.warns(RuntimeWarning):
            rep = exp_sum(zero_v, 37)
        assert rep.value == pytest.approx(37.0 + 0.0j)

    def test_methods_agree(self, cfg, monkeypatch):
        hist = exp_sum(cfg, 500)
        monkeypatch.setattr(sums, "_HISTOGRAM_LIMIT", 0)
        direct = exp_sum(cfg, 500)
        assert (hist.method, direct.method) == ("histogram", "direct")
        assert_same_complex(hist.value, direct.value)

    def test_matches_reference(self, cfg):
        rep = exp_sum(cfg, 123)
        assert rep.value == pytest.approx(reference_sum(cfg, 123), abs=1e-10)

    def test_abs_at_most_n(self, cfg):
        for n in (1, 7, 50, 216):
            rep = exp_sum(cfg, n)
            assert rep.abs_value <= n + 1e-9

    def test_rho(self, cfg):
        rep = exp_sum(cfg, 81)
        assert rep.rho == pytest.approx(1.0)

    def test_golden_fib_full_period(self, cfg):
        # frozen from the first oracle run (direct summation, verified
        # against the histogram method): |S(tau_4)| for the archive config
        rep = exp_sum(cfg, 216)
        assert rep.abs_value == pytest.approx(14.643937264733399, abs=1e-9)
        envelope = 216 ** (0.5 + 0.5 * (1 - 0.5))
        assert rep.abs_value < envelope


class TestBlockedExpSum:
    """exp_sum folds the stream a block at a time: its values cannot depend
    on where the blocks end, and it holds one block, not N residues."""

    CONFIGS = {
        "fib_3_13": ([[0, 1], [1, 1]], 3, 13, (314, 2718), (2, 7), 20000),
        "cubic_3_40": ([[0, 1, 0], [0, 0, 1], [1, 1, 0]], 3, 40, (31415926535, 27182818284, 16180339887),
                       (2, 7, 1), 9000),
    }

    @staticmethod
    def config(name):
        rows, p, t, u0, v, n = TestBlockedExpSum.CONFIGS[name]
        return GeneratorConfig(IntMatrix.from_rows(rows), PrimePowerModulus(p, t), u0, v), n

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_values_do_not_depend_on_the_block_size(self, name, monkeypatch):
        cfg, n = self.config(name)
        want = repr(exp_sum(cfg, n).value)
        for limit in (_HISTOGRAM_LIMIT, 0):
            monkeypatch.setattr(sums, "_HISTOGRAM_LIMIT", limit)
            for block in (1, 7, 4096):
                monkeypatch.setattr(stream, "STREAM_BLOCK", block)
                assert repr(exp_sum(cfg, n).value) == want, (limit, block)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("p, t, n, method, limit", [
        # the count array of 3^13 bins is 12.7 MB; the parent also held the
        # stream and the occupied bins (42.7 MB traced)
        (3, 13, 4 * 10**6, "histogram", 8 * 3**13 + 8 * 2**20),
        # 10^5 exact ints below 3^40
        (3, 40, 10**5, "direct", 8 * 2**20),
    ])
    def test_memory_is_bounded_by_a_block(self, p, t, n, method, limit):
        cfg = GeneratorConfig(IntMatrix.from_rows([[0, 1], [1, 1]]), PrimePowerModulus(p, t), (314, 2718), (2, 7))
        assert exp_sum(cfg, 5000).method == method
        tracemalloc.start()
        try:
            exp_sum(cfg, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_histogram_scans_bins_up_to_the_largest_residue(self, monkeypatch):
        # ten residues below 1000 mod 2^24: the scan stops there, not at 2^24
        cfg = GeneratorConfig(IntMatrix.from_rows([[0, 1], [1, 1]]), PrimePowerModulus(2, 24), (1, 2), (3, 5))
        scanned = []
        terms = sums._histogram_terms
        monkeypatch.setattr(sums, "_histogram_terms", lambda counts, mod: scanned.append(len(counts)) or terms(counts, mod))
        got = exp_sum(cfg, 10)
        assert got.method == "histogram"
        assert 1 <= scanned[0] <= 1000
        monkeypatch.setattr(sums, "_HISTOGRAM_LIMIT", 0)
        assert_same_complex(got.value, exp_sum(cfg, 10).value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestSchedule:
    """exp_sums streams max(N) once for a whole schedule, and each of its
    reports is the one exp_sum gives for that N alone, bit for bit."""

    @pytest.mark.parametrize("name", sorted(TestBlockedExpSum.CONFIGS))
    @pytest.mark.parametrize("limit", [_HISTOGRAM_LIMIT, 0], ids=["histogram", "direct"])
    @pytest.mark.parametrize("block", [7, 4096, stream.STREAM_BLOCK])
    def test_each_n_as_if_summed_alone(self, name, limit, block, monkeypatch):
        cfg, n = TestBlockedExpSum.config(name)
        monkeypatch.setattr(sums, "_HISTOGRAM_LIMIT", limit)
        monkeypatch.setattr(stream, "STREAM_BLOCK", block)
        # out of order, repeated, at and next to block and chunk ends
        schedule = [n, 64, 64, 1, _EXACT_SUM_CHUNK + 1, 4096, 4095, n - 1]
        got = exp_sums(cfg, schedule)
        assert [rep.n for rep in got] == schedule
        assert [rep.method for rep in got] == [exp_sum(cfg, 1).method] * len(schedule)
        for rep in got:
            alone = exp_sum(cfg, rep.n)
            assert rep._replace(value=None) == alone._replace(value=None)
            assert_same_complex(rep.value, alone.value)

    def test_one_stream_of_the_largest_n(self, monkeypatch):
        cfg, _ = TestBlockedExpSum.config("fib_3_13")
        calls = []
        blocks = sums.stream_blocks
        monkeypatch.setattr(sums, "stream_blocks", lambda *args: calls.append(args[3:5]) or blocks(*args))
        exp_sums(cfg, [300, 5000, 20])
        assert calls == [(5000, 0)]

    @pytest.mark.parametrize("schedule", [[], [5, 0]])
    def test_every_n_must_be_positive(self, cfg, schedule):
        with pytest.raises(ValueError, match="N must be >= 1"):
            exp_sums(cfg, schedule)


MATRICES = ([[0, 1], [1, 1]], [[1, 2], [1, 1]], [[0, 1, 0], [0, 0, 1], [1, 1, 0]])
PRIMES = (2, 3, 5, 7, 11, 13, 4093)


@st.composite
def exp_sum_configs(draw):
    """A generator with p^t on either side of _HISTOGRAM_LIMIT (2^24)."""
    rows = draw(st.sampled_from(MATRICES))
    p = draw(st.sampled_from(PRIMES))
    t_max = 1
    while p ** (t_max + 1) <= _HISTOGRAM_LIMIT:
        t_max += 1
    t = draw(st.integers(1, t_max + 3))
    d = len(rows)
    u0 = draw(st.lists(st.integers(0, 10**6), min_size=d, max_size=d))
    v = draw(st.lists(st.integers(0, 10**6), min_size=d, max_size=d))
    return GeneratorConfig.create(IntMatrix.from_rows(rows), PrimePowerModulus(p, t), u0, v)


class TestHistogramAgainstDirect:
    @given(
        exp_sum_configs(),
        st.one_of(
            st.sampled_from([1, 4095, 4096, 4097, 8191, 8192, 8193, 12289, 16383, 16384, 16385]),
            st.integers(1, 20000),
        ),
    )
    @settings(max_examples=60, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_same_float_as_phase_sum(self, cfg, n):
        # the histogram weighs each bin by its count exactly, so both paths
        # return the exactly rounded sum of the N unit terms
        want = phase_sum(mat_stream(cfg.a, cfg.u0, cfg.m, n, 0, cfg.v), cfg.m.modulus)
        for limit in (_HISTOGRAM_LIMIT, 0):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(sums, "_HISTOGRAM_LIMIT", limit)
                assert_same_complex(exp_sum(cfg, n).value, want)


class TestFullPeriodExponent:
    def test_rows_above_the_config_t_lift_the_given_start_vector(self, fib):
        # u0 = (100, 0) is (19, 0) mod 3^4: a t = 6 row from the t = 4 config
        # must lift u0 as given, not 19, and read as the t = 6 config's row
        low = GeneratorConfig.create(fib, PrimePowerModulus(3, 4), (100, 0), (1, 0))
        high = GeneratorConfig.create(fib, PrimePowerModulus(3, 6), (100, 0), (1, 0))
        (row,) = full_period_exponent(low, [6])
        assert [row] == full_period_exponent(high, [6])
        assert row.abs_value == pytest.approx(52.1449, abs=1e-4)
        assert full_period_exponent(low, [4]) == full_period_exponent(high, [4])

    def test_one_order_sequence_same_rows(self, cfg, monkeypatch):
        # the rows of building period_profile(a, p, t) afresh for every t
        # (t and tau exactly, |S| and theta within exp_sum's error bound)
        t_range = range(2, 8)
        expected = []
        for t in t_range:
            tau = period_profile(cfg.a, 3, t).tau(t)
            rep = exp_sum(cfg.at_exponent(t), tau)
            expected.append((t, tau, rep))
        calls = []

        def counted(*args):
            calls.append(args)
            return period_profile(*args)

        monkeypatch.setattr(padic, "period_profile", counted)
        rows = full_period_exponent(cfg, t_range)
        assert [(r.t, r.tau) for r in rows] == [(t, tau) for t, tau, _ in expected]
        for row, (_, tau, rep) in zip(rows, expected):
            assert abs(row.abs_value - rep.abs_value) <= rep.error_bound
            theta = math.log(rep.abs_value) / math.log(tau)
            assert abs(row.theta - theta) <= rep.error_bound / rep.abs_value / math.log(tau)
        assert calls == [(cfg.a, 3, 2)]
        assert full_period_exponent(cfg, []) == []

    def test_guard_stops_before_deeper_orders(self, cfg, monkeypatch):
        # tau_8 = 17496 is the first order of Fibonacci mod 3^t over 10^4, and
        # t = 15 the first row that sums tau_s = tau_8 terms (s = ceil(t/2));
        # no order past t = 15 may be computed, however far t_range reaches
        drawn = []

        def counted(a, p):
            for tau in order_sequence(a, p):
                drawn.append(tau)
                yield tau

        def shallow(a, p, s_max):
            assert s_max <= 8
            start = len(drawn)
            profile = period_profile(a, p, s_max)
            del drawn[start:]  # the orders of the profile's own sequence
            return profile

        monkeypatch.setattr(padic, "order_sequence", counted)
        monkeypatch.setattr(padic, "period_profile", shallow)
        monkeypatch.setattr(sums, "TAU_GUARD", 10**4)
        with pytest.raises(ResourceGuardError, match="^full_period_terms: 17496, limit 10000$"):
            full_period_exponent(cfg, range(2, 10**5))
        assert drawn == [8 * 3 ** (s - 1) for s in range(1, 16)]

    def test_finite_order_degenerate(self):
        identity = GeneratorConfig.create(IntMatrix.identity(2), PrimePowerModulus(3, 4), (1, 0), (1, 0))
        with pytest.raises(DegenerateMatrixError):
            full_period_exponent(identity, range(2, 5))

    def test_reference_slope_d2(self, cfg):
        rows = full_period_exponent(cfg, range(4, 6))
        assert [r.tau for r in rows] == [216, 648]
        for row in rows:
            assert row.theta <= 0.5 + 0.2

    def test_guard(self, cfg, monkeypatch):
        monkeypatch.setattr(sums, "TAU_GUARD", 10**6)
        with pytest.raises(ResourceGuardError, match="^full_period_terms: "):
            full_period_exponent(cfg, [30])

    def test_guard_raises_before_anything_is_streamed(self, cfg, monkeypatch):
        # t = 9 sums tau_5 = 648 terms
        streamed = []
        for kernel in ("mat_stream", "stream_blocks"):
            monkeypatch.setattr(sums, kernel, lambda *args: streamed.append(args))
        monkeypatch.setattr(sums, "TAU_GUARD", 647)
        with pytest.raises(ResourceGuardError, match="^full_period_terms: 648, limit 647$"):
            full_period_exponent(cfg, [9])
        assert streamed == []

    @pytest.mark.parametrize("t_range", [range(0, 3), [2, -1]])
    def test_t_below_1_names_t_range(self, cfg, t_range):
        with pytest.raises(ValueError, match="t_range"):
            full_period_exponent(cfg, t_range)


# (rows of A, p, t range): d = 2 and 3 for p = 2, 3, 5, and three matrices
# with s* > 1, each at t = s*..2s*+3 (range None); then I + 2^16 F at
# t = 32..35, where d p^(2t) >= 2^63 puts the stream on exact ints (with
# F = [[1, 1], [-2, 0]] every tau_s term is kept and |S(tau_t)| = tau_t)
LIFT_CASES = [
    ([[0, 1], [1, 1]], 2, None),
    ([[0, 1], [1, 1]], 3, None),
    ([[0, 1], [1, 1]], 5, None),
    ([[0, 1, 0], [0, 0, 1], [1, 1, 0]], 2, None),
    ([[0, 1, 0], [0, 0, 1], [1, 1, 0]], 3, None),
    ([[0, 1, 0], [0, 0, 1], [1, 1, 0]], 5, None),
    ([[0, 1], [-1, -3]], 2, None),  # orders 3, 6, 6, 12, ...: s* = 3
    ([[0, 1], [1, 5]], 3, None),  # orders 8, 8, 8, 24, ...: s* = 3
    ([[1, 2048], [2048, 2049]], 2, None),  # I + 2^11 F: s* = 11, and p^25 > 2^24
    ([[1 + 2**16, 2**16], [-(2**17), 1]], 2, range(32, 36)),  # F = [[1, 1], [-2, 0]]
]


def lifted_period_sum_whole(cfg: GeneratorConfig, s: int, tau_s: int, tau_t: int) -> complex:
    """The reference for `sums._lifted_period_sum`: the same sum with the
    selection and the phase stream each held whole, as mat_stream returns
    them mod p^t."""
    m, t = cfg.m, cfg.m.t
    q = m.p ** (t - s)
    b = theta_matrix(cfg.a, m.p, s, tau_s, t)
    vb = [vec_dot(cfg.v, column) for column in zip(*b.entries)]
    keep = mat_stream(cfg.a, cfg.u0, m, tau_s, 0, vb) % q == 0
    x = mat_stream(cfg.a, cfg.u0, m, tau_s, 0, cfg.v)[keep]
    return tau_t // tau_s * phase_sum(x, m.modulus)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestLiftedPeriodSum:
    """S(tau_t) from tau_s terms, s = ceil(t/2), against exp_sum over all
    tau_t terms."""

    @staticmethod
    def _case(rows, p, t_range):
        """The t range (s*..2s*+3 when None), the orders tau_1 .. tau_t up to
        its last t, and the generator mod p^t as a function of t."""
        a = IntMatrix.from_rows(rows)
        if t_range is None:
            s_star = period_profile(a, p, 1).s_star
            t_range = range(s_star, 2 * s_star + 4)
        taus = period_profile(a, p, t_range[-1]).taus
        u0, v = tuple(range(1, a.d + 1)), tuple(range(2, a.d + 2))
        return t_range, taus, lambda t: GeneratorConfig(a, PrimePowerModulus(p, t), u0, v)

    @pytest.mark.parametrize("rows, p, t_range", LIFT_CASES)
    def test_matches_exp_sum(self, rows, p, t_range, monkeypatch):
        t_range, taus, at = self._case(rows, p, t_range)
        fp_rows = full_period_exponent(at(t_range[-1]), t_range)
        assert [(row.t, row.tau) for row in fp_rows] == [(t, taus[t - 1]) for t in t_range]
        for t, row in zip(t_range, fp_rows):
            cfg, tau, s = at(t), taus[t - 1], (t + 1) // 2
            lifted = sums._lifted_period_sum(cfg, s, taus[s - 1], tau)
            ref = exp_sum(cfg, tau)
            assert abs(lifted - ref.value) <= ref.error_bound, t
            assert abs(row.abs_value - ref.abs_value) <= ref.error_bound, t
            if ref.method == "histogram":
                with monkeypatch.context() as patch:
                    patch.setattr(sums, "_HISTOGRAM_LIMIT", 0)
                    assert_same_complex(exp_sum(cfg, tau).value, ref.value)

    def test_cases_cover_both_sides_of_2s_t_several_periods_and_every_path(self):
        seen = set()
        for rows, p, t_range in LIFT_CASES:
            t_range, taus, at = self._case(rows, p, t_range)
            for t in t_range:
                s, cfg = (t + 1) // 2, at(t)
                seen.add("2s = t" if 2 * s == t else "2s > t")
                one = taus[t - 1] == taus[s - 1] * p ** (t - s)
                seen.add("one period" if one else "several periods")
                seen.add("direct" if cfg.m.modulus > _HISTOGRAM_LIMIT else "histogram")
                exact = isinstance(scalar_residues(cfg, 1), list)
                seen.add("exact ints" if exact else "int64")
        assert seen == {
            "2s = t", "2s > t", "one period", "several periods",
            "direct", "histogram", "exact ints", "int64",
        }

    @pytest.mark.parametrize("rows, p, t", [
        ([[0, 1], [1, 5]], 3, 3),  # tau_3 = tau_2 = 8
        ([[0, 1], [1, 5]], 3, 4),  # tau_4 = 24 = tau_2 * 3
        ([[0, 1], [-1, -3]], 2, 3),  # tau_3 = tau_2 = 6
        ([[1, 2048], [2048, 2049]], 2, 11),  # tau_11 = tau_6 = 1
    ])
    def test_several_periods_when_tau_t_is_below_tau_s_p_t_minus_s(
        self, rows, p, t, monkeypatch
    ):
        # the tau_s p^(t-s) indices n + tau_s m cover tau_s p^(t-s) / tau_t
        # periods, and the row is one route, with no call to exp_sum
        _, taus, at = self._case(rows, p, range(t, t + 1))
        s = (t + 1) // 2
        assert taus[t - 1] < taus[s - 1] * p ** (t - s)
        ref = exp_sum(at(t), taus[t - 1])
        monkeypatch.setattr(sums, "exp_sum", None)
        (row,) = full_period_exponent(at(t), [t])
        assert row.tau == taus[t - 1]
        assert abs(row.abs_value - ref.abs_value) <= ref.error_bound
        assert math.isnan(row.theta) if row.tau == 1 else row.theta < 1

    @pytest.mark.parametrize("block", [None, 7], ids=["default", "7"])
    @pytest.mark.parametrize("rows, p, t_range", LIFT_CASES)
    def test_block_fold_equals_whole_streams(self, rows, p, t_range, block, monkeypatch):
        # every row bit for bit, t = 1..20, wherever tau_s is small enough
        # to stream twice here
        if block is not None:
            monkeypatch.setattr(stream, "STREAM_BLOCK", block)
        cap = 2 * 10**5 if block is None else 5000
        _, taus, at = self._case(rows, p, range(1, 21))
        checked = 0
        for t in range(1, 21):
            s = (t + 1) // 2
            if taus[s - 1] > cap:
                continue
            args = (at(t), s, taus[s - 1], taus[t - 1])
            assert sums._lifted_period_sum(*args) == lifted_period_sum_whole(*args), t
            checked += 1
        assert checked >= 8

    def test_block_fold_holds_less_than_one_stream(self):
        # t = 20 sums tau_10 = 157 464 exact-int terms mod 3^20
        _, taus, at = self._case([[0, 1], [1, 1]], 3, range(20, 21))
        cfg, tau_s = at(20), taus[9]
        assert tau_s == 157_464 and cfg.m.modulus**2 * 2 >= 2**63
        args = (cfg, 10, tau_s, taus[19])
        want = lifted_period_sum_whole(*args)
        tracemalloc.start()
        try:
            one_array = mat_stream(cfg.a, cfg.u0, cfg.m, tau_s, 0, cfg.v)
            one_array_bytes = tracemalloc.get_traced_memory()[0]
            del one_array
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            got = sums._lifted_period_sum(*args)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < one_array_bytes

    @pytest.mark.parametrize("t", [3, 4, 5])
    def test_identity_needs_2s_at_least_t(self, t):
        # one level below ceil(t/2) the orders still grow by p, but the
        # quadratic term of (I + p^s B)^m no longer vanishes mod p^t
        _, taus, at = self._case([[0, 1], [1, 1]], 3, range(t, t + 1))
        s = (t + 1) // 2 - 1
        assert taus[t - 1] == taus[s - 1] * 3 ** (t - s)
        wrong = sums._lifted_period_sum(at(t), s, taus[s - 1], taus[t - 1])
        assert abs(wrong - exp_sum(at(t), taus[t - 1]).value) > 1


class TestDoubleSum:
    def test_constant_phase_r0(self, cfg):
        # r = 0: single constant term; |sigma| = p^{2s}
        sigma = double_sum_sigma(cfg, n=0, s=1, r=0)
        assert abs(sigma) == pytest.approx(9.0)

    def test_matches_direct_inner_sum(self, cfg):
        # the polynomial phase reproduces e(u_{n + tau_s xy} / p^t) exactly
        # whenever s(r+1) >= t; at s=1 the admissible truncation is r = 3
        for s, r in ((1, 3), (2, None)):
            tau_s = order_mod(cfg.a, PrimePowerModulus(3, s))
            grid = 3**s
            for n in (0, 5):
                sigma = double_sum_sigma(cfg, n=n, s=s, r=r)
                res = scalar_residues(cfg, n + tau_s * grid * grid + 1)
                direct = sum(
                    cmath.exp(2j * math.pi * int(res[n + tau_s * x * y]) / 81)
                    for x in range(1, grid + 1)
                    for y in range(1, grid + 1)
                )
                assert abs(sigma - direct) < 1e-10

    def test_toy_hand_table(self):
        # residues x_v = 2v mod 9, N = 1, M = 3, a = 1: the only inner sum is
        # the hand table sum_{y,z=1..3} e(2yz/9), and the lhs is |e(0)| = 1
        direct = sum(cmath.exp(2j * math.pi * 2 * y * z / 9) for y in range(1, 4) for z in range(1, 4))
        residual = korobov_reduction_residual([2 * v % 9 for v in range(10)], 9, 1, 3, 1)
        assert residual == pytest.approx(abs(direct) / 9 + 17, abs=1e-12)

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_sigma_is_exactly_rounded_over_the_grid(self, fib, s, monkeypatch):
        # sigma_n weighs each distinct product xy by its multiplicity: the
        # same float as phase_sum over the p^(2s) grid residues, each once
        cfg = GeneratorConfig.create(fib, PrimePowerModulus(3, 8), (1, 0), (1, 2), level="thm1")
        want = double_sum_sigma(cfg, n=3, s=s)
        monkeypatch.setattr(sums, "_product_multiplicities",
                            lambda m: ([x * y for x in range(1, m + 1) for y in range(1, m + 1)], None))
        assert_same_complex(double_sum_sigma(cfg, n=3, s=s), want)

    def test_precondition_r(self, cfg):
        with pytest.raises(PreconditionViolatedError):
            double_sum_sigma(cfg, n=0, s=1, r=4)  # r = 4 > 3^1

    @pytest.mark.parametrize("s", [0, -1])
    def test_s_below_one(self, cfg, monkeypatch, s):
        # refused by name before any order or grid is computed
        monkeypatch.setattr(padic, "order_mod", None)
        for r in (None, 0):
            with pytest.raises(ValueError, match=f"^s = {s} must be >= 1$"):
                double_sum_sigma(cfg, n=0, s=s, r=r)

    def test_grid_guard(self, fib, monkeypatch):
        monkeypatch.setattr(sums, "GRID_GUARD", 10**6)
        cfg = GeneratorConfig.create(fib, PrimePowerModulus(3, 20), (1, 0), (1, 0), level="thm1")
        with pytest.raises(ResourceGuardError, match=f"^sigma_grid: {3**20}, limit 1000000$"):
            double_sum_sigma(cfg, n=0, s=10, r=1)

    def test_reduction_rhs_dominates_sum(self, cfg):
        # (1/p^{2s}) sum_n |sigma_n| + 2 tau_s p^{2s} >= |S(N)|
        s, r = 1, 3
        tau_s = order_mod(cfg.a, PrimePowerModulus(3, s))
        n_terms = 60
        total = sum(abs(double_sum_sigma(cfg, n=n, s=s, r=r)) for n in range(n_terms))
        lhs = exp_sum(cfg, n_terms).abs_value
        rhs = total / 9 + 2 * tau_s * 9
        assert rhs >= lhs


def brute_force_multiplicities(m: int) -> tuple[list[int], list[int]]:
    counts = Counter(x * y for x in range(1, m + 1) for y in range(1, m + 1))
    items = sorted(counts.items())
    return [k for k, _ in items], [c for _, c in items]


class TestProductMultiplicities:
    @pytest.mark.parametrize("m", [1, 2, 12, 1499, 1500, 1501])
    def test_against_brute_force(self, m):
        assert _product_multiplicities(m) == brute_force_multiplicities(m)

    @pytest.mark.parametrize("chunk", [1, 7, 50, 37 * 3 + 1])
    def test_small_chunks(self, chunk, monkeypatch):
        monkeypatch.setattr(sums, "_PRODUCT_CHUNK", chunk)
        for m in (1, 5, 37):
            assert _product_multiplicities(m) == brute_force_multiplicities(m)

    def test_python_ints(self):
        vals, cnts = _product_multiplicities(4)
        assert all(type(x) is int for x in vals + cnts)


class TestKorobovReduction:
    def test_a_zero_exact(self):
        rng = random.Random(3)
        residues = [rng.randrange(81) for _ in range(80)]
        residual = korobov_reduction_residual(residues, 81, 50, 3, 0)
        assert residual >= 0

    def test_m1_a0_is_exactly_rounded(self):
        # at M = 1, a = 0 the inner sum at x is the one term e(x_n / mod), so
        # the residual is fsum |e(x_n / mod)| - |phase_sum|, bit for bit; at
        # this seed a table of np.exp(2 pi i x_n / mod) added by np.sum is
        # one ulp off it
        rng = random.Random(12)
        mod = 3**9
        residues = [rng.randrange(mod) for _ in range(200)]
        moduli = [abs(complex(c, s)) for c, s in zip(*sums._phase_terms(residues, mod).tolist())]
        want = math.fsum(moduli) - abs(phase_sum(residues, mod))
        assert korobov_reduction_residual(residues, mod, 200, 1, 0) == want

    @pytest.mark.parametrize("m, a", [(2, 1), (4, 3), (6, 1)])
    def test_rows_are_fsum_over_all_pairs(self, m, a, monkeypatch):
        # each inner sum is fsum over its M^2 unit terms, one a pair (y, z);
        # at M = 6 the 1000 rows span three row blocks
        monkeypatch.setattr(sums, "_product_multiplicities", None)
        rng = random.Random(m)
        mod, n = 3**9, 1000
        residues = [rng.randrange(mod) for _ in range(n + a * m * m)]
        cos, sin = _phase_terms(residues, mod).tolist()
        offsets = [a * y * z for y in range(1, m + 1) for z in range(1, m + 1)]
        moduli = [abs(complex(math.fsum(cos[i + o] for o in offsets), math.fsum(sin[i + o] for o in offsets)))
                  for i in range(n)]
        want = math.fsum(moduli) / (m * m) + 2.0 * a * m * m - abs(phase_sum(residues[:n], mod))
        assert korobov_reduction_residual(residues, mod, n, m, a) == want

    def test_m1_a0_trivial(self, cfg):
        assert korobov_reduction_check(cfg, 40, 1, 0) >= 0

    def test_generator_phases(self, cfg):
        tau_1 = order_mod(cfg.a, PrimePowerModulus(3, 1))
        assert korobov_reduction_check(cfg, 50, 3, tau_1) >= 0

    def test_randomized_tables(self):
        rng = random.Random(12345)
        for _ in range(200):
            n = rng.randrange(5, 60)
            m = rng.randrange(1, 5)
            a = rng.randrange(0, 4)
            mod = rng.choice([16, 27, 81, 125])
            residues = [rng.randrange(mod) for _ in range(n + a * m * m)]
            assert korobov_reduction_residual(residues, mod, n, m, a) >= 0


def exact_sum(x: np.ndarray, weights: np.ndarray | None = None) -> float:
    """_exact_sums of the one series x with the given weights (default
    none), in chunks of _EXACT_SUM_CHUNK terms."""
    step = _EXACT_SUM_CHUNK
    return _exact_sums(
        ((x[None, i : i + step].copy(), None if weights is None else weights[i : i + step])
         for i in range(0, x.size, step)),
        1,
    )[0]


def assert_fsum_bits(x: np.ndarray) -> None:
    got, want = exact_sum(x), math.fsum(x.tolist())
    assert got.hex() == want.hex()


class TestExactSum:
    """_exact_sums against math.fsum: the same float, bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_magnitudes(self, seed):
        rng = np.random.default_rng(seed)
        n = 5000
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 290, n)
        assert_fsum_bits(x)

    @pytest.mark.parametrize("seed", range(4))
    def test_cancelling_pairs(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = rng.standard_normal(3000) * 10.0 ** rng.uniform(-30, 30, 3000)
        x = np.concatenate((a, -a, [1e-40, -3e-41, 2.0**-60]))
        rng.shuffle(x)
        assert_fsum_bits(x)
        assert_fsum_bits(np.concatenate((a, -a)))  # exact sum 0

    def test_subnormals(self):
        rng = np.random.default_rng(7)
        x = rng.integers(-(2**52), 2**52, 4000) * 5e-324
        assert_fsum_bits(x)
        assert_fsum_bits(np.concatenate((x, [2.0**-1022, -(2.0**-1021), 1e-300])))

    def test_signed_zeros(self):
        assert_fsum_bits(np.array([0.0, -0.0]))
        assert_fsum_bits(np.array([-0.0, -0.0, -0.0]))
        assert_fsum_bits(np.array([1.5, -0.0, -1.5]))
        # an empty series is an empty chunk iterator
        assert _exact_sums(iter(()), 1) == [math.fsum([])] == [0.0]

    def test_phase_terms(self):
        # the terms exp_sum adds: cos and sin of histogram bins, each
        # weighted by its count, against fsum over the bins repeated
        rng = np.random.default_rng(11)
        ang = rng.integers(0, 3**13, 20000) * (2 * math.pi / 3**13)
        weights = rng.integers(0, 50, 20000)
        for x in (np.cos(ang), np.sin(ang)):
            assert exact_sum(x, weights).hex() == math.fsum(np.repeat(x, weights)).hex()
        assert_fsum_bits(np.sin(ang))

    def test_chunks_of_different_exponent_spans(self):
        # each chunk's exponents lie below, above or within those seen before
        # it, two series at once: the group sums widen either way, and the
        # large terms cancel, so the sum is that of the small ones
        rng = np.random.default_rng(12)
        a, b, c, d = (rng.standard_normal((2, 700)) * 2.0 ** rng.uniform(lo, hi, (2, 700))
                      for lo, hi in ((-5, 5), (-40, -20), (100, 200), (-1070, -1000)))
        chunks = [a, b, c, d, -c, -a]
        got = _exact_sums(((chunk.copy(), None) for chunk in chunks), 2)
        want = [math.fsum(np.concatenate(series).tolist()) for series in zip(*chunks)]
        assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_largest_magnitude_allowed(self):
        x = np.array([2.0**995, -(2.0**995) * 0.75, 3.0, -(2.0**995)])
        assert_fsum_bits(x)

    def test_worst_case_run_of_equal_terms(self):
        # 2^24 terms, the documented maximum, of one 53-bit mantissa: the
        # exponent group holds every term
        x = np.full(1 << 24, 1.0 + 2.0**-52 + 2.0**-51)
        x[::3] = -(1.0 - 2.0**-53)
        assert exact_sum(x).hex() == math.fsum(x).hex()  # fsum iterates, no list


# unit terms at the digit kernel's extremes: exact and signed zeros,
# cos(fl(pi/2)) ~ 6.1e-17, sin(2 pi / m) for m near 2^1000 (~2^-997), the
# largest term below 1 (its top digit is the largest a digit can be), and 1
EDGE_TERMS = [0.0, -0.0, math.cos(math.pi / 2), -math.cos(math.pi / 2), 1.0 - 2.0**-53, 1.0, -1.0] + [
    float(np.sin(_angles([1], m))[0]) for m in (2**1000 - 1, 2**1000 + 1, 3 * 2**998)
]


@st.composite
def digit_cases(draw):
    """(rows, weights, chunk): a (width, m) table of unit terms, each the cos
    or sin of a phase or an edge term, some rows all zeros; weights None or
    an (m, C) table of counts; and the chunk length the kernel reads."""
    width, m = draw(st.integers(1, 3)), draw(st.integers(1, 40))
    phase = st.builds(lambda x, mod, part: float(_phase_terms([x], mod)[part, 0]),
                      st.integers(0, 10**6), st.sampled_from([7, 3**13, 3**40, 2**1000 + 1]), st.integers(0, 1))
    term = st.one_of(phase, st.sampled_from(EDGE_TERMS))
    zero = st.sampled_from([0.0, -0.0])
    rows = [draw(st.lists(zero if draw(st.booleans()) and i else term, min_size=m, max_size=m))
            for i in range(width)]
    columns = draw(st.integers(1, 3))
    weights = draw(st.none() | st.lists(st.lists(st.integers(0, 60), min_size=columns, max_size=columns),
                                        min_size=m, max_size=m))
    return rows, weights, draw(st.integers(1, m))


def fsum_repeated(row, weights=None) -> float:
    """math.fsum over the row's terms, the j-th repeated weights[j] times."""
    return math.fsum(row if weights is None else itertools.chain.from_iterable(map(itertools.repeat, row, weights)))


class TestDigitKernel:
    """_exact_parts against math.fsum over the explicitly repeated terms, bit
    for bit, under every weighting and chunking."""

    @given(digit_cases())
    @settings(max_examples=150, deadline=None)
    # every weight at once: 2^27 repeats of the largest term below 1, whose
    # top digit is 2^26 of its unit, and of two more terms
    @example(([[1.0 - 2.0**-53, math.cos(math.pi / 2), -1 / 3]], [[2**26], [2**25], [2**25]], 2))
    # single-term rows, one of them all zeros, and a zero weight
    @example(([[-0.0], [6.0e-17], [1.0]], [[0, 3]], 1))
    def test_against_fsum_over_repeated_terms(self, case):
        rows, weights, chunk = case
        x = np.array(rows)
        w = None if weights is None else np.array(weights, dtype=np.int64)
        steps = range(0, x.shape[1], chunk)
        parts = [_exact_parts(x[:, lo : lo + chunk].copy(), None if w is None else w[lo : lo + chunk]) for lo in steps]
        columns = [None] if w is None else w.T.tolist()
        got = _rounded(parts, (len(rows), len(columns)) if w is not None else (len(rows),))
        want = [fsum_repeated(row, col) for row in rows for col in columns]
        assert [v.hex() for v in got] == [v.hex() for v in want]
        if w is not None:  # one weighting a call, through _exact_sums
            got = _exact_sums(((x[:, lo : lo + chunk].copy(), w[lo : lo + chunk, 0]) for lo in steps), len(rows))
            assert [v.hex() for v in got] == [v.hex() for v in want[:: len(columns)]]

    def test_all_zero_rows_have_no_parts(self):
        assert _exact_parts(np.array([[0.0, -0.0], [-0.0, -0.0]])).shape == (0, 2)
        assert _exact_parts(np.zeros((2, 3)), np.ones((3, 4), dtype=np.int64)).shape == (0, 2, 4)
        assert _rounded([], (2, 3)) == [0.0] * 6

    def test_terms_over_the_limit_are_refused(self):
        for bad in (2.0**996, math.inf, math.nan):
            with pytest.raises(AssertionError):
                _exact_parts(np.array([[1.0, bad]]))


def fsum_phase_sum(x, mod: int, weights=None) -> complex:
    """The kernel's contract: math.fsum over the cos and sin terms of
    _angles, each term repeated as often as its weight says."""
    ang = _angles(list(x), mod)
    if weights is not None:
        ang = np.repeat(ang, weights)
    return complex(math.fsum(np.cos(ang).tolist()), math.fsum(np.sin(ang).tolist()))


def assert_same_complex(got: complex, want: complex) -> None:
    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def assert_same_sums(got: list[complex], want: list[complex]) -> None:
    assert [(z.real.hex(), z.imag.hex()) for z in got] == [(z.real.hex(), z.imag.hex()) for z in want]


class TestPhaseSum:
    """phase_sum against fsum over the cos and sin of _angles, bit for bit."""

    # R = round(_EXACT_SUM_CHUNK / n) rows of n residues, summed together by
    # _row_sums and, end to end, as one row by phase_sum: R n is just below, at
    # or just above a chunk of _EXACT_SUM_CHUNK terms, or one row of n just
    # below, at or just above four chunks
    @pytest.mark.parametrize("n", [1, 2] + [4 * _EXACT_SUM_CHUNK // r + k for r in (64, 16, 4, 1) for k in (-1, 0, 1)])
    def test_int64_residues_at_boundaries(self, n):
        mod = 3**13
        x = np.random.default_rng(n).integers(0, mod, (max(1, round(_EXACT_SUM_CHUNK / n)), n))
        assert_same_sums(_row_sums(x, mod), [fsum_phase_sum(row, mod) for row in x])
        assert_same_complex(phase_sum(x.ravel(), mod), fsum_phase_sum(x.ravel(), mod))

    # as above, R n just above a chunk, and one row of 1.5 and of 6 chunks
    @pytest.mark.parametrize("n", [7, 1025, 4097, 3 * _EXACT_SUM_CHUNK // 2, 6 * _EXACT_SUM_CHUNK])
    @pytest.mark.parametrize("mod", [3**40, 2**1023], ids=["3^40", "2^1023"])
    def test_exact_ints_above_2_53(self, mod, n):
        # near 2^1023, 2 pi x would overflow; x / mod never does
        rng = random.Random(n)
        rows = max(1, round(_EXACT_SUM_CHUNK / n))
        x = np.array([[rng.randrange(mod) for _ in range(n)] for _ in range(rows)], dtype=object)
        assert_same_sums(_row_sums(x, mod), [fsum_phase_sum(row, mod) for row in x])
        want = fsum_phase_sum(x[0], mod)
        assert_same_complex(phase_sum(x[0].tolist(), mod), want)
        assert_same_complex(phase_sum(x[0], mod), want)

    @pytest.mark.parametrize("mod", [4 * 3**10, 4 * 3**40], ids=["4*3^10", "4*3^40"])
    def test_row_split_into_chunks_of_different_exponent_spans(self, mod):
        # residues at multiples of mod/4 have cosines or sines of about
        # 6e-17, far below those of a chunk of ordinary residues: the group
        # sums widen to them after that chunk, and before the next one
        rng = random.Random(mod)
        ordinary = [rng.randrange(mod) for _ in range(_EXACT_SUM_CHUNK)]
        quarters = [k * mod // 4 for k in range(1, 4)] * 1000
        x = ordinary + quarters + ordinary[:5000]
        want = fsum_phase_sum(x, mod)
        assert_same_complex(phase_sum(np.array(x, dtype=stream.int_dtype(mod)), mod), want)
        rows = np.array([x[:12000], x[-12000:]], dtype=stream.int_dtype(mod))
        assert_same_sums(_row_sums(rows, mod), [fsum_phase_sum(row, mod) for row in rows])

    # the shapes (R, n) of the rows the benchmark's commands sum: frequency
    # sums, the reduction residual's inner sums, and one short row
    @pytest.mark.parametrize("shape", [(132, 64), (128, 128), (64, 256), (56, 9), (50, 1), (1, 31)])
    @pytest.mark.parametrize("mod", [3**13, 3**40], ids=["int64", "exact-int"])
    def test_row_sums_over_the_benchmark_shapes(self, mod, shape):
        rng = random.Random(repr((mod, shape)))
        rows = [[rng.randrange(mod) for _ in range(shape[1])] for _ in range(shape[0])]
        x = np.array(rows, dtype=stream.int_dtype(mod))
        assert_same_sums(_row_sums(x, mod), [fsum_phase_sum(row, mod) for row in x])

    def test_angles_divide_before_scaling(self):
        # 2 pi (x / m): the ratio of two correctly rounded floats, then scaled
        for mod, xs in ((3**13, [0, 1, 5, 3**13 - 1]), (3**40, [2**53 + 1, 3**40 - 1]),
                        (2**1023, [1, 2**1022 + 1, 2**1023 - 1])):
            want = [(float(x) / float(mod) * (2 * math.pi)).hex() for x in xs]
            assert [a.hex() for a in _angles(xs, mod).tolist()] == want

    def test_uint64_angles_are_those_of_exact_ints(self):
        # residues below 2^64 reach the kernel as uint64; converted to float
        # they round as float(int) does, also at the ties 2^53 + 1 and
        # 2^64 - 1 and with the top bit set
        xs = [2**53 + 1, 2**53 + 3, 2**63 + 1025, 2**63 + 3072, 2**64 - 1025, 2**64 - 1]
        for mod in (2**64, 83**10, 3**40):
            got = _angles(np.array(xs, dtype=np.uint64), mod)
            assert [a.hex() for a in got.tolist()] == [a.hex() for a in _angles(xs, mod).tolist()]
        assert np.array(xs, dtype=np.uint64).astype(np.float64).tolist() == [float(x) for x in xs]

    @pytest.mark.parametrize("n", [5, _EXACT_SUM_CHUNK + 1, 4 * _EXACT_SUM_CHUNK + 1])
    def test_weighted_bins(self, n):
        # each bin counts as c_x unit terms, whatever the number of bins
        mod = 3**13
        rng = np.random.default_rng(100 + n)
        bins = np.sort(rng.choice(mod, n, replace=False))
        counts = rng.integers(1, 100, n)
        assert_same_complex(phase_sum(bins, mod, counts), fsum_phase_sum(bins, mod, counts))
        # weights as a list of ints, as double_sum_sigma passes them
        assert_same_complex(
            phase_sum(bins, mod, counts.tolist()), fsum_phase_sum(bins, mod, counts)
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_weights_totalling_2_27_against_fractions(self, seed):
        # the largest total weight the kernel takes: float(sum c_x Fraction(cos x))
        # is the exactly rounded weighted sum
        mod = 3**13
        rng = np.random.default_rng(200 + seed)
        bins = np.sort(rng.choice(mod, 3000, replace=False))
        cuts = np.sort(rng.integers(0, 2**27, bins.size - 1))
        counts = np.diff(np.r_[0, cuts, 2**27])
        assert counts.sum() == 2**27
        cos, sin = _phase_terms(bins, mod).tolist()
        want = complex(*(float(sum(Fraction(x) * int(c) for x, c in zip(row, counts))) for row in (cos, sin)))
        assert_same_complex(phase_sum(bins, mod, counts), want)
        with pytest.raises(AssertionError):
            phase_sum(bins, mod, counts + (np.arange(bins.size) == 0))

    def test_empty(self):
        for x in (np.zeros(0, dtype=np.int64), []):
            assert_same_complex(phase_sum(x, 81), 0j)
            assert_same_complex(phase_sum(x, 81, []), 0j)

    def test_exp_sum_is_one_kernel_call(self, fib, monkeypatch):
        # the direct path sums every residue, the histogram path the occupied
        # bins weighted by their counts: both are phase_sum of the residues,
        # for N just below, at and just above a chunk
        cfg = GeneratorConfig.create(fib, PrimePowerModulus(3, 8), (1, 0), (1, 2), level="thm1")
        for n in (_EXACT_SUM_CHUNK - 1, _EXACT_SUM_CHUNK, _EXACT_SUM_CHUNK + 1):
            residues = scalar_residues(cfg, n)
            want = fsum_phase_sum(residues, 3**8)
            assert_same_complex(phase_sum(residues, 3**8), want)
            counts = np.bincount(residues)
            bins = np.flatnonzero(counts)
            assert_same_complex(phase_sum(bins, 3**8, counts[bins]), want)
            hist = exp_sum(cfg, n)
            with monkeypatch.context() as patch:
                patch.setattr(sums, "_HISTOGRAM_LIMIT", 0)
                direct = exp_sum(cfg, n)
            assert (hist.method, direct.method) == ("histogram", "direct")
            assert_same_complex(hist.value, want)
            assert_same_complex(direct.value, want)
