import cmath
import math
import random
import tracemalloc
from fractions import Fraction

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import matprng.analysis.sums as sums
from matprng.arith import IntMatrix, PrimePowerModulus
from matprng.errors import (
    DegenerateMatrixError,
    GridTooLargeError,
    PeriodTooLargeError,
    PreconditionViolatedError,
)
from matprng.generator import GeneratorConfig
from matprng.analysis.sums import (
    _EXACT_SUM_CHUNK,
    _HISTOGRAM_LIMIT,
    _SHORT_ROW,
    _angles,
    _exact_sum,
    _product_multiplicities,
    double_sum_sigma,
    exp_sum,
    full_period_exponent,
    korobov_reduction_check,
    korobov_reduction_residual,
    phase_sum,
    scalar_residues,
)
from matprng.padic import order_mod, order_sequence, period_profile


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

    def test_methods_agree(self, cfg):
        hist = exp_sum(cfg, 500, method="histogram")
        direct = exp_sum(cfg, 500, method="direct")
        assert abs(hist.value - direct.value) <= 1e-9 * 500

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
        from matprng import arith

        cfg, n = self.config(name)
        methods = ["direct"] + (["histogram"] if cfg.m.modulus <= _HISTOGRAM_LIMIT else [])
        want = {method: repr(exp_sum(cfg, n, method).value) for method in methods}
        for block in (1, 7, 4096):
            monkeypatch.setattr(arith, "STREAM_BLOCK", block)
            assert {method: repr(exp_sum(cfg, n, method).value) for method in methods} == want, block

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
        exp_sum(cfg, 5000, method)
        tracemalloc.start()
        try:
            exp_sum(cfg, n, method)
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
        got = exp_sum(cfg, 10, "histogram").value
        assert 1 <= scanned[0] <= 1000
        assert got == pytest.approx(exp_sum(cfg, 10, "direct").value, abs=1e-12)


MATRICES = ([[0, 1], [1, 1]], [[1, 2], [1, 1]], [[0, 1, 0], [0, 0, 1], [1, 1, 0]])
PRIMES = (2, 3, 5, 7, 11, 13, 4093)


@st.composite
def histogram_configs(draw):
    """A generator with p^t <= 2^24, so that both summation methods apply."""
    rows = draw(st.sampled_from(MATRICES))
    p = draw(st.sampled_from(PRIMES))
    t_max = 1
    while p ** (t_max + 1) <= _HISTOGRAM_LIMIT:
        t_max += 1
    t = draw(st.integers(1, t_max))
    d = len(rows)
    u0 = draw(st.lists(st.integers(0, 10**6), min_size=d, max_size=d))
    v = draw(st.lists(st.integers(0, 10**6), min_size=d, max_size=d))
    return GeneratorConfig.create(IntMatrix.from_rows(rows), PrimePowerModulus(p, t), u0, v)


class TestHistogramAgainstDirect:
    @given(
        histogram_configs(),
        st.one_of(
            st.sampled_from([1, 4095, 4096, 4097, 8191, 8192, 8193, 12289]),
            st.integers(1, 20000),
        ),
    )
    @settings(max_examples=60, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_within_error_bound(self, cfg, n):
        hist = exp_sum(cfg, n, method="histogram")
        direct = exp_sum(cfg, n, method="direct")
        assert hist.error_bound == direct.error_bound
        assert abs(hist.value - direct.value) <= direct.error_bound


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

        monkeypatch.setattr(sums, "period_profile", counted)
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
            return period_profile(a, p, s_max)

        monkeypatch.setattr(sums, "order_sequence", counted)
        monkeypatch.setattr(sums, "period_profile", shallow)
        with pytest.raises(PeriodTooLargeError, match="tau_8 = 17496, the terms summed for t = 15,"):
            full_period_exponent(cfg, range(2, 10**5), tau_guard=10**4)
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

    def test_guard(self, cfg):
        with pytest.raises(PeriodTooLargeError):
            full_period_exponent(cfg, [30], tau_guard=10**6)

    def test_guard_raises_before_anything_is_streamed(self, cfg, monkeypatch):
        # t = 9 sums tau_5 = 648 terms
        streamed = []
        monkeypatch.setattr(sums, "mat_stream", lambda *args: streamed.append(args))
        with pytest.raises(PeriodTooLargeError, match="tau_5 = 648, the terms summed for t = 9,"):
            full_period_exponent(cfg, [9], tau_guard=647)
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
    def test_matches_exp_sum(self, rows, p, t_range):
        t_range, taus, at = self._case(rows, p, t_range)
        fp_rows = full_period_exponent(at(t_range[-1]), t_range)
        assert [(row.t, row.tau) for row in fp_rows] == [(t, taus[t - 1]) for t in t_range]
        for t, row in zip(t_range, fp_rows):
            cfg, tau, s = at(t), taus[t - 1], (t + 1) // 2
            lifted = sums._lifted_period_sum(cfg, s, taus[s - 1], tau)
            methods = ["direct"] + (["histogram"] if cfg.m.modulus <= _HISTOGRAM_LIMIT else [])
            for method in methods:
                ref = exp_sum(cfg, tau, method=method)
                assert abs(lifted - ref.value) <= ref.error_bound, (t, method)
                assert abs(row.abs_value - ref.abs_value) <= ref.error_bound, (t, method)

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
        # single j=1 term a/9: sigma = sum_{x,y=1..3} e(a x y / 9)
        a_val = 2
        direct = sum(
            cmath.exp(2j * math.pi * a_val * x * y / 9)
            for x in range(1, 4)
            for y in range(1, 4)
        )
        # reproduce through the machinery on a synthetic phase: use the
        # residual helper instead (the phase table is explicit)
        table = [Fraction(a_val * v, 9) for v in range(200)]
        # inner double sum at x = 0 with a = 1, M = 3 equals the hand table sum
        total = sum(
            cmath.exp(2j * math.pi * float(table[x * y]))
            for x in range(1, 4)
            for y in range(1, 4)
        )
        assert abs(total - direct) < 1e-12

    def test_precondition_r(self, cfg):
        with pytest.raises(PreconditionViolatedError):
            double_sum_sigma(cfg, n=0, s=1, r=4)  # r = 4 > 3^1

    def test_grid_guard(self, fib):
        cfg = GeneratorConfig.create(fib, PrimePowerModulus(3, 20), (1, 0), (1, 0), level="thm1")
        with pytest.raises(GridTooLargeError):
            double_sum_sigma(cfg, n=0, s=10, r=1, grid_guard=10**6)

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
        table = [Fraction(rng.randrange(81), 81) for _ in range(80)]
        residual = korobov_reduction_residual(table, 50, 3, 0)
        assert residual >= 0

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
            table = [Fraction(rng.randrange(mod), mod) for _ in range(n + a * m * m)]
            assert korobov_reduction_residual(table, n, m, a) >= 0


def assert_fsum_bits(x: np.ndarray) -> None:
    got, want = _exact_sum(x), math.fsum(x.tolist())
    assert got.hex() == want.hex()


class TestExactSum:
    """_exact_sum against math.fsum: the same float, bit for bit."""

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
        assert _exact_sum(np.zeros(0)) == math.fsum([]) == 0.0

    def test_phase_terms(self):
        # the terms exp_sum adds: weighted cos and sin of histogram bins
        rng = np.random.default_rng(11)
        ang = rng.integers(0, 3**13, 20000) * (2 * math.pi / 3**13)
        weights = rng.integers(1, 50, 20000).astype(np.float64)
        assert_fsum_bits(weights * np.cos(ang))
        assert_fsum_bits(np.sin(ang))

    def test_largest_magnitude_allowed(self):
        x = np.array([2.0**995, -(2.0**995) * 0.75, 3.0, -(2.0**995)])
        assert_fsum_bits(x)

    def test_worst_case_run_of_equal_terms(self):
        # 2^24 terms, the documented maximum, of one 53-bit mantissa: the
        # exponent group holds every term
        x = np.full(1 << 24, 1.0 + 2.0**-52 + 2.0**-51)
        x[::3] = -(1.0 - 2.0**-53)
        assert _exact_sum(x).hex() == math.fsum(x).hex()  # fsum iterates, no list


def fsum_phase_sum(x, mod: int, weights=None) -> complex:
    """The kernel's contract: math.fsum over the cos and sin terms of _angles."""
    ang = _angles(list(x), mod)
    w = np.ones(len(ang)) if weights is None else np.asarray(weights, dtype=np.float64)
    return complex(math.fsum((w * np.cos(ang)).tolist()), math.fsum((w * np.sin(ang)).tolist()))


def assert_same_complex(got: complex, want: complex) -> None:
    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


class TestPhaseSum:
    """phase_sum against fsum over the cos and sin of _angles, bit for bit."""

    @pytest.mark.parametrize(
        "n",
        [1, 2, _SHORT_ROW - 1, _SHORT_ROW, _SHORT_ROW + 1,
         _EXACT_SUM_CHUNK - 1, _EXACT_SUM_CHUNK, _EXACT_SUM_CHUNK + 1],
    )
    def test_int64_residues_at_boundaries(self, n):
        mod = 3**13
        x = np.random.default_rng(n).integers(0, mod, n)
        assert_same_complex(phase_sum(x, mod), fsum_phase_sum(x, mod))

    @pytest.mark.parametrize("n", [7, _SHORT_ROW + 1, 3 * _EXACT_SUM_CHUNK // 2])
    @pytest.mark.parametrize("mod", [3**40, 2**1023], ids=["3^40", "2^1023"])
    def test_exact_ints_above_2_53(self, mod, n):
        # near 2^1023, 2 pi x would overflow; x / mod never does
        rng = random.Random(n)
        x = [rng.randrange(mod) for _ in range(n)]
        want = fsum_phase_sum(x, mod)
        assert_same_complex(phase_sum(x, mod), want)
        assert_same_complex(phase_sum(np.array(x, dtype=object), mod), want)

    def test_angles_divide_before_scaling(self):
        # 2 pi (x / m): the ratio of two correctly rounded floats, then scaled
        for mod, xs in ((3**13, [0, 1, 5, 3**13 - 1]), (3**40, [2**53 + 1, 3**40 - 1]),
                        (2**1023, [1, 2**1022 + 1, 2**1023 - 1])):
            want = [(float(x) / float(mod) * (2 * math.pi)).hex() for x in xs]
            assert [a.hex() for a in _angles(xs, mod).tolist()] == want

    @pytest.mark.parametrize("n", [5, _SHORT_ROW + 1, _EXACT_SUM_CHUNK + 1])
    def test_weighted_bins(self, n):
        mod = 3**13
        rng = np.random.default_rng(100 + n)
        bins = np.sort(rng.choice(mod, n, replace=False))
        counts = rng.integers(1, 1000, n)
        assert_same_complex(phase_sum(bins, mod, counts), fsum_phase_sum(bins, mod, counts))
        # weights as a list of ints, as double_sum_sigma passes them
        assert_same_complex(
            phase_sum(bins, mod, counts.tolist()), fsum_phase_sum(bins, mod, counts)
        )

    def test_empty(self):
        for x in (np.zeros(0, dtype=np.int64), []):
            assert_same_complex(phase_sum(x, 81), 0j)
            assert_same_complex(phase_sum(x, 81, []), 0j)

    def test_exp_sum_is_one_kernel_call(self, fib):
        # the direct method sums every residue, the histogram method the
        # occupied bins weighted by their counts
        cfg = GeneratorConfig.create(fib, PrimePowerModulus(3, 8), (1, 0), (1, 2), level="thm1")
        n = 3 * _SHORT_ROW
        residues = scalar_residues(cfg, n)
        direct = exp_sum(cfg, n, method="direct").value
        assert_same_complex(direct, fsum_phase_sum(residues, 3**8))
        counts = np.bincount(residues)
        bins = np.flatnonzero(counts)
        hist = exp_sum(cfg, n, method="histogram").value
        assert_same_complex(hist, fsum_phase_sum(bins, 3**8, counts[bins]))
