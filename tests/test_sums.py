import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from matprng.arith import IntMatrix, PrimePowerModulus
from matprng.errors import GridTooLargeError, PeriodTooLargeError, PreconditionViolatedError
from matprng.generator import GeneratorConfig
from matprng.analysis.sums import (
    _exact_sum,
    double_sum_sigma,
    exp_sum,
    full_period_exponent,
    korobov_reduction_check,
    korobov_reduction_residual,
    scalar_residues,
)
from matprng.padic import order_mod


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

    def test_threads_bit_identical(self, cfg):
        one = exp_sum(cfg, 9000, method="direct", threads=1)
        four = exp_sum(cfg, 9000, method="direct", threads=4)
        assert one.value == four.value  # bit-identical, not just close

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


class TestFullPeriodExponent:
    def test_reference_slope_d2(self, cfg):
        rows = full_period_exponent(cfg, range(4, 6))
        assert [r.tau for r in rows] == [216, 648]
        for row in rows:
            assert row.theta <= 0.5 + 0.2

    def test_guard(self, cfg):
        with pytest.raises(PeriodTooLargeError):
            full_period_exponent(cfg, [30], tau_guard=10**6)


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
