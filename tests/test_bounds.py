import math
from fractions import Fraction

import mpmath as mp
import pytest

from matprng.arith import PrimePowerModulus
from matprng.generator import GeneratorConfig
from matprng.analysis.bounds import (
    discrepancy_envelope,
    ford_bound,
    ford_k,
    koksma_szusz_bound,
    korobov_bound,
    theorem_envelope,
)
from matprng.analysis.vinogradov import vinogradov_count


class TestFordBound:
    def test_k_value(self):
        assert ford_k(2, 2) == 16  # floor(24 log 2)

    def test_exponent_value(self):
        fb = ford_bound(2, 2, 4)
        # 2k - r(r+1)/2 + delta r^2 = 32 - 3 + 4/2000
        assert fb.exponent == Fraction(32) - 3 + Fraction(4, 2000)
        assert float(fb.exponent) == pytest.approx(29.002)

    def test_delta(self):
        assert ford_bound(3, 5, 2).delta_r == Fraction(1, 5000)

    def test_monotone_in_m(self):
        assert ford_bound(2, 2, 4).value >= ford_bound(2, 2, 2).value

    def test_validity_flag(self):
        assert not ford_bound(2, 2, 4).valid
        assert ford_bound(2000, 2, 4).valid
        assert ford_bound(10, 2, 4, c0=5).valid

    def test_huge_values_finite(self):
        fb = ford_bound(8, 2, 100)
        assert mp.isfinite(fb.value) and fb.value > 0

    def test_value_formula_small(self):
        fb = ford_bound(1, 2, 3)
        # r=1: r^{3r^3} = 1; exponent = 2k - 1 + 1/2000
        expected = 3.0 ** (2 * fb.k - 1 + 1 / 2000.0)
        assert float(fb.value) == pytest.approx(expected, rel=1e-12)


class TestKorobovBound:
    def test_plug_in_example(self):
        kb = korobov_bound([10], 10, 1, 1, n_count=10)
        expected = math.sqrt(64 * math.log(30)) * 10**2 * 10 * min(
            10.0, math.sqrt(10) + 10 / math.sqrt(10)
        )
        assert float(kb.value_power) == pytest.approx(expected, rel=1e-12)
        assert float(kb.value) == pytest.approx(expected ** 0.5, rel=1e-12)

    def test_unit_denominators_cap(self):
        # q = 1: min{M^l, 1 + M^l} = M^l
        kb = korobov_bound([1, 1], 3, 2, 2, n_count=vinogradov_count(2, 2, 3))
        base = korobov_bound([10**9, 10**9], 3, 2, 2, n_count=vinogradov_count(2, 2, 3))
        assert kb.q_max == 1
        assert float(kb.value_power) >= 0
        # huge q makes the min factor sqrt-driven and the log factor larger
        assert base.q_max == 10**9

    def test_q_max_echoed(self):
        kb = korobov_bound([3, 17, 5], 4, 2, 3, n_count=100)
        assert kb.q_max == 17

    def test_ford_fallback(self):
        kb = korobov_bound([9, 9], 3, 16, 2, d=2)
        assert kb.used_ford

    def test_bounds_actual_double_sum(self, fib):
        # |sigma|^{2k^2} <= bound for the generator's own double sum with the
        # exact count supplied
        from matprng.analysis.sums import double_sum_sigma
        from matprng.padic import H_coeffs, h_coeffs, order_mod, theta_matrix
        from matprng.arith import det_exact

        cfg = GeneratorConfig.create(fib, PrimePowerModulus(3, 4), (1, 0), (1, 0), level="thm1")
        s, r = 1, 3
        p, t = 3, 4
        m_grid = 3
        sigma = double_sum_sigma(cfg, n=0, s=s, r=r)
        tau_s = order_mod(fib, PrimePowerModulus(p, s))
        b = theta_matrix(fib, p, s, tau_s)
        h = h_coeffs(fib, (1, 0), (1, 0), b, 0, r)
        big = H_coeffs(h, r, s, p)
        denom = p**t * math.factorial(r) * det_exact(fib)
        qs = []
        for j in range(1, r + 1):
            num = big[j] * p ** (s * j)
            g = math.gcd(abs(num), abs(denom))
            qs.append(abs(denom) // g)
        k = 2
        kb = korobov_bound(qs, m_grid, k, r, n_count=vinogradov_count(k, r, m_grid))
        assert abs(sigma) ** (2 * k * k) <= float(kb.value_power) * (1 + 1e-9)


class TestEnvelopes:
    def test_full_modulus_exponent(self):
        # rho = 1, eta = c = 1, d = 2: N^{1 - 1/(16 log^2 2)}
        n = 81
        env = theorem_envelope(n, 3, 4, 2)
        expected = n ** (1 - 1 / (16 * math.log(2) ** 2))
        assert float(env) == pytest.approx(expected, rel=1e-12)

    def test_n_one_gives_c(self):
        assert float(theorem_envelope(1, 3, 4, 2, eta=2.0, c=7.5)) == 7.5

    def test_monotone_in_eta(self):
        values = [float(theorem_envelope(729, 3, 6, 2, eta=e)) for e in (0.5, 1.0, 2.0)]
        assert values[0] > values[1] > values[2]

    def test_d_power_knob(self):
        stronger = theorem_envelope(729, 3, 6, 2, d_power=1)
        weaker = theorem_envelope(729, 3, 6, 2, d_power=4)
        assert float(stronger) < float(weaker)

    def test_discrepancy_envelope_shape(self):
        n = 729
        env = discrepancy_envelope(n, 3, 6, 2)
        rho = math.log(n) / (6 * math.log(3))
        expected = n ** (-rho * rho / (16 * math.log(2) ** 2)) * math.log(n) ** 2
        assert float(env) == pytest.approx(expected, rel=1e-12)

    def test_d1_rejected(self):
        with pytest.raises(ValueError):
            theorem_envelope(10, 3, 2, 1)


class TestKoksmaSzusz:
    @pytest.fixture
    def cfg(self, fib):
        return GeneratorConfig.create(fib, PrimePowerModulus(3, 4), (1, 0), (1, 0), level="thm1")

    def test_vector_count_d2_v1(self, cfg):
        ks = koksma_szusz_bound(cfg, 72, 1)
        assert ks.n_vectors == 8  # (2*1+1)^2 - 1

    def test_dominates_exact_discrepancy(self, cfg, fib):
        from matprng.analysis.discrepancy import exact_discrepancy
        from matprng.generator import fractional_points

        for t in (3, 4):
            cfg_t = GeneratorConfig.create(fib, PrimePowerModulus(3, t), (1, 0), (1, 0))
            for n in (72, 216):
                for v_range in (4, 8):
                    ks = koksma_szusz_bound(cfg_t, n, v_range)
                    exact = exact_discrepancy(fractional_points(cfg_t, n))
                    assert float(exact.value) <= float(ks.value)

    def test_gcd_reduction_matches_direct(self, cfg):
        # v = (p, 0) with t >= 2 is the same sum at modulus p^{t-1}
        from matprng.analysis.bounds import _frequency_abs_sum
        from matprng.generator import vector_sequence
        import numpy as np

        pts = np.array(vector_sequence(cfg, 0, 100), dtype=np.int64)
        direct = abs(
            sum(
                complex(math.cos(2 * math.pi * ((3 * u[0]) % 81) / 81),
                        math.sin(2 * math.pi * ((3 * u[0]) % 81) / 81))
                for u in pts
            )
        )
        routed = _frequency_abs_sum(pts, (3, 0), 3, 4)
        assert routed == pytest.approx(direct, abs=1e-9)
