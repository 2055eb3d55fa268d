import cmath
import math
from decimal import Decimal
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from matprng.arith import IntMatrix, PrimePowerModulus, mat_vec_mod
from matprng.generator import GeneratorConfig
from matprng.analysis.bounds import (
    discrepancy_envelope,
    ford_bound,
    ford_k,
    koksma_szusz_bound,
    korobov_bound,
    theorem_envelope,
)
from matprng.analysis.sums import _angles
from matprng.analysis.vinogradov import vinogradov_count
from matprng.stream import mat_stream


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
        assert fb.value.is_finite() and fb.value > 0

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

    def test_exact_decimals(self):
        # pinned to the digit: the exponent is -eta0 rounded to 45 digits
        # times rho^2, which differs in the last digit from -(eta0 rho^2)
        assert discrepancy_envelope(5000, 3, 6, 2, eta0=0.1) == Decimal(
            "60.2915928408632993131130895433411529393534594"
        )
        assert theorem_envelope(729, 3, 6, 2, eta=0.1, c=1.5) == Decimal(
            "1003.64201948660817431840520842751346701640512"
        )
        assert discrepancy_envelope(1, 3, 6, 2, eta0=0.1, c0=2.5) == Decimal("2.5")

    def test_past_the_exponent_range(self):
        # 10^(10^18) and beyond read Infinity (or 0), and 0 * Infinity NaN
        from matprng.reports import dec30

        assert dec30(theorem_envelope(10, 3, 2, 2, eta=-1e300)) == "+inf"
        assert dec30(theorem_envelope(10, 3, 2, 2, eta=-1e300, c=0.0)) == "nan"
        assert dec30(discrepancy_envelope(10, 3, 2, 2, eta0=1e300)) == "0.0"
        assert dec30(ford_bound(10**7, 2, 1).value) == "+inf"

    def test_d1_rejected(self):
        with pytest.raises(ValueError):
            theorem_envelope(10, 3, 2, 1)


# one generator matrix per dimension d
MATRICES = {
    1: IntMatrix.from_rows([[5]]),
    2: IntMatrix.from_rows([[0, 1], [1, 1]]),
    3: IntMatrix.from_rows([[0, 0, 1], [1, 0, 1], [0, 1, 1]]),
}


def reference_terms(cfg, n, v_range) -> list[float]:
    """|S(N; u, v)| / r(v) for one v of each pair v, -v with 0 < ||v|| <= V,
    from phases reduced on Python-int residues and added by fsum."""
    p, t = cfg.m.p, cfg.m.t
    points, u = [], cfg.u0
    for _ in range(n):
        points.append(u)
        u = mat_vec_mod(cfg.a, u, cfg.m)
    terms = []
    for v in product(range(-v_range, v_range + 1), repeat=cfg.a.d):
        if next((x for x in v if x != 0), 0) <= 0:
            continue
        nu = 0
        while nu < t and all(x % p ** (nu + 1) == 0 for x in v):
            nu += 1
        mod = p ** (t - nu)
        phases = [sum(a // p**nu * b for a, b in zip(v, pt)) % mod for pt in points]
        ang = _angles(phases, mod)
        s = complex(math.fsum(np.cos(ang).tolist()), math.fsum(np.sin(ang).tolist()))
        terms.append(abs(s) / math.prod(max(abs(x), 1) for x in v))
    return terms


class TestKoksmaSzusz:
    @pytest.fixture
    def cfg(self, fib):
        return GeneratorConfig.create(fib, PrimePowerModulus(3, 4), (1, 0), (1, 0), level="thm1")

    @pytest.mark.parametrize("n", [0, -3])
    def test_n_below_one(self, cfg, monkeypatch, n):
        # refused before the points are streamed, not a NaN bound
        from matprng.analysis import bounds

        monkeypatch.setattr(bounds, "mat_stream", None)
        with pytest.raises(ValueError, match="^N must be >= 1$"):
            koksma_szusz_bound(cfg, n, 2)

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

    @pytest.mark.parametrize("d, p, t, v_range, n", [
        # Fibonacci mod 3^t, V = 3: t = 4 runs the stream in int64, t = 20
        # narrows an exact-int stream to int64 for the phases, t = 40 stays
        # on exact ints; n = 5000 is past the kernel's short rows
        pytest.param(2, 3, 4, 3, 50, id="4-50"),
        pytest.param(2, 3, 4, 3, 5000, id="4-5000"),
        pytest.param(2, 3, 20, 3, 5000, id="20-5000"),
        pytest.param(2, 3, 40, 3, 50, id="40-50"),
        pytest.param(2, 3, 40, 3, 5000, id="40-5000"),
        # V >= p, so that p^nu divides v for nu up to 3, and nu = t
        pytest.param(1, 2, 12, 8, 1, id="d1-2^12-V8-N1"),
        pytest.param(1, 2, 12, 8, 5000, id="d1-2^12-V8-N5000"),
        pytest.param(1, 317, 3, 634, 7, id="d1-317^3-V634-N7"),
        pytest.param(2, 2, 2, 4, 5000, id="d2-2^2-V4-N5000"),
        pytest.param(2, 3, 3, 9, 64, id="d2-3^3-V9-N64"),
        pytest.param(3, 2, 20, 4, 64, id="d3-2^20-V4-N64"),
        # p^t below and above 2^53, and d V p^t below and above the int64
        # edge 2^63 (2 * 4 * 2^59 = 2^62, 2 * 4 * 2^60 = 2^63)
        pytest.param(2, 2, 50, 4, 64, id="d2-2^50-V4-N64"),
        pytest.param(2, 2, 54, 4, 7, id="d2-2^54-V4-N7"),
        pytest.param(2, 2, 59, 4, 64, id="d2-2^59-V4-N64"),
        pytest.param(2, 2, 60, 4, 64, id="d2-2^60-V4-N64"),
        pytest.param(2, 3, 33, 9, 1, id="d2-3^33-V9-N1"),
        pytest.param(3, 3, 34, 3, 64, id="d3-3^34-V3-N64"),
        pytest.param(3, 3, 40, 3, 7, id="d3-3^40-V3-N7"),
        # p = 317, and a prime above 2^63, whose residues are exact ints
        pytest.param(2, 317, 2, 3, 5000, id="d2-317^2-V3-N5000"),
        pytest.param(1, 2**64 - 59, 1, 5, 5000, id="d1-bigp-V5-N5000"),
        pytest.param(2, 2**64 - 59, 2, 2, 64, id="d2-bigp^2-V2-N64"),
    ])
    def test_matches_fsum_reference(self, d, p, t, v_range, n):
        cfg = GeneratorConfig(MATRICES[d], PrimePowerModulus(p, t), (1, 2, 3)[:d])
        terms = reference_terms(cfg, n, v_range)
        ks = koksma_szusz_bound(cfg, n, v_range)
        assert ks.n_vectors == 2 * len(terms) == (2 * v_range + 1) ** d - 1
        assert ks.sum_term == 2.0 * math.fsum(terms)

    @pytest.mark.parametrize("t, dtype", [(61, np.int64), (62, object)])
    def test_phase_dtype_edge(self, fib, monkeypatch, t, dtype):
        # p = 2, d = 2, V = 1: every phase dot product is below
        # d V p^t = 2^(t+1), so t = 61 is the last exponent on int64
        from matprng.analysis import bounds

        seen = []

        def spy(x, mod):
            seen.append(x.dtype)
            return row_sums(x, mod)

        row_sums = bounds._row_sums
        monkeypatch.setattr(bounds, "_row_sums", spy)
        cfg = GeneratorConfig(fib, PrimePowerModulus(2, t), (2**t - 1, 2**t - 3))
        terms = reference_terms(cfg, 40, 1)
        ks = koksma_szusz_bound(cfg, 40, 1)
        assert set(seen) == {np.dtype(dtype)}
        assert ks.n_vectors == 2 * len(terms) == 8
        assert ks.sum_term == 2.0 * math.fsum(terms)

    def test_gcd_reduction_matches_direct(self, fib):
        # where p^nu divides v the sum is taken over p^(t - nu), and is N
        # at nu = t; over p^t, unreduced, it is the same sum.  V = 9 at
        # p = 3 reaches nu = 2, which is t at t = 2 and past it at t = 1
        n = 100
        for t in (1, 2, 4):
            cfg = GeneratorConfig(fib, PrimePowerModulus(3, t), (1, 0))
            points = [tuple(u) for u in mat_stream(cfg.a, cfg.u0, cfg.m, n).tolist()]
            direct = 0.0
            for v in product(range(-9, 10), repeat=2):
                if next((x for x in v if x != 0), 0) > 0:
                    phases = (sum(a * b for a, b in zip(v, u)) % 3**t / 3**t for u in points)
                    s = sum(cmath.exp(2j * math.pi * x) for x in phases)
                    direct += abs(s) / math.prod(max(abs(x), 1) for x in v)
            assert koksma_szusz_bound(cfg, n, 9).sum_term == pytest.approx(2 * direct, rel=1e-12)
