import itertools
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from matprng.arith import (
    IntMatrix,
    IntPolynomial,
    PrimePowerModulus,
    char_poly,
    companion_matrix,
    det_exact,
    mat_add,
    mat_mul_mod,
    mat_pow,
    mat_pow_mod,
    mat_vec,
    valuation,
    vec_dot,
)
from matprng.errors import (
    DegenerateMatrixError,
    ExactDivisionError,
    NotInvertibleError,
    NotIrreducibleError,
    NonSquarefreeError,
    PreconditionViolatedError,
    ResourceGuardError,
)
from matprng import padic
from matprng.fieldalg import irreducible_mod_p, is_proper_pair
from matprng.padic import (
    H_coeffs,
    _growth,
    _order_mod_p,
    binomial_to_monomial,
    compute_w,
    h_coeffs,
    lift_roots,
    order_mod,
    order_sequence,
    period_profile,
    theta_matrix,
)
from conftest import brute_force_order


def _ratio(x: IntMatrix, y: IntMatrix, m: PrimePowerModulus) -> IntMatrix:
    """X Y^-1 mod p^s."""
    return mat_mul_mod(x, padic._inverse(y, m), m)


def _beta(x: IntMatrix, y: IntMatrix, m: PrimePowerModulus) -> int:
    """beta(x, y) = v_p(x^tau - y^tau) with tau the order of x / y mod p
    (mod 4 for p = 2), capped at the precision: the second value of
    `_growth` on the ratio, from a brute-force order mod p."""
    ratio = _ratio(x, y, m)
    return _growth(ratio, brute_force_order(ratio, m.p, 1), m)[1]


def _poly_at(coeffs, g: IntMatrix, m: PrimePowerModulus) -> IntMatrix:
    """sum_i c_i G^i mod p^s, one power per term."""
    d = g.d
    total = [[0] * d for _ in range(d)]
    for i, c in enumerate(coeffs):
        for row, power_row in zip(total, mat_pow_mod(g, i, m).entries):
            for j, x in enumerate(power_row):
                row[j] += c * x
    return IntMatrix.from_rows(total).reduce(m.modulus)


def _irreducible_polys(rng: random.Random, p: int, d: int, count: int) -> list[IntPolynomial]:
    polys = []
    while len(polys) < count:
        f = IntPolynomial(tuple(rng.randint(-9, 9) for _ in range(d)) + (1,))
        if irreducible_mod_p(f, p):
            polys.append(f)
    return polys


class TestOrderMod:
    def test_fib_mod_3(self, fib):
        assert order_mod(fib, PrimePowerModulus(3, 1)) == 8

    def test_fib_mod_9(self, fib):
        assert order_mod(fib, PrimePowerModulus(3, 2)) == 24

    def test_identity(self):
        assert order_mod(IntMatrix.identity(3), PrimePowerModulus(5, 4)) == 1

    def test_not_invertible(self, fib):
        with pytest.raises(NotInvertibleError):
            order_mod(IntMatrix.from_rows([[3, 1], [0, 1]]), PrimePowerModulus(3, 2))

    @pytest.mark.parametrize("p,s", [(3, 1), (3, 2), (3, 3), (7, 1), (7, 2), (5, 2)])
    def test_against_brute_force(self, fib, p, s):
        assert order_mod(fib, PrimePowerModulus(p, s)) == brute_force_order(fib, p, s)

    @pytest.mark.parametrize(
        "g, p, law",
        [
            (4, 3, (1, 1)),  # p odd: 4 = 1 + 3
            (10, 3, (1, 2)),  # p odd, growth from s = 3
            (8, 3, (2, 2)),  # order 2 mod 3; 8^2 = 1 + 9 * 7
            (3, 2, (2, 3)),  # p = 2, b = 1: order 2 mod 4, 3^2 = 1 + 8
            (7, 2, (2, 4)),  # p = 2, b = 1: 7^2 = 1 + 16 * 3
            (5, 2, (1, 2)),  # p = 2, b = 2: 5 = 1 + 4
            (17, 2, (1, 4)),  # p = 2, b = 4
            (1, 5, (1, 8)),  # finite order: the valuation is the precision
        ],
    )
    def test_growth(self, g, p, law):
        prec = 8
        tau = next(e for e in itertools.count(1) if pow(g, e, p) == 1)
        assert _growth(IntMatrix(((g,),)), tau, PrimePowerModulus(p, prec)) == law
        tau0, beta0 = law
        for s in range(2, prec + 1):
            order = next(e for e in itertools.count(1) if pow(g, e, p**s) == 1)
            assert order == tau0 * p ** max(0, s - beta0)

    def test_fixture_matrices_against_brute_force(self, m2x2, m3x3):
        for a, p in ((m2x2, 5), (m3x3, 2)):
            for s in (1, 2, 3):
                assert order_mod(a, PrimePowerModulus(p, s)) == brute_force_order(a, p, s)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_and_jordan_against_brute_force(self, p, d):
        rng = random.Random(1000 * p + d)
        mats = []
        while len(mats) < 6:
            a = IntMatrix.from_rows([[rng.randrange(p * p) for _ in range(d)] for _ in range(d)])
            if det_exact(a) % p:
                mats.append(a)
        # Jordan blocks lam * I + N: unipotent part of order p, or p^2 once
        # d > p; their char polys (X - lam)^d are not squarefree mod p
        for lam in {1, p - 1, rng.randrange(1, p)}:
            mats.append(
                IntMatrix.from_rows(
                    [[lam if i == j else int(j == i + 1) for j in range(d)] for i in range(d)]
                )
            )
        if d == 3:
            # (X - 1)^2 (X + 1) mod p: a repeated factor beside a simple one
            mats.append(IntMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, p - 1]]))
            # companion of (X^2 + 1)(X + 1) = X^3 + X^2 + X + 1 mod p
            mats.append(companion_matrix(IntPolynomial((1, 1, 1, 1))))
        for a in mats:
            for s in (1, 2):
                assert order_mod(a, PrimePowerModulus(p, s)) == brute_force_order(a, p, s), a


class TestPeriodProfile:
    def test_fib_p3(self, fib):
        prof = period_profile(fib, 3, 5)
        assert prof.taus == (8, 24, 72, 216, 648)
        assert (prof.tau_star, prof.beta_star, prof.s_star) == (8, 1, 1)

    def test_fib_p7(self, fib):
        prof = period_profile(fib, 7, 3)
        assert prof.taus == (16, 112, 784)
        assert (prof.tau_star, prof.beta_star) == (16, 1)

    def test_identity_degenerate(self):
        with pytest.raises(DegenerateMatrixError):
            period_profile(IntMatrix.identity(2), 3, 3)

    def test_growth_law_and_ratios(self, fib, m2x2, m3x3):
        for a, p in ((fib, 3), (m2x2, 5), (m3x3, 2)):
            prof = period_profile(a, p, 6)
            for s in range(1, 6):
                assert prof.taus[s] % prof.taus[s - 1] == 0
                assert prof.taus[s] // prof.taus[s - 1] in (1, p)
            for s in range(prof.s_star, 7):
                assert prof.tau(s) == prof.tau_star * p ** (s - prof.beta_star)

    def test_large_order_profiles_fast(self):
        # companion of X^2 - X - 3 at p = 3001: tau_1 = 1 501 000, which
        # repeated multiplication needs seconds to reach
        a = companion_matrix(IntPolynomial((-3, -1, 1)))
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            prof = period_profile(a, 3001, 3)
            best = min(best, time.perf_counter() - start)
        assert prof.taus == (1_501_000, 1_501_000 * 3001, 1_501_000 * 3001**2)
        assert best < 0.05

    def test_growth_that_starts_past_the_drawn_orders_is_degenerate(self):
        # tau_s = 1 for s <= 60; s_max + 48 orders reach the growth at s_max = 13
        a = IntMatrix.from_rows([[1, 3**60], [0, 1]])
        prof = period_profile(a, 3, 13)
        assert (prof.s_star, prof.tau_star, prof.beta_star) == (60, 1, 60)
        with pytest.raises(DegenerateMatrixError):
            period_profile(a, 3, 12)

    def test_plateau_profile(self):
        # X^2 - 4X - 19 mod 3: both roots have order 8 mod 3 and mod 9
        # (brute-force verified), so the growth only starts at s = 2
        a = companion_matrix(IntPolynomial((-19, -4, 1)))
        prof = period_profile(a, 3, 5)
        assert prof.taus == (8, 8, 24, 72, 216)
        assert (prof.tau_star, prof.beta_star, prof.s_star) == (8, 2, 2)
        assert prof.taus == tuple(brute_force_order(a, 3, s) for s in range(1, 6))



class TestOrderTableGuard:
    def test_deep_table_raises_before_the_first_lift(self, monkeypatch):
        # p = 317, s_max = 10^5: orders of about 250 000 digits
        drawn = []
        monkeypatch.setattr(padic, "order_sequence", lambda *args: drawn.append(args))
        a = IntMatrix.from_rows([[0, 1], [3, 1]])
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ResourceGuardError, match="^order_digits: 250[0-9]{3}, limit 4300$"):
                period_profile(a, 317, 10**5)
            assert time.perf_counter() - start < 0.5
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()
        assert drawn == []

    # the deepest admitted s_max: L * p^(s_max - 1) < 10^digits, L = 24 at
    # p = 3 and L = (p^2 - 1) p otherwise
    @pytest.mark.parametrize("limit, deepest", [
        (None, (9010, 1717, 232)),
        (640, (1339, 253, 32)),
        (0, (9010, 1717, 232)),  # no limit reads as the default, 4300
    ])
    def test_deepest_admitted_table(self, limit, deepest):
        saved = sys.get_int_max_str_digits()
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        try:
            for (rows, p), s_max in zip([([[0, 1], [1, 1]], 3), ([[0, 1], [3, 1]], 317),
                                          ([[0, 1], [3, 1]], 2**61 - 1)], deepest):
                a = IntMatrix.from_rows(rows)
                assert len(period_profile(a, p, s_max).taus) == s_max
                with pytest.raises(ResourceGuardError, match="^order_digits: ") as info:
                    period_profile(a, p, s_max + 1)
                assert info.value.limit == (limit or 4300) < info.value.value
        finally:
            sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize("rows, p, s_max", [
        ([[0, 1], [1, 1]], 3, 240),  # Fibonacci at depth 240
        ([[0, 1], [3, 1]], 317, 300),
        ([[0, 1], [3, 1]], 2**61 - 1, 2),
        ([[0, 1], [3, 1]], 2**127 - 1, 2),
        ([[0, 1, 0], [0, 0, 1], [1, 1, 0]], 2, 500),
    ])
    def test_tables_build_in_under_a_second(self, rows, p, s_max):
        start = time.perf_counter()
        prof = period_profile(IntMatrix.from_rows(rows), p, s_max)
        assert time.perf_counter() - start < 1
        assert len(prof.taus) == s_max

    def test_fibonacci_at_depth_240(self, fib):
        prof = period_profile(fib, 3, 240)
        assert prof.taus[-1] == 8 * 3**239


def order_sequence_oracle(a, p):
    """The order table as first written: every lift tests its candidates
    with a fresh A^e mod p^s (O(s^2) products to depth s)."""
    tau = _order_mod_p(a, p)
    for s in itertools.count(2):
        yield tau
        ms = PrimePowerModulus(p, s)
        tau = next(e for e in (tau, p * tau) if mat_pow_mod(a, e, ms).is_identity())


class TestOrderSequence:
    @pytest.mark.parametrize(
        "rows, p, depth",
        [
            ([[0, 1], [1, 1]], 3, 120),
            ([[0, 1], [1, 1]], 7, 120),
            ([[1, 2], [1, 1]], 5, 120),
            ([[0, 1, 0], [0, 0, 1], [1, 1, 0]], 2, 120),
            ([[0, 1], [19, 4]], 3, 120),  # plateau: tau_1 = tau_2 = 8
            ([[1, 3**7], [0, 1]], 3, 120),  # tau_s = 1 up to s = 7
            ([[1, 0], [0, 1]], 5, 120),  # finite order: tau_s = 1 throughout
            ([[3, 0], [0, 3]], 2, 120),  # a lift (tau_2 = 2), then a plateau (tau_3 = 2)
            ([[0, 1], [-1, 0]], 2, 120),  # order 4: tau_s = 4 from s = 2 on
            ([[0, 1], [3, 1]], 3001, 12),
        ],
    )
    def test_matches_fresh_powers(self, rows, p, depth):
        a = IntMatrix.from_rows(rows)
        got = list(itertools.islice(order_sequence(a, p), depth))
        assert got == list(itertools.islice(order_sequence_oracle(a, p), depth))

    def test_lazy_and_not_invertible(self):
        orders = order_sequence(IntMatrix.from_rows([[3, 1], [0, 1]]), 3)  # nothing runs yet
        with pytest.raises(NotInvertibleError):
            next(orders)

    @given(
        st.sampled_from([2, 3, 5, 7]).flatmap(lambda p: st.tuples(
            st.just(p),
            st.integers(1, 3).flatmap(
                lambda d: st.lists(st.lists(st.integers(-9, 9), min_size=d, max_size=d), min_size=d, max_size=d)
            ),
            st.sampled_from([None, 1, -1]),  # N itself, I + p^k N or -I + p^k N
            st.integers(1, 12),
        ))
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_fresh_powers_on_random_matrices(self, case):
        p, n, shift, k = case
        d = len(n)
        if shift is None:
            a = IntMatrix.from_rows(n)
        else:
            a = IntMatrix.from_rows([[shift * (i == j) + p**k * n[i][j] for j in range(d)] for i in range(d)])
        if det_exact(a) % p == 0:
            return
        got = list(itertools.islice(order_sequence(a, p), 40))
        assert got == list(itertools.islice(order_sequence_oracle(a, p), 40))

    def test_no_product_once_the_valuation_resolves(self, fib, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return mat_pow_mod(*args)

        monkeypatch.setattr(padic, "mat_pow_mod", spy)
        orders = order_sequence(fib, 3)
        assert list(itertools.islice(orders, 2)) == [8, 24]
        resolved = len(calls)
        for s, tau in enumerate(itertools.islice(orders, 1000), start=3):
            assert tau == 8 * 3 ** (s - 1)
        assert len(calls) == resolved

    @pytest.mark.parametrize("depth", [1, 2, 4, 5, 10, 11, 22, 23, 46, 47, 60])
    def test_finite_order_precision_stays_within_twice_the_depth(self, depth, monkeypatch):
        used = []

        def modulus(p, t):
            used.append(t)
            return PrimePowerModulus(p, t)

        monkeypatch.setattr(padic, "PrimePowerModulus", modulus)
        orders = list(itertools.islice(order_sequence(IntMatrix.from_rows([[0, 1], [-1, 0]]), 3), depth))
        assert orders == [4] * depth
        assert max(used) <= 2 * depth

    def test_depth_120_linear_cost(self, fib):
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            prof = period_profile(fib, 3, 120)
            best = min(best, time.perf_counter() - start)
        assert prof.taus[-1] == 8 * 3**119
        assert best < 0.1


class TestLiftRoots:
    def test_linear(self):
        assert lift_roots(IntPolynomial((-5, 1)), 3, 4) == (IntMatrix(((5,),)),)

    def test_fib_precision_1(self, fib_poly):
        roots = lift_roots(fib_poly, 3, 1)
        assert roots[0] == IntMatrix.from_rows([[0, 1], [1, 1]])  # C
        assert roots[1] == IntMatrix.from_rows([[1, 2], [2, 0]])  # I - C mod 3 (sum of roots = 1)

    def test_fib_precision_3(self, fib_poly):
        m = PrimePowerModulus(3, 3)
        for g in lift_roots(fib_poly, 3, 3):
            assert _poly_at(fib_poly.coeffs, g, m) == IntMatrix.zeros(2)  # f(gamma) = 0 mod 27

    def test_reducible_rejected(self):
        with pytest.raises(NotIrreducibleError):
            lift_roots(IntPolynomial((-1, 0, 1)), 3, 2)  # X^2 - 1 splits

    def test_nonsquarefree_rejected(self):
        with pytest.raises(NonSquarefreeError):
            lift_roots(IntPolynomial((1, 2, 1)), 3, 2)  # (X+1)^2

    def test_cubic_roots_mod_2(self, m3x3):
        f = char_poly(m3x3)
        m = PrimePowerModulus(2, 10)
        roots = lift_roots(f, 2, 10)
        for g in roots:
            assert _poly_at(f.coeffs, g, m) == IntMatrix.zeros(3)
        assert len({g.reduce(2) for g in roots}) == 3

    def test_one_cold_inverse_per_conjugate(self, monkeypatch):
        # f'(Z) mod p is the same at every Newton step, so each inverse after
        # a conjugate's first starts from the one before
        starts = []
        inverse = padic._inverse
        monkeypatch.setattr(padic, "_inverse", lambda y, m, start=None: starts.append(start) or inverse(y, m, start))
        f = IntPolynomial((2, 1, 0, 0, 1))  # irreducible mod 3
        roots = lift_roots(f, 3, 40)
        assert sum(start is None for start in starts) == f.degree - 1 < len(starts)
        for g in roots:
            assert _poly_at(f.coeffs, g, PrimePowerModulus(3, 40)) == IntMatrix.zeros(4)

    def test_inverse_from_a_start(self, fib):
        m = PrimePowerModulus(3, 20)
        y = mat_pow(fib, 5)
        start = padic._inverse(y, PrimePowerModulus(3, 1))
        assert padic._inverse(y, m, start) == padic._inverse(y, m)
        with pytest.raises(NotInvertibleError):
            padic._inverse(y, m, IntMatrix.identity(2))  # no inverse of Y mod 3

    @pytest.mark.parametrize("coeffs, p", [((-1, -1, 1), 3), ((-1, -1, 0, 1), 2), ((1, 1, 1), 5),
                                           ((2, 0, 0, 1), 7), ((2, 1, 0, 0, 1), 3)])
    def test_roots_lie_in_the_algebra_of_c(self, coeffs, p):
        # a root commutes with C, so it is a polynomial in C; a Newton start
        # reduced mod p would lead to roots of f outside Z/p^s[C]
        m = PrimePowerModulus(p, 12)
        c, *conjugates = lift_roots(IntPolynomial(coeffs), p, 12)
        for g in conjugates:
            assert mat_mul_mod(c, g, m) == mat_mul_mod(g, c, m)


class TestTauPair:
    """The order of gamma / lambda mod p^s is the order of the ratio matrix
    in Z/p^s[C]: `order_mod` and `order_sequence` on it."""

    def test_fib_root_against_one(self, fib_poly):
        assert order_mod(lift_roots(fib_poly, 3, 4)[0], PrimePowerModulus(3, 1)) == 8

    def test_equal_elements(self, fib_poly):
        m = PrimePowerModulus(3, 4)
        g = lift_roots(fib_poly, 3, 4)[0]
        assert order_mod(_ratio(g, g, m), PrimePowerModulus(3, 1)) == 1

    def test_minus_one(self):
        assert order_mod(IntMatrix(((-1,),)), PrimePowerModulus(3, 2)) == 2

    def test_zero_precision_rejected(self, fib_poly):
        with pytest.raises(ValueError, match="^t = 0 must be >= 1$"):
            lift_roots(fib_poly, 3, 0)

    @pytest.mark.parametrize(
        "coeffs, p",
        [
            ((-1, 0, 1), 5),  # (X - 1)(X + 1)
            ((0, 0, 1), 3),  # X^2
            ((1, 2, 1), 5),  # (X + 1)^2
            ((0, -1, 0, 1), 3),  # X (X - 1)(X + 1)
            ((1, 0, 0, 1), 2),  # (X + 1)(X^2 + X + 1)
            ((1, 1, 1, 1), 3),  # (X + 1)(X^2 + 1)
        ],
    )
    def test_reducible_ring_against_brute_force(self, coeffs, p):
        # every nonzero element of F_p[X]/(f), as a polynomial in C
        c = companion_matrix(IntPolynomial(coeffs))
        d = c.d
        m1 = PrimePowerModulus(p, 1)
        one = IntMatrix.identity(d)
        for index in range(1, p**d):
            x = _poly_at([index // p**i % p for i in range(d)], c, m1)
            power, order = x, 1
            while power != one and order < p**d:
                power, order = mat_mul_mod(power, x, m1), order + 1
            if power == one:
                assert order_mod(x, m1) == order
            else:  # a zero divisor
                with pytest.raises(NotInvertibleError):
                    order_mod(x, m1)
                with pytest.raises(NotInvertibleError):
                    padic._inverse(x, PrimePowerModulus(p, 4))

    @pytest.mark.parametrize(
        "coeffs, p, pair",
        [
            ((-1, -1, 1), 3, (0, 1)),
            ((-1, -1, 1), 7, (1, 0)),
            ((-19, -4, 1), 3, (0, None)),  # plateau: beta(gamma, 1) = 2
            ((-1, -1, 0, 1), 2, (0, 2)),
            ((1, 1, 1), 5, (1, None)),
        ],
    )
    def test_matches_fresh_powers(self, coeffs, p, pair):
        # the lift as first written: a fresh ratio^e at every precision
        depth = 30
        roots = lift_roots(IntPolynomial(coeffs), p, depth)
        one = IntMatrix.identity(len(roots))
        g, l = (one if i is None else roots[i] for i in pair)
        ratio = _ratio(g, l, PrimePowerModulus(p, depth))
        got = list(itertools.islice(order_sequence(ratio, p), depth))
        assert got == list(itertools.islice(order_sequence_oracle(ratio, p), depth))

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    @pytest.mark.parametrize("d", [2, 3])
    def test_least_exponent_on_random_polynomials(self, p, d):
        # the order of the ratio mod p by repeated multiplication, then the
        # least tau_1 p^j with a fresh ratio^e = I (mod p^s)
        m = PrimePowerModulus(p, 8)
        for f in _irreducible_polys(random.Random(100 * p + d), p, d, 3):
            roots = lift_roots(f, p, 8)
            for g in roots:
                for l in roots + (IntMatrix.identity(d),):
                    ratio = _ratio(g, l, m)
                    tau1 = brute_force_order(ratio, p, 1)
                    for s in range(1, 9):
                        ms = PrimePowerModulus(p, s)
                        least = next(tau1 * p**j for j in itertools.count()
                                     if mat_pow_mod(ratio, tau1 * p**j, ms).is_identity())
                        assert order_mod(ratio, ms) == least

    def test_pairwise_growth_dichotomy(self, fib_poly):
        # tau_s(gamma, lambda) = tau_* for s <= beta, tau_* p^{s-beta} beyond
        m = PrimePowerModulus(3, 8)
        g1, g2 = lift_roots(fib_poly, 3, 8)
        ratio = _ratio(g1, g2, m)
        tau_star = order_mod(ratio, PrimePowerModulus(3, 1))
        beta = _growth(ratio, tau_star, m)[1]
        assert beta < 8
        for s in range(1, 8):
            expected = tau_star if s <= beta else tau_star * 3 ** (s - beta)
            assert order_mod(ratio, PrimePowerModulus(3, s)) == expected

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_pair_order_formula(self, p, d):
        # gamma / sigma^k gamma = gamma^(1 - p^k) (mod p), so its order is
        # tau_1 / gcd(tau_1, p^k - 1): against repeated products mod p
        m1 = PrimePowerModulus(p, 1)
        for f in _irreducible_polys(random.Random(10 * p + d), p, d, 2):
            c, *conjugates = lift_roots(f, p, 1)
            tau1 = brute_force_order(c, p, 1)
            for k, root in enumerate(conjugates, start=1):
                assert brute_force_order(_ratio(c, root, m1), p, 1) == tau1 // math.gcd(tau1, p**k - 1)


class TestBetaPair:
    """beta(x, y) = v_p(x^tau - y^tau), tau the order of x / y mod p (mod 4
    for p = 2): the second value of `_growth` on the ratio matrix."""

    def test_fib_roots(self, fib_poly):
        m = PrimePowerModulus(3, 6)
        g1, g2 = lift_roots(fib_poly, 3, 6)
        assert _beta(g1, g2, m) == 1
        assert _beta(g1, IntMatrix.identity(2), m) == 1

    def test_one_plus_p(self):
        assert _beta(IntMatrix(((6,),)), IntMatrix(((1,),)), PrimePowerModulus(5, 8)) == 1

    def test_one_plus_p_squared(self):
        assert _beta(IntMatrix(((26,),)), IntMatrix(((1,),)), PrimePowerModulus(5, 8)) == 2

    def test_auto_raise_precision(self, monkeypatch):
        # X^2 + 4X + 16 + 5^6 (X + 1): the roots are 4 omega and 4 omega^2 up
        # to 5^6, so beta(gamma_1, gamma_2) = 6 over beta_* = 1.  The valuation
        # reads as the cap at the starting precision 4 and resolves at 8.
        precisions = []
        lift = padic._lift_roots
        monkeypatch.setattr(padic, "_lift_roots", lambda f, p, s: precisions.append(s) or lift(f, p, s))
        assert compute_w(IntPolynomial((16 + 5**6, 4 + 5**6, 1)), 5) == 3 * (6 - 1) + 1
        assert precisions == [4, 8]

    def test_equal_elements_hit_cap(self, monkeypatch):
        one = IntMatrix(((1,),))
        assert _beta(one, one, PrimePowerModulus(5, 16)) == 16  # unresolved at any precision
        monkeypatch.setattr(padic, "DEFAULT_PRECISION_CAP", 16)
        with pytest.raises(ResourceGuardError, match="^w_precision: 16, limit 16$"):
            compute_w(IntPolynomial((16, 4, 1)), 5)


def _disc_valuation(g: IntMatrix, p: int):
    """v_p of the discriminant of char_poly(G), exactly over Z: of the
    resultant Res(h, h'), the determinant of their Sylvester matrix."""
    h = char_poly(g)
    f, df = h.coeffs, h.derivative().coeffs
    size = len(f) + len(df) - 2
    rows = [[0] * i + list(f[::-1]) + [0] * (size - len(f) - i) for i in range(len(df) - 1)]
    rows += [[0] * i + list(df[::-1]) + [0] * (size - len(df) - i) for i in range(len(f) - 1)]
    return valuation(det_exact(rows), p)


def _excess_exact(x: IntMatrix, p: int):
    """v_p(X - I), exactly over Z."""
    return min(valuation(v - (i == j), p) for i, row in enumerate(x.entries) for j, v in enumerate(row))


class TestComputeW:
    def test_fib_p3(self, fib_poly):
        assert compute_w(fib_poly, 3) == 1

    def test_balanced_quadratic(self, m2x2):
        # all beta values equal beta_*: max term 0
        assert compute_w(char_poly(m2x2), 5) == 1

    def test_unbalanced_quadratic(self):
        # X^2 - 2X - 7 mod 3: beta(g1, g2) = 2, beta(g_i, 1) = 1 = beta_*
        # (verified by direct ring arithmetic), so w = 3 * 1 + 1 = 4
        assert compute_w(IntPolynomial((-7, -2, 1)), 3) == 4

    def test_p2_cubic(self, m3x3):
        # all pairs have beta = 2 over beta_* = 1 (direct ring arithmetic):
        # w = 6 * 1 + 1 = 7
        assert compute_w(char_poly(m3x3), 2) == 7

    def test_reducible_rejected(self, fib_poly):
        # fib polynomial splits mod 11; w has no root-based value there
        with pytest.raises(NotIrreducibleError):
            compute_w(fib_poly, 11)

    def test_outcomes_match_the_committed_file(self):
        # the outcome script's 50 cases, printed once and kept as a golden:
        # w or the exception's name at two caps, and the validator's verdicts
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, str(root / "scripts" / "compute_w_outcomes.py"), "--cases", "50"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert out == (root / "tests" / "golden" / "compute_w_outcomes.txt").read_text()

    def test_root_of_unity_ratio_hits_the_cap(self):
        # X^2 + 4X + 16 has the roots 4 omega and 4 omega^2: their ratio is a
        # cube root of unity, so beta(gamma_1, gamma_2) is infinite
        with pytest.raises(ResourceGuardError, match="^w_precision: 64, limit 64$"):
            compute_w(IntPolynomial((16, 4, 1)), 5)

    @given(
        st.sampled_from([2, 3, 5, 7, 11]),
        st.sampled_from([2, 3]),
        st.lists(st.integers(-20, 20), min_size=4, max_size=4),
        st.booleans(),
        st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_discriminant_oracle(self, p, d, coeffs, binomial, k):
        # f random, or X^d - a + p^k (...): a root ratio within p^k of a d-th
        # root of unity.  For d <= 3 the pairs of roots are Frobenius
        # conjugates, so one pair order tau and one beta serve them all:
        # tau is the least e with every gamma_i^e = gamma_j^e (mod p, mod 4
        # for p = 2), read from disc(char_poly(C^e)), and then
        # v_p(disc(char_poly(C^tau))) = d(d - 1) beta
        if binomial:
            perturbation = IntPolynomial([p**k * x for x in coeffs[1:d + 1]])
            f = IntPolynomial([-coeffs[0]] + [0] * (d - 1) + [1]) + perturbation
        else:
            f = IntPolynomial(coeffs[:d] + [1])
        assume(irreducible_mod_p(f, p))
        c = companion_matrix(f)
        tau_one = brute_force_order(c, p, 2 if p == 2 else 1)
        beta_one = _excess_exact(mat_pow(c, tau_one), p)
        assume(beta_one != math.inf)  # C of finite order: no growth, no beta_*
        pairs = d * (d - 1)
        floor = 2 * pairs if p == 2 else pairs
        # the least e, from C^e mod p^(floor + 1), which decides v_p(disc) >= floor
        m = PrimePowerModulus(p, floor + 1)
        tau = next(e for e in itertools.count(1) if _disc_valuation(mat_pow_mod(c, e, m), p) >= floor)
        disc_valuation = _disc_valuation(mat_pow(c, tau), p)
        if disc_valuation == math.inf:  # a root ratio is a root of unity
            with pytest.raises(ResourceGuardError, match="^w_precision: "):
                compute_w(f, p)
            return
        beta_pair, rem = divmod(disc_valuation, pairs)
        assert rem == 0
        beta_star = period_profile(c, p, 3).beta_star
        w = d * (d + 1) // 2 * max(beta_pair - beta_star, beta_one - beta_star, 0) + 1
        assert compute_w(f, p) == w


class TestThetaMatrix:
    def test_fib_level_1(self, fib):
        assert mat_pow(fib, 8) == IntMatrix.from_rows([[13, 21], [21, 34]])
        b = theta_matrix(fib, 3, 1, 8)
        assert b == IntMatrix.from_rows([[4, 7], [7, 11]])

    def test_identity(self):
        assert theta_matrix(IntMatrix.identity(2), 3, 4, 1) == IntMatrix.zeros(2)

    def test_level_2_unit_part(self, fib):
        b = theta_matrix(fib, 3, 2, 24)
        assert any(x % 3 != 0 for row in b.entries for x in row)

    def test_wrong_tau_rejected(self, fib):
        with pytest.raises(ExactDivisionError):
            theta_matrix(fib, 3, 2, 8)  # A^8 != I mod 9

    @pytest.mark.parametrize("p, s, t", [(3, 1, 1), (3, 2, 3), (3, 3, 6), (2, 4, 7), (5, 2, 4)])
    def test_mod_p_t_is_the_exact_b_reduced(self, fib, p, s, t):
        tau_s = order_mod(fib, PrimePowerModulus(p, s))
        exact = theta_matrix(fib, p, s, tau_s)
        assert theta_matrix(fib, p, s, tau_s, t) == exact.reduce(p ** (t - s))

    def test_mod_p_t_wrong_tau_rejected(self, fib):
        with pytest.raises(ExactDivisionError):
            theta_matrix(fib, 3, 2, 8, 4)


class TestHCoeffs:
    def test_fib_first_values(self, fib):
        # v A^0 B^j u = 1, 4, 65 with B = [[4,7],[7,11]]; the stored
        # coefficients carry the det A = -1 normalization so that the
        # expansion congruence below holds with det A on the left.
        b = theta_matrix(fib, 3, 1, 8)
        h = h_coeffs(fib, (1, 0), (1, 0), b, 0, 2)
        assert h == [-1, -4, -65]
        assert h[0] == det_exact(fib) * 1
        assert h[1] == det_exact(fib) * 4
        assert h[2] == det_exact(fib) * (4 * 4 + 7 * 7)

    def test_expansion_identity_exact(self, fib):
        # det A * u_{n + tau_s m} = sum_j h_{n,j} p^{sj} C(m,j), exactly over Z
        rng = random.Random(1)
        m = PrimePowerModulus(3, 6)
        det = det_exact(fib)
        for s, tau_s in ((1, 8), (2, 24)):
            b = theta_matrix(fib, 3, s, tau_s)
            for _ in range(12):
                n = rng.randrange(0, 100)
                mm = rng.randrange(0, 50)
                h = h_coeffs(fib, (1, 0), (1, 0), b, n, mm)
                lhs = det * vec_dot((1, 0), mat_vec(mat_pow(fib, n + tau_s * mm), (1, 0)))
                rhs = sum(h[j] * 3 ** (s * j) * comb(mm, j) for j in range(mm + 1))
                assert lhs == rhs


class TestBinomialToMonomial:
    @pytest.mark.parametrize(
        "i,row", [(0, [1]), (1, [0, 1]), (2, [0, -1, 1]), (3, [0, 2, -3, 1])]
    )
    def test_rows(self, i, row):
        assert binomial_to_monomial(i) == row

    def test_diagonal_is_one(self):
        for i in range(12):
            assert binomial_to_monomial(i)[i] == 1

    @given(st.integers(0, 8), st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_identity_against_binomial(self, i, m):
        row = binomial_to_monomial(i)
        assert sum(c * m**j for j, c in enumerate(row)) == comb(m, i) * factorial(i)


class TestHCapital:
    def test_r_zero(self):
        assert H_coeffs([17], 0, 1, 3) == [17]

    def test_leading_term(self, fib):
        b = theta_matrix(fib, 3, 2, 24)
        h = h_coeffs(fib, (1, 0), (1, 0), b, 0, 3)
        big = H_coeffs(h, 3, 2, 3)
        assert big[3] == h[3]

    def test_precondition(self):
        with pytest.raises(PreconditionViolatedError):
            H_coeffs([1, 1, 1, 1, 1], 4, 1, 3)  # r = 4 > 3^1

    def test_short_h_rejected(self):
        with pytest.raises(PreconditionViolatedError):
            H_coeffs([1, 1], 2, 1, 5)

    @pytest.mark.parametrize("t,s", [(4, 1), (4, 2), (6, 2), (6, 3)])
    def test_monomial_congruence(self, fib, t, s):
        # r! det A u_{n + tau_s m} = sum_j H_j p^{sj} m^j (mod p^t)
        p = 3
        r = t // s
        if r > p**s:
            r = p**s  # largest admissible truncation; still covers p^t
        assert s * (r + 1) >= t
        mod = p**t
        tau_s = order_mod(fib, PrimePowerModulus(p, s))
        b = theta_matrix(fib, p, s, tau_s)
        det = det_exact(fib)
        for n in range(0, 8):
            h = h_coeffs(fib, (1, 0), (1, 0), b, n, r)
            big = H_coeffs(h, r, s, p)
            for m in range(0, 21):
                lhs = factorial(r) * det * vec_dot(
                    (1, 0), mat_vec(mat_pow(fib, n + tau_s * m), (1, 0))
                )
                rhs = sum(big[j] * p ** (s * j) * m**j for j in range(r + 1))
                assert (lhs - rhs) % mod == 0


class TestWindowDivisibility:
    @pytest.mark.parametrize(
        "mat_name,p,t",
        [("fib", 3, 6), ("m2x2", 5, 6), ("m3x3", 2, 8)],
    )
    def test_h_windows(self, request, mat_name, p, t):
        a = request.getfixturevalue(mat_name)
        f = char_poly(a)
        w = compute_w(f, p)
        prof = period_profile(a, p, 4)
        s = max(prof.s_star, 1)
        rng = random.Random(hash((mat_name, p)) & 0xFFFF)
        tau_s = order_mod(a, PrimePowerModulus(p, s))
        b = theta_matrix(a, p, s, tau_s)
        d = a.d
        mod = p**t
        checked = 0
        while checked < 6:
            u = tuple(rng.randrange(mod) for _ in range(d))
            v = tuple(rng.randrange(mod) for _ in range(d))
            if not is_proper_pair(a, u, v, p):
                continue
            checked += 1
            n = rng.randrange(0, 30)
            h = h_coeffs(a, u, v, b, n, 30)
            for j in range(0, 31 - d):
                window = [valuation(x, p) for x in h[j : j + d]]
                assert min(window) < w, (mat_name, n, j, window, w)

    def test_capital_h_windows(self, fib):
        # min valuation over d consecutive H is below w + nu_p(r!)
        p, t, s = 3, 6, 2
        r = t // s
        w = compute_w(char_poly(fib), p)
        tau_s = order_mod(fib, PrimePowerModulus(p, s))
        b = theta_matrix(fib, p, s, tau_s)
        bound = w + valuation(factorial(r), p)
        for n in range(6):
            h = h_coeffs(fib, (1, 0), (1, 0), b, n, r)
            big = H_coeffs(h, r, s, p)
            for j in range(0, r - fib.d + 2):
                vals = [valuation(x, p) for x in big[j : j + fib.d]]
                assert min(vals) < bound


def _scalar(x: int, d: int) -> IntMatrix:
    return IntMatrix(tuple(tuple(x if i == j else 0 for j in range(d)) for i in range(d)))


def _divide(x: IntMatrix, q: int) -> IntMatrix:
    assert all(v % q == 0 for row in x.entries for v in row)
    return IntMatrix(tuple(tuple(v // q for v in row) for row in x.entries))


class TestEigenConsistency:
    @pytest.mark.parametrize("mat_name,p", [("fib", 3), ("m3x3", 2)])
    def test_char_poly_of_theta_matches_roots(self, request, mat_name, p):
        a = request.getfixturevalue(mat_name)
        d = a.d
        f = char_poly(a)
        s = 1 if p != 2 else 2
        s_check = 6
        tau_s = order_mod(a, PrimePowerModulus(p, s))
        b = theta_matrix(a, p, s, tau_s)
        char_b = char_poly(b)
        m = PrimePowerModulus(p, s_check + s)
        one = IntMatrix.identity(d)
        thetas = [_divide(mat_add(mat_pow_mod(g, tau_s, m), one, -1, m), p**s)
                  for g in lift_roots(f, p, s_check + s)]
        # expand prod (X - theta_i) over Z/p^s[C]; its coefficients must be
        # rational integers (scalar matrices) matching char_poly(B) mod p^{s_check}
        poly = [one]
        for th in thetas:
            nxt = [IntMatrix.zeros(d)] * (len(poly) + 1)
            for i, c in enumerate(poly):
                nxt[i + 1] = mat_add(nxt[i + 1], c, 1, m)
                nxt[i] = mat_add(nxt[i], mat_mul_mod(c, th, m), -1, m)
            poly = nxt
        mod_check = p**s_check
        for i, c in enumerate(poly):
            c = c.reduce(mod_check)
            assert c == _scalar(c.entries[0][0], d), "coefficient not rational"
            assert (c.entries[0][0] - char_b.coeffs[i]) % mod_check == 0


class TestExpansionData:
    """The level-s expansion data of u_{n + tau_s m}: tau_s, B, the
    binomial-to-monomial triangle and w."""

    def test_fib_level_2(self, fib):
        m, s = PrimePowerModulus(3, 6), 2
        tau_s = order_mod(fib, m.at_exponent(s))
        assert tau_s == 24
        assert m.t // s == 3  # r
        assert compute_w(char_poly(fib), m.p) == 1
        assert binomial_to_monomial(2) == [0, -1, 1]
        b = theta_matrix(fib, m.p, s, tau_s)
        assert mat_pow(fib, 24).entries == tuple(
            tuple(x * 9 + (1 if i == j else 0) for j, x in enumerate(row))
            for i, row in enumerate(b.entries)
        )

    def test_bad_level(self, fib):
        # tau_2 = 24 is not the order at level 5: A^24 - I is not divisible by 3^5
        with pytest.raises(ExactDivisionError):
            theta_matrix(fib, 3, 5, order_mod(fib, PrimePowerModulus(3, 2)))


def _solve_vandermonde(roots, rhs, m):
    """Solve sum_i alpha_i gamma_i^n = rhs_n (n = 0..d-1) over Z/p^s[C] by
    Gaussian elimination; pivots are units because the roots are distinct
    mod p."""
    d = len(roots)
    rows = [[mat_pow_mod(r, n, m) for r in roots] + [rhs[n]] for n in range(d)]
    for col in range(d):
        pivot = next(i for i in range(col, d) if any(x % m.p for row in rows[i][col].entries for x in row))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = padic._inverse(rows[col][col], m)
        rows[col] = [mat_mul_mod(x, inv, m) for x in rows[col]]
        for i in range(d):
            if i != col:
                factor = rows[i][col]
                rows[i] = [mat_add(x, mat_mul_mod(factor, y, m), -1, m)
                           for x, y in zip(rows[i], rows[col])]
    return [rows[i][d] for i in range(d)]


class TestRootSideCrossCheck:
    """The coefficients computed from integer matrices agree with the
    root-side power-sum formula evaluated through lifted roots at finite
    precision (they coincide by diagonalization)."""

    @pytest.mark.parametrize("mat_name,p,s", [("fib", 3, 1), ("fib", 3, 2), ("m3x3", 2, 2)])
    def test_h_from_lifted_roots(self, request, mat_name, p, s):
        a = request.getfixturevalue(mat_name)
        d = a.d
        f = char_poly(a)
        det = det_exact(a)
        j_max = 4
        check_prec = 6
        work = check_prec + s * j_max + s
        m = PrimePowerModulus(p, work)
        tau_s = order_mod(a, PrimePowerModulus(p, s))
        b = theta_matrix(a, p, s, tau_s)
        roots = lift_roots(f, p, work)
        one = IntMatrix.identity(d)
        u = tuple(1 if i == 0 else 0 for i in range(d))
        v = tuple(1 if i == d - 1 else 0 for i in range(d))
        # weights: sum_i alpha_i gamma_i^n = det A * (v A^n u) for n < d
        rhs = [_scalar(det * vec_dot(v, mat_vec(mat_pow(a, n), u)), d) for n in range(d)]
        alphas = _solve_vandermonde(roots, rhs, m)
        thetas = [mat_add(mat_pow_mod(g, tau_s, m), one, -1, m) for g in roots]
        matrix_side = h_coeffs(a, u, v, b, 2, j_max)
        mod_check = p**check_prec
        for j in range(j_max + 1):
            total = IntMatrix.zeros(d)
            for alpha, g, th in zip(alphas, roots, thetas):
                term = mat_mul_mod(mat_mul_mod(alpha, mat_pow_mod(g, 2, m), m), mat_pow_mod(th, j, m), m)
                total = mat_add(total, term, 1, m)
            reduced = _divide(total, p ** (s * j)).reduce(mod_check)
            assert reduced == _scalar(reduced.entries[0][0], d), "not a constant"
            assert (reduced.entries[0][0] - matrix_side[j]) % mod_check == 0


class TestPlateauDichotomy:
    def test_pair_orders_with_deeper_agreement(self):
        # X^2 - 4X - 19 mod 3: beta(gamma_i, 1) = 2, so tau_s(gamma, 1)
        # stays flat through s = 2 before growing by p each level
        f = IntPolynomial((-19, -4, 1))
        m = PrimePowerModulus(3, 9)
        for g in lift_roots(f, 3, 9):
            beta = _beta(g, IntMatrix.identity(2), m)
            assert beta == 2
            tau_star = order_mod(g, PrimePowerModulus(3, 1))
            for s in range(1, 9):
                expected = tau_star if s <= beta else tau_star * 3 ** (s - beta)
                assert order_mod(g, PrimePowerModulus(3, s)) == expected
