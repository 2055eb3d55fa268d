import itertools
import math
import random
import time
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from matprng.arith import (
    IntMatrix,
    IntPolynomial,
    PrimePowerModulus,
    char_poly,
    companion_matrix,
    det_exact,
    legendre_factorial_valuation,
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
    PrecisionCapExceededError,
    PreconditionViolatedError,
)
from matprng.fieldalg import is_proper_pair
from matprng.padic import (
    H_coeffs,
    UnramifiedRing,
    _lift_order,
    _order_mod_p,
    beta_pair,
    binomial_to_monomial,
    compute_w,
    expansion_data,
    h_coeffs,
    lift_roots,
    order_mod,
    order_sequence,
    period_profile,
    tau_pair,
    theta_matrix,
)
from conftest import brute_force_order


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

    def test_lift_dichotomy(self):
        # the carried power is the exponent itself; its p-th power is 3 e
        def lift(order):
            return _lift_order(8, 8, 3, lambda e: e % order == 0, lambda e: 3 * e)

        assert lift(8) == (8, 8)
        assert lift(24) == (24, 24)
        with pytest.raises(ExactDivisionError):
            lift(72)

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

    def test_plateau_profile(self):
        # X^2 - 4X - 19 mod 3: both roots have order 8 mod 3 and mod 9
        # (brute-force verified), so the growth only starts at s = 2
        a = companion_matrix(IntPolynomial((-19, -4, 1)))
        prof = period_profile(a, 3, 5)
        assert prof.taus == (8, 8, 24, 72, 216)
        assert (prof.tau_star, prof.beta_star, prof.s_star) == (8, 2, 2)
        assert prof.taus == tuple(brute_force_order(a, 3, s) for s in range(1, 6))



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
        rs = lift_roots(IntPolynomial((-5, 1)), 3, 4)
        assert rs.roots[0].coeffs == (5,)

    def test_fib_precision_1(self, fib_poly):
        rs = lift_roots(fib_poly, 3, 1)
        assert rs.roots[0].coeffs == (0, 1)  # class of X
        assert rs.roots[1].coeffs == (1, 2)  # 1 - X mod 3 (sum of roots = 1)

    def test_fib_precision_3(self, fib_poly):
        rs = lift_roots(fib_poly, 3, 3)
        one = rs.ring.one()
        for g in rs.roots:
            assert (g * g - g - one).is_zero  # f(gamma) = 0 mod 27

    def test_reducible_rejected(self):
        with pytest.raises(NotIrreducibleError):
            lift_roots(IntPolynomial((-1, 0, 1)), 3, 2)  # X^2 - 1 splits

    def test_nonsquarefree_rejected(self):
        with pytest.raises(NonSquarefreeError):
            lift_roots(IntPolynomial((1, 2, 1)), 3, 2)  # (X+1)^2

    def test_cubic_roots_mod_2(self, m3x3):
        f = char_poly(m3x3)
        rs = lift_roots(f, 2, 10)
        for g in rs.roots:
            acc = rs.ring.zero()
            for c in reversed(f.coeffs):
                acc = acc * g + rs.ring.embed(c)
            assert acc.is_zero
        residues = {g.residue_mod_p().coeffs for g in rs.roots}
        assert len(residues) == 3


class TestTauPair:
    def test_fib_root_against_one(self, fib_poly):
        rs = lift_roots(fib_poly, 3, 4)
        assert tau_pair(rs.roots[0], rs.ring.one(), 1) == 8

    def test_equal_elements(self, fib_poly):
        rs = lift_roots(fib_poly, 3, 4)
        assert tau_pair(rs.roots[0], rs.roots[0], 1) == 1

    def test_minus_one(self):
        ring = UnramifiedRing(IntPolynomial((-1, 1)), 3, 4)
        assert tau_pair(ring.embed(-1), ring.one(), 2) == 2

    def test_zero_precision_rejected(self, fib_poly):
        rs = lift_roots(fib_poly, 3, 2)
        with pytest.raises(PreconditionViolatedError):
            tau_pair(rs.roots[0], rs.ring.one(), 0)

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
        ring = UnramifiedRing(IntPolynomial(coeffs), p, 1)
        one = ring.one()
        d = ring.d
        for index in range(1, p**d):
            x = ring.element([index // p**i % p for i in range(d)])
            power, order = x, 1
            while power != one and order < p**d:
                power, order = power * x, order + 1
            if power == one:
                assert tau_pair(x, one, 1) == order
            else:  # a zero divisor
                with pytest.raises(NotInvertibleError):
                    tau_pair(x, one, 1)

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
        rs = lift_roots(IntPolynomial(coeffs), p, depth)
        g, l = (rs.ring.one() if i is None else rs.roots[i] for i in pair)
        ratio = g * l.inverse()
        tau = tau_pair(g, l, 1)
        for s in range(2, depth + 1):
            ring = rs.ring.at_precision(s)
            r = ring.element(ratio._view())
            tau = next(e for e in (tau, p * tau) if (r**e - ring.one()).is_zero)
            assert tau_pair(g, l, s) == tau

    def test_pairwise_growth_dichotomy(self, fib_poly):
        # tau_s(gamma, lambda) = tau_* for s <= beta, tau_* p^{s-beta} beyond
        rs = lift_roots(fib_poly, 3, 8)
        g1, g2 = rs.roots
        beta = beta_pair(g1, g2, 3)
        tau_star = tau_pair(g1, g2, 1)
        for s in range(1, 8):
            expected = tau_star if s <= beta else tau_star * 3 ** (s - beta)
            assert tau_pair(g1, g2, s) == expected


class TestBetaPair:
    def test_fib_roots(self, fib_poly):
        rs = lift_roots(fib_poly, 3, 6)
        g1, g2 = rs.roots
        assert beta_pair(g1, g2, 3) == 1
        assert beta_pair(g1, rs.ring.one(), 3) == 1

    def test_one_plus_p(self):
        ring = UnramifiedRing(IntPolynomial((-1, 1)), 5, 8)
        assert beta_pair(ring.embed(6), ring.one(), 5) == 1

    def test_one_plus_p_squared(self):
        ring = UnramifiedRing(IntPolynomial((-1, 1)), 5, 8)
        assert beta_pair(ring.embed(26), ring.one(), 5) == 2

    def test_auto_raise_precision(self):
        # start at precision 1; the valuation 2 needs a raise to resolve
        ring = UnramifiedRing(IntPolynomial((-1, 1)), 5, 1)
        assert beta_pair(ring.embed(26), ring.one(), 5) == 2

    def test_equal_elements_hit_cap(self):
        ring = UnramifiedRing(IntPolynomial((-1, 1)), 5, 2)
        with pytest.raises(PrecisionCapExceededError):
            beta_pair(ring.one(), ring.one(), 5, max_precision=16)


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
        bound = w + legendre_factorial_valuation(r, p)
        for n in range(6):
            h = h_coeffs(fib, (1, 0), (1, 0), b, n, r)
            big = H_coeffs(h, r, s, p)
            for j in range(0, r - fib.d + 2):
                vals = [valuation(x, p) for x in big[j : j + fib.d]]
                assert min(vals) < bound


class TestEigenConsistency:
    @pytest.mark.parametrize("mat_name,p", [("fib", 3), ("m3x3", 2)])
    def test_char_poly_of_theta_matches_roots(self, request, mat_name, p):
        a = request.getfixturevalue(mat_name)
        f = char_poly(a)
        s = 1 if p != 2 else 2
        s_check = 6
        tau_s = order_mod(a, PrimePowerModulus(p, s))
        b = theta_matrix(a, p, s, tau_s)
        char_b = char_poly(b)
        rs = lift_roots(f, p, s_check + s)
        ring = rs.ring
        thetas = []
        for g in rs.roots:
            diff = (g**tau_s) - ring.one()
            coeffs = [c % ring.modulus for c in diff.coeffs]
            assert all(c % p**s == 0 for c in coeffs)
            thetas.append(ring.element([c // p**s for c in coeffs]))
        # expand prod (X - theta_i) over the ring; coefficients must be
        # rational integers matching char_poly(B) mod p^{s_check}
        poly = [ring.one()]
        for th in thetas:
            nxt = [ring.zero() for _ in range(len(poly) + 1)]
            for i, c in enumerate(poly):
                nxt[i + 1] = nxt[i + 1] + c
                nxt[i] = nxt[i] - (c * th)
            poly = nxt
        mod_check = p**s_check
        for i, c in enumerate(poly):
            coeffs = [x % ring.modulus for x in c.coeffs]
            assert all(x % mod_check == 0 for x in coeffs[1:]), "coefficient not rational"
            assert (coeffs[0] - char_b.coeffs[i]) % mod_check == 0


class TestExpansionData:
    def test_fib_level_2(self, fib):
        data = expansion_data(fib, PrimePowerModulus(3, 6), 2)
        assert data.tau_s == 24
        assert data.r == 3
        assert data.w == 1
        assert data.c[2] == (0, -1, 1)
        assert mat_pow(fib, 24).entries == tuple(
            tuple(x * 9 + (1 if i == j else 0) for j, x in enumerate(row))
            for i, row in enumerate(data.b.entries)
        )

    def test_bad_level(self, fib):
        with pytest.raises(PreconditionViolatedError):
            expansion_data(fib, PrimePowerModulus(3, 4), 5)


def _ring_solve_vandermonde(ring, roots, rhs):
    """Solve sum_i alpha_i gamma_i^n = rhs_n (n = 0..d-1) over the ring by
    Gaussian elimination; pivots are units because the roots are distinct
    mod p."""
    d = len(roots)
    rows = [[r**n for r in roots] + [rhs[n]] for n in range(d)]
    for col in range(d):
        pivot = next(
            i for i in range(col, d) if not rows[i][col].residue_mod_p().is_zero
        )
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = rows[col][col].inverse()
        rows[col] = [x * inv for x in rows[col]]
        for i in range(d):
            if i != col and not rows[i][col].is_zero:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[col])]
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
        tau_s = order_mod(a, PrimePowerModulus(p, s))
        b = theta_matrix(a, p, s, tau_s)
        rs = lift_roots(f, p, work)
        ring = rs.ring
        u = tuple(1 if i == 0 else 0 for i in range(d))
        v = tuple(1 if i == d - 1 else 0 for i in range(d))
        # weights: sum_i alpha_i gamma_i^n = det A * (v A^n u) for n < d
        rhs = [
            ring.embed(det * vec_dot(v, mat_vec(mat_pow(a, n), u)))
            for n in range(d)
        ]
        alphas = _ring_solve_vandermonde(ring, list(rs.roots), rhs)
        thetas = [(g**tau_s) - ring.one() for g in rs.roots]
        matrix_side = h_coeffs(a, u, v, b, 2, j_max)
        for j in range(j_max + 1):
            total = ring.zero()
            for alpha, g, th in zip(alphas, rs.roots, thetas):
                total = total + alpha * (g**2) * (th**j)
            coeffs = [c % ring.modulus for c in total.coeffs]
            assert all(c % p ** (s * j) == 0 for c in coeffs)
            reduced = [c // p ** (s * j) for c in coeffs]
            mod_check = p**check_prec
            assert all(c % mod_check == 0 for c in reduced[1:]), "not a constant"
            assert (reduced[0] - matrix_side[j]) % mod_check == 0


class TestPlateauDichotomy:
    def test_pair_orders_with_deeper_agreement(self):
        # X^2 - 4X - 19 mod 3: beta(gamma_i, 1) = 2, so tau_s(gamma, 1)
        # stays flat through s = 2 before growing by p each level
        f = IntPolynomial((-19, -4, 1))
        rs = lift_roots(f, 3, 9)
        one = rs.ring.one()
        for g in rs.roots:
            beta = beta_pair(g, one, 3)
            assert beta == 2
            tau_star = tau_pair(g, one, 1)
            for s in range(1, 9):
                expected = tau_star if s <= beta else tau_star * 3 ** (s - beta)
                assert tau_pair(g, one, s) == expected
