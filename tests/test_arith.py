import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matprng import arith
from matprng.arith import (
    STREAM_MEMORY_BUDGET,
    IntMatrix,
    IntPolynomial,
    PrimePowerModulus,
    char_poly,
    companion_matrix,
    det_exact,
    is_prime,
    is_squarefree_over_q,
    legendre_factorial_valuation,
    mat_inverse_mod,
    mat_mul,
    mat_mul_mod,
    mat_pow,
    mat_pow_mod,
    mat_stream,
    mat_vec_mod,
    poly_eval_matrix,
    prime_factors,
    recurrence_coefficients,
    stream_blocks,
    sylvester_rows,
    valuation,
    vec_dot,
)
from matprng.errors import (
    DimensionMismatchError,
    ExactDivisionError,
    IterationCapExceededError,
    NotInvertibleError,
    StreamTooLargeError,
)

small_entries = st.integers(min_value=-30, max_value=30)


def square_matrices(d: int):
    return st.lists(
        st.lists(small_entries, min_size=d, max_size=d), min_size=d, max_size=d
    ).map(IntMatrix.from_rows)


class TestPrimePowerModulus:
    def test_modulus_cached(self):
        m = PrimePowerModulus(3, 4)
        assert m.modulus == 81

    @pytest.mark.parametrize("p", [4, 1, 0, 15, 100])
    def test_rejects_composites(self, p):
        with pytest.raises(ValueError):
            PrimePowerModulus(p, 2)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 104729])
    def test_accepts_primes(self, p):
        assert PrimePowerModulus(p, 1).p == p

    def test_is_prime_larger(self):
        assert is_prime(2**31 - 1)
        assert not is_prime(2**31)


class TestPrimeFactors:
    def test_against_naive_factorisation(self):
        for n in range(1, 5001):
            naive, rest, q = [], n, 2
            while rest > 1:
                if rest % q == 0:
                    naive.append(q)
                    while rest % q == 0:
                        rest //= q
                q += 1
            assert prime_factors(n) == naive, n

    def test_large_prime_cofactor(self):
        q = 2**61 - 1
        assert prime_factors(12 * q) == [2, 3, q]

    def test_two_primes_above_the_limit_raise(self):
        # both factors lie just above 2^20, so trial division cannot split them
        with pytest.raises(IterationCapExceededError):
            prime_factors(2 * 1048583 * 1048681)


class TestMatMul:
    def test_identity_mod_9(self):
        m = PrimePowerModulus(3, 2)
        i2 = IntMatrix.identity(2)
        assert mat_mul_mod(i2, i2, m) == i2

    def test_fib_squared_mod_100(self, fib):
        # hand multiplication: [[0,1],[1,1]]^2 = [[1,1],[1,2]]
        m = PrimePowerModulus(2, 2)  # any modulus >= entries works; use 5^3 below
        m = PrimePowerModulus(5, 3)
        sq = mat_mul_mod(fib, fib, m)
        assert sq == IntMatrix.from_rows([[1, 1], [1, 2]])

    def test_zero_absorbs(self, fib):
        m = PrimePowerModulus(3, 2)
        z = IntMatrix.zeros(2)
        assert mat_mul_mod(fib, z, m) == z

    def test_dimension_mismatch(self, fib):
        with pytest.raises(DimensionMismatchError):
            mat_mul(fib, IntMatrix.identity(3))


class TestMatPow:
    def test_fib_fourth_exact(self, fib):
        # Fibonacci identity A^n = [[F_{n-1}, F_n], [F_n, F_{n+1}]]
        assert mat_pow(fib, 4) == IntMatrix.from_rows([[2, 3], [3, 5]])

    def test_power_zero_is_identity(self, fib):
        m = PrimePowerModulus(7, 2)
        assert mat_pow_mod(fib, 0, m) == IntMatrix.identity(2)

    def test_fib_pisano_3(self, fib):
        # brute-force oracle: A^8 = I mod 3 (Pisano period of 3 is 8)
        m = PrimePowerModulus(3, 1)
        power = IntMatrix.identity(2)
        for _ in range(8):
            power = mat_mul_mod(power, fib, m)
        assert power.is_identity()
        assert mat_pow_mod(fib, 8, m).is_identity()

    @given(square_matrices(2), st.integers(0, 40), st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_power_additivity(self, a, n, m):
        mod = PrimePowerModulus(5, 3)
        lhs = mat_pow_mod(a, n + m, mod)
        rhs = mat_mul_mod(mat_pow_mod(a, n, mod), mat_pow_mod(a, m, mod), mod)
        assert lhs == rhs


class TestMatStream:
    # d (p^t)^2 = 2^(2t+1) for Fibonacci mod 2^t: int64 below 2^63 (t = 30),
    # exact ints from t = 31 on
    @pytest.mark.parametrize("t, dtype", [(30, "int64"), (31, "object"), (32, "object")])
    def test_matches_stepping_across_int64_bound(self, t, dtype):
        fib = IntMatrix.from_rows([[0, 1], [1, 1]])
        m = PrimePowerModulus(2, t)
        u0, v, n0, count = (987654321, -5), (3, 2**t - 1), 13, 70  # block 16, 70 % 16 != 0
        u = mat_vec_mod(mat_pow_mod(fib, n0, m), tuple(x % m.modulus for x in u0), m)
        want = []
        for _ in range(count):
            want.append(u)
            u = mat_vec_mod(fib, u, m)
        vecs = mat_stream(fib, u0, m, count, n0)
        scalars = mat_stream(fib, u0, m, count, n0, v)
        assert vecs.dtype == dtype and scalars.dtype == dtype
        assert [tuple(x) for x in vecs.tolist()] == want
        assert scalars.tolist() == [vec_dot(v, x) % m.modulus for x in want]

    def test_empty_and_single(self):
        m = PrimePowerModulus(3, 2)
        a = IntMatrix.from_rows([[0, 1], [1, 1]])
        assert mat_stream(a, (1, 0), m, 0).shape == (0, 2)
        assert mat_stream(a, (1, 0), m, 1, 5, (1, 1)).tolist() == [8]

    @pytest.mark.parametrize("t", [4, 40])  # int64 and object output
    def test_memory_guard_fires_before_allocating(self, t):
        import tracemalloc

        a = IntMatrix.from_rows([[0, 1], [1, 1]])
        m = PrimePowerModulus(3, t)
        tracemalloc.start()
        try:
            for v in (None, (1, 1)):
                with pytest.raises(StreamTooLargeError):
                    mat_stream(a, (1, 0), m, 10**12, v=v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_memory_guard_counts_int_sizes(self):
        # 1.4 * 10^7 vectors of 3 entries: 336 MB at 8 bytes an entry, but
        # 1.85 GB at 8 + 36 bytes for each exact int below 3^40
        a = IntMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 1, 0]])
        m = PrimePowerModulus(3, 40)
        assert STREAM_MEMORY_BUDGET == 2**30
        with pytest.raises(StreamTooLargeError):
            mat_stream(a, (1, 0, 0), m, 14 * 10**6)


def stepped_stream(a: IntMatrix, u0, m: PrimePowerModulus, count: int, n0: int, v=None) -> list:
    """The oracle: u <- A u mod p^t on plain Python ints, one step at a time."""
    mod = m.modulus
    u = [x % mod for x in u0]
    out = []
    for n in range(n0 + count):
        if n >= n0:
            out.append(tuple(u) if v is None else sum(x * y for x, y in zip(v, u)) % mod)
        u = [sum(x * y for x, y in zip(row, u)) % mod for row in a.entries]
    return out


# p^t on both sides of every limb-count and dtype edge: int64 up to
# 2 (2^t)^2 < 2^63 (t = 30), int64 limbs up to 2^64, exact ints from 2^64 on
LIMB_MODULI = [(2, t) for t in (30, 31, 32, 33, 61, 62, 63, 64, 65)] + [(3, 40), (5, 30)]
# B^2 - 1 and B^2 + 1 for the baby width B = 16, and 1000, which no block
# size below divides
LIMB_COUNTS = [0, 1, 255, 257, 1000]


class TestLimbKernel:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("p, t", LIMB_MODULI, ids=[f"{p}^{t}" for p, t in LIMB_MODULI])
    @pytest.mark.parametrize("block", [96, None], ids=["block96", "default"])
    def test_matches_python_int_loop(self, p, t, d, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(arith, "STREAM_BLOCK", block)
        m = PrimePowerModulus(p, t)
        mod = m.modulus
        rng = random.Random(f"{p}^{t}/{d}")
        a = IntMatrix.from_rows([[rng.randrange(mod) for _ in range(d)] for _ in range(d)])
        u0 = [rng.randrange(mod) for _ in range(d)]
        v = [rng.randrange(mod) for _ in range(d)]
        dtype = "int64" if d * mod * mod < 2**63 else "object"
        for n0 in (0, 13):
            want = stepped_stream(a, u0, m, max(LIMB_COUNTS), n0)
            want_scalars = [sum(x * y for x, y in zip(v, u)) % mod for u in want]
            for count in LIMB_COUNTS:
                vecs = mat_stream(a, u0, m, count, n0)
                scalars = mat_stream(a, u0, m, count, n0, v)
                assert (vecs.shape, vecs.dtype, scalars.dtype) == ((count, d), dtype, dtype)
                assert [tuple(x) for x in vecs.tolist()] == want[:count]
                assert scalars.tolist() == want_scalars[:count]

    @pytest.mark.parametrize("p, t, d, limbs", [
        (2, 30, 2, 1), (2, 31, 2, 2), (2, 33, 2, 2), (2, 61, 2, 3), (2, 63, 2, 3), (2, 63, 3, 3), (3, 40, 3, 3), (3, 13, 3, 1),
    ])
    def test_int64_limbs_below_2_64(self, p, t, d, limbs):
        lm = arith._limbs(PrimePowerModulus(p, t), d)
        assert (lm.count, lm.dtype) == (limbs, np.int64)
        k = math.ceil(t / lm.count)
        assert lm.base == p**k and lm.top == p ** (t - (lm.count - 1) * k)
        assert d * lm.count * lm.base**2 < 2**63

    @pytest.mark.parametrize("p, t, d", [(2, 64, 2), (5, 30, 3), (2**31 - 1, 2, 2)])
    def test_exact_ints_from_2_64_or_without_a_base(self, p, t, d):
        # 2^31 - 1 squared is below 2^64, but no power of it leaves room for
        # d L b^2 < 2^63
        assert arith._limbs(PrimePowerModulus(p, t), d).dtype is object

    def test_no_object_arithmetic_below_2_64(self, monkeypatch):
        # every limb product is on int64 arrays; only the output is object
        seen = []
        mul = arith._mul
        monkeypatch.setattr(arith, "_mul", lambda x, y, lm: seen.append((x.dtype, y.dtype)) or mul(x, y, lm))
        a = IntMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 1, 0]])
        out = mat_stream(a, (1, 2, 3), PrimePowerModulus(3, 40), 5000, 7, (2, 7, 1))
        assert out.dtype == object and seen
        assert set(seen) == {(np.dtype(np.int64), np.dtype(np.int64))}

    @pytest.mark.parametrize("block", [1, 7, 4096, None])
    def test_blocks_concatenate_to_the_stream(self, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(arith, "STREAM_BLOCK", block)
        a = IntMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 1, 0]])
        m = PrimePowerModulus(3, 40)
        for v in (None, (2, 7, 1)):
            blocks = list(stream_blocks(a, (1, 2, 3), m, 9000, 5, v))
            # whole giant steps of width 128 (the least power of two whose
            # square is >= 9000), as many as a block holds
            size = max(arith.STREAM_BLOCK // (3 if v is None else 1), 128)
            assert all(1 <= len(b) <= size for b in blocks)
            assert np.concatenate(blocks).tolist() == mat_stream(a, (1, 2, 3), m, 9000, 5, v).tolist()

    def test_budget_raises_when_called(self):
        a = IntMatrix.from_rows([[0, 1], [1, 1]])
        with pytest.raises(StreamTooLargeError):
            stream_blocks(a, (1, 0), PrimePowerModulus(3, 4), 10**12, v=(1, 1))


class TestDet:
    def test_identity(self):
        assert det_exact(IntMatrix.identity(3)) == 1

    def test_fib(self, fib):
        assert det_exact(fib) == -1

    def test_singular(self):
        assert det_exact(IntMatrix.from_rows([[1, 1], [1, 1]])) == 0

    @given(square_matrices(3), square_matrices(3))
    @settings(max_examples=40, deadline=None)
    def test_multiplicative(self, a, b):
        assert det_exact(mat_mul(a, b)) == det_exact(a) * det_exact(b)

    def test_against_permutation_expansion(self):
        import itertools

        rows = [[3, -2, 5, 1], [0, 4, -1, 2], [7, 1, 1, -3], [2, 2, 0, 9]]
        a = IntMatrix.from_rows(rows)
        # independent oracle: Leibniz expansion
        total = 0
        for perm in itertools.permutations(range(4)):
            sign = 1
            for i in range(4):
                for j in range(i + 1, 4):
                    if perm[i] > perm[j]:
                        sign = -sign
            prod = 1
            for i in range(4):
                prod *= rows[i][perm[i]]
            total += sign * prod
        assert det_exact(a) == total


class TestCharPoly:
    def test_fib(self, fib):
        assert char_poly(fib) == IntPolynomial((-1, -1, 1))  # X^2 - X - 1

    def test_identity_2x2(self):
        assert char_poly(IntMatrix.identity(2)) == IntPolynomial((1, -2, 1))

    def test_companion_roundtrip(self):
        f = IntPolynomial((5, -2, 0, 1))  # X^3 - 2X + 5
        assert char_poly(companion_matrix(f)) == f

    @given(st.integers(1, 4).flatmap(square_matrices))
    @settings(max_examples=60, deadline=None)
    def test_cayley_hamilton(self, a):
        f = char_poly(a)
        assert f.degree == a.d and f.is_monic
        assert poly_eval_matrix(f, a) == IntMatrix.zeros(a.d)

    def test_recurrence_coefficients(self, fib):
        assert recurrence_coefficients(char_poly(fib)) == (1, 1)


class TestInverse:
    def test_identity(self):
        m = PrimePowerModulus(3, 2)
        assert mat_inverse_mod(IntMatrix.identity(2), m) == IntMatrix.identity(2)

    def test_fib_mod_9(self, fib):
        m = PrimePowerModulus(3, 2)
        inv = mat_inverse_mod(fib, m)
        assert mat_mul_mod(fib, inv, m) == IntMatrix.identity(2)

    def test_not_invertible(self):
        m = PrimePowerModulus(3, 4)
        with pytest.raises(NotInvertibleError):
            mat_inverse_mod(IntMatrix.from_rows([[3, 0], [0, 1]]), m)

    @given(square_matrices(3))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, a):
        m = PrimePowerModulus(5, 3)
        if det_exact(a) % 5 == 0:
            return
        inv = mat_inverse_mod(a, m)
        assert mat_mul_mod(a, inv, m) == IntMatrix.identity(3)


class TestValuation:
    @pytest.mark.parametrize(
        "x,p,expected", [(18, 3, 2), (7, 5, 0), (96, 2, 5), (-54, 3, 3)]
    )
    def test_values(self, x, p, expected):
        assert valuation(x, p) == expected

    def test_zero_marker(self):
        assert valuation(0, 7) == math.inf

    @given(st.integers(0, 10), st.integers(1, 1000))
    @settings(max_examples=40, deadline=None)
    def test_unit_times_power(self, k, u):
        p = 3
        if u % p == 0:
            u += 1
        assert valuation(p**k * u, p) == k

    @pytest.mark.parametrize("r", [0, 1, 5, 10, 100, 1000])
    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_legendre_matches_factorial(self, r, p):
        assert legendre_factorial_valuation(r, p) == (
            0 if r < 2 else int(valuation(math.factorial(r), p))
        )


class TestPolynomials:
    def test_divmod_exact(self):
        f = IntPolynomial((-1, 0, 1))  # X^2 - 1
        q, r = f.divmod_exact(IntPolynomial((-1, 1)))
        assert q == IntPolynomial((1, 1)) and r.is_zero

    def test_divmod_exact_non_monic(self):
        f = IntPolynomial((0, 2, 2))  # 2X^2 + 2X
        q, r = f.divmod_exact(IntPolynomial((0, 2)))
        assert q == IntPolynomial((1, 1)) and r.is_zero
        with pytest.raises(ExactDivisionError):
            IntPolynomial((1, 0, 1)).divmod_exact(IntPolynomial((0, 2)))

    def test_gcd_over_q(self):
        f = IntPolynomial((1, 2, 1))  # (X+1)^2
        g = IntPolynomial((1, 1))
        assert poly_gcd_q(f, f.derivative()) == g
        assert not is_squarefree_over_q(f)
        assert is_squarefree_over_q(g)

    @given(st.lists(small_entries, min_size=1, max_size=4),
           st.lists(small_entries, min_size=1, max_size=3),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_squarefree_matches_gcd_oracle(self, a, b, square):
        # f = a * b or a^2 * b, degree <= 6, with repeated factors half the time
        fa, fb = IntPolynomial(tuple(a)), IntPolynomial(tuple(b))
        f = fa * fa * fb if square else fa * fb
        assert is_squarefree_over_q(f) == (poly_gcd_q(f, f.derivative()).degree <= 0)

    @given(st.lists(small_entries, min_size=1, max_size=5), st.integers(-3, 12))
    @settings(max_examples=100, deadline=None)
    def test_pow_mod_matches_repeated_product(self, a, e):
        mod = IntPolynomial((3, -1, 0, 1))  # monic X^3 - X + 3
        base = IntPolynomial(tuple(a))
        assert base % mod == base.divmod_exact(mod)[1]
        if e < 0:
            with pytest.raises(ValueError):
                base.pow_mod(e, mod)
            return
        expected = IntPolynomial((1,))
        for _ in range(e):
            expected = (expected * base).divmod_exact(mod)[1]
        assert base.pow_mod(e, mod) == expected


    def test_content_sign(self):
        f = IntPolynomial((-4, -8))
        assert f.primitive_part() == IntPolynomial((1, 2))

    @given(st.lists(small_entries, min_size=1, max_size=5),
           st.lists(small_entries, min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_mul_degree(self, a, b):
        fa, fb = IntPolynomial(tuple(a)), IntPolynomial(tuple(b))
        prod = fa * fb
        if fa.is_zero or fb.is_zero:
            assert prod.is_zero
        else:
            assert prod.degree == fa.degree + fb.degree


def poly_gcd_q(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """Oracle: gcd over Q by Euclid on Fraction coefficients, returned as a
    primitive integer polynomial with positive lead."""
    a = [Fraction(c) for c in f.coeffs]
    b = [Fraction(c) for c in g.coeffs]

    def trim(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = trim(a), trim(b)
    while b:
        lead = b[-1]
        for k in range(len(a) - len(b), -1, -1):
            q = a[k + len(b) - 1] / lead
            if q:
                for i, bc in enumerate(b):
                    a[k + i] -= q * bc
        a = trim(a)
        a, b = b, a
    if not a:
        return IntPolynomial(())
    den = math.lcm(*(x.denominator for x in a))
    ints = [int(x * den) for x in a]
    return IntPolynomial(tuple(ints)).primitive_part()


def fraction_det(rows) -> Fraction:
    """Oracle: determinant by Gaussian elimination over Q."""
    m = [[Fraction(x) for x in row] for row in rows]
    d = len(m)
    det = Fraction(1)
    for k in range(d):
        pivot = next((i for i in range(k, d) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, d):
            factor = m[i][k] / m[k][k]
            for j in range(k, d):
                m[i][j] -= factor * m[k][j]
    return det


class TestBareissOverZX:
    @given(st.lists(st.lists(small_entries, min_size=1, max_size=3), min_size=9, max_size=9),
           st.integers(-4, 4))
    @settings(max_examples=60, deadline=None)
    def test_det_commutes_with_substitution(self, entries, x):
        polys = [IntPolynomial(tuple(c)) for c in entries]
        rows = [polys[3 * i : 3 * i + 3] for i in range(3)]
        det = det_exact(rows)
        assert det(x) == fraction_det([[f(x) for f in row] for row in rows])

    @given(st.lists(small_entries, min_size=2, max_size=5).filter(lambda c: c[-1] != 0),
           st.integers(-3, 3))
    @settings(max_examples=100, deadline=None)
    def test_ratio_resultant_against_sylvester_at_a_point(self, coeffs, x):
        from matprng.fieldalg import ratio_resultant

        # Res_Y(f(Y), f(xY)) at an integer x, from a Sylvester matrix built here
        d = len(coeffs) - 1
        g = [c * x**k for k, c in enumerate(coeffs)]
        size = 2 * d
        rows = []
        for shifted in [coeffs] * d + [g] * d:
            i = len(rows) % d
            row = [0] * size
            for k, c in enumerate(reversed(shifted)):
                row[i + k] = c
            rows.append(row)
        assert ratio_resultant(IntPolynomial(tuple(coeffs)))(x) == fraction_det(rows)

    def test_integer_rows(self):
        rows = sylvester_rows((-1, 0, 1), (1, 1))  # Res(X^2 - 1, X + 1) = 0
        assert len(rows) == 3 and det_exact(rows) == 0
        assert det_exact(sylvester_rows((1, 0, 1), (1, 1))) == 2  # (-i + 1)(i + 1)
