import math

import pytest
from hypothesis import given, settings, strategies as st

from matprng.arith import (
    STREAM_MEMORY_BUDGET,
    IntMatrix,
    IntPolynomial,
    PrimePowerModulus,
    char_poly,
    companion_matrix,
    det_exact,
    is_prime,
    legendre_factorial_valuation,
    mat_inverse_mod,
    mat_mul,
    mat_mul_mod,
    mat_pow,
    mat_pow_mod,
    mat_stream,
    mat_vec_mod,
    poly_eval_matrix,
    poly_gcd_q,
    prime_factors,
    recurrence_coefficients,
    valuation,
    vec_dot,
)
from matprng.errors import (
    DimensionMismatchError,
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

    @given(square_matrices(3))
    @settings(max_examples=30, deadline=None)
    def test_cayley_hamilton(self, a):
        f = char_poly(a)
        assert poly_eval_matrix(f, a) == IntMatrix.zeros(3)

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

    def test_gcd_over_q(self):
        f = IntPolynomial((1, 2, 1))  # (X+1)^2
        g = IntPolynomial((1, 1))
        assert poly_gcd_q(f, f.derivative()) == g

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
