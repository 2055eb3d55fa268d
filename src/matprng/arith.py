"""Exact arbitrary-precision arithmetic: prime-power moduli, integer matrices,
residue vectors, and integer polynomials.

Nothing in this module touches floating point; all results are exact.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    ExactDivisionError,
    IterationCapExceededError,
    NotInvertibleError,
    StreamTooLargeError,
)

# A residue vector is a plain tuple of arbitrary-precision integers.
ResidueVector = tuple[int, ...]

# Witnesses making Miller-Rabin deterministic for n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with a fixed witness set)."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


TRIAL_DIVISION_LIMIT = 2**20


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending, by trial division.

    A composite cofactor with no prime factor up to TRIAL_DIVISION_LIMIT raises
    IterationCapExceededError instead of stalling the factorisation."""
    out = []
    q = 2
    while n > 1 and not is_prime(n):
        while n % q:
            q += 1
            if q > TRIAL_DIVISION_LIMIT:
                raise IterationCapExceededError(f"composite {n} has no prime factor up to {q - 1}")
        out.append(q)
        while n % q == 0:
            n //= q
    if n > 1:
        out.append(n)
    return out


def valuation(x: int, p: int) -> int | float:
    """Largest k with p^k | x.  Returns math.inf for x = 0 (the caller decides)."""
    if x == 0:
        return math.inf
    k = 0
    x = abs(x)
    while x % p == 0:
        x //= p
        k += 1
    return k


def legendre_factorial_valuation(r: int, p: int) -> int:
    """nu_p(r!) via the digit-sum-free form sum_k floor(r / p^k)."""
    total = 0
    q = p
    while q <= r:
        total += r // q
        q *= p
    return total


@dataclass(frozen=True)
class PrimePowerModulus:
    """The pair (p, t) with cached modulus p^t; p verified prime at construction."""

    p: int
    t: int
    modulus: int = 0  # filled in __post_init__

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.t < 1:
            raise ValueError(f"t = {self.t} must be >= 1")
        object.__setattr__(self, "modulus", self.p**self.t)

    def at_exponent(self, s: int) -> "PrimePowerModulus":
        return PrimePowerModulus(self.p, s)


@dataclass(frozen=True)
class IntMatrix:
    """Square matrix of arbitrary-precision integers."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        d = len(self.entries)
        if d < 1 or any(len(row) != d for row in self.entries):
            raise DimensionMismatchError("matrix must be square and nonempty")

    @property
    def d(self) -> int:
        return len(self.entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, d: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d)))

    @classmethod
    def zeros(cls, d: int) -> "IntMatrix":
        return cls(tuple((0,) * d for _ in range(d)))

    def reduce(self, modulus: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(x % modulus for x in row) for row in self.entries))

    def is_identity(self) -> bool:
        return all(
            x == (1 if i == j else 0)
            for i, row in enumerate(self.entries)
            for j, x in enumerate(row)
        )


def _check_same_dim(a: IntMatrix, b: IntMatrix) -> int:
    if a.d != b.d:
        raise DimensionMismatchError(f"dimension mismatch: {a.d} vs {b.d}")
    return a.d


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact matrix product over Z."""
    d = _check_same_dim(a, b)
    bt = tuple(zip(*b.entries))
    return IntMatrix(
        tuple(
            tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
            for row in a.entries
        )
    )


def mat_mul_mod(a: IntMatrix, b: IntMatrix, m: PrimePowerModulus) -> IntMatrix:
    """Matrix product with entries reduced into [0, p^t)."""
    return mat_mul(a, b).reduce(m.modulus)


def mat_pow(a: IntMatrix, n: int) -> IntMatrix:
    """Exact matrix power over Z by binary exponentiation; n = 0 gives identity."""
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    result = IntMatrix.identity(a.d)
    base = a
    while n:
        if n & 1:
            result = mat_mul(result, base)
        n >>= 1
        if n:
            base = mat_mul(base, base)
    return result


def mat_pow_mod(a: IntMatrix, n: int, m: PrimePowerModulus) -> IntMatrix:
    """A^n mod p^t by binary exponentiation; n = 0 gives identity."""
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    result = IntMatrix.identity(a.d).reduce(m.modulus)
    base = a.reduce(m.modulus)
    while n:
        if n & 1:
            result = mat_mul_mod(result, base, m)
        n >>= 1
        if n:
            base = mat_mul_mod(base, base, m)
    return result


def mat_vec(a: IntMatrix, v: ResidueVector) -> ResidueVector:
    if a.d != len(v):
        raise DimensionMismatchError(f"matrix dim {a.d} vs vector length {len(v)}")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a.entries)


def mat_vec_mod(a: IntMatrix, v: ResidueVector, m: PrimePowerModulus) -> ResidueVector:
    return tuple(x % m.modulus for x in mat_vec(a, v))


def vec_dot(u: ResidueVector, v: ResidueVector) -> int:
    if len(u) != len(v):
        raise DimensionMismatchError("vector length mismatch")
    return sum(x * y for x, y in zip(u, v))


def vec_reduce(v: Sequence[int], m: PrimePowerModulus) -> ResidueVector:
    return tuple(int(x) % m.modulus for x in v)


# Largest estimated size of one mat_stream output array
STREAM_MEMORY_BUDGET = 2**30


def mat_stream(
    a: IntMatrix,
    u0: Sequence[int],
    m: PrimePowerModulus,
    count: int,
    n0: int = 0,
    v: Sequence[int] | None = None,
) -> np.ndarray:
    """The stream u_n = A^n u0 mod p^t for n = n0 .. n0 + count - 1 as a
    (count, d) array, or, given v, the scalars v . u_n mod p^t as a (count,)
    array.

    Baby-step giant-step: the columns u_{n0} .. u_{n0+B-1} are built by
    doubling with A, A^2, A^4, ..., where B is the least power of two with
    B^2 >= count; every block of B terms is then one product
    (head @ baby) % p^t with head = A^{kB}, or v A^{kB} for scalars.  A
    product entry is a sum of d terms below (p^t)^2, so the arrays are int64
    when d (p^t)^2 < 2^63 and numpy object arrays of exact Python ints
    otherwise.

    Raises StreamTooLargeError, before anything is allocated, when the
    output would take more than STREAM_MEMORY_BUDGET bytes: 8 per entry, plus
    the size of one Python int below p^t per entry of an object array."""
    if count < 0:
        raise ValueError("count must be >= 0")
    mod = m.modulus
    d = a.d
    for vec in (u0,) if v is None else (u0, v):
        if len(vec) != d:
            raise DimensionMismatchError(f"matrix dim {d} vs vector length {len(vec)}")
    dtype = np.int64 if d * mod * mod < 2**63 else object
    entry_bytes = 8 if dtype is np.int64 else 8 + sys.getsizeof(mod - 1)
    out_bytes = count * (d if v is None else 1) * entry_bytes
    if out_bytes > STREAM_MEMORY_BUDGET:
        raise StreamTooLargeError(
            f"stream of {count} terms needs about {out_bytes} bytes, "
            f"over the budget of {STREAM_MEMORY_BUDGET}"
        )
    u = vec_reduce(u0, m)
    if n0:
        u = mat_vec_mod(mat_pow_mod(a, n0, m), u, m)
    baby = np.array(u, dtype=dtype).reshape(d, 1)
    giant = np.array(a.reduce(mod).entries, dtype=dtype)
    while baby.shape[1] ** 2 < count:
        baby = np.hstack([baby, (giant @ baby) % mod])
        giant = (giant @ giant) % mod
    if v is None:
        head = np.identity(d, dtype=dtype)
    else:
        head = np.array(vec_reduce(v, m), dtype=dtype).reshape(1, d)
    width = baby.shape[1]
    out = np.empty((head.shape[0], count), dtype=dtype)
    for pos in range(0, count, width):
        end = min(pos + width, count)
        out[:, pos:end] = (head @ baby[:, : end - pos]) % mod
        head = (head @ giant) % mod
    return out.T if v is None else out[0]


def det_exact(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    d = a.d
    if d == 1:
        return a.entries[0][0]
    m = [list(row) for row in a.entries]
    sign = 1
    prev = 1
    for k in range(d - 1):
        if m[k][k] == 0:
            for i in range(k + 1, d):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                q, rem = divmod(num, prev)
                if rem:
                    raise ExactDivisionError("Bareiss division not exact")
                m[i][j] = q
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[d - 1][d - 1]


def mat_inverse_mod(a: IntMatrix, m: PrimePowerModulus) -> IntMatrix:
    """Inverse modulo p^t via adjugate; requires gcd(det A, p) = 1."""
    det = det_exact(a)
    if det % m.p == 0:
        raise NotInvertibleError(f"det = {det} is divisible by p = {m.p}")
    inv_det = pow(det % m.modulus, -1, m.modulus)
    d = a.d
    if d == 1:
        return IntMatrix(((inv_det % m.modulus,),))
    adj = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            minor = IntMatrix(
                tuple(
                    tuple(a.entries[r][c] for c in range(d) if c != j)
                    for r in range(d)
                    if r != i
                )
            )
            cof = det_exact(minor)
            if (i + j) % 2:
                cof = -cof
            adj[j][i] = cof
    return IntMatrix(
        tuple(tuple(x * inv_det % m.modulus for x in row) for row in adj)
    )


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients ascending (c_0, c_1, ..., c_deg)."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        c = tuple(int(x) for x in self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[int]) -> "IntPolynomial":
        return cls(tuple(int(x) for x in coeffs))

    @classmethod
    def x_power(cls, n: int, coeff: int = 1) -> "IntPolynomial":
        return cls((0,) * n + (coeff,))

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return IntPolynomial(tuple(x + y for x, y in zip(a, b)))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return IntPolynomial(tuple(x - y for x, y in zip(a, b)))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-x for x in self.coeffs))

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        if self.is_zero or other.is_zero:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))

    __rmul__ = __mul__

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def divmod_exact(self, divisor: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Division over Q with Fraction coefficients; quotient and remainder
        are asserted to be integral (use when divisor is monic or division is
        known exact)."""
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = [Fraction(c) for c in self.coeffs]
        quo = [Fraction(0)] * max(len(self.coeffs) - len(divisor.coeffs) + 1, 1)
        dcoeffs = divisor.coeffs
        dlead = Fraction(dcoeffs[-1])
        for k in range(len(rem) - len(dcoeffs), -1, -1):
            q = rem[k + len(dcoeffs) - 1] / dlead
            quo[k] = q
            if q:
                for i, dc in enumerate(dcoeffs):
                    rem[k + i] -= q * dc
        for x in quo + rem:
            if x.denominator != 1:
                raise ExactDivisionError("polynomial division not integral")
        return (
            IntPolynomial(tuple(int(x) for x in quo)),
            IntPolynomial(tuple(int(x) for x in rem)),
        )

    def content(self) -> int:
        return math.gcd(*(abs(c) for c in self.coeffs)) if self.coeffs else 0

    def primitive_part(self) -> "IntPolynomial":
        c = self.content()
        if c in (0, 1):
            return self
        sign = 1 if self.coeffs[-1] > 0 else -1
        return IntPolynomial(tuple(x // (c * sign) for x in self.coeffs))


def poly_gcd_q(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """gcd over Q returned as a primitive integer polynomial with positive lead."""
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


def is_squarefree_over_q(f: IntPolynomial) -> bool:
    return poly_gcd_q(f, f.derivative()).degree <= 0


def char_poly(a: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial det(XI - A) via the Faddeev-LeVerrier
    recurrence; exact rational intermediates, integrality asserted."""
    d = a.d
    frac_a = [[Fraction(x) for x in row] for row in a.entries]
    coeffs = [Fraction(0)] * (d + 1)
    coeffs[d] = Fraction(1)
    m = [[Fraction(1) if i == j else Fraction(0) for j in range(d)] for i in range(d)]
    for k in range(1, d + 1):
        n = [
            [sum(frac_a[i][r] * m[r][j] for r in range(d)) for j in range(d)]
            for i in range(d)
        ]
        trace = sum(n[i][i] for i in range(d))
        c = -trace / k
        coeffs[d - k] = c
        m = [
            [n[i][j] + (c if i == j else 0) for j in range(d)]
            for i in range(d)
        ]
    out = []
    for x in coeffs:
        if x.denominator != 1:
            raise ExactDivisionError("characteristic polynomial not integral")
        out.append(int(x))
    return IntPolynomial(tuple(out))


def recurrence_coefficients(f: IntPolynomial) -> tuple[int, ...]:
    """Coefficients (a_0, ..., a_{d-1}) of the linear recurrence
    u_{n+d} = a_{d-1} u_{n+d-1} + ... + a_0 u_n attached to a monic f."""
    if not f.is_monic:
        raise ValueError("recurrence coefficients need a monic polynomial")
    return tuple(-c for c in f.coeffs[:-1])


def poly_eval_matrix(f: IntPolynomial, a: IntMatrix) -> IntMatrix:
    """Evaluate f at a matrix argument by Horner over exact matrices."""
    d = a.d
    acc = IntMatrix.zeros(d)
    ident = IntMatrix.identity(d)
    for c in reversed(f.coeffs):
        acc = mat_mul(acc, a)
        if c:
            acc = IntMatrix(
                tuple(
                    tuple(x + c * e for x, e in zip(row, irow))
                    for row, irow in zip(acc.entries, ident.entries)
                )
            )
    return acc


def companion_matrix(f: IntPolynomial) -> IntMatrix:
    """Companion matrix whose characteristic polynomial is the monic f."""
    if not f.is_monic or f.degree < 1:
        raise ValueError("companion matrix needs a monic polynomial of degree >= 1")
    d = f.degree
    rows = []
    for i in range(d - 1):
        rows.append(tuple(1 if j == i + 1 else 0 for j in range(d)))
    rows.append(tuple(-f.coeffs[j] for j in range(d)))
    return IntMatrix(tuple(rows))
