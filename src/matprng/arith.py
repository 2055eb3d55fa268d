"""Exact arbitrary-precision arithmetic: prime-power moduli, integer matrices,
residue vectors, and integer polynomials, which are evaluated, and asked
about, as matrices: at a matrix (`mat_poly`), or through their companion
matrix, whose determinants give the resultants and whose trace recurrence
(Faddeev-LeVerrier) gives `char_poly`.

Nothing in this module touches floating point or numpy; all results are
exact Python integers.  The numpy stream kernel, which computes long runs
of u_n = A^n u0 mod p^t in fixed-width limbs, is `matprng.stream`: so the
config loader, the validator and the order table run without numpy.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

from .errors import (
    DimensionMismatchError,
    ExactDivisionError,
    PreconditionViolatedError,
    ResourceGuardError,
)

# A residue vector is a plain tuple of arbitrary-precision integers.
ResidueVector = tuple[int, ...]

# float() rounds every integer from here up to infinity (half-way past the
# largest double, 2^1024 - 2^971, rounding to even)
_FLOAT_OVERFLOW = 2**1024 - 2**970

# Witnesses making Miller-Rabin a proof of primality for n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the fixed witnesses 2 .. 37: a proof of primality
    for n < 3.3 * 10^24; above that, True means n is a strong probable prime
    to those twelve bases."""
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
    the guard `trial_division` instead of stalling the factorisation."""
    out = []
    q = 2
    while n > 1 and not is_prime(n):
        while n % q:
            q += 1
            if q > TRIAL_DIVISION_LIMIT:
                raise ResourceGuardError("trial_division", n, TRIAL_DIVISION_LIMIT)
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


def str_digits(coeff: int, base: int, exponent: int) -> tuple[int, int]:
    """(D, limit): the decimal digits D of coeff * base^exponent (all >= 1)
    and the interpreter's int-to-str limit, or that limit's default (4300)
    when it is 0 (none); callers refuse D > limit, so that no integer the
    program prints is unbounded.  log10 gives D unless it lies within 1 of
    the limit; only there is the exact power formed and compared with
    10^limit, so that D > limit exactly when the number is at least that."""
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    log = math.log10(coeff) + exponent * math.log10(base)
    if abs(log - limit) >= 1:
        return int(log) + 1, limit
    return limit + (coeff * base**exponent >= 10**limit), limit


class Frozen:
    """Base of the immutable value types whose __init__ checks or normalises
    the fields.  A subclass lists its `__slots__` and, in `_fields`, those
    that make its value: equality and hash are over them, between instances
    of the same class only, and the repr shows them.  __init__ sets the
    slots through `_set`; after that, assignment raises AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        """Set the `_fields` in order (the first len(values) of them)."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state: tuple[None, dict]) -> None:
        # copy and pickle restore every slot as it was, without __init__,
        # which would normalise the fields again
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class PrimePowerModulus(Frozen):
    """The pair (p, t) with cached modulus p^t.  p is checked by `is_prime` at
    construction: proven prime below 3.3 * 10^24, a strong probable prime
    above.  The `modulus` argument is ignored: it is always p^t."""

    __slots__ = _fields = ("p", "t", "modulus")

    def __init__(self, p: int, t: int, modulus: int = 0) -> None:
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if t < 1:
            raise ValueError(f"t = {t} must be >= 1")
        self._set(p, t, p**t)

    def at_exponent(self, s: int) -> "PrimePowerModulus":
        return PrimePowerModulus(self.p, s)

    def check_float_range(self) -> None:
        """Raise PreconditionViolatedError unless float(p^t) is finite: the
        phases e(x / p^t) of exponential sums are computed in float64."""
        if self.modulus >= _FLOAT_OVERFLOW:
            raise PreconditionViolatedError(
                f"p^t = {self.p}^{self.t} is beyond float range; "
                "exponential sums need p^t < 2^1024 - 2^970"
            )


class IntMatrix(Frozen):
    """Square matrix of arbitrary-precision integers."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[int, ...], ...]) -> None:
        d = len(entries)
        if d < 1 or any(len(row) != d for row in entries):
            raise DimensionMismatchError("matrix must be square and nonempty")
        self._set(entries)

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


def _square_and_multiply(base, n: int, mul, one):
    """base^n under the product `mul` by binary exponentiation; n = 0 gives
    `one`.  Every power in the package goes through this loop."""
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    result = one
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def mat_pow(a: IntMatrix, n: int) -> IntMatrix:
    """Exact matrix power over Z by binary exponentiation; n = 0 gives identity."""
    return _square_and_multiply(a, n, mat_mul, IntMatrix.identity(a.d))


def mat_pow_mod(a: IntMatrix, n: int, m: PrimePowerModulus) -> IntMatrix:
    """A^n mod p^t by binary exponentiation; n = 0 gives identity."""
    mod = m.modulus
    return _square_and_multiply(
        a.reduce(mod), n, lambda x, y: mat_mul_mod(x, y, m), IntMatrix.identity(a.d).reduce(mod)
    )


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


# Largest estimated size of one `stream.mat_stream` output array and of the
# multiset arrays of analysis.vinogradov.vinogradov_count
STREAM_MEMORY_BUDGET = 2**30


def det_exact(a: IntMatrix | Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (an IntMatrix or rows of ints)
    by fraction-free (Bareiss) elimination: every division is by the
    previous pivot and exact in Z (Bareiss, Math. Comp. 22, 1968)."""
    m = [list(row) for row in (a.entries if isinstance(a, IntMatrix) else a)]
    d = len(m)
    sign = 1
    prev = None
    for k in range(d - 1):
        if not m[k][k]:
            pivot = next((i for i in range(k + 1, d) if m[i][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                if prev is not None:
                    num, rem = divmod(num, prev)
                    if rem:
                        raise ExactDivisionError("Bareiss division not exact")
                m[i][j] = num
        prev = m[k][k]
    return m[d - 1][d - 1] if sign == 1 else -m[d - 1][d - 1]


class IntPolynomial(Frozen):
    """Integer polynomial, coefficients ascending (c_0, c_1, ..., c_deg)."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]) -> None:
        c = tuple(int(x) for x in coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        self._set(c)

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

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return IntPolynomial([x + y for x, y in zip(a, b)])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + -other

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-x for x in self.coeffs])

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        out = [0] * max(len(self.coeffs) + len(other.coeffs) - 1, 0)
        for i, x in enumerate(self.coeffs):
            for j, y in enumerate(other.coeffs):
                out[i + j] += x * y
        return IntPolynomial(out)

    __rmul__ = __mul__

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs) if i > 0])


def mat_add(a: IntMatrix, b: IntMatrix, c: int = 1, m: PrimePowerModulus | None = None) -> IntMatrix:
    """A + c B, exactly over Z, or reduced mod p^s when m is given."""
    _check_same_dim(a, b)
    total = IntMatrix(tuple(
        tuple(x + c * y for x, y in zip(row_a, row_b)) for row_a, row_b in zip(a.entries, b.entries)
    ))
    return total if m is None else total.reduce(m.modulus)


def mat_poly(f: IntPolynomial, z: IntMatrix, m: PrimePowerModulus | None = None) -> IntMatrix:
    """f(Z) by Horner's rule, exactly over Z, or reduced mod p^s at each step
    when m is given."""
    one = IntMatrix.identity(z.d)
    acc = IntMatrix.zeros(z.d)
    for c in reversed(f.coeffs):
        acc = mat_add(mat_mul(acc, z), one, c, m)
    return acc


def companion_matrix(f: IntPolynomial) -> IntMatrix:
    """Companion matrix whose characteristic polynomial is the monic f.

    For monic f every question about the ring Z[X]/(f) is one about the
    integer matrices Z[C]: g(C) is the class of g, and Res(f, g) = det g(C)."""
    if not f.is_monic or f.degree < 1:
        raise ValueError("companion matrix needs a monic polynomial of degree >= 1")
    d = f.degree
    rows = []
    for i in range(d - 1):
        rows.append(tuple(1 if j == i + 1 else 0 for j in range(d)))
    rows.append(tuple(-f.coeffs[j] for j in range(d)))
    return IntMatrix(tuple(rows))


def is_squarefree_over_q(f: IntPolynomial) -> bool:
    """No repeated root over Q; constants count as squarefree.  f has one
    exactly when the monic g(X) = c^(d-1) f(X / c), c the lead of f, whose
    roots are c times those of f, shares a root with g': when
    Res(g, g') = det g'(C_g) is 0, C_g = companion_matrix(g)."""
    d = f.degree
    if d < 1:
        return True
    c = f.coeffs[-1]
    g = IntPolynomial([x * c ** (d - 1 - i) for i, x in enumerate(f.coeffs[:-1])] + [1])
    return det_exact(mat_poly(g.derivative(), companion_matrix(g))) != 0


def char_poly(a: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial det(XI - A) = X^d + c_(d-1) X^(d-1) + ... + c_0
    by Faddeev-LeVerrier over Z: M_1 = I, M_(k+1) = A M_k + c_(d-k) I and
    c_(d-k) = -tr(A M_k) / k, every division exact."""
    one = IntMatrix.identity(a.d)
    coeffs = [1]  # c_d, c_(d-1), ..., c_0
    am = IntMatrix.zeros(a.d)  # A M_(k-1)
    for k in range(1, a.d + 1):
        am = mat_mul(a, mat_add(am, one, coeffs[-1]))
        c, rem = divmod(-sum(am.entries[i][i] for i in range(a.d)), k)
        if rem:
            raise ExactDivisionError("Faddeev-LeVerrier division not exact")
        coeffs.append(c)
    return IntPolynomial(coeffs[::-1])
