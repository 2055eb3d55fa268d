"""Exact arbitrary-precision arithmetic: prime-power moduli, integer matrices,
residue vectors, and integer polynomials.

Nothing in this module touches floating point; all results are exact.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    ExactDivisionError,
    IterationCapExceededError,
    NotInvertibleError,
    PreconditionViolatedError,
    StreamTooLargeError,
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
    """The pair (p, t) with cached modulus p^t.  p is checked by `is_prime` at
    construction: proven prime below 3.3 * 10^24, a strong probable prime
    above."""

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

    def check_float_range(self) -> None:
        """Raise PreconditionViolatedError unless float(p^t) is finite: the
        phases e(x / p^t) of exponential sums are computed in float64."""
        if self.modulus >= _FLOAT_OVERFLOW:
            raise PreconditionViolatedError(
                f"p^t = {self.p}^{self.t} is beyond float range; "
                "exponential sums need p^t < 2^1024 - 2^970"
            )


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


# Entries per block of `stream_blocks`: a block holds at most STREAM_BLOCK // w
# terms of w entries (w = d for vectors, 1 for scalars), or one giant step
STREAM_BLOCK = 1 << 15
# Largest estimated size of one mat_stream output array and of the tuple
# arrays of analysis.vinogradov.vinogradov_count
STREAM_MEMORY_BUDGET = 2**30


class _Limbs(NamedTuple):
    """How the stream kernel holds residues mod p^t: `count` limbs of base
    b = p^k, least significant first, the top one below `top` =
    p^(t - (count - 1) k).  One limb (b = p^t) is the residue itself, of
    `dtype` int64 or object (exact ints)."""

    base: int
    count: int
    top: int
    dtype: type


def stream_dtype(m: PrimePowerModulus, d: int) -> type:
    """The dtype of the stream kernel's output: int64 when d (p^t)^2 < 2^63,
    so that no dot product of residues can overflow, and object (exact
    Python ints) otherwise."""
    return np.int64 if d * m.modulus**2 < 2**63 else object


def _limbs(m: PrimePowerModulus, d: int) -> _Limbs:
    """The fewest int64 limbs whose products cannot overflow: a product
    limb sums at most d L products of two limbs below b, and
    d L b^2 < 2^63 leaves room for the carry of the limb below.  One limb
    for int64 output; exact ints when p^t >= 2^64 or no base fits."""
    p, t, mod = m.p, m.t, m.modulus
    if stream_dtype(m, d) is np.int64:
        return _Limbs(mod, 1, mod, np.int64)
    if mod < 2**64:
        for n in range(2, t + 1):
            k = -(-t // n)
            count, base = -(-t // k), p**k
            if d * count * base * base < 2**63:
                return _Limbs(base, count, p ** (t - (count - 1) * k), np.int64)
    return _Limbs(mod, 1, mod, object)


def _split(rows: Sequence[Sequence[int]], lm: _Limbs) -> np.ndarray:
    """The (L, r, c) limbs of an r x c matrix of residues."""
    b = lm.base
    return np.array(
        [[[x // b**j % b for x in row] for row in rows] for j in range(lm.count)], dtype=lm.dtype
    )


def _mul(x: np.ndarray, y: np.ndarray, lm: _Limbs) -> np.ndarray:
    """The limbs of x @ y mod p^t for limb arrays x (L, r, d) and y (L, d, c).

    Limb j of the product mod b^L = p^(kL) is the sum over i + l = j of
    x_i @ y_l plus the carry from limb j - 1; the top limb is reduced mod
    p^(t - (L-1)k), which is exact because p^t divides p^(kL)."""
    out = np.empty((lm.count, x.shape[1], y.shape[2]), dtype=lm.dtype)
    carry = None
    for j in range(lm.count):
        acc = x[0] @ y[j]
        for i in range(1, j + 1):
            acc += x[i] @ y[j - i]
        if carry is not None:
            acc += carry
        if j < lm.count - 1:
            carry, out[j] = np.divmod(acc, lm.base)
        else:
            out[j] = acc % lm.top
    return out


def _compose(z: np.ndarray, lm: _Limbs) -> np.ndarray:
    """The residues of limb array z: the limb itself for one limb, else
    sum z_j b^j in uint64, exact below p^t < 2^64."""
    if lm.count == 1:
        return z[0]
    acc = z[-1].astype(np.uint64)
    for limb in z[-2::-1]:
        acc *= np.uint64(lm.base)
        acc += limb.view(np.uint64)
    return acc


def _doubling(mul, first: np.ndarray, step: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """([first, step first, ..., step^(w-1) first] side by side, step^w), with
    w the least power of two >= n."""
    cols = first
    while cols.shape[2] < n * first.shape[2]:
        cols = np.concatenate((cols, mul(step, cols)), axis=2)
        step = mul(step, step)
    return cols, step


def _check_stream(a: IntMatrix, u0, m: PrimePowerModulus, count: int, v) -> None:
    if count < 0:
        raise ValueError("count must be >= 0")
    d = a.d
    for vec in (u0,) if v is None else (u0, v):
        if len(vec) != d:
            raise DimensionMismatchError(f"matrix dim {d} vs vector length {len(vec)}")
    mod = m.modulus
    entry_bytes = 8 if stream_dtype(m, d) is np.int64 else 8 + sys.getsizeof(mod - 1)
    out_bytes = count * (d if v is None else 1) * entry_bytes
    if out_bytes > STREAM_MEMORY_BUDGET:
        raise StreamTooLargeError(
            f"stream of {count} terms needs about {out_bytes} bytes, "
            f"over the budget of {STREAM_MEMORY_BUDGET}"
        )


def stream_blocks(
    a: IntMatrix,
    u0: Sequence[int],
    m: PrimePowerModulus,
    count: int,
    n0: int = 0,
    v: Sequence[int] | None = None,
) -> Iterator[np.ndarray]:
    """The stream of `mat_stream` as consecutive blocks of K whole giant
    steps of B terms each: (n, d) arrays of vectors (w = d), or, given v,
    (n,) arrays of scalars (w = 1), of dtype `stream_dtype(m, d)`.  A block
    holds at most max(STREAM_BLOCK // w, B) terms, the last one fewer.

    Baby-step giant-step: the baby columns u_{n0} .. u_{n0+B-1} are built by
    doubling with A, A^2, A^4, ..., where B is the least power of two with
    B^2 >= count, and giant step k is the product head_k @ baby with
    head_k = A^{kB} (or v A^{kB} for scalars).  The heads of K giant steps
    come from one product of the carried head with [I, G, ..., G^(K-1)],
    G = A^B, and the head then moves on by G^K.  Every product is taken in
    the limbs of `_limbs`: int64 for every p^t < 2^64 with a base that
    fits, and there the object dtype appears only when a block of several
    limbs is put together for output, by one astype from uint64.

    Raises StreamTooLargeError when it is called, before anything is
    allocated, when `mat_stream` would return more than
    STREAM_MEMORY_BUDGET bytes: 8 per entry, plus the size of one Python int
    below p^t per entry of an object array."""
    _check_stream(a, u0, m, count, v)
    d = a.d
    u = vec_reduce(u0, m)
    if n0:
        u = mat_vec_mod(mat_pow_mod(a, n0, m), u, m)
    size = max(1, STREAM_BLOCK // (d if v is None else 1))
    blocks = _giant_steps(a, u, m, count, v, size)
    if stream_dtype(m, d) is np.int64:
        return blocks
    return (block.astype(object, copy=False) for block in blocks)


def _giant_steps(a, u, m, count, v, size) -> Iterator[np.ndarray]:
    """The stream in batches of K whole giant steps, K B <= size terms
    unless K = 1, composed by `_compose`."""
    lm = _limbs(m, a.d)
    d = a.d

    def mul(x, y):
        return _mul(x, y, lm)

    width = 1
    while width * width < count:
        width *= 2
    baby, giant = _doubling(mul, _split([[x] for x in u], lm), _split(a.reduce(m.modulus).entries, lm), width)
    ident = _split(IntMatrix.identity(d).entries, lm)
    # giant steps per batch: a power of two, no more than a block or the stream needs
    steps = 1 << (max(1, min(size // width, -(-count // width))).bit_length() - 1)
    powers, jump = _doubling(mul, ident, giant, steps)
    head = ident if v is None else _split([vec_reduce(v, m)], lm)
    rows = head.shape[1]
    for pos in range(0, count, steps * width):
        k = min(steps, -(-(count - pos) // width))
        # head G^j for j < k sits in columns j d .. j d + d - 1; stack them as rows
        heads = mul(head, powers[:, :, : k * d])
        heads = heads.reshape(lm.count, rows, k, d).transpose(0, 2, 1, 3).reshape(lm.count, k * rows, d)
        out = _compose(mul(heads, baby), lm)  # row j rows + i: entry i of giant step j
        if v is None:
            out = out.reshape(k, d, width).transpose(0, 2, 1).reshape(k * width, d)
        else:
            out = out.reshape(k * width)
        yield out[: count - pos]
        head = mul(head, jump)


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
    array: the blocks of `stream_blocks` put together, in its dtype and
    under its memory budget."""
    blocks = stream_blocks(a, u0, m, count, n0, v)
    out = np.empty((count, a.d) if v is None else count, dtype=stream_dtype(m, a.d))
    pos = 0
    for block in blocks:
        out[pos : pos + len(block)] = block
        pos += len(block)
    return out


def det_exact(a: IntMatrix | Sequence[Sequence]) -> int | IntPolynomial:
    """Exact determinant by fraction-free (Bareiss) elimination.

    The entries are integers (an IntMatrix or rows of ints) or IntPolynomials:
    every division is by the previous pivot and exact in Z and in Z[X]
    (Bareiss, Math. Comp. 22, 1968), so one routine gives det A and the
    resultants built by `sylvester_rows`."""
    m = [list(row) for row in (a.entries if isinstance(a, IntMatrix) else a)]
    d = len(m)
    sign = 1
    prev = None
    for k in range(d - 1):
        if not m[k][k]:
            pivot = next((i for i in range(k + 1, d) if m[i][k]), None)
            if pivot is None:
                return m[k][k]
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


def sylvester_rows(f: Sequence, g: Sequence) -> list[list]:
    """Sylvester matrix of f and g, given as ascending coefficient lists with
    nonzero leads (entries in Z or Z[X]): deg g shifted rows of f, then deg f
    shifted rows of g.  Its determinant is the resultant Res(f, g)."""
    m, n = len(f) - 1, len(g) - 1
    zero = f[-1] * 0
    rows = []
    for coeffs, shifts in ((f, n), (g, m)):
        for i in range(shifts):
            row = [zero] * (m + n)
            row[i : i + len(coeffs)] = coeffs[::-1]
            rows.append(row)
    return rows


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


def _product_coeffs(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of the product of two polynomials given as ascending
    coefficient sequences; empty when either is empty (the zero polynomial)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients ascending (c_0, c_1, ..., c_deg)."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        c = self._reduced(self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    def _reduced(self, coeffs: Sequence[int]) -> tuple[int, ...]:
        """The coefficients as stored; a subclass reduces them."""
        return tuple(int(x) for x in coeffs)

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

    def _like(self, coeffs: Sequence[int]) -> "IntPolynomial":
        """A polynomial of this one's kind (a subclass keeps its modulus)."""
        return IntPolynomial(coeffs)

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
        return self._like(x + y for x, y in zip(a, b))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return self._like(x - y for x, y in zip(a, b))

    def __neg__(self) -> "IntPolynomial":
        return self._like(-x for x in self.coeffs)

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            return self._like(c * other for c in self.coeffs)
        return self._like(_product_coeffs(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def derivative(self) -> "IntPolynomial":
        return self._like(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def _long_division(
        self, coeffs: Sequence[int], divisor: "IntPolynomial"
    ) -> tuple[list[int], list[int]]:
        """Quotient and remainder coefficients of `coeffs` over `divisor`, in
        exact integer steps: each quotient coefficient is the leading
        remainder coefficient over the divisor's lead, and a step that is not
        integral raises ExactDivisionError.  Every step is exact for a monic
        divisor, and for any divisor that divides exactly in Z[X].  The
        remainder has at most deg(divisor) coefficients."""
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        dcoeffs = divisor.coeffs
        dlead = dcoeffs[-1]
        rem = list(coeffs)
        quo = [0] * max(len(rem) - len(dcoeffs) + 1, 1)
        for k in range(len(rem) - len(dcoeffs), -1, -1):
            q, r = divmod(rem[k + len(dcoeffs) - 1], dlead)
            if r:
                raise ExactDivisionError("polynomial division not integral")
            quo[k] = q
            if q:
                for i, dc in enumerate(dcoeffs):
                    rem[k + i] -= q * dc
        return quo, rem[: len(dcoeffs) - 1]

    def divmod_exact(self, divisor: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """(quotient, remainder) of `_long_division`."""
        quo, rem = self._long_division(self.coeffs, divisor)
        return self._like(quo), self._like(rem)

    def __divmod__(self, divisor: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        return self.divmod_exact(divisor)

    def __mod__(self, divisor: "IntPolynomial") -> "IntPolynomial":
        """The remainder of divmod_exact, without building the quotient."""
        return self._like(self._long_division(self.coeffs, divisor)[1])

    def pow_mod(self, e: int, mod: "IntPolynomial") -> "IntPolynomial":
        """self^e reduced modulo `mod` (monic, or with a unit lead for a
        subclass over Z/p) by square-and-multiply on coefficient tuples; e = 0
        gives 1."""

        def mul_mod(x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
            return self._reduced(self._long_division(_product_coeffs(x, y), mod)[1])

        return self._like(_square_and_multiply((self % mod).coeffs, e, mul_mod, (1,)))

    def content(self) -> int:
        return math.gcd(*(abs(c) for c in self.coeffs)) if self.coeffs else 0

    def primitive_part(self) -> "IntPolynomial":
        c = self.content()
        if c in (0, 1):
            return self
        sign = 1 if self.coeffs[-1] > 0 else -1
        return IntPolynomial(tuple(x // (c * sign) for x in self.coeffs))


def is_squarefree_over_q(f: IntPolynomial) -> bool:
    """No repeated root over Q: Res(f, f') != 0 when deg f >= 1 (in
    characteristic 0, f' has degree deg f - 1); constants count as squarefree."""
    if f.degree < 1:
        return True
    return det_exact(sylvester_rows(f.coeffs, f.derivative().coeffs)) != 0


def char_poly(a: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial det(XI - A), by `det_exact` over Z[X]."""
    return det_exact([
        [IntPolynomial((-x, 1) if i == j else (-x,)) for j, x in enumerate(row)]
        for i, row in enumerate(a.entries)
    ])


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
