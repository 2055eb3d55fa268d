"""Polynomial algebra over F_p and the generator hypothesis validators:
squarefreeness and irreducibility mod p, nondegeneracy over Q (no root or
root ratio is a root of unity), proper pairs, and p-primitive vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .arith import (
    IntMatrix,
    IntPolynomial,
    PrimePowerModulus,
    ResidueVector,
    char_poly,
    is_squarefree_over_q,
    mat_stream,
    prime_factors,
)
from .errors import ExactDivisionError


@dataclass(frozen=True)
class PolyModP:
    """Polynomial over F_p, coefficients ascending and reduced into [0, p)."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        c = tuple(x % self.p for x in self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_int_poly(cls, f: IntPolynomial, p: int) -> "PolyModP":
        return cls(p, f.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "PolyModP") -> "PolyModP":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return PolyModP(self.p, tuple(x + y for x, y in zip(a, b)))

    def __sub__(self, other: "PolyModP") -> "PolyModP":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return PolyModP(self.p, tuple(x - y for x, y in zip(a, b)))

    def __mul__(self, other) -> "PolyModP":
        if isinstance(other, int):
            return PolyModP(self.p, tuple(c * other for c in self.coeffs))
        if self.is_zero or other.is_zero:
            return PolyModP(self.p, ())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = (out[i + j] + a * b) % self.p
        return PolyModP(self.p, tuple(out))

    __rmul__ = __mul__

    def divmod(self, divisor: "PolyModP") -> tuple["PolyModP", "PolyModP"]:
        if divisor.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        p = self.p
        rem = list(self.coeffs)
        dl = len(divisor.coeffs)
        inv_lead = pow(divisor.coeffs[-1], -1, p)
        quo = [0] * max(len(rem) - dl + 1, 1)
        for k in range(len(rem) - dl, -1, -1):
            q = rem[k + dl - 1] * inv_lead % p
            quo[k] = q
            if q:
                for i, dc in enumerate(divisor.coeffs):
                    rem[k + i] = (rem[k + i] - q * dc) % p
        return PolyModP(p, tuple(quo)), PolyModP(p, tuple(rem))

    def monic(self) -> "PolyModP":
        if self.is_zero or self.coeffs[-1] == 1:
            return self
        inv = pow(self.coeffs[-1], -1, self.p)
        return self * inv

    def derivative(self) -> "PolyModP":
        return PolyModP(self.p, tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def gcd(self, other: "PolyModP") -> "PolyModP":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def pow_mod(self, e: int, mod: "PolyModP") -> "PolyModP":
        result = PolyModP(self.p, (1,))
        base = self.divmod(mod)[1]
        while e:
            if e & 1:
                result = (result * base).divmod(mod)[1]
            e >>= 1
            if e:
                base = (base * base).divmod(mod)[1]
        return result


@dataclass(frozen=True)
class Verdict:
    """Outcome of a hypothesis check; rejected verdicts always carry a witness."""

    outcome: str  # "accepted" | "rejected"
    reason: str
    witness: object = None

    def __post_init__(self) -> None:
        if self.outcome not in ("accepted", "rejected"):
            raise ValueError(f"bad outcome {self.outcome!r}")
        if self.outcome == "rejected" and self.witness is None:
            raise ValueError("rejected verdicts must carry a witness")

    @property
    def accepted(self) -> bool:
        return self.outcome == "accepted"

    @classmethod
    def ok(cls) -> "Verdict":
        return cls("accepted", "accepted")

    @classmethod
    def fail(cls, reason: str, witness: object) -> "Verdict":
        return cls("rejected", reason, witness)

    def to_dict(self) -> dict:
        w = self.witness
        if isinstance(w, (PolyModP, IntPolynomial)):
            w = list(w.coeffs)
        return {"outcome": self.outcome, "reason": self.reason, "witness": w}


def squarefree_mod_p(f: IntPolynomial, p: int) -> Verdict:
    """Accepted iff gcd(f, f') = 1 in F_p[X]; otherwise the witness is the
    common (repeated) factor."""
    fp = PolyModP.from_int_poly(f, p)
    if fp.is_zero:
        raise ValueError("polynomial vanishes mod p")
    if fp.degree < 1:
        raise ValueError("degree must be >= 1 mod p")
    g = fp.gcd(fp.derivative())
    if g.degree <= 0:
        return Verdict.ok()
    return Verdict.fail("multiple-roots-mod-p", g)


def irreducible_mod_p(f: IntPolynomial, p: int) -> bool:
    """Irreducibility of f mod p: no irreducible factor of degree <= deg/2,
    plus the Frobenius fixed-point identity X^{p^deg} = X mod f."""
    fp = PolyModP.from_int_poly(f, p).monic()
    if fp.is_zero:
        raise ValueError("polynomial vanishes mod p")
    n = fp.degree
    if n <= 0:
        return False
    if n == 1:
        return True
    x = PolyModP(p, (0, 1))
    r = x
    for _ in range(n // 2):
        r = r.pow_mod(p, fp)  # now X^{p^k} mod f
        if (r - x).gcd(fp).degree > 0:
            return False
    full = x.pow_mod(p**n, fp)
    return full == x.divmod(fp)[1]


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    for q in prime_factors(n):
        result -= result // q
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> IntPolynomial:
    """n-th cyclotomic polynomial via exact division of X^n - 1."""
    if n == 1:
        return IntPolynomial((-1, 1))
    num = IntPolynomial.x_power(n) - IntPolynomial((1,))
    for d in range(1, n):
        if n % d == 0:
            q, r = num.divmod_exact(cyclotomic_polynomial(d))
            if not r.is_zero:
                raise ExactDivisionError("cyclotomic division not exact")
            num = q
    return num


def _sylvester_resultant_y(a_rows: list[list[IntPolynomial]], size: int) -> IntPolynomial:
    """Determinant of a matrix with IntPolynomial entries by fraction-free
    (Bareiss) elimination; divisions are exact in Z[X]."""
    m = [row[:] for row in a_rows]
    zero = IntPolynomial(())
    sign = 1
    prev = IntPolynomial((1,))
    for k in range(size - 1):
        if m[k][k].is_zero:
            for i in range(k + 1, size):
                if not m[i][k].is_zero:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return zero
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                q, r = num.divmod_exact(prev)
                if not r.is_zero:
                    raise ExactDivisionError("polynomial Bareiss division not exact")
                m[i][j] = q
            m[i][k] = zero
        prev = m[k][k]
    det = m[size - 1][size - 1]
    return det if sign == 1 else -det


def ratio_resultant(f: IntPolynomial) -> IntPolynomial:
    """Res_Y(f(Y), f(X*Y)) as a polynomial in X; its roots are the ratios
    lambda_i / lambda_j of the roots of f (including the trivial i = j)."""
    d = f.degree
    # Row polynomials: f(Y) has constant-in-X coefficients c_k; f(X*Y) has
    # Y^k-coefficient c_k * X^k.
    a = [IntPolynomial((c,)) for c in f.coeffs]  # index = power of Y
    b = [IntPolynomial.x_power(k, f.coeffs[k]) for k in range(d + 1)]
    size = 2 * d
    zero = IntPolynomial(())
    rows: list[list[IntPolynomial]] = []
    for i in range(d):  # d rows of shifted f(Y)
        row = [zero] * size
        for k in range(d + 1):
            row[i + k] = a[d - k]
        rows.append(row)
    for i in range(d):  # d rows of shifted f(X*Y)
        row = [zero] * size
        for k in range(d + 1):
            row[i + k] = b[d - k]
        rows.append(row)
    return _sylvester_resultant_y(rows, size)


def nondegeneracy_check(f: IntPolynomial) -> Verdict:
    """Accepted iff no root of f and no ratio of two distinct roots is a root
    of unity.  Deterministic: cyclotomic sweep against f itself (roots) and
    against Res_Y(f(Y), f(X*Y)) / (X-1)^d (ratios), using phi(n) >= sqrt(n/2).
    """
    d = f.degree
    if d < 1:
        raise ValueError("degree must be >= 1")
    if not f.is_monic:
        raise ValueError("polynomial must be monic")
    if f.coeffs[0] == 0:
        raise ValueError("f(0) = 0: zero is a root")
    if not is_squarefree_over_q(f):
        raise ValueError("polynomial is not squarefree over Q")
    for n in range(1, 2 * d * d + 1):
        if euler_phi(n) > d:
            continue
        _, r = f.divmod_exact(cyclotomic_polynomial(n))
        if r.is_zero:
            return Verdict.fail("degenerate", {"kind": "root", "n": n})
    g = ratio_resultant(f)
    trivial = IntPolynomial((-1, 1))
    for _ in range(d):
        g, r = g.divmod_exact(trivial)
        if not r.is_zero:
            raise ExactDivisionError("(X - 1)^d must divide the ratio resultant")
    if g.is_zero:
        raise ExactDivisionError("ratio resultant vanished; f was not squarefree")
    dd = d * d
    for n in range(1, 2 * d**4 + 1):
        if euler_phi(n) > dd:
            continue
        _, r = g.divmod_exact(cyclotomic_polynomial(n))
        if r.is_zero:
            return Verdict.fail("degenerate", {"kind": "ratio", "n": n})
    return Verdict.ok()


def minimal_recurrence_length(seq: Sequence[int], p: int) -> int:
    """Length of the shortest linear recurrence over F_p generating the given
    terms (Berlekamp-Massey); all-zero input gives 0."""
    s = [x % p for x in seq]
    c = [1]  # connection polynomial, ascending
    b = [1]
    length = 0
    m = 1
    last_disc = 1
    for n in range(len(s)):
        disc = s[n]
        for i in range(1, length + 1):
            disc = (disc + c[i] * s[n - i]) % p
        if disc == 0:
            m += 1
            continue
        coef = disc * pow(last_disc, -1, p) % p
        shifted = [0] * m + b
        new_c = c + [0] * (len(shifted) - len(c)) if len(shifted) > len(c) else c[:]
        for i, bv in enumerate(shifted):
            if bv:
                new_c[i] = (new_c[i] - coef * bv) % p
        if 2 * length <= n:
            b = c
            last_disc = disc
            length = n + 1 - length
            m = 1
        else:
            m += 1
        c = new_c
    return length


def scalar_terms_mod_p(a: IntMatrix, u: ResidueVector, v: ResidueVector, p: int, count: int) -> list[int]:
    """First `count` terms of v A^n u reduced mod p."""
    return mat_stream(a, u, PrimePowerModulus(p, 1), count, v=v).tolist()


def is_proper_pair(a: IntMatrix, u: ResidueVector, v: ResidueVector, p: int) -> bool:
    """True iff the scalar sequence v A^n u mod p needs a recurrence of length
    exactly d = dim A (it can never need more, by Cayley-Hamilton)."""
    terms = scalar_terms_mod_p(a, u, v, p, 4 * a.d)
    return minimal_recurrence_length(terms, p) == a.d


def is_p_primitive(u: ResidueVector, p: int) -> bool:
    """True iff at least one coordinate of u is coprime to p."""
    return any(x % p != 0 for x in u)


def validate_theorem_hypotheses(
    a: IntMatrix,
    u: ResidueVector,
    v: ResidueVector | None,
    m: PrimePowerModulus,
    level: str = "thm1",
) -> Verdict:
    """Aggregate hypothesis check.

    thm1: nondegenerate, squarefree mod p, gcd(a_0, p) = 1, (u, v) proper.
    thm2: nondegenerate, irreducible mod p, u p-primitive.
    Returns the first failing reason as a rejected verdict.
    """
    if level not in ("thm1", "thm2"):
        raise ValueError(f"unknown level {level!r}")
    f = char_poly(a)
    if f.coeffs[0] == 0:
        return Verdict.fail("singular-matrix", {"det": 0})
    if not is_squarefree_over_q(f):
        # A repeated root makes the ratio lambda_i / lambda_j = 1 a root of unity.
        return Verdict.fail("degenerate", {"kind": "ratio", "n": 1})
    nd = nondegeneracy_check(f)
    if not nd.accepted:
        return nd
    p = m.p
    if level == "thm1":
        sf = squarefree_mod_p(f, p)
        if not sf.accepted:
            return sf
        a0 = recurrence_constant_term(f)
        if a0 % p == 0:
            return Verdict.fail("constant-term-divisible-by-p", {"a0": a0})
        if v is None:
            raise ValueError("thm1 validation needs the second vector v")
        if not is_proper_pair(a, u, v, p):
            terms = scalar_terms_mod_p(a, u, v, p, 4 * a.d)
            return Verdict.fail(
                "improper-pair",
                {"minimal_length": minimal_recurrence_length(terms, p), "d": a.d},
            )
        return Verdict.ok()
    if not irreducible_mod_p(f, p):
        return Verdict.fail("reducible-mod-p", {"p": p})
    if not is_p_primitive(u, p):
        return Verdict.fail("u-not-p-primitive", {"u": list(u)})
    return Verdict.ok()


def recurrence_constant_term(f: IntPolynomial) -> int:
    """a_0 in u_{n+d} = a_{d-1} u_{n+d-1} + ... + a_0 u_n, i.e. -f(0)."""
    return -f.coeffs[0]
