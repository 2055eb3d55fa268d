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
    det_exact,
    is_squarefree_over_q,
    mat_stream,
    prime_factors,
    sylvester_rows,
)
from .errors import ExactDivisionError


@dataclass(frozen=True, init=False)
class PolyModP(IntPolynomial):
    """Polynomial over Z/p, coefficients ascending and reduced into [0, p).

    The arithmetic is IntPolynomial's, on reduced coefficients.  Division
    goes through the divisor's monic associate, so it needs a lead that is a
    unit mod p: any nonzero divisor over the field F_p, and a monic one over
    Z/p^s, where UnramifiedRing uses this type with p^s in place of p."""

    p: int

    def __init__(self, p: int, coeffs: Sequence[int]) -> None:
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", coeffs)
        self.__post_init__()

    def _reduced(self, coeffs: Sequence[int]) -> tuple[int, ...]:
        return tuple(int(x) % self.p for x in coeffs)

    def _like(self, coeffs: Sequence[int]) -> "PolyModP":
        return PolyModP(self.p, coeffs)

    @classmethod
    def from_int_poly(cls, f: IntPolynomial, p: int) -> "PolyModP":
        return cls(p, f.coeffs)

    def _long_division(
        self, coeffs: Sequence[int], divisor: IntPolynomial
    ) -> tuple[list[int], list[int]]:
        """Division mod p: IntPolynomial's exact steps by the monic associate
        c^-1 * divisor, then the quotient times c^-1."""
        if divisor.is_monic:
            return super()._long_division(coeffs, divisor)
        divisor = self._like(divisor.coeffs)
        if divisor.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        inv = pow(divisor.coeffs[-1], -1, self.p)
        quo, rem = super()._long_division(coeffs, divisor * inv)
        return [q * inv for q in quo], rem

    divmod = IntPolynomial.divmod_exact

    def monic(self) -> "PolyModP":
        if self.is_zero or self.coeffs[-1] == 1:
            return self
        return self * pow(self.coeffs[-1], -1, self.p)

    def gcd(self, other: "PolyModP") -> "PolyModP":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()


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
        if isinstance(w, IntPolynomial):
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
    return full == x % fp


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


def ratio_resultant(f: IntPolynomial) -> IntPolynomial:
    """Res_Y(f(Y), f(X*Y)) as a polynomial in X; its roots are the ratios
    lambda_i / lambda_j of the roots of f (including the trivial i = j)."""
    a = [IntPolynomial((c,)) for c in f.coeffs]
    b = [IntPolynomial.x_power(k, c) for k, c in enumerate(f.coeffs)]
    return det_exact(sylvester_rows(a, b))


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
