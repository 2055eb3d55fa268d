"""The generator hypothesis validators: squarefreeness and irreducibility
mod p, nondegeneracy over Q (no root or root ratio is a root of unity),
proper pairs, and p-primitive vectors.

Each question about f = det(XI - A) is asked of its companion matrix C,
the ring Z[X]/(f) as integer matrices: a resultant Res(f, g) is det g(C),
and the Frobenius test reads powers of C mod p.  A pair (u, v) is proper
when the Hankel determinant of the terms v A^n u is a unit mod p.  Only the
squarefree witness, a gcd, is found by Euclid's algorithm on coefficients
mod p.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .arith import (
    Frozen,
    IntMatrix,
    IntPolynomial,
    PrimePowerModulus,
    ResidueVector,
    char_poly,
    companion_matrix,
    det_exact,
    is_squarefree_over_q,
    mat_add,
    mat_pow,
    mat_pow_mod,
    mat_vec,
    mat_vec_mod,
    prime_factors,
    vec_dot,
    vec_reduce,
)
from .errors import DimensionMismatchError


class Verdict(Frozen):
    """Outcome of a hypothesis check ("accepted" or "rejected"); rejected
    verdicts always carry a witness."""

    __slots__ = _fields = ("outcome", "reason", "witness")

    def __init__(self, outcome: str, reason: str, witness: object = None) -> None:
        if outcome not in ("accepted", "rejected"):
            raise ValueError(f"bad outcome {outcome!r}")
        if outcome == "rejected" and witness is None:
            raise ValueError("rejected verdicts must carry a witness")
        self._set(outcome, reason, witness)

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


def _mod_p(coeffs: Sequence[int], p: int) -> list[int]:
    """Coefficients reduced into [0, p), without leading zeros."""
    c = [x % p for x in coeffs]
    while c and not c[-1]:
        c.pop()
    return c


def _gcd_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd in F_p[X] of reduced coefficient lists, a nonzero, by
    Euclid's algorithm."""
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q, shift = a[-1] * inv, len(a) - len(b)
            a = _mod_p([x - q * b[i - shift] if i >= shift else x for i, x in enumerate(a)], p)
        a, b = b, a
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def squarefree_mod_p(f: IntPolynomial, p: int) -> Verdict:
    """Accepted iff gcd(f, f') = 1 in F_p[X]; otherwise the witness is the
    common (repeated) factor, monic."""
    fp = _mod_p(f.coeffs, p)
    if not fp:
        raise ValueError("polynomial vanishes mod p")
    if len(fp) < 2:
        raise ValueError("degree must be >= 1 mod p")
    g = _gcd_mod_p(fp, _mod_p([i * c for i, c in enumerate(fp)][1:], p), p)
    if len(g) <= 1:
        return Verdict.ok()
    return Verdict.fail("multiple-roots-mod-p", IntPolynomial(g))


def irreducible_mod_p(f: IntPolynomial, p: int) -> bool:
    """Irreducibility of f mod p, asked of C, the companion matrix of its
    monic associate mod p: no irreducible factor of degree k <= deg/2, that
    is gcd(X^(p^k) - X, f) = 1, or det(C^(p^k) - C) != 0 mod p; then the
    Frobenius fixed-point identity C^(p^deg) = C (Cohen, GTM 138)."""
    fp = _mod_p(f.coeffs, p)
    if not fp:
        raise ValueError("polynomial vanishes mod p")
    n = len(fp) - 1
    if n <= 0:
        return False
    inv = pow(fp[-1], -1, p)
    m = PrimePowerModulus(p, 1)
    c = companion_matrix(IntPolynomial(_mod_p([x * inv for x in fp], p))).reduce(p)
    power = c
    for k in range(1, n + 1):
        power = mat_pow_mod(power, p, m)  # C^(p^k)
        if 2 * k <= n and det_exact(mat_add(power, c, -1)) % p == 0:
            return False
    return power == c


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    for q in prime_factors(n):
        result -= result // q
    return result


def nondegeneracy_check(f: IntPolynomial) -> Verdict:
    """Accepted iff no root of f and no ratio of two distinct roots is a root
    of unity; the witness is the least order n found, roots first.

    Both are asked of C = companion_matrix(f).  A root is an n-th root of
    unity iff det(C^n - I) = Res(f, X^n - 1) = 0.  C is diagonalizable (f is
    squarefree) with the cyclic vector e_d, so the Krylov matrix
    [C^(kn) e_d : k < d] is the eigenvectors times a Vandermonde matrix in
    the lambda_i^n: it is singular iff lambda_i^n = lambda_j^n for some
    i != j.  The least such n is the order of a root of unity of degree
    phi(n) <= d (a root) or <= d^2 (a ratio), and phi(n) >= sqrt(n/2) bounds
    n by 2d^2 and 2d^4.  Only the n that pass that filter are tried: C^n for
    a root, and for a ratio every n-th vector of the one orbit C^j e_d.
    """
    if f.degree < 1:
        raise ValueError("degree must be >= 1")
    if not f.is_monic:
        raise ValueError("polynomial must be monic")
    if f.coeffs[0] == 0:
        raise ValueError("f(0) = 0: zero is a root")
    if not is_squarefree_over_q(f):
        raise ValueError("polynomial is not squarefree over Q")
    return _root_of_unity_sweep(f)


def _root_of_unity_sweep(f: IntPolynomial) -> Verdict:
    """`nondegeneracy_check` on a monic squarefree f of degree >= 1 with
    f(0) != 0, whose caller has checked these."""
    d = f.degree
    c = companion_matrix(f)
    one = IntMatrix.identity(d)
    for n in range(1, 2 * d * d + 1):
        if euler_phi(n) <= d and det_exact(mat_add(mat_pow(c, n), one, -1)) == 0:
            return Verdict.fail("degenerate", {"kind": "root", "n": n})
    orbit = [one.entries[-1]]  # C^j e_d, j = 0, 1, ...
    for n in range(1, 2 * d**4 + 1):
        if euler_phi(n) <= d * d:
            while len(orbit) <= (d - 1) * n:
                orbit.append(mat_vec(c, orbit[-1]))
            if det_exact(orbit[: (d - 1) * n + 1 : n]) == 0:
                return Verdict.fail("degenerate", {"kind": "ratio", "n": n})
    return Verdict.ok()


def scalar_terms_mod_p(a: IntMatrix, u: ResidueVector, v: ResidueVector, p: int, count: int) -> list[int]:
    """First `count` terms of v A^n u reduced mod p, by one matrix-vector
    product mod p per term on Python ints (the validator needs 2d - 1)."""
    for vec in (u, v):
        if len(vec) != a.d:
            raise DimensionMismatchError(f"matrix dim {a.d} vs vector length {len(vec)}")
    m = PrimePowerModulus(p, 1)
    a, u, v = a.reduce(p), vec_reduce(u, m), vec_reduce(v, m)
    terms = []
    for _ in range(count):
        terms.append(vec_dot(v, u) % p)
        u = mat_vec_mod(a, u, m)
    return terms


def _hankel_length(s: Sequence[int], d: int, p: int) -> int:
    """The largest k <= d whose leading Hankel minor det[s_(i+j)]_(i,j<k) is
    nonzero mod p, or 0 if there is none, from the terms s_0 .. s_(2d-2).

    For s_n = v A^n u the d x d Hankel matrix is V U, with rows v A^i in V
    and columns A^j u in U, so its determinant is a unit iff both Krylov
    matrices are invertible, iff s has linear complexity d (Kronecker).
    When A is invertible mod p, s is purely periodic with linear complexity
    L: its first L shifted windows are independent and every later one is a
    combination of them, so the value is L.  An accepted pair costs one
    d x d determinant."""
    return next((k for k in range(d, 0, -1) if det_exact([s[i : i + k] for i in range(k)]) % p), 0)


def is_proper_pair(a: IntMatrix, u: ResidueVector, v: ResidueVector, p: int) -> bool:
    """True iff the scalar sequence v A^n u mod p has linear complexity
    exactly d = dim A (it can never need more, by Cayley-Hamilton)."""
    return _hankel_length(scalar_terms_mod_p(a, u, v, p, 2 * a.d - 1), a.d, p) == a.d


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
    nd = _root_of_unity_sweep(f)
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
        length = _hankel_length(scalar_terms_mod_p(a, u, v, p, 2 * a.d - 1), a.d, p)
        if length != a.d:
            return Verdict.fail("improper-pair", {"minimal_length": length, "d": a.d})
        return Verdict.ok()
    if not irreducible_mod_p(f, p):
        return Verdict.fail("reducible-mod-p", {"p": p})
    if not is_p_primitive(u, p):
        return Verdict.fail("u-not-p-primitive", {"u": list(u)})
    return Verdict.ok()


def recurrence_constant_term(f: IntPolynomial) -> int:
    """a_0 in u_{n+d} = a_{d-1} u_{n+d-1} + ... + a_0 u_n, i.e. -f(0)."""
    return -f.coeffs[0]
