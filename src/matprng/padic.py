"""p-adic structure of the generator: multiplicative order growth tau_s and
its invariants (tau_*, beta_*, s_*), read from one valuation by the growth
law (`_growth`), Hensel-lifted roots of f in the matrix algebra Z/p^s[C]
(C the companion matrix), the window constant w from their pairwise
valuations, and the integer expansion coefficients h_{n,j} and H_{n,j}.
Every order and valuation is taken of an integer matrix.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

from .arith import (
    Frozen,
    IntMatrix,
    IntPolynomial,
    PrimePowerModulus,
    ResidueVector,
    companion_matrix,
    det_exact,
    mat_add,
    mat_mul_mod,
    mat_poly,
    mat_pow,
    mat_pow_mod,
    mat_vec,
    prime_factors,
    str_digits,
    valuation,
    vec_dot,
)
from .errors import (
    DegenerateMatrixError,
    ExactDivisionError,
    NonSquarefreeError,
    NotInvertibleError,
    NotIrreducibleError,
    PreconditionViolatedError,
    ResourceGuardError,
)
from .fieldalg import irreducible_mod_p, squarefree_mod_p

# working precision at which compute_w gives up on resolving a valuation;
# read at each call
DEFAULT_PRECISION_CAP = 64
# period_profile draws this many orders past s_max; a matrix whose order has
# not started to grow by then is reported as degenerate
_EXTENSION_CAP = 48


# ---------------------------------------------------------------------------
# Orders of A modulo p^s
# ---------------------------------------------------------------------------


def _unit_exponent(p: int, d: int) -> int:
    """L = lcm(p^k - 1 : k <= d) * p^e with p^e >= d: the order of every unit
    of a rank-d algebra over F_p divides L.

    The semisimple part of a unit lies in some F_{p^k}^*, k <= d, and its
    unipotent part has order dividing p^e once p^e >= d."""
    exponent = 1
    while exponent < d:
        exponent *= p
    for k in range(1, d + 1):
        exponent = math.lcm(exponent, p**k - 1)
    return exponent


def order_mod(a: IntMatrix, m: PrimePowerModulus) -> int:
    """Smallest tau >= 1 with A^tau = I (mod p^s).

    tau_1 is found by descent over a known multiple of the order; higher
    exponents follow from one valuation by the growth law (`_growth`)."""
    return next(itertools.islice(order_sequence(a, m.p), m.t - 1, None))


def _cyclotomic_value(k: int, p: int) -> int:
    """Phi_k(p) = prod over e | k of (p^e - 1)^mu(k / e), mu the Moebius
    function."""
    num = den = 1
    for e in range(1, k + 1):
        if k % e == 0:
            primes = prime_factors(k // e)
            if math.prod(primes) == k // e:  # k / e squarefree
                if len(primes) % 2:
                    den *= p**e - 1
                else:
                    num *= p**e - 1
    return num // den


def _order_mod_p(a: IntMatrix, p: int) -> int:
    """Smallest tau >= 1 with A^tau = I (mod p).

    The order divides L = _unit_exponent(p, d), whose primes are p and those
    of the cyclotomic values Phi_k(p), k <= d; it is found by descent from L
    over them (Cohen, GTM 138, Alg. 1.4.3)."""
    if det_exact(a) % p == 0:
        raise NotInvertibleError("det A is divisible by p; no order exists")
    m1 = PrimePowerModulus(p, 1)
    order = _unit_exponent(p, a.d)
    primes = {p}
    for k in range(1, a.d + 1):
        primes.update(prime_factors(_cyclotomic_value(k, p)))
    for q in primes:
        # A^(order // q^k) = I holds up to some k and fails above it: bisect
        lo, hi = 0, int(valuation(order, q))
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if mat_pow_mod(a, order // q**mid, m1).is_identity():
                lo = mid
            else:
                hi = mid - 1
        order //= q**lo
    return order


def _growth(g: IntMatrix, tau: int, m: PrimePowerModulus) -> tuple[int, int]:
    """(tau0, beta0) such that the order of G modulo p^s is tau at s = 1 and
    tau0 * p^max(0, s - beta0) for 2 <= s <= t, m = p^t.  tau is the order
    of G mod p, and beta0 = v_p(G^tau0 - I), capped at t.

    Growth law: if G^tau0 = I + p^b B with B != 0 (mod p) and b >= 1
    (b >= 2 for p = 2), then (G^tau0)^p = I + p^(b+1) B' with B' = B (mod p),
    since every other binomial term has valuation >= b + 2.  For p = 2 with
    v_2(G^tau - I) = 1 the order mod 4 is 2 tau, and v_2(G^(2 tau) - I) >= 2."""
    power = mat_pow_mod(g, tau, m)
    beta0 = _excess(power, m)
    if m.p == 2 and beta0 == 1:
        tau *= 2
        beta0 = _excess(mat_mul_mod(power, power, m), m)
    return tau, beta0


def _excess(x: IntMatrix, m: PrimePowerModulus) -> int:
    """v_p(X - I) for X reduced mod p^t, capped at t."""
    entries = (v - (i == j) for i, row in enumerate(x.entries) for j, v in enumerate(row))
    return min(m.t, *(valuation(v, m.p) for v in entries))


def order_sequence(a: IntMatrix, p: int) -> Iterator[int]:
    """tau_1, tau_2, ... with tau_s the order of A mod p^s: tau_1 by descent,
    the rest by the growth law, computed only when drawn.

    v_p(A^tau_1 - I) is found mod p^(2s) at s = 2.  While it is not below
    that precision (finite order, or growth that starts later), it is found
    again at twice the precision each time s passes it; once it is, every
    later order is the previous one or p times it, with no matrix product."""
    tau = _order_mod_p(a, p)
    yield tau
    prec = 1
    for s in itertools.count(2):
        if s > prec:
            prec = 2 * s
            tau0, beta0 = _growth(a, tau, PrimePowerModulus(p, prec))
            order = tau0 * p ** max(0, s - beta0)
            if beta0 < prec:
                prec = math.inf
        elif s > beta0:
            order *= p
        yield order


class PeriodProfile(Frozen):
    """Order table (tau_1 .. tau_{s_max}) together with the stable growth data
    tau_s = tau_star * p^{s - beta_star} for s >= s_star, gcd(tau_star, p) = 1."""

    __slots__ = _fields = ("p", "taus", "tau_star", "beta_star", "s_star")

    def __init__(self, p: int, taus: tuple[int, ...], tau_star: int, beta_star: int, s_star: int) -> None:
        if math.gcd(tau_star, p) != 1:
            raise ValueError("tau_star must be coprime to p")
        for s in range(1, len(taus)):
            ratio, rem = divmod(taus[s], taus[s - 1])
            if rem or ratio not in (1, p):
                raise ValueError("tau_{s+1}/tau_s must be 1 or p")
        expected = tau_star * p ** (s_star - beta_star)
        for s in range(s_star, len(taus) + 1):
            if taus[s - 1] != expected:
                raise ValueError("growth law violated at s = %d" % s)
            expected *= p
        self._set(p, taus, tau_star, beta_star, s_star)

    @property
    def s_max(self) -> int:
        return len(self.taus)

    def tau(self, s: int) -> int:
        if 1 <= s <= len(self.taus):
            return self.taus[s - 1]
        if s > len(self.taus) and s >= self.s_star:
            return self.tau_star * self.p ** (s - self.beta_star)
        raise ValueError(f"tau_{s} not in profile")


def period_profile(a: IntMatrix, p: int, s_max: int) -> PeriodProfile:
    """Order table up to s_max plus the extracted growth invariants.

    s_max + _EXTENSION_CAP orders are drawn; when the last step is flat the
    order has not started to grow, and the matrix is reported as degenerate
    (finite order).  s_star follows the last flat step.

    tau_{s_max} divides L * p^(s_max - 1), L = _unit_exponent(p, d).  When
    that bound has more decimal digits than the interpreter converts
    (`str_digits`), the guard `order_digits` is raised before any order is
    drawn.
    """
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    digits, limit = str_digits(_unit_exponent(p, a.d), p, s_max - 1)
    if digits > limit:
        raise ResourceGuardError("order_digits", digits, limit)
    taus = list(itertools.islice(order_sequence(a, p), s_max + _EXTENSION_CAP))
    if taus[-1] == taus[-2]:
        raise DegenerateMatrixError("order growth never starts; matrix looks degenerate (finite order)")
    s_star = max((s for s in range(1, len(taus)) if taus[s] == taus[s - 1]), default=0) + 1
    nu = valuation(taus[s_star - 1], p)
    tau_star = taus[s_star - 1] // p**int(nu)
    beta_star = s_star - int(nu)
    return PeriodProfile(p, tuple(taus[:s_max]), tau_star, beta_star, s_star)


# ---------------------------------------------------------------------------
# Roots of f in the matrix algebra Z/p^s[C]; the window constant w
# ---------------------------------------------------------------------------


def _inverse(y: IntMatrix, m: PrimePowerModulus, start: IntMatrix | None = None) -> IntMatrix:
    """Y^-1 mod p^s: from Z = `start`, or Y^(L - 1) mod p, L = _unit_exponent,
    Newton steps Z <- Z + Z (I - Y Z), each doubling the precision of
    Y Z = I.  A start that is no inverse of Y mod p raises
    NotInvertibleError, as a Y that has none does."""
    z = start
    if z is None:
        z = mat_pow_mod(y, _unit_exponent(m.p, y.d) - 1, PrimePowerModulus(m.p, 1))
    one, zero = IntMatrix.identity(y.d), IntMatrix.zeros(y.d)
    while True:
        e = mat_add(one, mat_mul_mod(y, z, m), -1, m)
        if e == zero:
            return z
        if any(x % m.p for row in e.entries for x in row):
            raise NotInvertibleError("matrix is not invertible mod p")
        z = mat_add(z, mat_mul_mod(z, e, m), 1, m)


def lift_roots(f: IntPolynomial, p: int, s: int) -> tuple[IntMatrix, ...]:
    """The d roots of f in Z/p^s[C], C = companion_matrix(f): C itself, then
    its conjugates S_k = sigma^k(C), k = 1 .. d - 1, each Newton-lifted from
    C^(p^k) mod p^s.  f(C^(p^k)) = f(C)^(p^k) = 0 (mod p), so every Newton
    step keeps Z mod p, f'(Z) mod p is that of the start, and each inverse
    starts from the previous one.

    Z/p^s[C] is (Z/p^s)[X]/(f), the unramified extension at precision s
    when f is irreducible mod p, and sigma^k(C) = C^(p^k) (mod p).  Newton
    steps stay in Z/p^s[C] only from a start formed there: reduced mod p,
    C^(p^k) would converge to a root of f outside it."""
    _require_irreducible(f, p)
    return _lift_roots(f, p, s)


def _require_irreducible(f: IntPolynomial, p: int) -> None:
    if squarefree_mod_p(f, p).outcome != "accepted":
        raise NonSquarefreeError("f has multiple roots mod p")
    if not irreducible_mod_p(f, p):
        raise NotIrreducibleError("f is reducible mod p; root lifting is restricted")


def _lift_roots(f: IntPolynomial, p: int, s: int) -> tuple[IntMatrix, ...]:
    """`lift_roots` on an f whose caller has checked it irreducible mod p."""
    m = PrimePowerModulus(p, s)
    c = companion_matrix(f).reduce(m.modulus)
    df = f.derivative()
    zero = IntMatrix.zeros(f.degree)
    roots = [c]
    for k in range(1, f.degree):
        z, inv = mat_pow_mod(c, p**k, m), None
        while (fz := mat_poly(f, z, m)) != zero:
            inv = _inverse(mat_poly(df, z, m), m, inv)
            z = mat_add(z, mat_mul_mod(fz, inv, m), -1, m)
        roots.append(z)
    return tuple(roots)


def compute_w(
    f: IntPolynomial,
    p: int,
    profile: PeriodProfile | None = None,
) -> int:
    """Window constant  w = d(d+1)/2 * max{beta(gamma_i, gamma_j) - beta_*, 0} + 1.

    The pair set includes gamma_0 = 1, i.e. all 0 <= i < j <= d, matching the
    divisibility argument that consumes w.  beta(x, y) = v_p(x^tau - y^tau)
    with tau the order of x / y mod p (mod 4 for p = 2): the second value of
    `_growth` on the ratio, whose valuation in Z/p^s[C] is the least over
    its entries.

    The roots are the conjugates sigma^k(gamma), and Frobenius keeps orders
    and valuations, so beta(gamma_i, gamma_j) = beta(gamma, sigma^k gamma)
    with k = j - i or d - (j - i): the pairs (C, I) and (C, S_k), k <= d/2,
    cover every value.  gamma / sigma^k gamma = gamma^(1 - p^k) (mod p) has
    order tau_1 / gcd(tau_1, p^k - 1).  The precision starts at
    max(4, beta_* + 2) and doubles until every beta lies below it, up to
    DEFAULT_PRECISION_CAP; the roots are lifted afresh at each precision,
    and f is checked squarefree and irreducible mod p once, before the
    first (NonSquarefreeError, NotIrreducibleError)."""
    d = f.degree
    if profile is None:
        profile = period_profile(companion_matrix(f), p, s_max=3)
    _require_irreducible(f, p)
    tau = profile.taus[0]
    s = max(4, profile.beta_star + 2)
    while True:
        m = PrimePowerModulus(p, s)
        c, *conjugates = _lift_roots(f, p, s)
        beta = _growth(c, tau, m)[1]
        for k, root in enumerate(conjugates[: d // 2], start=1):
            ratio = mat_mul_mod(c, _inverse(root, m), m)
            beta = max(beta, _growth(ratio, tau // math.gcd(tau, p**k - 1), m)[1])
        if beta < s:
            return d * (d + 1) // 2 * max(beta - profile.beta_star, 0) + 1
        cap = DEFAULT_PRECISION_CAP
        if s >= cap:
            raise ResourceGuardError("w_precision", s, cap)
        s = min(2 * s, cap)


# ---------------------------------------------------------------------------
# Expansion coefficients
# ---------------------------------------------------------------------------


def theta_matrix(a: IntMatrix, p: int, s: int, tau_s: int, t: int | None = None) -> IntMatrix:
    """Integer matrix B with A^{tau_s} = I + p^s B, exactly over Z; given
    t >= s, B mod p^(t-s), from A^{tau_s} mod p^t, with entries in
    [0, p^(t-s))."""
    power = mat_pow(a, tau_s) if t is None else mat_pow_mod(a, tau_s, PrimePowerModulus(p, t))
    ps = p**s
    rows = []
    for i, row in enumerate(power.entries):
        new_row = []
        for j, x in enumerate(row):
            x = x - (1 if i == j else 0)
            q, r = divmod(x, ps)
            if r:
                raise ExactDivisionError(
                    f"A^{tau_s} - I is not divisible by p^{s}; wrong tau_s?"
                )
            new_row.append(q)
        rows.append(tuple(new_row))
    return IntMatrix(tuple(rows))


def h_coeffs(
    a: IntMatrix,
    u: ResidueVector,
    v: ResidueVector,
    b: IntMatrix,
    n: int,
    j_max: int,
) -> list[int]:
    """Exact integer coefficients h_{n,j} = det A * (v A^n B^j u), j = 0..j_max.

    With B = (A^{tau_s} - I)/p^s these satisfy, exactly over Z,
        det A * u_{n + tau_s m} = sum_j h_{n,j} p^{sj} C(m, j).
    """
    det = det_exact(a)
    x = mat_vec(mat_pow(a, n), u)
    out = []
    y = x
    for j in range(j_max + 1):
        out.append(det * vec_dot(v, y))
        if j < j_max:
            y = mat_vec(b, y)
    return out


def binomial_to_monomial(i: int) -> list[int]:
    """Signed integer coefficients c_{i,0..i} with
    C(m, i) = (c_{i,i} m^i + ... + c_{i,0}) / i!  and  c_{i,i} = 1
    (signed Stirling numbers of the first kind)."""
    if i < 0:
        raise ValueError("i must be >= 0")
    row = IntPolynomial((1,))
    for k in range(i):
        row = row * IntPolynomial((-k, 1))  # m(m-1)...(m-k)
    return list(row.coeffs)


def H_coeffs(h: Sequence[int], r: int, s: int, p: int) -> list[int]:
    """Monomial-basis coefficients H_{n,j} = sum_{i=j}^{r} h_{n,i} (r!/i!) c_{i,j} p^{s(i-j)}.

    They satisfy  r! det A u_{n + tau_s m} = sum_j H_{n,j} p^{sj} m^j  (mod p^t)
    whenever s(r+1) >= t.  Requires r <= p^s (the window-bound hypothesis)."""
    if r > p**s:
        raise PreconditionViolatedError(f"r = {r} exceeds p^s = {p**s}")
    if len(h) < r + 1:
        raise PreconditionViolatedError("need h_{n,0..r}")
    c_rows = [binomial_to_monomial(i) for i in range(r + 1)]
    r_fact = math.factorial(r)
    out = []
    for j in range(r + 1):
        total = 0
        for i in range(j, r + 1):
            total += h[i] * (r_fact // math.factorial(i)) * c_rows[i][j] * p ** (s * (i - j))
        out.append(total)
    return out
