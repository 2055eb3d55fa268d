"""p-adic structure of the generator: multiplicative order growth tau_s and
its invariants (tau_*, beta_*, s_*), read from one valuation by the growth
law (`_growth`), Hensel-lifted roots in the unramified extension, pairwise
order/valuation data, the window constant w, and the integer expansion
coefficients h_{n,j} and H_{n,j}.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, Sequence

from .arith import (
    Frozen,
    IntMatrix,
    IntPolynomial,
    PrimePowerModulus,
    ResidueVector,
    companion_matrix,
    det_exact,
    exceeds_str_digits,
    mat_pow,
    mat_pow_mod,
    mat_vec,
    prime_factors,
    valuation,
    vec_dot,
)
from .errors import (
    DegenerateMatrixError,
    ExactDivisionError,
    NonSquarefreeError,
    NotInvertibleError,
    NotIrreducibleError,
    OrderTableTooDeepError,
    PrecisionCapExceededError,
    PreconditionViolatedError,
)
from .fieldalg import PolyModP, cyclotomic_polynomial, irreducible_mod_p, squarefree_mod_p

# working precision at which beta_pair gives up; read at each call
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


def _unit_order(p: int, d: int, is_one: Callable[[int], bool]) -> int:
    """Least tau >= 1 with is_one(tau), where is_one(e) tests u^e = 1 for a
    unit u of a rank-d algebra over F_p.

    The order divides L = _unit_exponent(p, d), whose primes are p and those
    of the cyclotomic values Phi_k(p), k <= d; the order is found by descent
    from L over them (Cohen, GTM 138, Alg. 1.4.3)."""
    order = _unit_exponent(p, d)
    primes = {p}
    for k in range(1, d + 1):
        primes.update(prime_factors(cyclotomic_polynomial(k)(p)))
    if not is_one(order):
        raise NotInvertibleError("element is not a unit mod p")
    for q in primes:
        # is_one(order // q^k) holds up to some k and fails above it: bisect
        lo, hi = 0, int(valuation(order, q))
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if is_one(order // q**mid):
                lo = mid
            else:
                hi = mid - 1
        order //= q**lo
    return order


def order_mod(a: IntMatrix, m: PrimePowerModulus) -> int:
    """Smallest tau >= 1 with A^tau = I (mod p^s).

    tau_1 is found by descent over a known multiple of the order; higher
    exponents follow from one valuation by the growth law (`_growth`)."""
    return next(itertools.islice(order_sequence(a, m.p), m.t - 1, None))


def _order_mod_p(a: IntMatrix, p: int) -> int:
    if det_exact(a) % p == 0:
        raise NotInvertibleError("det A is divisible by p; no order exists")
    m1 = PrimePowerModulus(p, 1)
    return _unit_order(p, a.d, lambda e: mat_pow_mod(a, e, m1).is_identity())


def _growth(p: int, tau: int, excess: Callable[[int], int]) -> tuple[int, int]:
    """(tau0, beta0) such that the order of a unit g modulo p^s is tau at
    s = 1 and tau0 * p^max(0, s - beta0) for 2 <= s <= prec.  tau is the
    order of g mod p, and excess(e) = v_p(g^e - 1), capped at the working
    precision prec.

    Growth law: if g^tau0 = 1 + p^b B with B != 0 (mod p) and b >= 1
    (b >= 2 for p = 2), then (g^tau0)^p = 1 + p^(b+1) B' with B' = B (mod p),
    since every other binomial term has valuation >= b + 2.  For p = 2 with
    v_2(g^tau - 1) = 1 the order mod 4 is 2 tau, and v_2(g^(2 tau) - 1) >= 2."""
    beta0 = excess(tau)
    if p == 2 and beta0 == 1:
        tau *= 2
        beta0 = excess(tau)
    return tau, beta0


def _excess(x: IntMatrix, p: int, prec: int) -> int:
    """v_p(X - I) for X reduced mod p^prec, capped at prec."""
    entries = (v - (i == j) for i, row in enumerate(x.entries) for j, v in enumerate(row))
    return min(prec, *(valuation(v, p) for v in entries))


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
            m = PrimePowerModulus(p, prec)
            tau0, beta0 = _growth(p, tau, lambda e: _excess(mat_pow_mod(a, e, m), p, prec))
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
        for s in range(s_star, len(taus) + 1):
            if taus[s - 1] != tau_star * p ** (s - beta_star):
                raise ValueError("growth law violated at s = %d" % s)
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
    (`exceeds_str_digits`), OrderTableTooDeepError is raised before any
    order is drawn.
    """
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    if exceeds_str_digits(_unit_exponent(p, a.d), p, s_max - 1):
        raise OrderTableTooDeepError(
            f"the orders of an order table to s_max = {s_max} mod powers of p = {p} may have "
            "more decimal digits than the int-to-str conversion limit"
        )
    taus = list(itertools.islice(order_sequence(a, p), s_max + _EXTENSION_CAP))
    if taus[-1] == taus[-2]:
        raise DegenerateMatrixError("order growth never starts; matrix looks degenerate (finite order)")
    s_star = max((s for s in range(1, len(taus)) if taus[s] == taus[s - 1]), default=0) + 1
    nu = valuation(taus[s_star - 1], p)
    tau_star = taus[s_star - 1] // p**int(nu)
    beta_star = s_star - int(nu)
    return PeriodProfile(p, tuple(taus[:s_max]), tau_star, beta_star, s_star)


# ---------------------------------------------------------------------------
# The unramified extension (Z/p^s)[X]/(f) and its roots
# ---------------------------------------------------------------------------


class UnramifiedRing(Frozen):
    """(Z/p^s)[X]/(f mod p^s) with f monic; for f irreducible mod p this is
    the degree-d unramified extension at finite precision, uniformizer p."""

    __slots__ = _fields = ("f", "p", "s")

    def __init__(self, f: IntPolynomial, p: int, s: int) -> None:
        if not f.is_monic or f.degree < 1:
            raise ValueError("f must be monic of degree >= 1")
        if s < 1:
            raise ValueError("precision s must be >= 1")
        self._set(f, p, s)

    @property
    def d(self) -> int:
        return self.f.degree

    @property
    def modulus(self) -> int:
        return self.p**self.s

    def at_precision(self, s: int) -> "UnramifiedRing":
        return UnramifiedRing(self.f, self.p, s)

    def element(self, coeffs: Sequence[int], exact: bool = False) -> "UnramifiedElement":
        """The class of the polynomial with these coefficients: reduced mod f,
        and mod p^s unless `exact` keeps the true integers."""
        poly = IntPolynomial(coeffs) if exact else PolyModP(self.modulus, coeffs)
        return self._from_poly(poly, exact)

    def _from_poly(self, poly: IntPolynomial, exact: bool = False) -> "UnramifiedElement":
        """The class of `poly`, whose coefficients are already stored as the
        element keeps them (reduced mod p^s unless `exact`)."""
        if poly.degree >= self.d:
            poly = poly % self.f
        return UnramifiedElement(self, poly.coeffs + (0,) * (self.d - len(poly.coeffs)), exact)

    def zero(self) -> "UnramifiedElement":
        return self.element([0], exact=True)

    def one(self) -> "UnramifiedElement":
        return self.element([1], exact=True)

    def embed(self, n: int) -> "UnramifiedElement":
        return self.element([n], exact=True)

    def x_class(self) -> "UnramifiedElement":
        if self.d == 1:
            return self.element([-self.f.coeffs[0]])
        return self.element([0, 1])


class UnramifiedElement(Frozen):
    """Element of an UnramifiedRing; coefficient vector of length d.  Two
    elements are equal when their rings are and their coefficients agree
    mod p^s.

    `exact` marks elements whose coefficients are true integers (not mere
    residues), so they can be re-embedded at any higher precision."""

    __slots__ = _fields = ("ring", "coeffs", "exact")

    def __init__(self, ring: UnramifiedRing, coeffs: tuple[int, ...], exact: bool = False) -> None:
        self._set(ring, coeffs, exact)

    def _view(self) -> tuple[int, ...]:
        mod = self.ring.modulus
        return tuple(c % mod for c in self.coeffs)

    def _poly(self) -> PolyModP:
        return PolyModP(self.ring.modulus, self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnramifiedElement):
            return NotImplemented
        return self.ring == other.ring and self._view() == other._view()

    def __hash__(self) -> int:
        return hash((self.ring, self._view()))

    def _operand(self, other: "UnramifiedElement | int") -> "UnramifiedElement":
        """`other` as an element of this ring; an int is embedded, so that
        IntPolynomial's Horner evaluation runs on ring elements."""
        if isinstance(other, int):
            return self.ring.embed(other)
        if self.ring != other.ring:
            raise ValueError("elements live in different rings")
        return other

    def __add__(self, other: "UnramifiedElement | int") -> "UnramifiedElement":
        return self.ring._from_poly(self._poly() + self._operand(other)._poly())

    def __sub__(self, other: "UnramifiedElement | int") -> "UnramifiedElement":
        return self.ring._from_poly(self._poly() - self._operand(other)._poly())

    def __mul__(self, other: "UnramifiedElement | int") -> "UnramifiedElement":
        return self.ring._from_poly(self._poly() * self._operand(other)._poly())

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "UnramifiedElement":
        if e < 0:
            return self.inverse() ** (-e)
        return self.ring._from_poly(self._poly().pow_mod(e, self.ring.f))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self._view())

    def residue_mod_p(self) -> PolyModP:
        return PolyModP(self.ring.p, self._view())

    def valuation(self):
        """Minimum p-valuation over the coefficient vector (the p-adic
        valuation since p is the uniformizer); math.inf when the element
        vanishes at this precision."""
        if self.exact:
            return min((valuation(c, self.ring.p) for c in self.coeffs), default=math.inf)
        return min((valuation(c, self.ring.p) for c in self._view()), default=math.inf)

    def inverse(self) -> "UnramifiedElement":
        """Inverse of a unit: x = a^(L - 1) mod p, with L = _unit_exponent
        a multiple of every unit's order, then Newton lifting x -> x(2 - a x)."""
        ring = self.ring
        ring1 = ring.at_precision(1)
        a1 = ring1.element(self._view())
        if a1.is_zero:
            raise NotInvertibleError("element is divisible by p")
        x = a1 ** (_unit_exponent(ring.p, ring.d) - 1)
        if x * a1 != ring1.one():
            raise NotInvertibleError("element shares a factor with f mod p")
        prec = 1
        while prec < ring.s:
            prec = min(2 * prec, ring.s)
            sub = ring.at_precision(prec)
            xv = sub.element(x.coeffs)
            av = sub.element(self._view())
            x = xv * (sub.embed(2) - av * xv)
        return ring.element(x.coeffs)

    def with_precision(self, s: int) -> "UnramifiedElement":
        """Same element viewed at another precision.  Raising the precision is
        only possible for exact elements or refinable roots of f."""
        ring2 = self.ring.at_precision(s)
        if s <= self.ring.s or self.exact:
            return ring2.element(self.coeffs, exact=self.exact)
        return _refine_root(self.ring.f, self, s)


def _refine_root(f: IntPolynomial, elem: UnramifiedElement, s_target: int) -> UnramifiedElement:
    """Newton-lift a root of f from the element's precision up to s_target."""
    ring = elem.ring
    fp = ring.p
    cur = elem
    if not f(cur).is_zero:
        raise PrecisionCapExceededError(
            "element is not a root of f at its own precision; cannot auto-raise"
        )
    prec = ring.s
    while prec < s_target:
        prec = min(2 * prec, s_target)
        sub = UnramifiedRing(f, fp, prec)
        g = sub.element(cur._view())
        fg = f(g)
        dfg = f.derivative()(g)
        g = g - fg * dfg.inverse()
        cur = g
    if not f(cur).is_zero:
        raise ExactDivisionError("Newton refinement failed to reach a root")
    return cur


class RootSet(Frozen):
    """The d roots of f at precision p^s, in Frobenius-orbit order; the first
    root is the class of X."""

    __slots__ = _fields = ("ring", "roots")

    def __init__(self, ring: UnramifiedRing, roots: tuple[UnramifiedElement, ...]) -> None:
        self._set(ring, roots)

    @property
    def d(self) -> int:
        return len(self.roots)


def lift_roots(f: IntPolynomial, p: int, s: int) -> RootSet:
    """All d roots of f in (Z/p^s)[X]/(f), Newton-refined from the Frobenius
    conjugates X, X^p, X^{p^2}, ... of the residue field."""
    if squarefree_mod_p(f, p).outcome != "accepted":
        raise NonSquarefreeError("f has multiple roots mod p")
    if not irreducible_mod_p(f, p):
        raise NotIrreducibleError("f is reducible mod p; root lifting is restricted")
    ring = UnramifiedRing(f, p, s)
    d = f.degree
    roots = [ring.x_class()]
    if d > 1:
        f_mod_p = PolyModP(p, f.coeffs)
        x = PolyModP(p, (0, 1))
        frob = x
        base_ring = UnramifiedRing(f, p, 1)
        for _ in range(1, d):
            frob = frob.pow_mod(p, f_mod_p)
            approx = base_ring.element(frob.coeffs)
            roots.append(_refine_root(f, approx, s) if s > 1 else approx)
    for r in roots:
        if not f(r).is_zero:
            raise ExactDivisionError("lifted root does not satisfy f at precision")
    seen = {r.residue_mod_p().coeffs for r in roots}
    if len(seen) != d:
        raise NonSquarefreeError("roots are not pairwise distinct mod p")
    return RootSet(ring, tuple(roots))


# ---------------------------------------------------------------------------
# Pairwise orders and valuations; the window constant w
# ---------------------------------------------------------------------------


def _residue_order(ratio: UnramifiedElement) -> int:
    """Multiplicative order of a unit modulo p, in the residue ring F_p[X]/(f)."""
    ring1 = ratio.ring.at_precision(1)
    r1 = ring1.element(ratio._view())
    return _unit_order(ring1.p, ring1.d, lambda e: (r1**e - ring1.one()).is_zero)


def tau_pair(gamma: UnramifiedElement, lam: UnramifiedElement, s: int) -> int:
    """Minimal t >= 1 with gamma^t = lambda^t (mod p^s): the order of the
    ratio mod p, then the growth law (`_growth`) at precision s."""
    if s < 1:
        raise PreconditionViolatedError("precision s must be >= 1")
    ring = gamma.ring
    if s > ring.s:
        raise PreconditionViolatedError("elements carry less precision than requested")
    if gamma.residue_mod_p().is_zero or lam.residue_mod_p().is_zero:
        raise NotInvertibleError("tau_pair needs units")
    ratio = gamma * lam.inverse()
    tau = _residue_order(ratio)
    if s == 1:
        return tau
    rings = ring.at_precision(s)
    x = rings.element(ratio._view())
    tau0, beta0 = _growth(ring.p, tau, lambda e: min(s, (x**e - rings.one()).valuation()))
    return tau0 * ring.p ** max(0, s - beta0)


def beta_pair(
    gamma: UnramifiedElement,
    lam: UnramifiedElement,
    p: int,
) -> int:
    """Valuation of gamma^{tau_*} - lambda^{tau_*} with tau_* the pair order at
    precision 1 (precision 2 for p = 2).  Working precision is raised by
    doubling until the valuation resolves strictly below it, up to
    DEFAULT_PRECISION_CAP."""
    if gamma.ring.p != p or lam.ring.p != p:
        raise ValueError("elements do not live over p")
    s_work = max(gamma.ring.s, lam.ring.s, 2 if p == 2 else 1)
    g = gamma.with_precision(s_work)
    h = lam.with_precision(s_work)
    tau_star = tau_pair(g, h, 2 if p == 2 else 1)
    cap = DEFAULT_PRECISION_CAP
    while True:
        diff = (g ** tau_star) - (h ** tau_star)
        val = diff.valuation()
        if val < s_work:
            return int(val)
        if s_work >= cap:
            raise PrecisionCapExceededError(f"beta valuation still unresolved at precision cap {cap}")
        s_work = min(2 * s_work, cap)
        g = gamma.with_precision(s_work)
        h = lam.with_precision(s_work)


def compute_w(
    f: IntPolynomial,
    p: int,
    profile: PeriodProfile | None = None,
) -> int:
    """Window constant  w = d(d+1)/2 * max{beta(gamma_i, gamma_j) - beta_*, 0} + 1.

    The pair set includes gamma_0 = 1, i.e. all 0 <= i < j <= d, matching the
    divisibility argument that consumes w."""
    d = f.degree
    if profile is None:
        profile = period_profile(companion_matrix(f), p, s_max=3)
    start = max(4, profile.beta_star + 2, 2 if p == 2 else 1)
    roots = lift_roots(f, p, start)
    elems = list(roots.roots)
    one = roots.ring.one()
    best = 0
    for i in range(d):
        for j in range(i + 1, d):
            best = max(best, beta_pair(elems[i], elems[j], p) - profile.beta_star)
        best = max(best, beta_pair(elems[i], one, p) - profile.beta_star)
    return d * (d + 1) // 2 * best + 1


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
