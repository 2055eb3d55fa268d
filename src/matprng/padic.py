"""p-adic structure of the generator: multiplicative order growth tau_s and
its invariants (tau_*, beta_*, s_*), Hensel-lifted roots in the unramified
extension, pairwise order/valuation data, the window constant w, and the
integer expansion coefficients h_{n,j} and H_{n,j}.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .arith import (
    IntMatrix,
    IntPolynomial,
    PrimePowerModulus,
    ResidueVector,
    char_poly,
    companion_matrix,
    det_exact,
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
    PrecisionCapExceededError,
    PreconditionViolatedError,
)
from .fieldalg import PolyModP, cyclotomic_polynomial, irreducible_mod_p, squarefree_mod_p

DEFAULT_PRECISION_CAP = 64
# s_star is detected once this many consecutive order steps multiply by p; the
# order table is extended by at most _EXTENSION_CAP levels past s_max for that.
_STABILIZATION_WINDOW = 3
_EXTENSION_CAP = 48


# ---------------------------------------------------------------------------
# Orders of A modulo p^s
# ---------------------------------------------------------------------------


def _unit_order(p: int, d: int, is_one: Callable[[int], bool]) -> int:
    """Least tau >= 1 with is_one(tau), where is_one(e) tests u^e = 1 for a
    unit u of a rank-d algebra over F_p.

    The semisimple part of u lies in some F_{p^k}^*, k <= d, and its unipotent
    part has order dividing p^e once p^e >= d, so the order divides
    L = lcm(p^k - 1 : k <= d) * p^e.  The primes of L are p and those of the
    cyclotomic values Phi_k(p), k <= d; the order is found by descent from L
    over them (Cohen, GTM 138, Alg. 1.4.3)."""
    order = 1
    while order < d:
        order *= p
    primes = {p}
    for k in range(1, d + 1):
        order = math.lcm(order, p**k - 1)
        primes.update(prime_factors(cyclotomic_polynomial(k)(p)))
    if not is_one(order):
        raise NotInvertibleError("element is not a unit mod p")
    for q in primes:
        while order % q == 0 and is_one(order // q):
            order //= q
    return order


def order_mod(a: IntMatrix, m: PrimePowerModulus) -> int:
    """Smallest tau >= 1 with A^tau = I (mod p^s).

    tau_1 is found by descent over a known multiple of the order; higher
    exponents use the lift dichotomy tau_{s} in {tau_{s-1}, p * tau_{s-1}}."""
    return next(itertools.islice(_orders(a, m.p), m.t - 1, None))


def _order_mod_p(a: IntMatrix, p: int) -> int:
    if det_exact(a) % p == 0:
        raise NotInvertibleError("det A is divisible by p; no order exists")
    m1 = PrimePowerModulus(p, 1)
    return _unit_order(p, a.d, lambda e: mat_pow_mod(a, e, m1).is_identity())


def _lift_order(tau: int, p: int, is_one: Callable[[int], bool]) -> int:
    """The order at the next precision from the order tau at the current
    one: it is tau or p * tau, whichever exponent `is_one` accepts first."""
    for candidate in (tau, p * tau):
        if is_one(candidate):
            return candidate
    raise ExactDivisionError("order lift dichotomy violated (arithmetic bug)")


def _orders(a: IntMatrix, p: int) -> Iterator[int]:
    """tau_1, tau_2, ...: tau_1 by descent, each later order by the lift."""
    tau = _order_mod_p(a, p)
    for s in itertools.count(2):
        yield tau
        ms = PrimePowerModulus(p, s)
        tau = _lift_order(tau, p, lambda e: mat_pow_mod(a, e, ms).is_identity())


@dataclass(frozen=True)
class PeriodProfile:
    """Order table (tau_1 .. tau_{s_max}) together with the stable growth data
    tau_s = tau_star * p^{s - beta_star} for s >= s_star, gcd(tau_star, p) = 1."""

    p: int
    taus: tuple[int, ...]
    tau_star: int
    beta_star: int
    s_star: int

    def __post_init__(self) -> None:
        p = self.p
        if math.gcd(self.tau_star, p) != 1:
            raise ValueError("tau_star must be coprime to p")
        for s in range(1, len(self.taus)):
            ratio, rem = divmod(self.taus[s], self.taus[s - 1])
            if rem or ratio not in (1, p):
                raise ValueError("tau_{s+1}/tau_s must be 1 or p")
        for s in range(self.s_star, len(self.taus) + 1):
            if self.taus[s - 1] != self.tau_star * p ** (s - self.beta_star):
                raise ValueError("growth law violated at s = %d" % s)

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

    s_star is detected empirically: the table is extended (beyond s_max if
    needed) until _STABILIZATION_WINDOW consecutive steps multiply by p.
    A matrix of finite order never stabilizes and is reported as degenerate.
    """
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    orders = _orders(a, p)
    taus = list(itertools.islice(orders, s_max))

    def stabilized() -> bool:
        tail = taus[-_STABILIZATION_WINDOW - 1 :]
        return len(tail) > _STABILIZATION_WINDOW and all(y == p * x for x, y in zip(tail, tail[1:]))

    while not stabilized():
        if len(taus) >= s_max + _EXTENSION_CAP:
            raise DegenerateMatrixError(
                "order growth never stabilizes; matrix looks degenerate (finite order)"
            )
        taus.append(next(orders))

    last_flat = 0
    for s in range(1, len(taus)):
        if taus[s] == taus[s - 1]:
            last_flat = s
    s_star = last_flat + 1
    nu = valuation(taus[s_star - 1], p)
    tau_star = taus[s_star - 1] // p**int(nu)
    beta_star = s_star - int(nu)
    return PeriodProfile(p, tuple(taus[:s_max]), tau_star, beta_star, s_star)


# ---------------------------------------------------------------------------
# The unramified extension (Z/p^s)[X]/(f) and its roots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnramifiedRing:
    """(Z/p^s)[X]/(f mod p^s) with f monic; for f irreducible mod p this is
    the degree-d unramified extension at finite precision, uniformizer p."""

    f: IntPolynomial
    p: int
    s: int

    def __post_init__(self) -> None:
        if not self.f.is_monic or self.f.degree < 1:
            raise ValueError("f must be monic of degree >= 1")
        if self.s < 1:
            raise ValueError("precision s must be >= 1")

    @property
    def d(self) -> int:
        return self.f.degree

    @property
    def modulus(self) -> int:
        return self.p**self.s

    def at_precision(self, s: int) -> "UnramifiedRing":
        return UnramifiedRing(self.f, self.p, s)

    def element(self, coeffs: Sequence[int], exact: bool = False) -> "UnramifiedElement":
        c = [int(x) for x in coeffs]
        if len(c) > self.d:
            c = self._reduce_poly(c)
        c = c + [0] * (self.d - len(c))
        if not exact:
            c = [x % self.modulus for x in c]
        return UnramifiedElement(self, tuple(c), exact)

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

    def _reduce_poly(self, c: list[int]) -> list[int]:
        # f is monic: subtract c_k * X^{k-d} * f for k from the top down.
        fc = self.f.coeffs
        d = self.d
        c = c[:]
        for k in range(len(c) - 1, d - 1, -1):
            top = c[k]
            if top:
                for i in range(d + 1):
                    c[k - d + i] -= top * fc[i]
        return c[:d]

    def _mul_coeffs(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        out = [0] * (2 * self.d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        red = self._reduce_poly(out)
        mod = self.modulus
        return tuple(v % mod for v in red)


@dataclass(frozen=True)
class UnramifiedElement:
    """Element of an UnramifiedRing; coefficient vector of length d.

    `exact` marks elements whose coefficients are true integers (not mere
    residues), so they can be re-embedded at any higher precision."""

    ring: UnramifiedRing
    coeffs: tuple[int, ...]
    exact: bool = False

    def _view(self) -> tuple[int, ...]:
        mod = self.ring.modulus
        return tuple(c % mod for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnramifiedElement):
            return NotImplemented
        return self.ring == other.ring and self._view() == other._view()

    def __hash__(self) -> int:
        return hash((self.ring, self._view()))

    def __add__(self, other: "UnramifiedElement") -> "UnramifiedElement":
        self._check(other)
        return self.ring.element([x + y for x, y in zip(self._view(), other._view())])

    def __sub__(self, other: "UnramifiedElement") -> "UnramifiedElement":
        self._check(other)
        return self.ring.element([x - y for x, y in zip(self._view(), other._view())])

    def __mul__(self, other: "UnramifiedElement") -> "UnramifiedElement":
        self._check(other)
        return UnramifiedElement(
            self.ring, self.ring._mul_coeffs(self._view(), other._view()), False
        )

    def __pow__(self, e: int) -> "UnramifiedElement":
        if e < 0:
            return self.inverse() ** (-e)
        result = self.ring.element([1])
        base = self.ring.element(self._view())
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def _check(self, other: "UnramifiedElement") -> None:
        if self.ring != other.ring:
            raise ValueError("elements live in different rings")

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
        """Inverse of a unit (nonzero mod p), by inversion in the residue
        field followed by Newton lifting x -> x(2 - a x)."""
        ring = self.ring
        a_mod_p = self.residue_mod_p()
        if a_mod_p.is_zero:
            raise NotInvertibleError("element is divisible by p")
        f_mod_p = PolyModP.from_int_poly(ring.f, ring.p)
        inv_p = _poly_modp_inverse(a_mod_p, f_mod_p)
        x = list(inv_p.coeffs) + [0] * (ring.d - len(inv_p.coeffs))
        prec = 1
        while prec < ring.s:
            prec = min(2 * prec, ring.s)
            sub = ring.at_precision(prec)
            xv = sub.element(x)
            av = sub.element(self._view())
            two = sub.element([2])
            xv = xv * (two - av * xv)
            x = list(xv.coeffs)
        out = ring.element(x)
        return out

    def with_precision(self, s: int) -> "UnramifiedElement":
        """Same element viewed at another precision.  Raising the precision is
        only possible for exact elements or refinable roots of f."""
        ring2 = self.ring.at_precision(s)
        if s <= self.ring.s or self.exact:
            return ring2.element(self.coeffs, exact=self.exact)
        return _refine_root(self.ring.f, self, s)


def _poly_modp_inverse(a: PolyModP, f: PolyModP) -> PolyModP:
    """Inverse of a modulo f over F_p by the extended Euclidean algorithm."""
    p = a.p
    r0, r1 = f, a.divmod(f)[1]
    t0, t1 = PolyModP(p, ()), PolyModP(p, (1,))
    while not r1.is_zero:
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        t0, t1 = t1, t0 - q * t1
    if r0.degree != 0:
        raise NotInvertibleError("element shares a factor with f mod p")
    inv_lead = pow(r0.coeffs[0], -1, p)
    return t0 * inv_lead


def _refine_root(f: IntPolynomial, elem: UnramifiedElement, s_target: int) -> UnramifiedElement:
    """Newton-lift a root of f from the element's precision up to s_target."""
    ring = elem.ring
    fp = ring.p
    cur = elem
    if not _eval_poly(f, cur).is_zero:
        raise PrecisionCapExceededError(
            "element is not a root of f at its own precision; cannot auto-raise"
        )
    prec = ring.s
    while prec < s_target:
        prec = min(2 * prec, s_target)
        sub = UnramifiedRing(f, fp, prec)
        g = sub.element(cur._view())
        fg = _eval_poly(f, g)
        dfg = _eval_poly(f.derivative(), g)
        g = g - fg * dfg.inverse()
        cur = g
    if not _eval_poly(f, cur).is_zero:
        raise ExactDivisionError("Newton refinement failed to reach a root")
    return cur


def _eval_poly(f: IntPolynomial, x: UnramifiedElement) -> UnramifiedElement:
    ring = x.ring
    acc = ring.zero()
    for c in reversed(f.coeffs):
        acc = acc * x + ring.embed(c)
    return acc


@dataclass(frozen=True)
class RootSet:
    """The d roots of f at precision p^s, in Frobenius-orbit order; the first
    root is the class of X."""

    ring: UnramifiedRing
    roots: tuple[UnramifiedElement, ...]

    @property
    def d(self) -> int:
        return len(self.roots)

    def at_precision(self, s: int) -> "RootSet":
        return RootSet(self.ring.at_precision(s), tuple(r.with_precision(s) for r in self.roots))


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
        f_mod_p = PolyModP.from_int_poly(f, p)
        x = PolyModP(p, (0, 1))
        frob = x
        base_ring = UnramifiedRing(f, p, 1)
        for _ in range(1, d):
            frob = frob.pow_mod(p, f_mod_p)
            approx = base_ring.element(frob.coeffs)
            roots.append(_refine_root(f, approx, s) if s > 1 else approx)
    for r in roots:
        if not _eval_poly(f, r).is_zero:
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
    """Minimal t >= 1 with gamma^t = lambda^t (mod p^s)."""
    if s < 1:
        raise PreconditionViolatedError("precision s must be >= 1")
    ring = gamma.ring
    if s > ring.s:
        raise PreconditionViolatedError("elements carry less precision than requested")
    if gamma.residue_mod_p().is_zero or lam.residue_mod_p().is_zero:
        raise NotInvertibleError("tau_pair needs units")
    ratio = gamma * lam.inverse()
    tau = _residue_order(ratio)
    for k in range(2, s + 1):
        ringk = ring.at_precision(k)
        r_k = ringk.element(ratio._view())
        tau = _lift_order(tau, ring.p, lambda e: ((r_k**e) - ringk.one()).is_zero)
    return tau


def _raise_precision(elem: UnramifiedElement, s: int) -> UnramifiedElement:
    try:
        return elem.with_precision(s)
    except PrecisionCapExceededError:
        raise
    except Exception as exc:  # refinement genuinely impossible for this element
        raise PrecisionCapExceededError(str(exc)) from exc


def beta_pair(
    gamma: UnramifiedElement,
    lam: UnramifiedElement,
    p: int,
    max_precision: int = DEFAULT_PRECISION_CAP,
) -> int:
    """Valuation of gamma^{tau_*} - lambda^{tau_*} with tau_* the pair order at
    precision 1 (precision 2 for p = 2).  Working precision is raised by
    doubling until the valuation resolves strictly below it."""
    if gamma.ring.p != p or lam.ring.p != p:
        raise ValueError("elements do not live over p")
    s_work = max(gamma.ring.s, lam.ring.s, 2 if p == 2 else 1)
    g = _raise_precision(gamma, s_work)
    h = _raise_precision(lam, s_work)
    tau_star = tau_pair(g, h, 2 if p == 2 else 1)
    while True:
        diff = (g ** tau_star) - (h ** tau_star)
        val = diff.valuation()
        if val < s_work:
            return int(val)
        if s_work >= max_precision:
            raise PrecisionCapExceededError(
                f"beta valuation still unresolved at precision cap {max_precision}"
            )
        s_work = min(2 * s_work, max_precision)
        g = _raise_precision(gamma, s_work)
        h = _raise_precision(lam, s_work)


def compute_w(
    f: IntPolynomial,
    p: int,
    max_precision: int = DEFAULT_PRECISION_CAP,
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
            best = max(best, beta_pair(elems[i], elems[j], p, max_precision) - profile.beta_star)
        best = max(best, beta_pair(elems[i], one, p, max_precision) - profile.beta_star)
    return d * (d + 1) // 2 * best + 1


# ---------------------------------------------------------------------------
# Expansion coefficients
# ---------------------------------------------------------------------------


def theta_matrix(a: IntMatrix, p: int, s: int, tau_s: int) -> IntMatrix:
    """Integer matrix B with A^{tau_s} = I + p^s B, exactly over Z."""
    power = mat_pow(a, tau_s)
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
    row = [1]
    for k in range(i):
        # m(m-1)...(m-k) = (previous) * (m - k)
        nxt = [0] * (len(row) + 1)
        for j, c in enumerate(row):
            nxt[j + 1] += c
            nxt[j] -= k * c
        row = nxt
    return row


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


@dataclass(frozen=True)
class ExpansionData:
    """Everything needed to expand u_{n + tau_s m} in m at level s."""

    m: PrimePowerModulus
    s: int
    tau_s: int
    b: IntMatrix
    r: int
    c: tuple[tuple[int, ...], ...]
    w: int | None

    def __post_init__(self) -> None:
        for i, row in enumerate(self.c):
            if row[i] != 1:
                raise ValueError("c_{i,i} must be 1")


def expansion_data(
    a: IntMatrix,
    m: PrimePowerModulus,
    s: int,
    with_w: bool = True,
) -> ExpansionData:
    """Build the level-s expansion data for A mod p^t: tau_s, B, r = floor(t/s),
    the binomial-to-monomial triangle, and (for f irreducible mod p) w."""
    if not 1 <= s <= m.t:
        raise PreconditionViolatedError("need 1 <= s <= t")
    tau_s = order_mod(a, m.at_exponent(s))
    b = theta_matrix(a, m.p, s, tau_s)
    r = m.t // s
    c = tuple(tuple(binomial_to_monomial(i)) for i in range(r + 1))
    w = None
    if with_w:
        f = char_poly(a)
        if irreducible_mod_p(f, m.p):
            w = compute_w(f, m.p)
    return ExpansionData(m, s, tau_s, b, r, c, w)
