"""Explicit bound formulas evaluated as arbitrary-precision floats: the
power-sum count bound, the double-sum bound it feeds, the single-sum and
discrepancy envelopes, and the discrepancy-from-sums inequality.

Values can be astronomically large (r^{3r^3}), so everything is mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath as mp
import numpy as np

from ..arith import mat_stream, valuation
from ..generator import GeneratorConfig

_DPS = 40


def _mpf(x) -> mp.mpf:
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    return mp.mpf(x)


@dataclass(frozen=True)
class FordBound:
    """r^{3r^3} M^{2k - r(r+1)/2 + delta_r r^2} with k = floor(6 r^2 log d) and
    the worst-case delta_r = 1/(1000 d); `valid` records r >= c0 d."""

    r: int
    d: int
    m: int
    k: int
    delta_r: Fraction
    exponent: Fraction
    value: mp.mpf
    valid: bool
    c0: int


def ford_k(r: int, d: int) -> int:
    """The coupled moment count k = floor(6 r^2 log d)."""
    if d < 2:
        raise ValueError("d must be >= 2")
    return math.floor(6 * r * r * math.log(d))


def ford_bound(r: int, d: int, m: int, c0: int = 1000) -> FordBound:
    """Bound on the power-sum system count N_{k,r}(M); the validity flag is
    reported, never enforced (c0 is a knob, default 1000)."""
    if r < 1 or m < 1:
        raise ValueError("need r, M >= 1")
    k = ford_k(r, d)
    delta = Fraction(1, 1000 * d)
    exponent = Fraction(2 * k) - Fraction(r * (r + 1), 2) + delta * r * r
    with mp.workdps(_DPS):
        value = mp.power(mp.mpf(r), 3 * r**3) * mp.power(mp.mpf(m), _mpf(exponent))
    return FordBound(
        r=r, d=d, m=m, k=k, delta_r=delta, exponent=exponent,
        value=value, valid=r >= c0 * d, c0=c0,
    )


@dataclass(frozen=True)
class KorobovBound:
    """The double-sum bound: value_power bounds |S|^{2k^2}; value is its
    2k^2-th root for direct comparison with a measured double sum."""

    k: int
    r: int
    m: int
    q_max: int
    n_count: mp.mpf
    used_ford: bool
    value_power: mp.mpf
    value: mp.mpf


def korobov_bound(
    q: Sequence[int],
    m: int,
    k: int,
    r: int,
    n_count: int | None = None,
    d: int | None = None,
    c0: int = 1000,
) -> KorobovBound:
    """(64 k^2 log(3Q))^{r/2} M^{4k^2-2k} N_{k,r}(M) prod_l min{M^l, sqrt(q_l) + M^l/sqrt(q_l)}.

    Supply the exact count n_count for small cases, or leave it None to fall
    back to the Ford bound (then d is required)."""
    if len(q) != r:
        raise ValueError("need one approximation denominator per degree 1..r")
    if any(ql < 1 for ql in q):
        raise ValueError("denominators must be >= 1")
    q_max = max(q)
    used_ford = n_count is None
    with mp.workdps(_DPS):
        if n_count is None:
            if d is None:
                raise ValueError("d is required to fall back to the Ford bound")
            n_val = ford_bound(r, d, m, c0).value
        else:
            n_val = mp.mpf(n_count)
        prod = mp.mpf(1)
        for ell, ql in enumerate(q, start=1):
            m_ell = mp.power(mp.mpf(m), ell)
            root = mp.sqrt(mp.mpf(ql))
            prod *= min(m_ell, root + m_ell / root)
        value_power = (
            mp.power(64 * k * k * mp.log(3 * q_max), mp.mpf(r) / 2)
            * mp.power(mp.mpf(m), 4 * k * k - 2 * k)
            * n_val
            * prod
        )
        value = mp.power(value_power, mp.mpf(1) / (2 * k * k))
    return KorobovBound(
        k=k, r=r, m=m, q_max=q_max, n_count=n_val,
        used_ford=used_ford, value_power=value_power, value=value,
    )


def theorem_envelope(
    n_terms: int,
    p: int,
    t: int,
    d: int,
    eta: float = 1.0,
    c: float = 1.0,
    d_power: int = 4,
) -> mp.mpf:
    """Single-sum envelope c * N^{1 - eta rho^2 / (d^d_power (log d)^2)} with
    rho = log N / (t log p).  eta and c are user-supplied overlay knobs."""
    if d < 2:
        raise ValueError("the envelope shape needs d >= 2")
    if n_terms < 1:
        raise ValueError("N must be >= 1")
    with mp.workdps(_DPS):
        if n_terms == 1:
            return mp.mpf(c)
        rho = mp.log(n_terms) / (t * mp.log(p))
        exponent = 1 - mp.mpf(eta) * rho * rho / (mp.mpf(d) ** d_power * mp.log(d) ** 2)
        return mp.mpf(c) * mp.power(n_terms, exponent)


def discrepancy_envelope(
    n_terms: int,
    p: int,
    t: int,
    d: int,
    eta0: float = 1.0,
    c0: float = 1.0,
    d_power: int = 4,
) -> mp.mpf:
    """Discrepancy envelope c0 * N^{-eta0 rho^2 / (d^d_power (log d)^2)} (log N)^d."""
    if d < 2:
        raise ValueError("the envelope shape needs d >= 2")
    if n_terms < 1:
        raise ValueError("N must be >= 1")
    with mp.workdps(_DPS):
        if n_terms == 1:
            return mp.mpf(c0)
        rho = mp.log(n_terms) / (t * mp.log(p))
        exponent = -mp.mpf(eta0) * rho * rho / (mp.mpf(d) ** d_power * mp.log(d) ** 2)
        return mp.mpf(c0) * mp.power(n_terms, exponent) * mp.power(mp.log(n_terms), d)


@dataclass(frozen=True)
class KSBound:
    """Discrepancy bound from frequency sums: constant * (2/(V+1) + sum)."""

    n: int
    d: int
    v_range: int
    constant: float
    sum_term: float
    value: mp.mpf
    n_vectors: int


def _frequency_abs_sum(points: np.ndarray | list, v: tuple[int, ...], p: int, t: int) -> float:
    """|sum_n e(v . u_n / p^t)| with the common-p-power reduction: when
    p^nu | v the sum is routed through the modulus p^{t-nu}."""
    nu = min((int(valuation(x, p)) for x in v if x != 0), default=t)
    nu = min(nu, t)
    reduced = tuple(x // p**nu for x in v)
    t_red = t - nu
    if t_red == 0:
        n = len(points)
        return float(n)
    mod = p**t_red
    if isinstance(points, np.ndarray):
        phases = (points @ np.asarray(reduced, dtype=np.int64)) % mod
        ang = phases.astype(np.float64) * (2.0 * math.pi / mod)
        return float(abs(complex(np.sum(np.cos(ang)), np.sum(np.sin(ang)))))
    total = 0.0 + 0.0j
    for u in points:
        x = sum(a * b for a, b in zip(reduced, u)) % mod
        total += complex(math.cos(2 * math.pi * x / mod), math.sin(2 * math.pi * x / mod))
    return abs(total)


def koksma_szusz_bound(
    cfg: GeneratorConfig,
    n_points: int,
    v_range: int,
    constant_base: float = 1.5,
) -> KSBound:
    """Explicit discrepancy bound
        (3/2)^d * ( 2/(V+1) + (1/N) sum_{0 < ||v|| <= V} |S(N; u, v)| / r(v) ),
    the classical explicit form of the frequency-sum inequality; r(v) is the
    product of max(|v_j|, 1).  constant_base overrides the 3/2."""
    if v_range < 1:
        raise ValueError("V must be >= 1")
    d = cfg.a.d
    p, t = cfg.m.p, cfg.m.t
    vecs = mat_stream(cfg.a, cfg.u0, cfg.m, n_points)
    if cfg.m.modulus * v_range * d < 2**62:
        points = np.asarray(vecs, dtype=np.int64)
    else:
        points = vecs.tolist()

    from itertools import product as iproduct

    reps = []
    for v in iproduct(range(-v_range, v_range + 1), repeat=d):
        first = next((x for x in v if x != 0), 0)
        if first > 0:
            reps.append(v)
    n_vectors = 2 * len(reps)

    def term(v: tuple[int, ...]) -> float:
        rv = 1
        for x in v:
            rv *= max(abs(x), 1)
        return _frequency_abs_sum(points, v, p, t) / rv

    sum_term = 2.0 * math.fsum(term(v) for v in reps)  # each v pairs with -v (conjugate sum)
    constant = constant_base**d
    with mp.workdps(_DPS):
        value = mp.mpf(constant) * (mp.mpf(2) / (v_range + 1) + mp.mpf(sum_term) / n_points)
    return KSBound(
        n=n_points, d=d, v_range=v_range, constant=constant,
        sum_term=sum_term, value=value, n_vectors=n_vectors,
    )
