"""Explicit bound formulas evaluated as arbitrary-precision floats: the
power-sum count bound, the double-sum bound it feeds, the single-sum and
discrepancy envelopes, and the discrepancy-from-sums inequality.  The
last is measured: its frequency sums over the stream points are summed,
a chunk of vectors at a time, by the exact kernel of `sums`.

Values can be astronomically large (r^{3r^3}), so every value is a
`decimal.Decimal` computed at 45 significant digits with the widest
exponent range decimal allows (10^±999999999999999999).  A result past
that range reads Infinity or 0 and an undefined one (0 * Infinity) NaN,
rather than raising; `reports.dec30` renders them `+inf`, `0.0`, `nan`.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ..generator import GeneratorConfig
from ..stream import int_dtype, mat_stream
from .sums import _EXACT_SUM_CHUNK, _row_sums

# the context every formula runs in (`localcontext` works on a copy)
_CONTEXT = Context(prec=45, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[])


class FordBound(NamedTuple):
    """r^{3r^3} M^{2k - r(r+1)/2 + delta_r r^2} with k = floor(6 r^2 log d) and
    the worst-case delta_r = 1/(1000 d); `valid` records r >= c0 d."""

    r: int
    d: int
    m: int
    k: int
    delta_r: Fraction
    exponent: Fraction
    value: Decimal
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
    with localcontext(_CONTEXT):
        e = Decimal(exponent.numerator) / exponent.denominator
        value = Decimal(r) ** (3 * r**3) * Decimal(m) ** e
    return FordBound(
        r=r, d=d, m=m, k=k, delta_r=delta, exponent=exponent,
        value=value, valid=r >= c0 * d, c0=c0,
    )


class KorobovBound(NamedTuple):
    """The double-sum bound: value_power bounds |S|^{2k^2}; value is its
    2k^2-th root for direct comparison with a measured double sum."""

    k: int
    r: int
    m: int
    q_max: int
    n_count: Decimal
    used_ford: bool
    value_power: Decimal
    value: Decimal


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
    with localcontext(_CONTEXT):
        if n_count is None:
            if d is None:
                raise ValueError("d is required to fall back to the Ford bound")
            n_val = ford_bound(r, d, m, c0).value
        else:
            n_val = Decimal(n_count)
        prod = Decimal(1)
        for ell, ql in enumerate(q, start=1):
            m_ell = Decimal(m) ** ell
            root = Decimal(ql).sqrt()
            prod *= min(m_ell, root + m_ell / root)
        value_power = (
            (64 * k * k * Decimal(3 * q_max).ln()) ** (Decimal(r) / 2)
            * Decimal(m) ** (4 * k * k - 2 * k)
            * n_val
            * prod
        )
        value = value_power ** (Decimal(1) / (2 * k * k))
    return KorobovBound(
        k=k, r=r, m=m, q_max=q_max, n_count=n_val,
        used_ford=used_ford, value_power=value_power, value=value,
    )


def _envelope(
    n_terms: int, p: int, t: int, d: int, c: float, d_power: int,
    shape: Callable[[Decimal, Decimal, Decimal], Decimal],
) -> Decimal:
    """shape(N, rho, d^d_power (log d)^2) with rho = log N / (t log p), in
    Decimals; c itself at N = 1."""
    if d < 2:
        raise ValueError("the envelope shape needs d >= 2")
    if n_terms < 1:
        raise ValueError("N must be >= 1")
    with localcontext(_CONTEXT):
        if n_terms == 1:
            return Decimal(c)
        n = Decimal(n_terms)
        return shape(n, n.ln() / (t * Decimal(p).ln()), Decimal(d) ** d_power * Decimal(d).ln() ** 2)


def theorem_envelope(
    n_terms: int,
    p: int,
    t: int,
    d: int,
    eta: float = 1.0,
    c: float = 1.0,
    d_power: int = 4,
) -> Decimal:
    """Single-sum envelope c * N^{1 - eta rho^2 / (d^d_power (log d)^2)} with
    rho = log N / (t log p).  eta and c are user-supplied overlay knobs."""
    return _envelope(
        n_terms, p, t, d, c, d_power,
        lambda n, rho, scale: Decimal(c) * n ** (1 - Decimal(eta) * rho * rho / scale),
    )


def discrepancy_envelope(
    n_terms: int,
    p: int,
    t: int,
    d: int,
    eta0: float = 1.0,
    c0: float = 1.0,
    d_power: int = 4,
) -> Decimal:
    """Discrepancy envelope c0 * N^{-eta0 rho^2 / (d^d_power (log d)^2)} (log N)^d."""
    return _envelope(
        n_terms, p, t, d, c0, d_power,
        lambda n, rho, scale: Decimal(c0) * n ** (-Decimal(eta0) * rho * rho / scale) * n.ln() ** d,
    )


class KSBound(NamedTuple):
    """Discrepancy bound from frequency sums: constant * (2/(V+1) + sum)."""

    n: int
    d: int
    v_range: int
    constant: float
    sum_term: float
    value: Decimal
    n_vectors: int


def koksma_szusz_bound(
    cfg: GeneratorConfig,
    n_points: int,
    v_range: int,
    constant_base: float = 1.5,
) -> KSBound:
    """Explicit discrepancy bound
        (3/2)^d * ( 2/(V+1) + (1/N) sum_{0 < ||v|| <= V} |S(N; u, v)| / r(v) ),
    the classical explicit form of the frequency-sum inequality; r(v) is the
    product of max(|v_j|, 1).  constant_base overrides the 3/2.

    S(N; u, -v) is the conjugate of S(N; u, v), so the sum runs over one of
    each pair, the v whose first nonzero entry is positive, and counts it
    twice.  With p^nu the largest power of p dividing v, S(N; u, v) is N
    where nu >= t, else the sum of e(x_n / p^(t-nu)) over the residues
    x_n = (v / p^nu) . u_n mod p^(t-nu).  The vectors, their nu and their
    r(v) are arrays; the vectors of one nu form their residues by one
    matrix product with the (N, d) stream points, about _EXACT_SUM_CHUNK
    residues at a time, and `sums._row_sums` sums each vector's row.
    v / p^nu stays signed, so d V p^t bounds every partial dot product: the
    residues are int64 below the edge (`stream.int_dtype`), exact ints
    above."""
    if v_range < 1:
        raise ValueError("V must be >= 1")
    if n_points < 1:
        raise ValueError("N must be >= 1")
    cfg.m.check_float_range()
    d = cfg.a.d
    p, t = cfg.m.p, cfg.m.t
    dtype = int_dtype(d * v_range * cfg.m.modulus)
    points = mat_stream(cfg.a, cfg.u0, cfg.m, n_points).astype(dtype, copy=False)
    # in lexicographic order the grid runs -v_max .. 0 .. v_max, each v at
    # the mirror place of -v, so the v after 0 are those whose first nonzero
    # entry is positive
    grid = np.indices((2 * v_range + 1,) * d).reshape(d, -1).T - v_range
    freq = grid[len(grid) // 2 + 1 :]
    r = np.maximum(np.abs(freq), 1).prod(axis=1)
    nu = np.zeros(len(freq), dtype=np.int64)
    if p <= v_range:  # else p divides no nonzero entry; v / p^nu in place
        while (divisible := (freq % p == 0).all(axis=1)).any():
            nu += divisible
            freq[divisible] //= p
    abs_sums = np.full(len(freq), float(n_points))  # |S(N; u, v)|, N where nu >= t
    step = max(1, _EXACT_SUM_CHUNK // n_points)
    for k in sorted(set(nu[nu < t].tolist())):
        mod = p ** (t - k)
        rows = np.flatnonzero(nu == k)
        for lo in range(0, len(rows), step):
            chunk = rows[lo : lo + step]
            sums = _row_sums(freq[chunk].astype(dtype) @ points.T % mod, mod)
            abs_sums[chunk] = list(map(abs, sums))
    sum_term = 2.0 * math.fsum((abs_sums / r).tolist())  # each v pairs with -v (conjugate sum)
    constant = constant_base**d
    with localcontext(_CONTEXT):
        value = Decimal(constant) * (Decimal(2) / (v_range + 1) + Decimal(sum_term) / n_points)
    return KSBound(
        n=n_points, d=d, v_range=v_range, constant=constant,
        sum_term=sum_term, value=value, n_vectors=2 * len(freq),
    )
