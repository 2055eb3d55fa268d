"""Exponential sum measurement: single sums over the scalar stream, the
polynomial-phase double sums sigma_n on a p^s x p^s grid, and the
single-to-double reduction residual.

Summation is deterministic: fixed 4096-term blocks, exactly rounded
per-block sums, partials combined in ascending block order, all in one
thread.  Every exactly rounded sum goes through `_exact_sum`, which returns
`math.fsum`'s float bit for bit without building a Python list.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from ..arith import IntPolynomial, det_exact, mat_stream
from ..errors import GridTooLargeError, PeriodTooLargeError, PreconditionViolatedError
from ..generator import GeneratorConfig
from ..padic import H_coeffs, h_coeffs, order_mod, order_sequence, period_profile, theta_matrix

_BLOCK = 4096
_HISTOGRAM_LIMIT = 1 << 24
_TWO_PI = 2.0 * math.pi
# Veltkamp's splitting constant 2^27 + 1: x * _SPLIT must not overflow
_SPLIT = 134217729.0
_EXACT_SUM_MAX_ABS = 2.0**996
_EXACT_SUM_MAX_TERMS = 1 << 24
# frexp exponents of |x| < 2^996 run from -1073 (subnormals) to 996
_EXPONENT_BINS = 1074 + 997
_EXACT_SUM_CHUNK = 1 << 18
# products x*y formed per np.unique call in _product_multiplicities
_PRODUCT_CHUNK = 1 << 20


@dataclass(frozen=True)
class SumReport:
    """Measured exponential sum over N stream terms."""

    n: int
    value: complex
    abs_value: float
    normalized: float
    rho: float
    method: str
    error_bound: float


def scalar_residues(cfg: GeneratorConfig, n_terms: int, n0: int = 0):
    """Residues v A^n u mod p^t for n = n0 .. n0+n_terms-1.

    Returns an int64 numpy array when the stream kernel runs in int64
    (d (p^t)^2 < 2^63, see `arith.mat_stream`), else a Python list of exact
    integers."""
    if cfg.v is None:
        raise ValueError("scalar residues need v in the config")
    if n_terms <= 0:
        return np.zeros(0, dtype=np.int64)
    residues = mat_stream(cfg.a, cfg.u0, cfg.m, n_terms, n0, cfg.v)
    return residues if residues.dtype == np.int64 else residues.tolist()


def _angles(block, mod: int) -> np.ndarray:
    # float(x) / float(mod) is a correctly rounded ratio of correctly rounded
    # operands, also for exact integers above 2^53
    return np.asarray(block, dtype=np.float64) / float(mod) * _TWO_PI


def _exact_sum(x: np.ndarray) -> float:
    """math.fsum(x.tolist()), bit for bit, for finite float64 terms with
    |x| < 2^996 and at most 2^24 terms (histogram bins are capped by
    _HISTOGRAM_LIMIT, direct blocks hold _BLOCK terms).

    Dekker's split (Veltkamp's constant 2^27 + 1) writes each term x with
    frexp exponent e as hi + lo, two halves of at most 26 significant bits:
    hi is a multiple of 2^(e-26) with |hi| <= 2^e, and lo a multiple of
    2^(e-53) (or of the subnormal spacing) with |lo| <= 2^(e-27).  Added up
    per exponent by np.bincount, chunk by chunk, either half stays exact
    while fewer than 2^27 terms share e.  fsum of these exact group sums is
    the exactly rounded sum of x, which is what fsum returns for x itself."""
    if x.size == 0:
        return 0.0
    assert x.size <= _EXACT_SUM_MAX_TERMS and np.abs(x).max() < _EXACT_SUM_MAX_ABS
    groups = np.zeros((2, _EXPONENT_BINS))
    for pos in range(0, x.size, _EXACT_SUM_CHUNK):
        part = x[pos : pos + _EXACT_SUM_CHUNK]
        hi = part * _SPLIT
        hi -= hi - part
        exponent = np.frexp(part)[1] + 1074
        groups[0] += np.bincount(exponent, weights=hi, minlength=_EXPONENT_BINS)
        groups[1] += np.bincount(exponent, weights=part - hi, minlength=_EXPONENT_BINS)
    return math.fsum(groups[groups != 0].tolist())


def _partial_sum(block, mod: int) -> tuple[float, float]:
    ang = _angles(block, mod)
    return _exact_sum(np.cos(ang)), _exact_sum(np.sin(ang))


def exp_sum(
    cfg: GeneratorConfig,
    n_terms: int,
    method: str = "auto",
) -> SumReport:
    """S = sum_{n=0}^{N-1} e(v A^n u / p^t), with each phase an exact integer
    over p^t.

    method "direct": exactly rounded sums of cos and sin over fixed
    4096-term blocks, the block partials combined by fsum in block order.
    method "histogram" (available for p^t <= 2^24): count residue
    multiplicities, then take the exactly rounded sum of c_x e(x / p^t).
    Both sum with `_exact_sum`, whose floats are those of math.fsum.
    """
    if n_terms < 1:
        raise ValueError("N must be >= 1")
    if cfg.validated is None or not cfg.validated.accepted:
        warnings.warn(
            "generator config is not validated (or was rejected); "
            "sum bounds assume a proper pair",
            RuntimeWarning,
            stacklevel=2,
        )
    cfg.m.check_float_range()
    mod = cfg.m.modulus
    if method == "auto":
        method = "histogram" if mod <= _HISTOGRAM_LIMIT else "direct"
    if method == "histogram" and mod > _HISTOGRAM_LIMIT:
        raise PreconditionViolatedError("histogram method needs p^t <= 2^24")
    residues = scalar_residues(cfg, n_terms)

    if method == "histogram":
        counts = np.bincount(residues, minlength=0)
        del residues  # free the stream before the per-bin arrays are built
        nz = np.nonzero(counts)[0]
        weights = counts[nz].astype(np.float64)
        ang = nz.astype(np.float64) * (_TWO_PI / mod)
        re = _exact_sum(weights * np.cos(ang))
        im = _exact_sum(weights * np.sin(ang))
    elif method == "direct":
        partials = [_partial_sum(residues[i : i + _BLOCK], mod) for i in range(0, n_terms, _BLOCK)]
        re = math.fsum(p[0] for p in partials)
        im = math.fsum(p[1] for p in partials)
    else:
        raise ValueError(f"unknown method {method!r}")

    value = complex(re, im)
    # Per-term phase error < 3 ulp of pi-scale plus sin/cos rounding; the
    # exactly rounded block sums contribute one rounding per combine.
    error_bound = 4.0e-15 * n_terms + 1.0e-12
    rho = math.log(n_terms) / (cfg.m.t * math.log(cfg.m.p)) if n_terms > 1 else 0.0
    return SumReport(
        n=n_terms,
        value=value,
        abs_value=abs(value),
        normalized=abs(value) / n_terms,
        rho=rho,
        method=method,
        error_bound=error_bound,
    )


@dataclass(frozen=True)
class FullPeriodRow:
    t: int
    tau: int
    abs_value: float
    theta: float


def full_period_exponent(
    cfg: GeneratorConfig,
    t_range: Sequence[int],
    tau_guard: int = 10**7,
) -> list[FullPeriodRow]:
    """Measured exponents theta_t = log|S(tau_t)| / log tau_t for each t.

    Every tau_t is drawn from one order sequence, only as deep as t, so a
    tau_t over tau_guard raises PeriodTooLargeError before any deeper order
    is computed.  A matrix of finite order is rejected first, by
    period_profile at the least t."""
    if not t_range:
        return []
    p = cfg.m.p
    period_profile(cfg.a, p, min(t_range))
    orders = order_sequence(cfg.a, p)
    taus: list[int] = []
    rows = []
    for t in t_range:
        taus.extend(itertools.islice(orders, max(0, t - len(taus))))
        tau = taus[t - 1]
        if tau > tau_guard:
            raise PeriodTooLargeError(f"tau_{t} = {tau} exceeds guard {tau_guard}")
        rep = exp_sum(cfg.at_exponent(t), tau)
        theta = (
            math.log(rep.abs_value) / math.log(tau)
            if rep.abs_value > 0
            else float("-inf")
        )
        rows.append(FullPeriodRow(t, tau, rep.abs_value, theta))
    return rows


def _product_multiplicities(m: int) -> tuple[list[int], list[int]]:
    """The distinct products x*y for 1 <= x, y <= m, ascending, and how often
    each occurs.  Rows of the product table are counted by np.unique about
    _PRODUCT_CHUNK products at a time; the chunk counts are merged by a
    stable sort and summed per product."""
    ys = np.arange(1, m + 1, dtype=np.int64)
    step = max(1, _PRODUCT_CHUNK // m)
    vals, cnts = [], []
    for x0 in range(1, m + 1, step):
        xs = np.arange(x0, min(x0 + step, m + 1), dtype=np.int64)
        v, c = np.unique(np.multiply.outer(xs, ys), return_counts=True)
        vals.append(v)
        cnts.append(c)
    vals, cnts = np.concatenate(vals), np.concatenate(cnts)
    order = np.argsort(vals, kind="stable")
    vals, cnts = vals[order], cnts[order]
    starts = np.flatnonzero(np.r_[True, vals[1:] != vals[:-1]])
    return vals[starts].tolist(), np.add.reduceat(cnts, starts).tolist()


def double_sum_sigma(
    cfg: GeneratorConfig,
    n: int,
    s: int,
    r: int | None = None,
    grid_guard: int = 10**8,
) -> complex:
    """sigma_n = sum_{x,y=1}^{p^s} e(f_n(x, y)) with the exact polynomial phase
    f_n(x, y) = (sum_j H_{n,j} p^{sj} (xy)^j) / (p^t r! det A).

    By the expansion congruence this equals the inner double sum of the
    single-to-double reduction applied to the stream."""
    if cfg.v is None:
        raise ValueError("double sums need v in the config")
    p, t = cfg.m.p, cfg.m.t
    if r is None:
        r = t // s
    grid = p**s
    if r > grid:
        raise PreconditionViolatedError(f"r = {r} exceeds p^s = {grid}")
    if grid * grid > grid_guard:
        raise GridTooLargeError(f"grid p^{2 * s} exceeds guard {grid_guard}")
    tau_s = order_mod(cfg.a, cfg.m.at_exponent(s))
    b = theta_matrix(cfg.a, p, s, tau_s)
    h = h_coeffs(cfg.a, cfg.u0, cfg.v, b, n, r)
    big_h = H_coeffs(h, r, s, p)
    denom = p**t * math.factorial(r) * det_exact(cfg.a)
    sign = 1 if denom > 0 else -1
    dabs = abs(denom)
    phase = IntPolynomial(tuple(big_h[j] * p ** (s * j) for j in range(r + 1)))

    total = 0.0 + 0.0j
    for prod, mult in zip(*_product_multiplicities(grid)):
        frac = (phase(prod) * sign) % dabs
        total += mult * np.exp(2j * math.pi * (float(frac) / float(dabs)))
    return complex(total)


def korobov_reduction_residual(
    angles: Sequence[float | Fraction],
    n_terms: int,
    m: int,
    a: int,
) -> float:
    """rhs - lhs of the single-to-double reduction inequality
    |sum_x e(f(x))| <= (1/M^2) sum_x |sum_{y,z<=M} e(f(x + a y z))| + 2 a M^2,
    evaluated on a concrete phase table (indices 0 .. N-1 + a M^2)."""
    if m < 1 or a < 0 or n_terms < 1:
        raise ValueError("need M >= 1, a >= 0, N >= 1")
    needed = n_terms + a * m * m
    if len(angles) < needed:
        raise ValueError(f"need phase values for {needed} indices")
    table = np.exp(
        2j * math.pi * np.array([float(x) for x in angles[:needed]], dtype=np.float64)
    )
    lhs = abs(complex(np.sum(table[:n_terms])))
    inner = np.zeros(n_terms, dtype=np.complex128)
    for prod, mult in zip(*_product_multiplicities(m)):
        off = a * prod
        inner += mult * table[off : off + n_terms]
    rhs = float(np.sum(np.abs(inner))) / (m * m) + 2.0 * a * m * m
    return rhs - lhs


def korobov_reduction_check(cfg: GeneratorConfig, n_terms: int, m: int, a: int) -> float:
    """The reduction residual on the generator's own phase function
    f(x) = (v A^x u)/p^t; nonnegative by the inequality."""
    cfg.m.check_float_range()
    mod = cfg.m.modulus
    residues = scalar_residues(cfg, n_terms + a * m * m)
    angles = np.asarray(residues, dtype=np.float64) / float(mod)
    return korobov_reduction_residual(angles, n_terms, m, a)
