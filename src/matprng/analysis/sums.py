"""Exponential sum measurement: single sums over the scalar stream, the
polynomial-phase double sums sigma_n on a p^s x p^s grid, and the
single-to-double reduction residual.

Every sum of phases sum_n w_n e(x_n / m) goes through one kernel,
`phase_sum`: the angle of each term comes from `_angles`, and the real and
the imaginary part are each the float `math.fsum` returns over all the
terms, bit for bit, whatever the number of terms.  Summation is therefore
deterministic and runs in one thread.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from ..arith import IntPolynomial, det_exact, mat_stream
from ..errors import GridTooLargeError, PeriodTooLargeError, PreconditionViolatedError
from ..generator import GeneratorConfig
from ..padic import H_coeffs, h_coeffs, order_mod, order_sequence, period_profile, theta_matrix

_HISTOGRAM_LIMIT = 1 << 24
# Veltkamp's splitting constant 2^27 + 1: x * _SPLIT must not overflow
_SPLIT = 134217729.0
_EXACT_SUM_MAX_ABS = 2.0**996
# the stream budget (2^30 bytes, 8 a term) and sigma_n's grid guard keep sums within this
_EXACT_SUM_MAX_TERMS = 1 << 27
# frexp exponents of |x| < 2^996 run from -1073 (subnormals) to 996
_EXPONENT_BINS = 1074 + 997
_EXACT_SUM_CHUNK = 1 << 14
# phase_sum adds up to this many terms with math.fsum over a list, which
# costs less than the fixed cost of the bincount accumulation
_SHORT_ROW = 4096
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


def _angles(x, mod: int) -> np.ndarray:
    # float(x) / float(mod) is a correctly rounded ratio of correctly rounded
    # operands, also for exact integers above 2^53; it is below 1, so the
    # angle is finite for every mod that converts to float
    return np.asarray(x, dtype=np.float64) / float(mod) * (2 * math.pi)


def _exact_sums(chunks: Iterable[np.ndarray], width: int) -> list[float]:
    """math.fsum over each of `width` float series, bit for bit; `chunks`
    yields (width, m) float64 arrays, the next m terms of every series.  The
    terms must be finite with |x| < 2^996, at most 2^27 a series.

    Dekker's split (Veltkamp's constant 2^27 + 1) writes each term x with
    frexp exponent e as hi + lo, two halves of at most 26 significant bits:
    hi is a multiple of 2^(e-26) with |hi| <= 2^e, and lo a multiple of
    2^(e-53) (or of the subnormal spacing) with |lo| <= 2^(e-27).  Added up
    per exponent by np.bincount, chunk by chunk, either half stays within
    2^53 of its units, so exact, while at most 2^27 terms share e.  fsum of
    these exact group sums is the exactly rounded sum of the series, which
    is what fsum returns for the series itself."""
    groups = np.zeros((width, 2, _EXPONENT_BINS))
    for part in chunks:
        assert np.abs(part).max() < _EXACT_SUM_MAX_ABS
        hi = part * _SPLIT
        hi -= hi - part
        for group, x, h, e in zip(groups, part, hi, np.frexp(part)[1] + 1074):
            group[0] += np.bincount(e, weights=h, minlength=_EXPONENT_BINS)
            group[1] += np.bincount(e, weights=x - h, minlength=_EXPONENT_BINS)
    return [math.fsum(group[group != 0].tolist()) for group in groups]


def _exact_sum(x: np.ndarray) -> float:
    """math.fsum(x.tolist()), bit for bit, without building a Python list."""
    step = _EXACT_SUM_CHUNK
    return _exact_sums((x[None, i : i + step] for i in range(0, x.size, step)), 1)[0]


def phase_sum(x, mod: int, weights=None) -> complex:
    """sum_n w_n e(x_n / mod) for residues x_n held in an int64 array, or as
    exact ints in a list or object array, with weights w_n (default 1).

    Term n is w_n cos(a_n) + i w_n sin(a_n) with a_n from _angles; the real
    and the imaginary part are each the float math.fsum returns over all the
    terms.  The terms are formed _EXACT_SUM_CHUNK at a time, so the work
    memory does not grow with their number."""

    def terms(lo: int) -> np.ndarray:
        ang = _angles(x[lo : lo + _EXACT_SUM_CHUNK], mod)
        rows = np.array([np.cos(ang), np.sin(ang)])
        if weights is not None:
            rows *= np.asarray(weights[lo : lo + _EXACT_SUM_CHUNK], dtype=np.float64)
        return rows

    if len(x) <= _SHORT_ROW:
        return complex(*map(math.fsum, terms(0).tolist()))
    assert len(x) <= _EXACT_SUM_MAX_TERMS
    return complex(*_exact_sums(map(terms, range(0, len(x), _EXACT_SUM_CHUNK)), 2))


def exp_sum(
    cfg: GeneratorConfig,
    n_terms: int,
    method: str = "auto",
) -> SumReport:
    """S = sum_{n=0}^{N-1} e(v A^n u / p^t), with each phase an exact integer
    over p^t, summed by `phase_sum`.

    method "direct": one phase_sum over the N residues.
    method "histogram" (available for p^t <= 2^24): count residue
    multiplicities c_x, then one phase_sum over the residues that occur,
    weighted by c_x.  Either way the real and the imaginary part are
    exactly rounded over all the terms summed.
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
        counts = np.bincount(residues)
        del residues  # free the stream before the bins are summed
        bins = np.flatnonzero(counts)
        value = phase_sum(bins, mod, counts[bins])
    elif method == "direct":
        value = phase_sum(residues, mod)
    else:
        raise ValueError(f"unknown method {method!r}")

    # Per-term phase error < 3 ulp of pi-scale plus sin/cos rounding; the
    # exactly rounded sum adds one rounding over all N terms.
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

    prods, mults = _product_multiplicities(grid)
    return phase_sum([(phase(prod) * sign) % dabs for prod in prods], dabs, mults)


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
