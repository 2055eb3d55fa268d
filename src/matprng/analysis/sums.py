"""Exponential sum measurement: single sums over the scalar stream, the
full-period sums S(tau_t) and their exponents, the polynomial-phase double
sums sigma_n on a p^s x p^s grid, and the single-to-double reduction
residual.

A full-period sum S(tau_t) is summed over tau_s terms with s = ceil(t/2),
not over tau_t: with A^{tau_s} = I + p^s B and 2s >= t,
u_{n + tau_s m} = u_n + m p^s B u_n (mod p^t) (Shparlinski's polynomial
representation of u_{n + tau_s m} in m), and the sum over m is a complete
geometric sum.

Every sum of phases sum_n w_n e(x_n / m) goes through one kernel: the
terms come from `_phase_terms` (angles from `_angles`), and the real and
the imaginary part are each the float `math.fsum` returns over all the
terms, bit for bit, whatever the number of terms.  `phase_sum` sums a
sequence it is given; `exp_sum` feeds the same exact summation its stream
blocks or histogram windows as they are made.  Summation is therefore
deterministic and runs in one thread.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..arith import IntPolynomial, det_exact, mat_stream, stream_blocks, vec_dot
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


def _phase_terms(x, mod: int, weights=None) -> np.ndarray:
    """The (2, n) real and imaginary parts of w_j e(x_j / mod) for the n
    residues x_j (an int64 array, or exact ints in a list or object array),
    with weights w_j (default 1) and angles from _angles."""
    ang = _angles(x, mod)
    rows = np.array([np.cos(ang), np.sin(ang)])
    if weights is not None:
        rows *= np.asarray(weights, dtype=np.float64)
    return rows


def phase_sum(x, mod: int, weights=None) -> complex:
    """sum_n w_n e(x_n / mod) for residues x_n held in an int64 array, or as
    exact ints in a list or object array, with weights w_n (default 1).

    The real and the imaginary part are each the float math.fsum returns
    over all the terms of `_phase_terms`.  The terms are formed
    _EXACT_SUM_CHUNK at a time, so the work memory does not grow with their
    number."""
    if len(x) <= _SHORT_ROW:
        return complex(*map(math.fsum, _phase_terms(x, mod, weights).tolist()))
    assert len(x) <= _EXACT_SUM_MAX_TERMS
    step = _EXACT_SUM_CHUNK
    return complex(*_exact_sums(
        (_phase_terms(x[lo : lo + step], mod, None if weights is None else weights[lo : lo + step])
         for lo in range(0, len(x), step)),
        2,
    ))


def _stream_terms(blocks: Iterable[np.ndarray], mod: int) -> Iterator[np.ndarray]:
    """_phase_terms of the residues of `blocks`, _EXACT_SUM_CHUNK at a time."""
    step = _EXACT_SUM_CHUNK
    for block in blocks:
        for lo in range(0, len(block), step):
            yield _phase_terms(block[lo : lo + step], mod)


def _histogram_terms(counts: np.ndarray, mod: int) -> Iterator[np.ndarray]:
    """_phase_terms of the residues x mod `mod` that occur, weighted by
    their counts c_x, over windows of _EXACT_SUM_CHUNK bins."""
    step = _EXACT_SUM_CHUNK
    for lo in range(0, len(counts), step):
        window = counts[lo : lo + step]
        bins = np.flatnonzero(window)
        if bins.size:
            yield _phase_terms(bins + lo, mod, window[bins])


def exp_sum(
    cfg: GeneratorConfig,
    n_terms: int,
    method: str = "auto",
) -> SumReport:
    """S = sum_{n=0}^{N-1} e(v A^n u / p^t), with each phase an exact integer
    over p^t.

    The N residues are never held at once: the sum folds the blocks of
    `arith.stream_blocks`, one at a time.
    method "direct": the phase terms of each block, 2^14 at a time.
    method "histogram" (available for p^t <= 2^24): each block adds its
    residues to one count array of p^t bins (np.add.at); then the residues
    x that occur, up to the largest, weighted by their counts c_x, windows
    of 2^14 bins at a time.  Either way the real and the imaginary part are
    exactly rounded over all the terms summed (`_exact_sums`, as in
    `phase_sum`), so the value does not depend on where the blocks end.
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
    if method not in ("histogram", "direct"):
        raise ValueError(f"unknown method {method!r}")
    if cfg.v is None:
        raise ValueError("scalar residues need v in the config")
    blocks = stream_blocks(cfg.a, cfg.u0, cfg.m, n_terms, 0, cfg.v)
    if method == "histogram":
        # np.zeros maps its pages lazily, so bins above the largest residue
        # cost neither memory nor, in the scan below, time
        counts = np.zeros(mod, dtype=np.int64)
        top = 0
        for block in blocks:
            np.add.at(counts, block, 1)
            top = max(top, int(block.max()) + 1)
        terms = _histogram_terms(counts[:top], mod)
    else:
        terms = _stream_terms(blocks, mod)
    value = complex(*_exact_sums(terms, 2))

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


def _lifted_period_sum(cfg: GeneratorConfig, s: int, tau_s: int, tau_t: int) -> complex:
    """S(tau_t) mod p^t from tau_s terms, for 1 <= s <= t <= 2s.

    Write A^{tau_s} = I + p^s B.  Every binomial term of degree >= 2 in
    (I + p^s B)^m vanishes mod p^t, so u_{n + tau_s m} = u_n + m p^s B u_n
    (mod p^t).  At m = p^(t-s) that is u_n, so tau_t divides tau_s p^(t-s),
    and tau_s divides tau_t.  Write n' = n + tau_s m with n < tau_s and
    m < p^(t-s).  Over m the sum is a complete geometric sum, p^(t-s) where
    p^(t-s) divides c_n = (v B) . u_n, else 0, and the n' cover
    tau_s p^(t-s) / tau_t whole periods.  So
    S(tau_t) = (tau_t / tau_s) sum e(x_n / p^t) over the n < tau_s with
    p^(t-s) | c_n, where x_n = v . u_n."""
    m, t = cfg.m, cfg.m.t
    m.check_float_range()
    q = m.p ** (t - s)
    b = theta_matrix(cfg.a, m.p, s, tau_s, t)
    vb = [vec_dot(cfg.v, column) for column in zip(*b.entries)]
    keep = mat_stream(cfg.a, cfg.u0, m, tau_s, 0, vb) % q == 0
    x = mat_stream(cfg.a, cfg.u0, m, tau_s, 0, cfg.v)[keep]
    return tau_t // tau_s * phase_sum(x, m.modulus)


def full_period_exponent(
    cfg: GeneratorConfig,
    t_range: Sequence[int],
    tau_guard: int = 10**7,
) -> list[FullPeriodRow]:
    """Measured exponents theta_t = log|S(tau_t)| / log tau_t for each t.

    S(tau_t) comes from tau_s terms with s = ceil(t/2)
    (`_lifted_period_sum`): it is tau_t / tau_s times a sum that is exactly
    rounded over the terms it adds.

    Every tau_t is drawn from one order sequence, only as deep as t, and a
    tau_s over tau_guard raises PeriodTooLargeError before that row streams
    anything and before any deeper order is computed.  A matrix of finite
    order is rejected first, by period_profile at the least t; a t below 1
    is a ValueError that names t_range."""
    if not t_range:
        return []
    if min(t_range) < 1:
        raise ValueError(f"every t in t_range must be >= 1, not {min(t_range)}")
    if cfg.v is None:
        raise ValueError("full-period sums need v in the config")
    p = cfg.m.p
    period_profile(cfg.a, p, min(t_range))
    orders = order_sequence(cfg.a, p)
    taus: list[int] = []
    rows = []
    for t in t_range:
        taus.extend(itertools.islice(orders, max(0, t - len(taus))))
        s = (t + 1) // 2
        tau, tau_s = taus[t - 1], taus[s - 1]
        if tau_s > tau_guard:
            raise PeriodTooLargeError(
                f"tau_{s} = {tau_s}, the terms summed for t = {t}, exceeds guard {tau_guard}"
            )
        abs_value = abs(_lifted_period_sum(cfg.at_exponent(t), s, tau_s, tau))
        if tau == 1:  # log|S| / log tau is 0 / 0
            theta = math.nan
        else:
            theta = math.log(abs_value) / math.log(tau) if abs_value > 0 else -math.inf
        rows.append(FullPeriodRow(t, tau, abs_value, theta))
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
