"""Exponential sum measurement: single sums over the scalar stream, the
full-period sums S(tau_t) and their exponents, the polynomial-phase double
sums sigma_n on a p^s x p^s grid, and the single-to-double reduction
residual.

A full-period sum S(tau_t) is summed over tau_s terms with s = ceil(t/2),
not over tau_t: with A^{tau_s} = I + p^s B and 2s >= t,
u_{n + tau_s m} = u_n + m p^s B u_n (mod p^t) (Shparlinski's polynomial
representation of u_{n + tau_s m} in m), and the sum over m is a complete
geometric sum.

Every sum of phases sum_n w_n e(x_n / m), w_n integer, goes through one
kernel, `_exact_sums`: the real and the imaginary part are each the float
`math.fsum` returns over the unit terms e(x_n / m) of `_phase_terms`, the
n-th repeated w_n times.  `_row_sums` sums R rows of residues together (the
reduction residual's inner sums, the discrepancy bound's frequency sums),
`phase_sum` one row, weighted or not, and `exp_sum` its stream blocks or
its histogram windows weighted by the counts, so both paths return one
value.  Summation is deterministic, one thread.
"""

from __future__ import annotations

import itertools
import math
import warnings
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ..arith import IntPolynomial, det_exact, vec_dot
from ..errors import PreconditionViolatedError, ResourceGuardError
from ..generator import GeneratorConfig
from ..stream import int_dtype, mat_stream, stream_blocks

# matprng.padic is imported by the full-period and double sums that use it,
# so that exp_sum (the expsum command) does not load it

_HISTOGRAM_LIMIT = 1 << 24
# Veltkamp's splitting constant 2^27 + 1: x * _SPLIT must not overflow
_SPLIT = 134217729.0
_EXACT_SUM_MAX_ABS = 2.0**996
# total weight of a sum; the stream budget (2^30 bytes, 8 a term) and sigma_n's grid guard keep it below
_EXACT_SUM_MAX_TERMS = 1 << 27
_EXACT_SUM_CHUNK = 1 << 14
# products x*y formed per np.unique call in _product_multiplicities
_PRODUCT_CHUNK = 1 << 20
# largest tau_s whose terms full_period_exponent sums, and largest grid
# p^(2s) of double_sum_sigma; both are read at each call
TAU_GUARD = 10**7
GRID_GUARD = 10**8


class SumReport(NamedTuple):
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
    (d (p^t)^2 < 2^63, see `stream.mat_stream`), else a Python list of exact
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


def _exact_sums(chunks: Iterable[tuple[np.ndarray, np.ndarray | None]], width: int) -> list[float]:
    """math.fsum over each of `width` float series, bit for bit, each term
    repeated as often as its weight says.  `chunks` yields (terms, weights):
    the next m terms of every series as a (width, m) float64 array, which is
    overwritten, and their m nonnegative integer weights, or None for 1.
    The terms must be finite with |x| < 2^996; the weights total <= 2^27.

    Dekker's split (Veltkamp's constant 2^27 + 1) writes each term x with
    frexp exponent e as hi + lo, two halves of at most 26 significant bits:
    hi is a multiple of 2^(e-26) with |hi| <= 2^e, and lo a multiple of
    2^(e-53) (or of the subnormal spacing) with |lo| <= 2^(e-27).  Times an
    integer weight c <= 2^27, either half is exact and still a multiple of
    its unit.  For all series of a chunk at once, one np.bincount a half
    adds them up per (series, exponent of the unweighted term) into the group
    sums of the exponents seen so far: a group stays within 2^53 of its
    units, so exact.  fsum of a series' group sums is the exactly rounded
    sum of the repeated series, which is what fsum returns for it."""
    groups, low, total = np.zeros((width, 2, 0)), 0, 0
    for part, weights in chunks:
        assert np.abs(part).max() < _EXACT_SUM_MAX_ABS
        exponents = np.frexp(part)[1]
        least = int(exponents.min())
        span = int(exponents.max()) + 1 - least
        hi = part * _SPLIT
        hi -= hi - part
        part -= hi
        if weights is not None:
            weights = np.asarray(weights)
            assert weights.dtype.kind in "iu" and weights.min() >= 0
            hi *= weights
            part *= weights
        total += part.shape[1] if weights is None else int(weights.sum())
        assert total <= _EXACT_SUM_MAX_TERMS
        index = (np.arange(-least, width * span - least, span)[:, None] + exponents).ravel()
        sums = np.stack([np.bincount(index, half.ravel(), width * span).reshape(width, span)
                         for half in (hi, part)], 1)
        # widen the group sums to this chunk's exponents, then add its sums
        low = low if groups.shape[2] else least
        below, above = max(low - least, 0), max(least + span - low - groups.shape[2], 0)
        groups = np.concatenate((np.zeros((width, 2, below)), groups, np.zeros((width, 2, above))), 2)
        low -= below
        groups[:, :, least - low : least - low + span] += sums
    # the nonzero group sums of every series in one list, series by series
    ends = np.cumsum(np.count_nonzero(groups, axis=(1, 2))).tolist()
    values = groups[groups != 0].tolist()
    return [math.fsum(values[a:b]) for a, b in zip([0] + ends, ends)]


def _phase_terms(x, mod: int) -> np.ndarray:
    """The real and imaginary parts, stacked, of e(x_j / mod) for the residues
    x_j (an int64 array, or exact ints in a list or object array)."""
    ang = _angles(x, mod)
    return np.array([np.cos(ang), np.sin(ang)])


def _chunk_terms(x: np.ndarray, mod: int, weights=None) -> Iterator[tuple[np.ndarray, object]]:
    """The unit _phase_terms of the R rows of an (R, n) int64 or object array
    of residues as (2R, m) chunks for `_exact_sums`, the R real parts over the
    R imaginary parts, m <= max(1, _EXACT_SUM_CHUNK // R), with their weights."""
    step = max(1, _EXACT_SUM_CHUNK // len(x))
    for lo in range(0, x.shape[1], step):
        yield (_phase_terms(x[:, lo : lo + step], mod).reshape(2 * len(x), -1),
               None if weights is None else weights[lo : lo + step])


def _row_sums(x: np.ndarray, mod: int) -> list[complex]:
    """sum_j e(x_ij / mod) for each row i of an (R, n) int64 or object array
    of residues, R >= 1, each part the float math.fsum returns over the row's
    unit `_phase_terms`: all rows are one `_exact_sums` of `_chunk_terms`."""
    sums = _exact_sums(_chunk_terms(x, mod), 2 * len(x))
    return list(map(complex, sums[: len(x)], sums[len(x) :]))


def phase_sum(x, mod: int, weights=None) -> complex:
    """sum_n w_n e(x_n / mod) for residues x_n in an int64 array, or exact ints
    in a list or object array, with integer weights w_n >= 0 (default 1)
    totalling at most 2^27, as one row of `_chunk_terms`: each part is the
    float math.fsum returns over the unit terms, the n-th repeated w_n times."""
    row = x[None] if isinstance(x, np.ndarray) else np.array([x], dtype=object)
    return complex(*_exact_sums(_chunk_terms(row, mod, weights), 2))


def _histogram_terms(counts: np.ndarray, mod: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The _chunk_terms of the residues x mod `mod` that occur, with their
    counts c_x as weights, over windows of _EXACT_SUM_CHUNK bins."""
    for lo in range(0, len(counts), _EXACT_SUM_CHUNK):
        bins = np.flatnonzero(counts[lo : lo + _EXACT_SUM_CHUNK]) + lo
        yield from _chunk_terms(bins[None], mod, counts[bins])


def exp_sum(cfg: GeneratorConfig, n_terms: int) -> SumReport:
    """S = sum_{n=0}^{N-1} e(v A^n u / p^t), with each phase an exact integer
    over p^t.

    The N residues are never held at once: the sum folds the blocks of
    `stream.stream_blocks`, one at a time.  For p^t <= _HISTOGRAM_LIMIT
    (2^24, read at each call) the "histogram" path counts each block's
    residues in one array of p^t bins (np.add.at), then sums the residues
    x that occur, up to the largest, weighted by their counts c_x, 2^14
    bins at a time; above it the "direct" path sums the terms of each
    block, 2^14 at a time.  Either way each part is the exactly rounded sum
    of the N unit terms (`_exact_sums`), so both paths return the same
    float, bit for bit, whatever the blocks.  SumReport.method names it.
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
    if cfg.v is None:
        raise ValueError("scalar residues need v in the config")
    blocks = stream_blocks(cfg.a, cfg.u0, cfg.m, n_terms, 0, cfg.v)
    method = "histogram" if mod <= _HISTOGRAM_LIMIT else "direct"
    if method == "histogram":
        # np.zeros maps its pages lazily, so bins above the largest residue
        # cost neither memory nor, in the scan below, time
        counts = np.zeros(mod, dtype=np.int64)
        top = 0
        for block in blocks:
            # residues below p^t <= 2^24 are int64 whatever dtype the stream holds
            np.add.at(counts, block.astype(np.int64, copy=False), 1)
            top = max(top, int(block.max()) + 1)
        terms = _histogram_terms(counts[:top], mod)
    else:
        terms = itertools.chain.from_iterable(_chunk_terms(block[None], mod) for block in blocks)
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


class FullPeriodRow(NamedTuple):
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
    from ..padic import theta_matrix

    m, t = cfg.m, cfg.m.t
    m.check_float_range()
    q = m.p ** (t - s)
    b = theta_matrix(cfg.a, m.p, s, tau_s, t)
    vb = [vec_dot(cfg.v, column) for column in zip(*b.entries)]
    # whether p^(t-s) divides c_n depends on c_n mod p^(t-s) only, so the
    # selection streams mod p^(t-s); blocks end where the count puts them,
    # whatever the modulus, so the two streams go block by block together
    # and only the few kept residues outlive their block
    selection = stream_blocks(cfg.a, cfg.u0, m.at_exponent(max(t - s, 1)), tau_s, 0, vb)
    phases = stream_blocks(cfg.a, cfg.u0, m, tau_s, 0, cfg.v)
    kept = [x[c % q == 0] for c, x in zip(selection, phases)]
    return tau_t // tau_s * phase_sum(np.concatenate(kept), m.modulus)


def full_period_exponent(
    cfg: GeneratorConfig,
    t_range: Sequence[int],
) -> list[FullPeriodRow]:
    """Measured exponents theta_t = log|S(tau_t)| / log tau_t for each t.

    S(tau_t) comes from tau_s terms with s = ceil(t/2)
    (`_lifted_period_sum`): it is tau_t / tau_s times a sum that is exactly
    rounded over the terms it adds.

    Every tau_t is drawn from one order sequence, only as deep as t, and a
    tau_s over TAU_GUARD raises the guard `full_period_terms` before that
    row streams anything and before any deeper order is computed.  A matrix of finite
    order is rejected first, by period_profile at the least t; a t below 1
    is a ValueError that names t_range."""
    from ..padic import order_sequence, period_profile

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
        if tau_s > TAU_GUARD:
            raise ResourceGuardError("full_period_terms", tau_s, TAU_GUARD)
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
) -> complex:
    """sigma_n = sum_{x,y=1}^{p^s} e(f_n(x, y)) with the exact polynomial phase
    f_n(x, y) = (sum_j H_{n,j} p^{sj} (xy)^j) / (p^t r! det A).

    By the expansion congruence this equals the inner double sum of the
    single-to-double reduction applied to the stream."""
    from ..padic import H_coeffs, h_coeffs, order_mod, theta_matrix

    if s < 1:
        raise ValueError(f"s = {s} must be >= 1")
    if cfg.v is None:
        raise ValueError("double sums need v in the config")
    p, t = cfg.m.p, cfg.m.t
    r = t // s if r is None else r
    grid = p**s
    if r > grid:
        raise PreconditionViolatedError(f"r = {r} exceeds p^s = {grid}")
    if grid * grid > GRID_GUARD:
        raise ResourceGuardError("sigma_grid", grid * grid, GRID_GUARD)
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


def korobov_reduction_residual(residues, mod: int, n_terms: int, m: int, a: int) -> float:
    """rhs - lhs of the single-to-double reduction inequality
    |sum_x e(f(x))| <= (1/M^2) sum_x |sum_{y,z<=M} e(f(x + a y z))| + 2 a M^2
    for the phases f(n) = x_n / mod of the residues x_0 .. x_{N-1+aM^2}.

    The lhs is `phase_sum` of x_0 .. x_{N-1}.  The inner sum at n is the
    `_row_sums` of its row of M^2 residues x_{n + a yz}, one a pair (y, z).
    Rows are formed up to _EXACT_SUM_CHUNK terms at a time, and fsum adds
    their moduli."""
    if m < 1 or a < 0 or n_terms < 1:
        raise ValueError("need M >= 1, a >= 0, N >= 1")
    needed = n_terms + a * m * m
    if len(residues) < needed:
        raise ValueError(f"need residues for {needed} indices")
    x = np.asarray(residues[:needed], dtype=int_dtype(mod))
    lhs = abs(phase_sum(x[:n_terms], mod))
    offsets = a * np.outer(np.arange(1, m + 1), np.arange(1, m + 1)).ravel()
    step = max(1, _EXACT_SUM_CHUNK // offsets.size)
    moduli = []
    for lo in range(0, n_terms, step):
        rows = np.add.outer(np.arange(lo, min(lo + step, n_terms)), offsets)
        moduli += map(abs, _row_sums(x[rows], mod))
    return math.fsum(moduli) / (m * m) + 2.0 * a * m * m - lhs


def korobov_reduction_check(cfg: GeneratorConfig, n_terms: int, m: int, a: int) -> float:
    """The reduction residual on the generator's own phase function
    f(x) = (v A^x u)/p^t; nonnegative by the inequality."""
    cfg.m.check_float_range()
    residues = scalar_residues(cfg, n_terms + a * m * m)
    return korobov_reduction_residual(residues, cfg.m.modulus, n_terms, m, a)
