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
kernel, `_exact_parts`: each chunk of unit terms e(x_n / m) of
`_phase_terms` is cut into 26-bit integer digits, whose weighted sums are
exact, and `math.fsum` of a sum's digit sums (`_rounded`) gives the real
and the imaginary part each as the float fsum returns over the unit
terms, the n-th repeated w_n times.  `_row_sums` sums R rows of residues
together (the reduction residual's inner sums, the discrepancy bound's
frequency sums), `phase_sum` one row, weighted or not, and `exp_sums` a
whole N schedule from one stream: its blocks, rounded where each N ends,
or its histogram windows weighted by every N's counts, so both paths and
any schedule return one value an N.  Summation is deterministic, one
thread.
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
# the top digit's extraction constant, 2^27 times a term's binade, stays a float
_EXACT_SUM_MAX_ABS = 2.0**996
# total weight of a sum; the stream budget (2^30 bytes, 8 a term) and sigma_n's grid guard keep it below
_EXACT_SUM_MAX_TERMS = 1 << 27
# terms a chunk: a chunk's temporaries, 2 x 2^12 float64 = 64 KB, stay below
# glibc's 128 KB mmap threshold, so that a fresh process reuses their pages
_EXACT_SUM_CHUNK = 1 << 12
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
    ang = np.array(x, dtype=np.float64)
    ang /= float(mod)
    ang *= 2 * math.pi
    return ang


def _exact_parts(part: np.ndarray, weights=None) -> np.ndarray:
    """Exact partial sums of sum_j w_j x_ij for each row i of a (width, m)
    float64 array `part` of finite terms with |x| < 2^996, which is
    overwritten: an array (K, width) for weights None (1 each) or an (m,)
    vector of nonnegative integers, (K, width, C) for an (m, C) matrix of
    them, one weighting a column.  The K parts of a sum add up to it
    exactly, and every weighting must total at most 2^27.

    Every term is a multiple of the least unit 2^e of the smallest nonzero
    term, and below 2^E.  Cut top-down into K = ceil((E - e) / 26) digits of
    units u_k = 2^(E - 26 (K - k)), each x is q_(K-1) + ... + q_0, q_k a
    multiple of u_k (of 2^e for k = 0) with |q_k| <= 2^26 u_k.  The cut is
    the power-of-two extraction of Rump, Ogita and Oishi ("Accurate
    floating-point summation, Part I", SIAM J. Sci. Comput. 31(1), 2008):
    q = fl(fl(sigma + x) - sigma) with sigma = 2^53 u_k <= 2^1023 rounds the
    remainder x to a multiple of u_k, and x - q is exact.  A weighted digit
    sum is then a multiple of its unit, below 2^53 of them: every partial
    sum is exact, in any order, so one product with the weights (or one
    sum) a digit gives each digit's sum exactly."""
    q = np.abs(part)
    top = float(q.max(initial=0.0))
    assert top < _EXACT_SUM_MAX_ABS
    if weights is not None:
        weights = np.asarray(weights)
        assert weights.dtype.kind in "iu" and weights.min(initial=0) >= 0
        weights = weights.astype(np.float64)
    if not top:
        return np.zeros((0, len(part)) + np.shape(weights)[1:])
    low = float(q.min()) or float(q.min(where=q > 0, initial=top))
    big = math.frexp(top)[1]
    levels = max(1, -(-(big - max(math.frexp(low)[1] - 53, -1074)) // 26))
    sums = []
    for k in range(levels - 1, -1, -1):
        if k:
            sigma = math.ldexp(1.0, big + 27 - 26 * (levels - 1 - k))
            np.add(part, sigma, out=q)
            q -= sigma
            part -= q
        digit = q if k else part
        sums.append(digit.sum(1) if weights is None else digit @ weights)
    return np.array(sums)


def _rounded(parts: list[np.ndarray], shape: tuple[int, ...]) -> list[float]:
    """math.fsum over the exact parts of each sum: the (K_i,) + shape arrays
    of `_exact_parts` for the chunks of one run of sums, in C order of
    `shape`."""
    if not parts:
        return [0.0] * math.prod(shape)
    return list(map(math.fsum, np.concatenate(parts).reshape(-1, math.prod(shape)).T.tolist()))


def _exact_sums(chunks: Iterable[tuple[np.ndarray, np.ndarray | None]], width: int) -> list[float]:
    """math.fsum over each of `width` float series, bit for bit, each term
    repeated as often as its weight says.  `chunks` yields (terms, weights):
    the next m terms of every series as a (width, m) float64 array, which is
    overwritten, and their m nonnegative integer weights, or None for 1.
    The terms must be finite with |x| < 2^996; the weights total <= 2^27.

    Each chunk becomes its exact digit sums (`_exact_parts`), and fsum of a
    series' digit sums is the exactly rounded sum of the repeated series,
    which is what fsum returns for it."""
    parts, total = [], 0
    for part, weights in chunks:
        total += part.shape[1] if weights is None else int(np.sum(weights))
        assert total <= _EXACT_SUM_MAX_TERMS
        parts.append(_exact_parts(part, weights))
    return _rounded(parts, (width,))


def _phase_terms(x, mod: int) -> np.ndarray:
    """The real and imaginary parts, stacked, of e(x_j / mod) for the residues
    x_j (an int64 or uint64 array, or exact ints in a list or object array)."""
    ang = _angles(x, mod)
    terms = np.empty((2,) + ang.shape)
    np.cos(ang, out=terms[0])
    np.sin(ang, out=terms[1])
    return terms


def _chunk_terms(x: np.ndarray, mod: int, weights=None) -> Iterator[tuple[np.ndarray, object]]:
    """The unit _phase_terms of the R rows of an (R, n) int64, uint64 or object
    array of residues as (2R, m) chunks for `_exact_sums`, the R real parts over the
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
    """The residues x mod `mod` that occur in `counts` (nonzero bins), in
    windows of _EXACT_SUM_CHUNK bins, with their _phase_terms."""
    for lo in range(0, len(counts), _EXACT_SUM_CHUNK):
        bins = np.flatnonzero(counts[lo : lo + _EXACT_SUM_CHUNK])
        bins += lo
        yield bins, _phase_terms(bins, mod)


def _cut(blocks: Iterator[np.ndarray], ns: list[int]) -> Iterator[tuple[np.ndarray, bool]]:
    """The stream blocks, cut after the first n terms for each n of the
    ascending list `ns`: (piece, whether a prefix ends with it)."""
    pos, cuts = 0, iter(ns)
    cut = next(cuts)
    for block in blocks:
        lo = 0
        while cut is not None and cut <= pos + len(block):
            yield block[lo : cut - pos], True
            lo, cut = cut - pos, next(cuts, None)
        if lo < len(block):
            yield block[lo:], False
        pos += len(block)


def _histogram_sums(pieces: Iterator[tuple[np.ndarray, bool]], mod: int, last: int) -> list[complex]:
    """The sums at each prefix of `_cut`, from counts of the residues in p^t
    bins: each prefix but the last keeps a copy of the counts up to its
    largest residue, in the narrowest dtype that holds them, and at the end
    one table of phase terms over the bins that occur is weighted by every
    prefix's counts, one product a window."""
    # np.zeros maps its pages lazily, so bins above the largest residue
    # cost neither memory nor, in the scan below, time
    counts = np.zeros(mod, dtype=np.min_scalar_type(last))
    one = counts.dtype.type(1)
    pos, top, snapshots = 0, 0, []
    for piece, ends in pieces:
        if len(piece):
            # residues below p^t <= 2^24 are int64 whatever dtype the stream holds
            np.add.at(counts, piece.astype(np.int64, copy=False), one)
            pos, top = pos + len(piece), max(top, int(piece.max()) + 1)
        if ends and pos < last:
            seen = counts[:top]
            snapshots.append(seen.astype(np.min_scalar_type(seen.max())))
    snapshots.append(counts[:top])
    parts = []
    for bins, terms in _histogram_terms(counts[:top], mod):
        weights = np.zeros((len(bins), len(snapshots)), dtype=counts.dtype)
        for col, snapshot in enumerate(snapshots):
            inside = np.searchsorted(bins, len(snapshot))
            weights[:inside, col] = snapshot[bins[:inside]]
        parts.append(_exact_parts(terms, weights))
    sums = _rounded(parts, (2, len(snapshots)))
    return list(map(complex, sums[: len(snapshots)], sums[len(snapshots) :]))


def _direct_sums(pieces: Iterator[tuple[np.ndarray, bool]], mod: int) -> list[complex]:
    """The sums at each prefix of `_cut`, from the terms themselves: the
    exact parts of every chunk so far, rounded where a prefix ends."""
    parts, sums = [], []
    for piece, ends in pieces:
        parts.extend(_exact_parts(terms) for terms, _ in _chunk_terms(piece[None], mod))
        if ends:
            sums.append(complex(*_rounded(parts, (2,))))
    return sums


def exp_sums(cfg: GeneratorConfig, schedule: Sequence[int]) -> list[SumReport]:
    """S(N) = sum_{n=0}^{N-1} e(v A^n u / p^t) for each N of `schedule`, in
    its order, with each phase an exact integer over p^t.

    One stream of max(N) terms serves every N: the sums fold the blocks of
    `stream.stream_blocks`, one at a time, and never hold the residues at
    once.  For p^t <= _HISTOGRAM_LIMIT (2^24, read at each call) the
    "histogram" path counts the residues in one array of p^t bins
    (np.add.at), keeps the counts at each smaller N, and sums the residues x
    that occur, up to the largest, weighted by every N's counts c_x, 2^12
    bins at a time; above it the "direct" path sums the terms of each
    block, 2^12 at a time, and rounds at each N.  Either way each part is
    the exactly rounded sum of the N unit terms (`_exact_parts`), so both
    paths, and any schedule, return the same float, bit for bit, whatever
    the blocks.  SumReport.method names the path."""
    if not schedule or min(schedule) < 1:
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
    ns = sorted(set(schedule))
    pieces = _cut(stream_blocks(cfg.a, cfg.u0, cfg.m, ns[-1], 0, cfg.v), ns)
    method = "histogram" if mod <= _HISTOGRAM_LIMIT else "direct"
    if method == "histogram":
        values = _histogram_sums(pieces, mod, ns[-1])
    else:
        values = _direct_sums(pieces, mod)
    reports = {n: _report(cfg, n, value, method) for n, value in zip(ns, values)}
    return [reports[n] for n in schedule]


def exp_sum(cfg: GeneratorConfig, n_terms: int) -> SumReport:
    """S(N) for one N: `exp_sums` of a schedule of one."""
    return exp_sums(cfg, [n_terms])[0]


def _report(cfg: GeneratorConfig, n_terms: int, value: complex, method: str) -> SumReport:
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
