"""Bookkeeping for the bound-proof parameter choices: the working level s,
truncation degree r, moment count k, and the assumption flags that gate the
double-sum argument.  Flags are recorded, never assumed.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ..arith import valuation


def integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for nonnegative integers, exactly."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0, k >= 1")
    if n in (0, 1) or k == 1:
        return n
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    return x


class RationalizationRow(NamedTuple):
    """Denominator diagnostics for one monomial coefficient: the reduced
    denominator q_j of H_j p^{sj} / (p^t r! det A) and its predicted window
    p^{t-sj-omega_j} <= q_j <= r! |det A| p^{t-sj-omega_j}."""

    j: int
    omega_j: int
    q_j: int
    lower: int
    upper: int
    within: bool


class ProofParameters(NamedTuple):
    n: int
    p: int
    t: int
    d: int
    w: int
    s_star: int
    rho: float
    s: int
    r: int
    k: int
    lam: int
    c0: int
    r_lt_s: bool
    ws_le_s: bool
    p4s_le_n: bool
    n_ge_p8sqrt_t: bool
    large_r_branch: bool  # r >= c0 d
    n0: int
    rho0: float
    rationalization: tuple[RationalizationRow, ...] = ()


def proof_parameters(
    n_terms: int,
    p: int,
    t: int,
    d: int,
    w: int,
    s_star: int,
    c0: int = 1000,
    h_row: list[int] | None = None,
    det_a: int | None = None,
) -> ProofParameters:
    """s = floor(log N / (4 log p)), r = floor(t/s), k = floor(6 r^2 log d),
    lambda = floor((r-1)/(2d)), plus the assumption flags and the small-r
    fallback pair (N0, rho0).

    Optionally pass one row of monomial coefficients (h_row = H_{n,0..r}) and
    det A to get the denominator diagnostics."""
    if n_terms < 2:
        raise ValueError("N must be >= 2")
    if d < 2:
        raise ValueError("the parameter choices need d >= 2")
    # s is the exact integer with p^{4s} <= N < p^{4(s+1)}
    s = 0
    while p ** (4 * (s + 1)) <= n_terms:
        s += 1
    if s == 0:
        raise ValueError(f"N = {n_terms} is below p^4 = {p**4}; no valid level s")
    r = t // s
    k = math.floor(6 * r * r * math.log(d))
    lam = (r - 1) // (2 * d)
    rho = math.log(n_terms) / (t * math.log(p))
    n0 = integer_root(n_terms**r, 4 * c0 * d)
    rho0 = (math.log(n0) / (t * math.log(p))) if n0 > 1 else 0.0
    log_ratio = math.log(n_terms) / math.log(p)
    rows: tuple[RationalizationRow, ...] = ()
    if h_row is not None:
        if det_a is None:
            raise ValueError("denominator diagnostics need det A")
        rows = tuple(
            _rationalization_row(j, h_row[j], p, t, s, r, det_a) for j in range(len(h_row))
        )
    return ProofParameters(
        n=n_terms, p=p, t=t, d=d, w=w, s_star=s_star, rho=rho,
        s=s, r=r, k=k, lam=lam, c0=c0,
        r_lt_s=r < s,
        ws_le_s=max(w, s_star) <= s,
        p4s_le_n=p ** (4 * s) <= n_terms,
        n_ge_p8sqrt_t=log_ratio >= 8.0 * math.sqrt(t),
        large_r_branch=r >= c0 * d,
        n0=n0,
        rho0=rho0,
        rationalization=rows,
    )


def _rationalization_row(
    j: int, h_j: int, p: int, t: int, s: int, r: int, det_a: int
) -> RationalizationRow:
    denom = p**t * math.factorial(r) * abs(det_a)
    num = h_j * p ** (s * j)
    g = math.gcd(abs(num), denom)
    q_j = denom // g if g else denom
    omega = int(valuation(h_j, p)) if h_j else t  # vanishing coefficient: no p-part left
    omega = min(omega, t)
    lower_exp = t - s * j - omega
    lower = p**lower_exp if lower_exp >= 0 else 1
    upper = math.factorial(r) * abs(det_a) * lower
    return RationalizationRow(
        j=j, omega_j=omega, q_j=q_j, lower=lower, upper=upper,
        within=lower <= q_j <= upper,
    )
