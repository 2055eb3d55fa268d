"""The stream kernel: u_n = A^n u0 mod p^t, or the scalars v . u_n, for a
run of consecutive n, in numpy arrays.

This is the numpy side of the package.  `matprng.arith` holds the exact
integer algebra (moduli, matrices, powers, polynomials) on Python ints, and
this module builds on it: baby-step giant-step products in int64 limbs of
a power of p below 2^64, exact Python ints (object arrays) above.  The CLI
imports it, and numpy with it, for the commands that stream or run the
analysis layers; validate and period never do.
"""

from __future__ import annotations

import sys
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .arith import (
    STREAM_MEMORY_BUDGET,
    IntMatrix,
    PrimePowerModulus,
    mat_pow_mod,
    mat_vec_mod,
    vec_reduce,
)
from .errors import DimensionMismatchError, ResourceGuardError

# Entries per block of `stream_blocks`: a block holds at most STREAM_BLOCK // w
# terms of w entries (w = d for vectors, 1 for scalars), or one giant step
STREAM_BLOCK = 1 << 15
# int_dtype's edge, read at each call: one patch moves every choice at once
INT64_EDGE = 2**63


class _Limbs(NamedTuple):
    """How the stream kernel holds residues mod p^t: `count` limbs of base
    b = p^k, least significant first, the top one below `top` =
    p^(t - (count - 1) k).  One limb (b = p^t) is the residue itself, of
    `dtype` int64 or object (exact ints)."""

    base: int
    count: int
    top: int
    dtype: type


def int_dtype(bound: int) -> type:
    """The dtype of a computation whose every value lies below `bound` in
    absolute value: int64 below INT64_EDGE = 2^63, object (exact Python
    ints) otherwise.  Every choice between the two in the package is here."""
    return np.int64 if bound < INT64_EDGE else object


def stream_dtype(m: PrimePowerModulus, d: int) -> type:
    """The dtype of the stream kernel's output: int64 when d (p^t)^2 < 2^63,
    so that no dot product of residues can overflow, and object (exact
    Python ints) otherwise."""
    return int_dtype(d * m.modulus**2)


def _limbs(m: PrimePowerModulus, d: int) -> _Limbs:
    """The fewest int64 limbs whose products cannot overflow: a product
    limb sums at most d L products of two limbs below b, and
    d L b^2 < 2^63 leaves room for the carry of the limb below.  One limb
    for int64 output; exact ints when p^t >= 2^64 or no base fits."""
    p, t, mod = m.p, m.t, m.modulus
    if stream_dtype(m, d) is np.int64:
        return _Limbs(mod, 1, mod, np.int64)
    if mod < 2**64:
        for n in range(2, t + 1):
            k = -(-t // n)
            count, base = -(-t // k), p**k
            if int_dtype(d * count * base * base) is np.int64:
                return _Limbs(base, count, p ** (t - (count - 1) * k), np.int64)
    return _Limbs(mod, 1, mod, object)


def _split(rows: Sequence[Sequence[int]], lm: _Limbs) -> np.ndarray:
    """The (L, r, c) limbs of an r x c matrix of residues."""
    b = lm.base
    return np.array(
        [[[x // b**j % b for x in row] for row in rows] for j in range(lm.count)], dtype=lm.dtype
    )


def _mul(x: np.ndarray, y: np.ndarray, lm: _Limbs) -> np.ndarray:
    """The limbs of x @ y mod p^t for limb arrays x (L, r, d) and y (L, d, c).

    Limb j of the product mod b^L = p^(kL) is the sum over i + l = j of
    x_i @ y_l plus the carry from limb j - 1; the top limb is reduced mod
    p^(t - (L-1)k), which is exact because p^t divides p^(kL).  Each limb
    is formed in place in the output."""
    out = np.empty((lm.count, x.shape[1], y.shape[2]), dtype=lm.dtype)
    carry = np.empty_like(out[0]) if lm.count > 1 else None
    for j, acc in enumerate(out):
        np.matmul(x[0], y[j], out=acc)
        for i in range(1, j + 1):
            acc += x[i] @ y[j - i]
        if j:
            acc += carry
        if j < lm.count - 1:
            np.divmod(acc, lm.base, out=(carry, acc))
        else:
            np.remainder(acc, lm.top, out=acc)
    return out


def _compose(z: np.ndarray, lm: _Limbs) -> np.ndarray:
    """The residues of limb array z: the limb itself for one limb, else
    sum z_j b^j in uint64, exact below p^t < 2^64, formed in place in the
    top limb."""
    if lm.count == 1:
        return z[0]
    acc = z[-1].view(np.uint64)
    for limb in z[-2::-1]:
        acc *= np.uint64(lm.base)
        acc += limb.view(np.uint64)
    return acc


def _doubling(mul, first: np.ndarray, step: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """([first, step first, ..., step^(w-1) first] side by side, step^w), with
    w the least power of two >= n."""
    cols = first
    while cols.shape[2] < n * first.shape[2]:
        cols = np.concatenate((cols, mul(step, cols)), axis=2)
        step = mul(step, step)
    return cols, step


def _check_stream(a: IntMatrix, u0, m: PrimePowerModulus, count: int, v) -> None:
    if count < 0:
        raise ValueError("count must be >= 0")
    d = a.d
    for vec in (u0,) if v is None else (u0, v):
        if len(vec) != d:
            raise DimensionMismatchError(f"matrix dim {d} vs vector length {len(vec)}")
    mod = m.modulus
    entry_bytes = 8 if stream_dtype(m, d) is np.int64 else 8 + sys.getsizeof(mod - 1)
    out_bytes = count * (d if v is None else 1) * entry_bytes
    if out_bytes > STREAM_MEMORY_BUDGET:
        raise ResourceGuardError("stream_bytes", out_bytes, STREAM_MEMORY_BUDGET)


def stream_blocks(
    a: IntMatrix,
    u0: Sequence[int],
    m: PrimePowerModulus,
    count: int,
    n0: int = 0,
    v: Sequence[int] | None = None,
) -> Iterator[np.ndarray]:
    """The stream of `mat_stream` as consecutive blocks of K whole giant
    steps of B terms each: (n, d) arrays of vectors (w = d), or, given v,
    (n,) arrays of scalars (w = 1).  Their dtype is `stream_dtype(m, d)`,
    except that exact ints below p^t < 2^64 stay the uint64 that the
    kernel's limbs compose to (see `_limbs`).  A block
    holds at most max(STREAM_BLOCK // w, B) terms, the last one fewer.
    Where blocks end depends on count, w and STREAM_BLOCK only, not on the
    matrix, the vectors or the modulus.

    Baby-step giant-step: the baby columns u_{n0} .. u_{n0+B-1} are built by
    doubling with A, A^2, A^4, ..., where B is the least power of two with
    B^2 >= count, and giant step k is the product head_k @ baby with
    head_k = A^{kB} (or v A^{kB} for scalars).  The heads of K giant steps
    come from one product of the carried head with [I, G, ..., G^(K-1)],
    G = A^B, and the head then moves on by G^K.  Every product is taken in
    the limbs of `_limbs`: int64 for every p^t < 2^64 with a base that
    fits, so that the object dtype appears only above 2^64.

    Raises the guard `stream_bytes` when it is called, before anything is
    allocated, when `mat_stream` would return more than
    STREAM_MEMORY_BUDGET bytes: 8 per entry, plus the size of one Python int
    below p^t per entry of an object array."""
    _check_stream(a, u0, m, count, v)
    d = a.d
    u = vec_reduce(u0, m)
    if n0:
        u = mat_vec_mod(mat_pow_mod(a, n0, m), u, m)
    size = max(1, STREAM_BLOCK // (d if v is None else 1))
    return _giant_steps(a, u, m, count, v, size)


def _giant_steps(a, u, m, count, v, size) -> Iterator[np.ndarray]:
    """The stream in batches of K whole giant steps, K B <= size terms
    unless K = 1, composed by `_compose`."""
    lm = _limbs(m, a.d)
    d = a.d

    def mul(x, y):
        return _mul(x, y, lm)

    width = 1
    while width * width < count:
        width *= 2
    baby, giant = _doubling(mul, _split([[x] for x in u], lm), _split(a.reduce(m.modulus).entries, lm), width)
    ident = _split(IntMatrix.identity(d).entries, lm)
    # giant steps per batch: a power of two, no more than a block or the stream needs
    steps = 1 << (max(1, min(size // width, -(-count // width))).bit_length() - 1)
    powers, jump = _doubling(mul, ident, giant, steps)
    head = ident if v is None else _split([vec_reduce(v, m)], lm)
    rows = head.shape[1]
    for pos in range(0, count, steps * width):
        k = min(steps, -(-(count - pos) // width))
        # head G^j for j < k sits in columns j d .. j d + d - 1; stack them as rows
        heads = mul(head, powers[:, :, : k * d])
        heads = heads.reshape(lm.count, rows, k, d).transpose(0, 2, 1, 3).reshape(lm.count, k * rows, d)
        out = _compose(mul(heads, baby), lm)  # row j rows + i: entry i of giant step j
        if v is None:
            out = out.reshape(k, d, width).transpose(0, 2, 1).reshape(k * width, d)
        else:
            out = out.reshape(k * width)
        yield out[: count - pos]
        head = mul(head, jump)


def mat_stream(
    a: IntMatrix,
    u0: Sequence[int],
    m: PrimePowerModulus,
    count: int,
    n0: int = 0,
    v: Sequence[int] | None = None,
) -> np.ndarray:
    """The stream u_n = A^n u0 mod p^t for n = n0 .. n0 + count - 1 as a
    (count, d) array, or, given v, the scalars v . u_n mod p^t as a (count,)
    array: the blocks of `stream_blocks` put together under its memory
    budget, in the dtype `stream_dtype(m, d)`."""
    blocks = stream_blocks(a, u0, m, count, n0, v)
    out = np.empty((count, a.d) if v is None else count, dtype=stream_dtype(m, a.d))
    pos = 0
    for block in blocks:
        out[pos : pos + len(block)] = block
        pos += len(block)
    return out
