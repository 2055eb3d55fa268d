"""Exact counts of the power-sum system

    x_1^j + ... + x_k^j = y_1^j + ... + y_k^j   (j = 1..r),  1 <= x_i, y_i <= M.

Ordered tuples with the same multiset have the same power sums, so the
production counter runs over the C(M+k-1, k) multisets of size k, each
weighted by its number of orderings, in numpy; a genuinely independent
nested-loop counter is kept for cross-checking.
"""

from __future__ import annotations

import sys
from itertools import product
from math import comb

import numpy as np

from ..arith import STREAM_MEMORY_BUDGET
from ..errors import ResourceGuardError
from ..stream import int_dtype

DEFAULT_ENUMERATION_GUARD = 10**8
# exact ints squared per dot product in _square_sum
_SQUARE_BLOCK = 1 << 10
# numpy's ufunc buffers, one block of _square_sum, the interpreter's objects
_OVERHEAD_BYTES = 1 << 17


def _enumeration_bytes(k: int, r: int, m: int) -> int:
    """Estimated peak allocation of vinogradov_count(k, r, m), c = min(r, k):
    per multiset, its last entry and run length (int32) and weight, and for
    c < k its c power sums and 2 entries + 16 bytes of temporaries (those
    that build a column, or the sort order, a permuted key and two flags);
    24 bytes per extended row (child count, first child, temporaries).  An
    entry is 8 bytes in int64, else 8 plus the size of the largest value,
    as stream._check_stream prices it.  Past 27 < min(k, M-1), C(M+k-1, 27)
    multisets are over budget: a huge k or M is refused before M^k forms."""
    c = min(r, k)
    rows = comb(m + k - 1, min(k, m - 1, 27))
    if 16 * rows > STREAM_MEMORY_BUDGET:
        return 16 * rows
    bound = k * m**k
    entry = 8 if int_dtype(bound) is np.int64 else 8 + sys.getsizeof(bound)
    per_row = 8 + entry if c == k else 8 + (c + 3) * entry + 16
    return rows * per_row + 24 * comb(m + k - 2, k - 1) + _OVERHEAD_BYTES


def _multisets(k: int, m: int, c: int, dtype: type):
    """Yield the multisets of size k from 1 .. M in k + 1 columns, column j
    holding those with j entries below M, as the arrays (of `dtype`) of
    their weights k!/prod(mult!) and power sums p_1 .. p_c.

    Column 0 is the all-M multiset.  A row of column j whose entries below
    M end in x has a child in column j + 1 for each y = x .. M-1, which
    trades one M for y; its weight is w (k - j) / run, run the length of
    its last run below M: an integer at every step, and w (k - j) <= k M^k."""
    last = np.ones(1, np.int32)  # the all-M row's first child is 1
    run = np.zeros(1, np.int32)
    w = np.ones(1, dtype)
    keys = [np.full(1, k * m**i, dtype) for i in range(1, c + 1)]
    for j in range(k):
        yield w, *keys
        counts = m - last
        size = int(counts.sum())
        if not size:
            return  # M = 1: no entry below M to add
        first = np.cumsum(counts) - counts
        step = np.ones(size, np.int32)  # the children's last entries, as a running sum
        step[first] = last - (m - 1)  # the block before ends in M-1
        step[0] += m - 1
        child_run = np.ones(size, np.int32)
        child_run[first] = run + 1  # only the first child repeats x
        last, run = np.cumsum(step, out=step), child_run
        w = np.repeat(w, counts)
        w *= k - j
        w //= run
        keys = [np.repeat(key, counts) + (last.astype(dtype) ** i - m**i) for i, key in enumerate(keys, 1)]
    yield w, *keys


def _square_sum(x: np.ndarray, dtype: type) -> int:
    """sum(x^2) as an exact int, given the dtype that holds it: one dot
    product in int64, else one per block of exact ints."""
    if dtype is np.int64:
        return int(np.dot(x, x))
    blocks = (x[i : i + _SQUARE_BLOCK].astype(object) for i in range(0, x.size, _SQUARE_BLOCK))
    return sum(int(np.dot(b, b)) for b in blocks)


def vinogradov_count(k: int, r: int, m: int) -> int:
    """Exact solution count: the sum of squared group weights when the
    multisets of size k from 1 .. M, weighted by their orderings, are
    grouped by their power sums.

    By Newton's identities p_1 .. p_k fix a multiset, so (p_1 .. p_c),
    c = min(r, k), groups them exactly as (p_1 .. p_r) does.  When c = k
    every group is one multiset; otherwise one np.lexsort over the c key
    columns brings each group together and np.add.reduceat sums its
    weights.  Keys, weights and group sums are below k M^k, in
    stream.int_dtype(k M^k); their squares are summed in exact ints.

    Raises the guard `multiset_bytes`, before anything is allocated, when the
    estimated peak (_enumeration_bytes) is over arith.STREAM_MEMORY_BUDGET."""
    if k < 1 or r < 1 or m < 1:
        raise ValueError("need k, r, M >= 1")
    need = _enumeration_bytes(k, r, m)
    if need > STREAM_MEMORY_BUDGET:
        raise ResourceGuardError("multiset_bytes", need, STREAM_MEMORY_BUDGET)
    c = min(r, k)
    dtype, squares = int_dtype(k * m**k), int_dtype(m ** (2 * k))  # weights sum to M^k
    if c == k:
        return sum(_square_sum(w, squares) for (w,) in _multisets(k, m, 0, dtype))
    parts = [list(part) for part in zip(*_multisets(k, m, c, dtype))]  # the weights, then p_1 .. p_c
    w, *keys = (np.concatenate(parts.pop(0)) for _ in range(c + 1))  # freeing each part as it goes
    order = np.lexsort(keys)
    new_group = np.r_[True, np.zeros(order.size - 1, dtype=bool)]
    while keys:
        key = keys.pop()[order]
        new_group[1:] |= key[1:] != key[:-1]
    return _square_sum(np.add.reduceat(w[order], np.flatnonzero(new_group)), squares)


def vinogradov_count_naive(k: int, r: int, m: int) -> int:
    """Independent brute force: iterate all ordered (x, y) tuple pairs and
    test the r equations directly.  O(M^{2k}), up to DEFAULT_ENUMERATION_GUARD; for cross-checks only."""
    if k < 1 or r < 1 or m < 1:
        raise ValueError("need k, r, M >= 1")
    if (tuples := m ** (2 * k)) > DEFAULT_ENUMERATION_GUARD:
        raise ResourceGuardError("naive_tuples", tuples, DEFAULT_ENUMERATION_GUARD)
    count = 0
    rng = range(1, m + 1)
    xs_list = [(xs, [sum(x**j for x in xs) for j in range(1, r + 1)]) for xs in product(rng, repeat=k)]
    for _, px in xs_list:
        for _, py in xs_list:
            if px == py:
                count += 1
    return count
