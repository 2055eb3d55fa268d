"""Exact counts of the power-sum system

    x_1^j + ... + x_k^j = y_1^j + ... + y_k^j   (j = 1..r),  1 <= x_i, y_i <= M.

The production counter groups the ordered tuples by their power-sum vector
in numpy; a genuinely independent nested-loop counter is kept for
cross-checking.
"""

from __future__ import annotations

from itertools import product
from math import comb

import numpy as np

from ..arith import STREAM_MEMORY_BUDGET
from ..errors import EnumerationTooLargeError

DEFAULT_ENUMERATION_GUARD = 10**8
# tuples whose higher power sums are built and grouped at once
_CHUNK_TUPLES = 1 << 12
# bytes held per ordered tuple: p_1 and its sort order, int64 each
_TUPLE_BYTES = 16


def _enumeration_bytes(k: int, r: int, m: int) -> int:
    """Estimated peak allocation of vinogradov_count(k, r, m): _TUPLE_BYTES
    per ordered tuple, plus 8 (2k + c + 4) bytes, c = min(r, k), per tuple
    of the largest chunk (np.unravel_index's k digit arrays and its working
    copy, the c key columns, the sum, sort and comparison temporaries; it
    bounds the tracemalloc peak measured up to k = 20).  A chunk holds at
    most _CHUNK_TUPLES tuples and one more p_1 group; the largest group is
    the central coefficient of (1 + x + ... + x^(M-1))^k, counted by
    inclusion-exclusion only once the tuples fit the budget, so k <= 26
    there unless M = 1."""
    tuples = m**k
    held = _TUPLE_BYTES * tuples
    if held > STREAM_MEMORY_BUDGET:
        return held
    n = (m - 1) * k // 2
    largest_group = sum((-1) ** j * comb(k, j) * comb(n - j * m + k - 1, k - 1) for j in range(n // m + 1))
    chunk = min(tuples, _CHUNK_TUPLES + largest_group)
    return held + 8 * (2 * k + min(r, k) + 4) * chunk


def vinogradov_count(k: int, r: int, m: int) -> int:
    """Exact solution count: the sum of squared group sizes when the M^k
    ordered x-tuples are grouped by their power-sum vector (sum x_i^j)_j.

    By Newton's identities p_1 .. p_k fix the multiset of a k-tuple, so the
    vector (p_1 .. p_c), c = min(r, k), groups the tuples exactly as
    (p_1 .. p_r) does, and every entry is at most k M^k: int64 under the
    guard.  Equal vectors have equal p_1, so the tuples are sorted by p_1
    and cut between p_1 values into chunks of about _CHUNK_TUPLES; each
    chunk's columns are built from its tuple indices and grouped by
    np.lexsort and run lengths.

    Raises EnumerationTooLargeError, before anything is allocated, when the
    estimated peak (_enumeration_bytes) is over arith.STREAM_MEMORY_BUDGET."""
    if k < 1 or r < 1 or m < 1:
        raise ValueError("need k, r, M >= 1")
    if m == 1:
        return 1  # the only pair of tuples is all ones
    need = _enumeration_bytes(k, r, m)
    if need > STREAM_MEMORY_BUDGET:
        raise EnumerationTooLargeError(
            f"M^k = {m**k} tuples need about {need} bytes, over the budget of {STREAM_MEMORY_BUDGET}"
        )
    powers = [np.arange(1, m + 1, dtype=np.int64) ** j for j in range(1, min(r, k) + 1)]
    p1 = powers[0]
    for _ in range(k - 1):
        p1 = np.add.outer(p1, powers[0]).ravel()  # C order of the index tuples
    order = np.argsort(p1, kind="stable")
    p1.sort()
    total = 0
    start = 0
    while start < p1.size:
        stop = int(np.searchsorted(p1, p1[min(start + _CHUNK_TUPLES, p1.size) - 1], "right"))
        digits = np.unravel_index(order[start:stop], (m,) * k)
        keys = [p1[start:stop]] + [sum(pw[i] for i in digits) for pw in powers[1:]]
        ranked = np.lexsort(keys[::-1])
        new_group = np.zeros(stop - start + 1, dtype=bool)
        new_group[[0, -1]] = True
        for key in keys:
            key = key[ranked]
            new_group[1:-1] |= key[1:] != key[:-1]
        sizes = np.diff(np.flatnonzero(new_group))
        total += int((sizes * sizes).sum())
        start = stop
    return total


def vinogradov_count_naive(k: int, r: int, m: int, guard: int = DEFAULT_ENUMERATION_GUARD) -> int:
    """Independent brute force: iterate all ordered (x, y) tuple pairs and
    test the r equations directly.  O(M^{2k}); for cross-checks only."""
    if k < 1 or r < 1 or m < 1:
        raise ValueError("need k, r, M >= 1")
    if m ** (2 * k) > guard:
        raise EnumerationTooLargeError(f"M^(2k) = {m ** (2 * k)} exceeds guard {guard}")
    count = 0
    rng = range(1, m + 1)
    xs_list = [(xs, [sum(x**j for x in xs) for j in range(1, r + 1)]) for xs in product(rng, repeat=k)]
    for _, px in xs_list:
        for _, py in xs_list:
            if px == py:
                count += 1
    return count
