"""The pseudorandom stream itself: the generator config, segments of the
vector stream from any index n0 (the stream kernel jumps ahead by one
matrix power), fractional points in [0,1)^d, and a binary-stable record
format for cross-checking streams between programs.
"""

from __future__ import annotations

import itertools
import struct
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, NamedTuple, Sequence

from .arith import Frozen, IntMatrix, PrimePowerModulus, ResidueVector, det_exact, vec_reduce
from .errors import NotInvertibleError
from .fieldalg import Verdict, validate_theorem_hypotheses

# numpy and the stream kernel are imported by the functions that stream or
# build arrays, so that a generator config (validate, period) needs neither
if TYPE_CHECKING:
    import numpy as np


class GeneratorConfig(Frozen):
    """Immutable generator description: matrix, modulus, start vector, and an
    optional second vector for scalar sequences.  u0 and v are held reduced
    mod p^t; `given` keeps them as given, so that `at_exponent` can reduce
    them mod a higher power of p.  `given` is neither compared nor shown."""

    __slots__ = ("a", "m", "u0", "v", "validated", "given")
    _fields = __slots__[:-1]

    def __init__(
        self,
        a: IntMatrix,
        m: PrimePowerModulus,
        u0: ResidueVector,
        v: ResidueVector | None = None,
        validated: Verdict | None = None,
    ) -> None:
        if len(u0) != a.d:
            raise ValueError("u0 length must match the matrix dimension")
        if v is not None and len(v) != a.d:
            raise ValueError("v length must match the matrix dimension")
        if det_exact(a) % m.p == 0:
            raise NotInvertibleError("det A must be coprime to p")
        reduced_v = None if v is None else vec_reduce(v, m)
        self._set(a, m, vec_reduce(u0, m), reduced_v, validated)
        given = (tuple(map(int, u0)), None if v is None else tuple(map(int, v)))
        object.__setattr__(self, "given", given)

    @classmethod
    def create(
        cls,
        a: IntMatrix,
        m: PrimePowerModulus,
        u0: Sequence[int],
        v: Sequence[int] | None = None,
        level: str | None = None,
    ) -> "GeneratorConfig":
        """Build a config, optionally running the theorem-hypothesis validator
        (level "thm1" or "thm2") and storing its verdict."""
        verdict = None
        if level is not None:
            verdict = validate_theorem_hypotheses(a, tuple(u0), tuple(v) if v else None, m, level)
        return cls(a, m, tuple(int(x) for x in u0), tuple(int(x) for x in v) if v is not None else None, verdict)

    def at_exponent(self, t: int) -> "GeneratorConfig":
        """Same generator data, the vectors as given reduced modulo p^t."""
        m2 = PrimePowerModulus(self.m.p, t)
        return GeneratorConfig(self.a, m2, *self.given, self.validated)


def vector_sequence(cfg: GeneratorConfig, n0: int, count: int) -> np.ndarray:
    """Vectors u_n for n = n0 .. n0 + count - 1 as the rows of the stream
    kernel's (count, d) array: int64, or object holding exact ints (see
    `stream.mat_stream`)."""
    from .stream import mat_stream

    return mat_stream(cfg.a, cfg.u0, cfg.m, count, n0)


class PointSet(NamedTuple):
    """Exact fractional points: numerators over a common denominator."""

    nums: tuple[tuple[int, ...], ...]
    den: int
    d: int

    @property
    def n(self) -> int:
        return len(self.nums)


def fractional_points(cfg: GeneratorConfig, n_points: int) -> PointSet:
    """The points u_n / p^t in [0,1)^d for n = 0 .. N-1, kept exact."""
    if n_points < 1:
        raise ValueError("need at least one point")
    vecs = vector_sequence(cfg, 0, n_points).tolist()
    return PointSet(tuple(map(tuple, vecs)), cfg.m.modulus, cfg.a.d)


# ---------------------------------------------------------------------------
# Binary-stable streaming
# ---------------------------------------------------------------------------
#
# Record format (documented in the README): each nonnegative integer is
# written as a little-endian u32 byte length L followed by L bytes of the
# integer's little-endian magnitude; the value 0 has L = 0 and no payload.


def dump_records(values: Iterable[int] | Iterable[np.ndarray] | np.ndarray, fh: BinaryIO) -> int:
    """Write integers as length-prefixed little-endian records; returns the
    number of records written.  `values` is an int64 or object array (read
    in C order), an iterable of such arrays (blocks, written one fh.write
    each, as they come), or any iterable of ints (one fh.write)."""
    import numpy as np

    if isinstance(values, np.ndarray):
        blocks: Iterable[np.ndarray] = (values,)
    else:
        values = iter(values)
        first = next(values, None)
        if first is None:
            return 0
        blocks = itertools.chain((first,), values)
        if not isinstance(first, np.ndarray):
            blocks = (np.fromiter(blocks, dtype=object),)
    return sum(_dump_block(block.reshape(-1), fh) for block in blocks)


def _dump_block(values: np.ndarray, fh: BinaryIO) -> int:
    """dump_records of one flat array, built in numpy before one write."""
    import numpy as np

    n = values.size
    if n == 0:
        return 0
    if values.min() < 0:
        raise ValueError("records are nonnegative residues")
    top = int(values.max())
    if top < 2**64:
        payload = values.astype("<u8").view(np.uint8).reshape(n, 8)
    else:
        width = (top.bit_length() + 7) // 8
        raw = b"".join(x.to_bytes(width, "little") for x in values.tolist())
        payload = np.frombuffer(raw, dtype=np.uint8).reshape(n, width)
    # each record keeps its payload up to the last nonzero byte
    nonzero = payload != 0
    length = np.where(
        nonzero.any(axis=1), payload.shape[1] - nonzero[:, ::-1].argmax(axis=1), 0
    )
    header = length.astype("<u4").view(np.uint8).reshape(n, 4)
    records = np.concatenate((header, payload), axis=1)
    keep = np.arange(records.shape[1]) < 4 + length[:, None]
    fh.write(records[keep].tobytes())
    return n


def load_records(fh: BinaryIO) -> Iterator[int]:
    """Read back integers written by dump_records."""
    while True:
        head = fh.read(4)
        if not head:
            return
        if len(head) != 4:
            raise ValueError("truncated record header")
        (length,) = struct.unpack("<I", head)
        payload = fh.read(length)
        if len(payload) != length:
            raise ValueError("truncated record payload")
        yield int.from_bytes(payload, "little")
