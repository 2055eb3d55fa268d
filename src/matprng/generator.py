"""The pseudorandom stream itself: vector iteration, jump-ahead by matrix
powers, scalar sequences v A^n u, fractional points in [0,1)^d, and a
binary-stable record format for cross-checking streams between programs.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .arith import (
    IntMatrix,
    PrimePowerModulus,
    ResidueVector,
    det_exact,
    mat_pow_mod,
    mat_stream,
    mat_vec_mod,
    stream_blocks,
    vec_reduce,
)
from .errors import NotInvertibleError
from .fieldalg import Verdict, validate_theorem_hypotheses


@dataclass(frozen=True)
class GeneratorConfig:
    """Immutable generator description: matrix, modulus, start vector, and an
    optional second vector for scalar sequences.  u0 and v are held reduced
    mod p^t; `given` keeps them as given, so that `at_exponent` can reduce
    them mod a higher power of p."""

    a: IntMatrix
    m: PrimePowerModulus
    u0: ResidueVector
    v: ResidueVector | None = None
    validated: Verdict | None = None
    given: tuple[ResidueVector, ResidueVector | None] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.u0) != self.a.d:
            raise ValueError("u0 length must match the matrix dimension")
        if self.v is not None and len(self.v) != self.a.d:
            raise ValueError("v length must match the matrix dimension")
        if det_exact(self.a) % self.m.p == 0:
            raise NotInvertibleError("det A must be coprime to p")
        given = (tuple(map(int, self.u0)), None if self.v is None else tuple(map(int, self.v)))
        object.__setattr__(self, "given", given)
        object.__setattr__(self, "u0", vec_reduce(self.u0, self.m))
        if self.v is not None:
            object.__setattr__(self, "v", vec_reduce(self.v, self.m))

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


@dataclass
class GeneratorState:
    """Mutable cursor over the stream: index n and the vector u_n = A^n u_0."""

    cfg: GeneratorConfig
    n: int = 0
    u: ResidueVector = ()

    def __post_init__(self) -> None:
        if not self.u:
            self.u = self.cfg.u0


def step(state: GeneratorState) -> ResidueVector:
    """Advance the state by one step and return the new vector."""
    state.u = mat_vec_mod(state.cfg.a, state.u, state.cfg.m)
    state.n += 1
    return state.u


def jump_ahead(state: GeneratorState, k: int) -> GeneratorState:
    """State at index n + k, computed with one matrix power; the input state
    is left untouched."""
    if k < 0:
        raise ValueError("jump distance must be nonnegative")
    if k == 0:
        return GeneratorState(state.cfg, state.n, state.u)
    power = mat_pow_mod(state.cfg.a, k, state.cfg.m)
    u = mat_vec_mod(power, state.u, state.cfg.m)
    return GeneratorState(state.cfg, state.n + k, u)


def vector_sequence(cfg: GeneratorConfig, n0: int, count: int) -> np.ndarray:
    """Vectors u_n for n = n0 .. n0 + count - 1 as the rows of the stream
    kernel's (count, d) array: int64, or object holding exact ints (see
    `arith.mat_stream`)."""
    return mat_stream(cfg.a, cfg.u0, cfg.m, count, n0)


def scalar_sequence(cfg: GeneratorConfig, n0: int, count: int) -> list[int]:
    """Values v A^n u0 mod p^t for n = n0 .. n0 + count - 1."""
    return mat_stream(cfg.a, cfg.u0, cfg.m, count, n0, _scalar_vector(cfg)).tolist()


def sequence_blocks(cfg: GeneratorConfig, count: int, scalar: bool = False) -> Iterator[np.ndarray]:
    """vector_sequence(cfg, 0, count), or with `scalar` the values of
    scalar_sequence as an array, in the blocks of `arith.stream_blocks`:
    one pass over the stream that holds one block at a time."""
    return stream_blocks(cfg.a, cfg.u0, cfg.m, count, 0, _scalar_vector(cfg) if scalar else None)


def _scalar_vector(cfg: GeneratorConfig) -> ResidueVector:
    if cfg.v is None:
        raise ValueError("scalar sequences need v in the config")
    return cfg.v


@dataclass(frozen=True)
class PointSet:
    """Exact fractional points: numerators over a common denominator."""

    nums: tuple[tuple[int, ...], ...]
    den: int
    d: int

    @property
    def n(self) -> int:
        return len(self.nums)

    def floats(self) -> np.ndarray:
        """(N, d) float64 rendering; each coordinate is correctly rounded, so
        the error is below 2^-52 per coordinate."""
        return np.array([[x / self.den for x in pt] for pt in self.nums], dtype=np.float64)

    def fractions(self) -> list[tuple[Fraction, ...]]:
        return [tuple(Fraction(x, self.den) for x in pt) for pt in self.nums]


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
