import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matprng.analysis.sums import scalar_residues
from matprng.arith import IntMatrix, PrimePowerModulus, mat_vec_mod
from matprng.errors import NotInvertibleError
from matprng.generator import (
    GeneratorConfig,
    dump_records,
    fractional_points,
    load_records,
    vector_sequence,
)
from matprng.stream import mat_stream


@pytest.fixture
def cfg(fib) -> GeneratorConfig:
    return GeneratorConfig.create(fib, PrimePowerModulus(3, 4), (0, 1), (1, 0))


def scalars(cfg: GeneratorConfig, n0: int, count: int) -> list[int]:
    """v A^n u0 mod p^t for n = n0 .. n0 + count - 1, from the stream kernel."""
    return mat_stream(cfg.a, cfg.u0, cfg.m, count, n0, cfg.v).tolist()


class TestStep:
    def test_fibonacci_stream_mod_81(self, cfg):
        firsts = vector_sequence(cfg, 0, 12)[:, 0].tolist()
        assert firsts == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89 % 81]

    def test_identity_stream_constant(self):
        cfg = GeneratorConfig.create(
            IntMatrix.identity(2), PrimePowerModulus(5, 2), (3, 4)
        )
        assert vector_sequence(cfg, 1, 5).tolist() == [[3, 4]] * 5

    def test_step_counts(self, cfg):
        # the segment from n0 is the stream from 0 with its first n0 steps dropped
        whole = vector_sequence(cfg, 0, 12).tolist()
        for n0 in range(1, 6):
            assert vector_sequence(cfg, n0, 12 - n0).tolist() == whole[n0:]

    def test_rejects_noninvertible(self):
        with pytest.raises(NotInvertibleError):
            GeneratorConfig.create(
                IntMatrix.from_rows([[3, 0], [0, 1]]), PrimePowerModulus(3, 2), (1, 0)
            )


class TestAtExponent:
    def test_reduces_the_vectors_as_given(self, fib):
        low = GeneratorConfig.create(fib, PrimePowerModulus(3, 4), (100, -1), (1, 0))
        assert (low.u0, low.v) == ((19, 80), (1, 0))
        high = low.at_exponent(6)
        assert (high.m.modulus, high.u0, high.v) == (729, (100, 728), (1, 0))
        assert high.at_exponent(4) == low
        assert low.at_exponent(2).at_exponent(6) == high

    def test_without_v(self, fib):
        cfg = GeneratorConfig(fib, PrimePowerModulus(3, 2), (100, 0))
        assert cfg.at_exponent(5).u0 == (100, 0) and cfg.at_exponent(5).v is None


class TestJumpAhead:
    """A segment from index n0 starts at A^n0 u0, one matrix power away."""

    def test_jump_zero(self, cfg):
        assert vector_sequence(cfg, 0, 1).tolist() == [list(cfg.u0)]

    def test_jump_full_period_mod_3(self, fib):
        cfg3 = GeneratorConfig.create(fib, PrimePowerModulus(3, 1), (1, 0))
        assert vector_sequence(cfg3, 8, 1).tolist() == [list(cfg3.u0)]  # Pisano period of 3 is 8

    @given(st.integers(0, 200), st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_semigroup(self, k, j):
        # the segment from k + j equals the segment from j of the stream started at u_k
        cfg = GeneratorConfig.create(
            IntMatrix.from_rows([[0, 1], [1, 1]]), PrimePowerModulus(3, 4), (0, 1)
        )
        (u_k,) = vector_sequence(cfg, k, 1).tolist()
        from_k = GeneratorConfig.create(cfg.a, cfg.m, u_k)
        assert vector_sequence(from_k, j, 3).tolist() == vector_sequence(cfg, k + j, 3).tolist()

    @given(st.integers(0, 2000))
    @settings(max_examples=25, deadline=None)
    def test_matches_stepping(self, k):
        cfg = GeneratorConfig.create(
            IntMatrix.from_rows([[0, 1], [1, 1]]), PrimePowerModulus(3, 4), (0, 1)
        )
        u = cfg.u0
        for _ in range(k % 64):
            u = mat_vec_mod(cfg.a, u, cfg.m)
        assert vector_sequence(cfg, k % 64, 1).tolist() == [list(u)]


class TestScalarSequence:
    def test_fibonacci_values(self, fib):
        cfg = GeneratorConfig.create(fib, PrimePowerModulus(3, 4), (0, 1), (1, 0))
        assert scalars(cfg, 0, 10) == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]

    def test_zero_v(self, fib):
        cfg = GeneratorConfig.create(fib, PrimePowerModulus(3, 4), (0, 1), (0, 0))
        assert scalars(cfg, 0, 5) == [0] * 5

    def test_empty(self, cfg):
        assert scalars(cfg, 0, 0) == []

    def test_segment_from_n0(self, cfg):
        assert scalars(cfg, 3, 7) == scalars(cfg, 0, 10)[3:]

    def test_missing_v(self, fib):
        cfg = GeneratorConfig.create(fib, PrimePowerModulus(3, 4), (0, 1))
        with pytest.raises(ValueError, match="need v"):
            scalar_residues(cfg, 3)

    def test_linear_recurrence_holds(self, fib):
        # u_{n+2} = u_{n+1} + u_n (mod p^t) for both components and scalars
        cfg = GeneratorConfig.create(fib, PrimePowerModulus(3, 4), (2, 7), (5, 1))
        seq = scalars(cfg, 0, 30)
        for n in range(28):
            assert (seq[n + 2] - seq[n + 1] - seq[n]) % 81 == 0
        vecs = vector_sequence(cfg, 0, 30)
        for n in range(28):
            for i in range(2):
                assert (vecs[n + 2][i] - vecs[n + 1][i] - vecs[n][i]) % 81 == 0


class TestFractionalPoints:
    def test_definition(self, fib):
        cfg = GeneratorConfig.create(fib, PrimePowerModulus(3, 4), (40, 41))
        pts = fractional_points(cfg, 1)
        assert pts.nums[0] == (40, 41)
        assert pts.den == 81

    def test_full_period_distinct(self, fib):
        cfg = GeneratorConfig.create(fib, PrimePowerModulus(3, 3), (1, 0))
        pts = fractional_points(cfg, 72)
        assert len(set(pts.nums)) == 72  # tau_3 = 72 distinct points

    def test_period_wraps(self, fib):
        cfg = GeneratorConfig.create(fib, PrimePowerModulus(3, 3), (1, 0))
        pts = fractional_points(cfg, 73)
        assert pts.nums[72] == pts.nums[0]

    def test_full_period_shift_invariance(self, fib):
        # u_{n + tau_t} = u_n for every n across a whole period (tau_3 = 72)
        cfg = GeneratorConfig.create(fib, PrimePowerModulus(3, 3), (2, 7))
        seq = vector_sequence(cfg, 0, 144)
        for n in range(72):
            assert seq[n + 72].tolist() == seq[n].tolist()

    def test_zero_vector_point(self, fib):
        cfg = GeneratorConfig.create(fib, PrimePowerModulus(3, 2), (0, 0))
        assert fractional_points(cfg, 1).nums[0] == (0, 0)


class TestRecords:
    def test_roundtrip(self):
        values = [0, 1, 255, 256, 3**40, 2**64 - 1, 7]
        buf = io.BytesIO()
        assert dump_records(values, buf) == len(values)
        buf.seek(0)
        assert list(load_records(buf)) == values

    def test_frozen_layout(self):
        # 0 -> empty payload; 258 -> little-endian 0x02 0x01
        buf = io.BytesIO()
        dump_records([0, 258], buf)
        assert buf.getvalue() == bytes(
            [0, 0, 0, 0] + [2, 0, 0, 0, 0x02, 0x01]
        )

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            dump_records([-1], io.BytesIO())

    def test_truncation_detected(self):
        buf = io.BytesIO()
        dump_records([1000], buf)
        data = buf.getvalue()[:-1]
        with pytest.raises(ValueError):
            list(load_records(io.BytesIO(data)))

    @given(st.lists(st.integers(0, 2**80), max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, values):
        buf = io.BytesIO()
        dump_records(values, buf)
        buf.seek(0)
        assert list(load_records(buf)) == values


def dump_records_oracle(values, fh) -> int:
    """The per-record writer dump_records replaced, kept as an oracle."""
    count = 0
    for value in values:
        if value < 0:
            raise ValueError("records are nonnegative residues")
        payload = value.to_bytes((value.bit_length() + 7) // 8, "little")
        fh.write(struct.pack("<I", len(payload)))
        fh.write(payload)
        count += 1
    return count


EDGE_VALUES = [0, 1, 255, 256, 2**32 - 1, 2**63 - 1, 2**64 - 1, 2**64, 3**80]


def oracle_bytes(values) -> bytes:
    buf = io.BytesIO()
    assert dump_records_oracle(values, buf) == len(values)
    return buf.getvalue()


def dumped_bytes(values) -> tuple[int, bytes]:
    buf = io.BytesIO()
    return dump_records(values, buf), buf.getvalue()


class TestDumpRecordsAgainstOracle:
    @pytest.mark.parametrize("feed", ["list", "generator", "object_array"])
    @pytest.mark.parametrize("values", [EDGE_VALUES, EDGE_VALUES[:7], EDGE_VALUES[:1], []])
    def test_any_iterable(self, values, feed):
        fed = {
            "list": list(values),
            "generator": (x for x in values),
            "object_array": np.array(values, dtype=object),
        }[feed]
        assert dumped_bytes(fed) == (len(values), oracle_bytes(values))

    @pytest.mark.parametrize("values", [EDGE_VALUES[:6], EDGE_VALUES[:1], []])
    def test_int64_array(self, values):
        fed = np.array(values, dtype=np.int64)
        assert dumped_bytes(fed) == (len(values), oracle_bytes(values))

    def test_two_dimensional_array_in_c_order(self):
        values = np.array([[3**40, 0, 7], [256, 2**64 - 1, 1]], dtype=object)
        flat = values.ravel().tolist()
        assert dumped_bytes(values) == (6, oracle_bytes(flat))
        assert dumped_bytes(values[:, :1]) == (2, oracle_bytes([3**40, 256]))

    @pytest.mark.parametrize("seed", range(3))
    def test_random_widths(self, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 200, 500).tolist()
        values = [int(rng.integers(0, 2**62)) << b >> 62 for b in bits]
        assert dumped_bytes(values) == (500, oracle_bytes(values))
        small = rng.integers(0, 2**63 - 1, 500) >> rng.integers(0, 63, 500)
        assert dumped_bytes(small) == (500, oracle_bytes(small.tolist()))

    @pytest.mark.parametrize(
        "fed", [[5, -1, 3], (x for x in [2**70, -(2**70)]), np.array([0, -2], dtype=np.int64),
                np.array([3**80, -1], dtype=object)],
    )
    def test_rejects_negative_and_writes_nothing(self, fed):
        buf = io.BytesIO()
        with pytest.raises(ValueError, match="records are nonnegative residues"):
            dump_records(fed, buf)
        assert buf.getvalue() == b""
