"""Benchmark workloads: fixed generator data and sizes, seeded start vectors.
Why each workload exists is recorded in BENCHMARK.json and README.md.

A workload is a sequence of parts; a part is one generator config and the CLI
commands run on it.  The matrix, p, t and every size knob are fixed per part
because they set the amount of work.  The seed picks only u0, v and the `report --seed`.  Each
characteristic polynomial below is irreducible mod p, so any u0 and v that are
nonzero mod p form a proper pair: every generated config passes the thm1
validator and no run measures the rejection path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Part:
    name: str
    base: dict
    commands: tuple[str, ...]
    # tiny sizes for the smoke mode: small p, N <= 64, count <= 1000
    smoke: dict


@dataclass(frozen=True)
class Workload:
    name: str
    parts: tuple[Part, ...]
    # (part, command) re-run with --threads 1; its artifacts must be
    # byte-identical to the --threads 2 ones (it is also the untimed warm-up op)
    determinism_op: tuple[str, str]


FIB = [[0, 1], [1, 1]]  # X^2 - X - 1, irreducible mod 3

PARTS: dict[str, Part] = {
    part.name: part
    for part in (
        Part(
            name="report-fib",
            base={
                "matrix": FIB, "p": 3, "t": 8, "level": "thm1",
                "N_schedule": [64, 128, 256], "V": 8, "s_max": 8,
                "vmvt": [[3, 3, 40], [2, 2, 200]],
            },
            commands=("report",),
            smoke={"t": 4, "N_schedule": [16, 32, 64], "V": 2, "s_max": 4,
                   "vmvt": [[2, 2, 10]]},
        ),
        Part(
            name="stream-bigint",
            base={
                "matrix": [[0, 1, 0], [0, 0, 1], [1, 1, 0]], "p": 3, "t": 40,
                "level": "thm1", "count": 100000, "binary_out": True,
                "N_schedule": [50000, 100000],
            },
            commands=("gen", "expsum"),
            smoke={"count": 1000, "N_schedule": [32, 64]},
        ),
        Part(
            name="stream-int64",
            base={
                "matrix": FIB, "p": 3, "t": 13, "level": "thm1",
                "count": 100000, "binary_out": True,
                "N_schedule": [1000000, 4000000], "t_range": [8, 13],
            },
            commands=("gen", "expsum", "bounds"),
            smoke={"t": 6, "count": 1000, "N_schedule": [64], "t_range": [2, 3]},
        ),
        Part(
            name="orders-largep",
            base={
                "matrix": [[0, 1], [3, 1]], "p": 317, "t": 2, "level": "thm1",
                "N_schedule": [100000], "s_max": 4,
            },
            commands=("period", "bounds"),
            smoke={"p": 5, "N_schedule": [64], "s_max": 3},
        ),
    )
}


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("report-fib", (PARTS["report-fib"],), ("report-fib", "report")),
        Workload(
            "stream-order",
            (PARTS["stream-bigint"], PARTS["stream-int64"], PARTS["orders-largep"]),
            ("stream-int64", "bounds"),
        ),
    )
}


def _vector_nonzero_mod_p(rng: random.Random, d: int, p: int, mod: int) -> list[int]:
    while True:
        vec = [rng.randrange(mod) for _ in range(d)]
        if any(x % p for x in vec):
            return vec


def make_config(part: Part, seed: int, smoke: bool, binary_path: str) -> dict:
    """The part's config for this seed; binary_out, when the part dumps
    records, is set to `binary_path`."""
    doc = dict(part.base, **(part.smoke if smoke else {}))
    rng = random.Random(f"{part.name}/{seed}")
    p, t, d = doc["p"], doc["t"], len(doc["matrix"])
    doc["u0"] = _vector_nonzero_mod_p(rng, d, p, p**t)
    doc["v"] = _vector_nonzero_mod_p(rng, d, p, p**t)
    if doc.pop("binary_out", False):
        doc["binary_out"] = binary_path
    return doc


def report_seed(seed: int) -> int:
    return random.Random(f"report/{seed}").randrange(2**31)
