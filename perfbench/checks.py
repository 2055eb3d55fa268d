"""Output checks that do not trust the code under test.

Every op is checked by exit code, by cheap invariants recomputed here with
plain integer arithmetic, and, for the default seed, by digests of its
artifacts against committed ones.  A digest covers every byte except decimal
floats, which are masked: they come from libm/numpy cos and sin, whose last
bits may differ between CPUs, while ints, fractions, strings and the record
dump are exact.  Float bytes are still compared exactly between the
--threads 1 and --threads 2 runs on the same machine.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import re
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

_FLOAT = re.compile(rb"-?\d+\.\d*(?:e[-+]?\d+)?")


# --- plain integer arithmetic ------------------------------------------------


def mat_mul(a, b, mod):
    return [[sum(x * y for x, y in zip(row, col)) % mod for col in zip(*b)] for row in a]


def mat_pow(a, e, mod):
    result = [[int(i == j) % mod for j in range(len(a))] for i in range(len(a))]
    base = [[x % mod for x in row] for row in a]
    while e:
        if e & 1:
            result = mat_mul(result, base, mod)
        base = mat_mul(base, base, mod)
        e >>= 1
    return result


def stream_vector(cfg: dict, n: int) -> tuple[int, ...]:
    """u_n = A^n u0 mod p^t by repeated squaring."""
    mod = cfg["p"] ** cfg["t"]
    power = mat_pow(cfg["matrix"], n, mod)
    return tuple(sum(x * y for x, y in zip(row, cfg["u0"])) % mod for row in power)


def stream_prefix(cfg: dict, count: int) -> list[tuple[int, ...]]:
    mod = cfg["p"] ** cfg["t"]
    a, u = cfg["matrix"], tuple(x % mod for x in cfg["u0"])
    out = []
    for _ in range(count):
        out.append(u)
        u = tuple(sum(x * y for x, y in zip(row, u)) % mod for row in a)
    return out


def is_identity_mod(a, e, mod) -> bool:
    power = mat_pow(a, e, mod)
    return all(power[i][j] == int(i == j) % mod for i in range(len(a)) for j in range(len(a)))


# --- artifact digests ---------------------------------------------------------


def artifact_digest(paths: list[Path]) -> str:
    """sha256 over the artifacts, floats masked in the text ones (CSV, JSON);
    the binary record dump is hashed as it is."""
    h = hashlib.sha256()
    for path in paths:
        data = path.read_bytes()
        if path.suffix != ".bin" and b"." in data:
            data = _FLOAT.sub(b"F", data)
        h.update(data)
        h.update(b"\0")
    return h.hexdigest()


# --- invariants ---------------------------------------------------------------


def _check_taus(errors: list, a, p: int, taus: list[tuple[int, int]], what: str) -> None:
    """A^{tau_s} = I (mod p^s), and tau_s / tau_{s-1} in {1, p}."""
    prev = None
    for s, tau in taus:
        if not is_identity_mod(a, tau, p**s):
            errors.append(f"{what}: A^{tau} != I mod {p}^{s}")
        if prev is not None and tau not in (prev, p * prev):
            errors.append(f"{what}: tau_{s}/tau_{s - 1} = {tau}/{prev} not in {{1, p}}")
        prev = tau


def _check_sum_rows(errors: list, rows: list[dict], schedule: list[int], what: str) -> None:
    if [int(r["N"]) for r in rows] != schedule:
        errors.append(f"{what}: N column {[r['N'] for r in rows]} != {schedule}")
    for row in rows:
        n, abs_s = int(row["N"]), float(row["abs_S"])
        if not 0.0 <= abs_s <= n * (1 + 1e-12):
            errors.append(f"{what}: |S| = {abs_s} outside [0, N = {n}]")
        if not math.isclose(float(row["S_over_N"]), abs_s / n, rel_tol=1e-9, abs_tol=1e-15):
            errors.append(f"{what}: S_over_N != |S|/N at N = {n}")


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def star_discrepancy(points: list[tuple[int, int]], den: int) -> Fraction:
    """Exact 2-D star discrepancy of points k/den, over all anchored boxes
    with corners on point coordinates or 1 (closed and open counts)."""
    n = len(points)
    xs = sorted({x for x, _ in points} | {den})
    ys = sorted({y for _, y in points} | {den})
    px = np.array([x for x, _ in points], dtype=object)
    py = np.array([y for _, y in points], dtype=object)
    xv = np.array(xs, dtype=object)
    yv = np.array(ys, dtype=object)
    le_x = px[None, :] <= xv[:, None]
    lt_x = px[None, :] < xv[:, None]
    le_y = py[None, :] <= yv[:, None]
    lt_y = py[None, :] < yv[:, None]
    closed = le_x.astype(np.int64) @ le_y.astype(np.int64).T
    opened = lt_x.astype(np.int64) @ lt_y.astype(np.int64).T
    vol = np.multiply.outer(xv, yv) * n
    den2 = den * den
    excess = closed.astype(object) * den2 - vol
    deficit = vol - opened.astype(object) * den2
    best = max(int(excess.max()), int(deficit.max()))
    return Fraction(best, n * den2)


def diagonal_count(k: int, r: int, m: int) -> int:
    """N_{k,r}(M) for k <= r: power sums j = 1..k fix the multiset (Newton),
    so the count is the sum over multisets of (k!/prod c_i!)^2."""
    if k > r:
        raise ValueError("closed form needs k <= r")

    def partitions(n, largest):
        if n == 0:
            yield ()
            return
        for part in range(min(n, largest), 0, -1):
            for rest in partitions(n - part, part):
                yield (part,) + rest

    total = 0
    for parts in partitions(k, k):
        if len(parts) > m:
            continue
        perms = math.factorial(k)
        for c in parts:
            perms //= math.factorial(c)
        multisets = math.perm(m, len(parts))
        for c in set(parts):
            multisets //= math.factorial(parts.count(c))
        total += multisets * perms * perms
    return total


def check_gen(cfg: dict, out: Path, rng: random.Random) -> list[str]:
    errors = []
    count, d = cfg["count"], len(cfg["matrix"])
    lines = out.read_bytes().split(b"\n")
    if len(lines) != count + 2 or lines[-1] != b"":
        return [f"gen: {len(lines) - 2} rows, expected {count}"]
    picks = {0, 1, count - 1, *(rng.randrange(count) for _ in range(3))}
    for n in sorted(picks):
        row = tuple(int(x) for x in lines[n + 1].split(b","))
        if row != (n, *stream_vector(cfg, n)):
            errors.append(f"gen: row {n} = {row} differs from A^n u0")
    if "binary_out" in cfg:
        data = Path(cfg["binary_out"]).read_bytes()
        pos, values = 0, []
        while pos < len(data) and len(values) < 2 * d:
            (length,) = struct.unpack_from("<I", data, pos)
            values.append(int.from_bytes(data[pos + 4 : pos + 4 + length], "little"))
            pos += 4 + length
        flat = [x for vec in stream_prefix(cfg, 2) for x in vec]
        if values != flat[: len(values)] or len(values) != 2 * d:
            errors.append("gen: record dump does not start with u_0, u_1")
    return errors


def check_period(cfg: dict, out: Path) -> list[str]:
    errors: list[str] = []
    rows = [(int(r["s"]), int(r["tau_s"])) for r in _read_csv(out)]
    if [s for s, _ in rows] != list(range(1, cfg["s_max"] + 1)):
        errors.append(f"period: s column {[s for s, _ in rows]}")
    _check_taus(errors, cfg["matrix"], cfg["p"], rows, "period")
    return errors


def check_expsum(cfg: dict, out: Path) -> list[str]:
    errors: list[str] = []
    rows = _read_csv(out)
    _check_sum_rows(errors, rows, cfg["N_schedule"], "expsum")
    for row in rows:
        if row["method"] not in ("histogram", "direct"):
            errors.append(f"expsum: method {row['method']}")
        if not math.isclose(float(row["abs_S"]), math.hypot(float(row["re_S"]), float(row["im_S"])),
                            rel_tol=1e-9, abs_tol=1e-9):
            errors.append(f"expsum: |S| != hypot(re, im) at N = {row['N']}")
    return errors


def check_bounds(cfg: dict, out: Path) -> list[str]:
    errors: list[str] = []
    _check_sum_rows(errors, _read_csv(out), cfg["N_schedule"], "bounds")
    extras = json.loads(Path(str(out) + ".json").read_text())
    if "t_range" in cfg:
        fp = [(int(r["t"]), int(r["tau_t"])) for r in extras["full_period"]]
        if [t for t, _ in fp] != list(range(cfg["t_range"][0], cfg["t_range"][1] + 1)):
            errors.append("bounds: full_period t column")
        _check_taus(errors, cfg["matrix"], cfg["p"], fp, "bounds.full_period")
    if "proof_parameters" not in extras:  # w exists: every workload's f is irreducible mod p
        errors.append("bounds: no proof parameters")
    return errors


def check_report(cfg: dict, out: Path) -> list[str]:
    errors: list[str] = []
    doc = json.loads(out.read_text())
    if doc["validate"]["outcome"] != "accepted":
        errors.append(f"report: verdict {doc['validate']['outcome']}")
    taus = [(int(r["s"]), int(r["tau_s"])) for r in doc["period"]["rows"]]
    _check_taus(errors, cfg["matrix"], cfg["p"], taus, "report.period")
    _check_sum_rows(errors, doc["expsum"], cfg["N_schedule"], "report.expsum")
    den = cfg["p"] ** cfg["t"]
    points = stream_prefix(cfg, max(cfg["N_schedule"]))
    for row in doc["discrepancy"]:
        n = int(row["N"])
        star = star_discrepancy(points[:n], den)
        extreme = Fraction(row["exact"]["fraction"])
        if not star <= extreme <= 4 * star:
            errors.append(f"report: sandwich star <= extreme <= 4 star fails at N = {n}")
    for row in doc["vmvt"]:
        k, r, m = row["k"], row["r"], row["M"]
        if k <= r and row["count"] != diagonal_count(k, r, m):
            errors.append(f"report: N_{{{k},{r}}}({m}) = {row['count']} != {diagonal_count(k, r, m)}")
    if not all(s["nonnegative"] for s in doc["reduction_residuals"]["samples"]):
        errors.append("report: negative reduction residual")
    return errors


CHECKS = {
    "gen": check_gen,
    "period": lambda cfg, out, rng: check_period(cfg, out),
    "expsum": lambda cfg, out, rng: check_expsum(cfg, out),
    "bounds": lambda cfg, out, rng: check_bounds(cfg, out),
    "report": lambda cfg, out, rng: check_report(cfg, out),
}
