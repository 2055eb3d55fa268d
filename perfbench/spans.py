"""In-process span recorder around calls into matprng's layers.

`instrument(tracer)` swaps each listed function for a timing wrapper in every
loaded matprng module that refers to it (so `from .x import f` bindings are
covered too) and restores the originals on exit; nothing in src/ changes.
Spans are kept in memory as (name, start, end, parent) and summarised per
pass.  Calls from worker threads run unwrapped: the thread pools inside
exp_sum and the frequency-sum bound only call unlisted helpers.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self.intervals: dict[tuple, list[tuple[int, int]]] = defaultdict(list)
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.intervals.clear()

    def wrap(self, name, fn, count=None):
        main = threading.main_thread()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.current_thread() is not main:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1:3] = start, end
            if count is not None:
                count(self, result, end - start, *args, **kwargs)
            return result

        return wrapper

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus time covered by children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)


# --- work counters, one per instrumented function -------------------------------


def _add(key):
    def count(tr, result, dt, *args, **kwargs):
        tr.counts[key] += dt
    return count


def _exact_discrepancy(tr, rep, dt, points, kind="extreme", boxes=None):
    tr.counts["discrepancy.points"] += rep.n
    if rep.kind == "extreme" and rep.d == 2:
        tr.counts["discrepancy.extreme_2d_s"] += dt
        kx = len({pt[0] for pt in points.nums})
        ke = len({0, points.den, *(pt[0] for pt in points.nums)})
        tr.counts["discrepancy.xranges"] += kx * (kx + 1) // 2 + ke * (ke - 1) // 2
    if rep.n * points.den**rep.d >= 2**62:
        tr.counts["discrepancy.object_path_calls"] += 1


def _period_profile(tr, profile, dt, *args, **kwargs):
    tr.counts["padic.period_profile_s"] += dt
    tr.counts["padic.period_profile_calls"] += 1
    tr.counts["padic.order_steps"] += profile.taus[0]


def _vector_sequence(tr, vecs, dt, cfg, n0, count):
    tr.counts["generator.vector_sequence_s"] += dt
    tr.counts["generator.terms"] += count
    tr.intervals[(cfg.a, cfg.m.modulus, cfg.u0)].append((n0, n0 + count))


def _dump_records(tr, n, dt, values, fh):
    tr.counts["generator.dump_records_s"] += dt
    tr.counts["generator.dump_bytes"] += fh.tell()


def _scalar_residues(tr, res, dt, cfg, n_terms, n0=0):
    path = "int64" if hasattr(res, "dtype") else "bigint"
    tr.counts[f"sums.scalar_residues.{path}_s"] += dt
    tr.counts["sums.terms"] += n_terms


def _exp_sum(tr, rep, dt, *args, **kwargs):
    tr.counts[f"sums.exp_sum.{rep.method}_s"] += dt


def _ks(tr, rep, dt, cfg, n_points, *args, **kwargs):
    tr.counts["bounds.ks_s"] += dt
    tr.counts["bounds.ks_vectors"] += rep.n_vectors
    tr.counts["bounds.ks_point_terms"] += rep.n_vectors // 2 * n_points


def _vinogradov(tr, count, dt, k, r, m, *args, **kwargs):
    tr.counts["vinogradov.count_s"] += dt
    tr.counts["vinogradov.tuples"] += math.comb(m + k - 1, k)


def _validate(tr, verdict, dt, *args, **kwargs):
    tr.counts["fieldalg.validate_s"] += dt
    tr.counts["fieldalg.validate_calls"] += 1


def _render(tr, text, dt, *args, **kwargs):
    tr.counts["reports.render_s"] += dt
    tr.counts["reports.bytes"] += len(text)


# (module, function, counter); the span is named "<layer>.<function>" with the
# layer being the module's last dotted component
INSTRUMENTED = [
    ("matprng.cli", "main", None),
    ("matprng.cli", "_write", _add("cli.write_s")),
    ("matprng.fieldalg", "validate_theorem_hypotheses", _validate),
    ("matprng.generator", "vector_sequence", _vector_sequence),
    ("matprng.generator", "dump_records", _dump_records),
    ("matprng.padic", "period_profile", _period_profile),
    ("matprng.padic", "compute_w", _add("padic.compute_w_s")),
    ("matprng.analysis.sums", "scalar_residues", _scalar_residues),
    ("matprng.analysis.sums", "exp_sum", _exp_sum),
    ("matprng.analysis.sums", "full_period_exponent", _add("sums.full_period_s")),
    ("matprng.analysis.sums", "korobov_reduction_check", _add("sums.korobov_check_s")),
    ("matprng.analysis.discrepancy", "full_discrepancy_report", None),
    ("matprng.analysis.discrepancy", "exact_discrepancy", _exact_discrepancy),
    ("matprng.analysis.bounds", "koksma_szusz_bound", _ks),
    ("matprng.analysis.bounds", "theorem_envelope", _add("bounds.envelopes_s")),
    ("matprng.analysis.bounds", "discrepancy_envelope", _add("bounds.envelopes_s")),
    ("matprng.analysis.vinogradov", "vinogradov_count", _vinogradov),
    ("matprng.reports", "render_csv", _render),
    ("matprng.reports", "render_json", _render),
]
LAYERS = ("cli", "fieldalg", "generator", "padic", "sums", "discrepancy", "bounds", "vinogradov", "reports")


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every INSTRUMENTED function for the duration of the block."""
    for module, _, _ in INSTRUMENTED:
        importlib.import_module(module)
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "matprng"]
    undo = []
    for module, fname, count in INSTRUMENTED:
        orig = getattr(sys.modules[module], fname)
        wrapped = tracer.wrap(f"{module.rsplit('.', 1)[-1]}.{fname}", orig, count)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)
                    undo.append((mod, attr, orig))
    try:
        yield tracer
    finally:
        for mod, attr, orig in reversed(undo):
            setattr(mod, attr, orig)


def distinct_indices(intervals: list[tuple[int, int]]) -> int:
    total, reach = 0, None
    for lo, hi in sorted(intervals):
        if reach is not None and lo < reach:
            lo = reach
        if hi > lo:
            total += hi - lo
        reach = hi if reach is None else max(reach, hi)
    return total


def pass_metrics(tracer: Tracer, commands: list[str], command_walls: list[float],
                 names: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (one call of each op); a
    layer the pass never entered reads 0."""
    m = {name: 0.0 for name in names}
    m.update(tracer.counts)
    selfs = tracer.self_times()
    wall = tracer.total("cli.main")
    for layer in LAYERS[1:]:
        m[f"self.{layer}_s"] = sum(v for k, v in selfs.items() if k.split(".")[0] == layer)
    m["cli.self_s"] = selfs.get("cli.main", 0.0)
    m["trace.coverage"] = 1.0 - m["cli.self_s"] / wall
    for cmd, dt in zip(commands, command_walls):
        m[f"cli.{cmd}_s"] += dt
    terms = m["generator.terms"]
    if terms:
        m["generator.terms_per_s"] = terms / m["generator.vector_sequence_s"]
        m["generator.reuse_ratio"] = sum(distinct_indices(iv) for iv in tracer.intervals.values()) / terms
    residue_s = m["sums.scalar_residues.int64_s"] + m["sums.scalar_residues.bigint_s"]
    if residue_s:
        m["sums.terms_per_s"] = m["sums.terms"] / residue_s
    return m
