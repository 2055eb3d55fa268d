"""Layered benchmark of the matprng CLI.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--smoke]

One client in a closed loop: each CLI command is a fresh
`python -m matprng.cli <cmd> --threads 2` subprocess started after the
previous one returned; a pass runs the commands of every part of the workload
once, and passes repeat for --seconds of wall time (a pass starts only if it
is expected to end within them).  With --trace 0 the last stdout line carries
the end-to-end metrics of BENCHMARK.json (medians over passes); with
--trace 1 the same commands run in-process through
`matprng.cli.main`, an untraced and a traced pass in turn (which of them
runs first alternates from pass to pass), and the line
carries the per-layer metrics.  Every op is checked (see checks.py); any
failure counts in "failed" and makes "correct" false.

Warm-up policy: before timing, each run executes the workload's determinism
op once with --threads 1 (this also fills the page and bytecode caches); no
pass inside the window is discarded.  Set-up probes and the host calibration
loop run between passes, so that they sample the same host phases as the
passes do.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import CHECKS, artifact_digest
from workloads import WORKLOADS, Part, Workload, make_config, report_seed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
SPANS_OUT = ROOT / ".perfbench_work" / "spans.json"  # spans of the last --trace 1 run
DEFAULT_SEED = 0
THREADS = 2
SETUP_PROBES = 9  # spread over the window, one after a pass at most
IMPORT_PROBES = 5
OP_TIMEOUT_S = 150
SETUP_PROBE = (
    "import json, pathlib, sys\n"
    "from matprng.cli import load_experiment\n"
    "for path in sys.argv[1:]:\n"
    "    load_experiment(json.loads(pathlib.Path(path).read_text()))\n"
)


def calibration_loop() -> float:
    """Time a fixed pure-Python loop; its samples show host drift."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass
class Config:
    """One part's generated config inside a run, and its artifact digests."""
    part: Part
    doc: dict
    path: Path
    expected: dict | None  # committed digests; None when the seed has none
    digests: dict[str, str] = field(default_factory=dict)


@dataclass
class Op:
    config: Config
    cmd: str
    code: int
    wall: float
    artifacts: list[Path]
    cpu: float = 0.0
    rss_mb: float = 0.0
    error: str = ""

    @property
    def key(self) -> str:
        return f"{self.config.part.name}.{self.cmd}"


@dataclass
class Run:
    wl: Workload
    seed: int
    smoke: bool
    record: bool = False
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    host: list[float] = field(default_factory=list)  # calibration loop samples

    def __post_init__(self) -> None:
        self.work = ROOT / ".perfbench_work" / f"{self.wl.name}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(self.work))
        self.rng = random.Random(f"checks/{self.seed}")
        committed = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        self.configs = []
        for part in self.wl.parts:
            doc = make_config(part, self.seed, self.smoke, str(self.work / f"{part.name}-records.bin"))
            path = self.work / f"{part.name}.json"
            path.write_text(json.dumps(doc))
            expected = committed.get(self.digest_key(part), {}) if self.seed == DEFAULT_SEED else None
            self.configs.append(Config(part, doc, path, expected))
        self.ops = [(config, cmd) for config in self.configs for cmd in config.part.commands]

    def digest_key(self, part: Part) -> str:
        return f"{part.name}/smoke" if self.smoke else part.name

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    # -- ops ---------------------------------------------------------------

    def argv(self, config: Config, cmd: str, threads: int, tag: str) -> tuple[list[str], list[Path]]:
        out = self.work / f"{tag}-{config.part.name}-{cmd}.out"
        argv = [cmd, "--config", str(config.path), "--out", str(out), "--threads", str(threads)]
        if cmd == "report":
            argv += ["--seed", str(report_seed(self.seed))]
        artifacts = [out, Path(f"{out}.json")] if cmd in ("period", "bounds") else [out]
        if cmd == "gen" and "binary_out" in config.doc:
            artifacts.append(Path(config.doc["binary_out"]))
        return argv, artifacts

    def spawn(self, argv: list[str], stderr) -> tuple[int, float, object]:
        """Run a subprocess to its end: (exit code, wall time, rusage).  wait4
        returns the moment it exits; subprocess.run with a timeout polls
        every 50 ms at most, which would show in the short set-up probes."""
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=subprocess.DEVNULL, stderr=stderr)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage

    def subprocess_op(self, config: Config, cmd: str, threads: int, tag: str = "p") -> Op:
        argv, artifacts = self.argv(config, cmd, threads, tag)
        stderr = self.work / "stderr.txt"
        with stderr.open("wb") as err:
            code, wall, usage = self.spawn([sys.executable, "-m", "matprng.cli", *argv], err)
        op = Op(config, cmd, code, wall, artifacts,
                cpu=usage.ru_utime + usage.ru_stime, rss_mb=usage.ru_maxrss / 1024)
        if op.code != 0:
            op.error = stderr.read_text(errors="replace")[-500:]
        return op

    def inprocess_op(self, config: Config, cmd: str, threads: int, tag: str = "p") -> Op:
        argv, artifacts = self.argv(config, cmd, threads, tag)
        cli = sys.modules["matprng.cli"]
        start = time.perf_counter()
        try:
            code = cli.main(argv)
            error = ""
        except Exception as exc:  # an op that raises is a failed op, not a crash
            code, error = -1, repr(exc)
        return Op(config, cmd, code, time.perf_counter() - start, artifacts, error=error)

    def setup_probe(self) -> float:
        code, wall, _ = self.spawn([sys.executable, "-c", SETUP_PROBE, *(str(c.path) for c in self.configs)],
                                   subprocess.DEVNULL)
        self.attempted += 1
        if code != 0:
            self.fail(f"setup probe exited {code}")
        return wall

    def import_probe(self) -> float:
        """`import matprng.cli` timed inside a fresh interpreter: the part of
        set-up that the package itself decides."""
        probe = "import time; t = time.perf_counter(); import matprng.cli; print(time.perf_counter() - t)"
        proc = subprocess.run([sys.executable, "-c", probe], cwd=self.work, env=self.env,
                              capture_output=True, text=True, timeout=OP_TIMEOUT_S)
        self.attempted += 1
        if proc.returncode != 0:
            self.fail(f"import probe exited {proc.returncode}")
            return 0.0
        return float(proc.stdout)

    # -- checks ------------------------------------------------------------

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def check(self, op: Op, reference: Op | None = None) -> None:
        """Exit code, invariants and, for the default seed, digests; the
        determinism op must also equal the --threads 1 reference byte for byte."""
        self.attempted += 1
        if op.code != 0:
            return self.fail(f"{op.key}: exit {op.code} {op.error.strip()}")
        config = op.config
        try:
            errors = CHECKS[op.cmd](config.doc, op.artifacts[0], self.rng)
            if reference is not None and op.key == reference.key and reference.code == 0:
                if any(a.read_bytes() != b.read_bytes() for a, b in zip(reference.artifacts, op.artifacts)):
                    errors.append(f"{op.key}: --threads 1 and --threads {THREADS} artifacts differ")
            digest = artifact_digest(op.artifacts) if config.expected is not None else ""
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors, digest = [f"{op.key}: unreadable output: {exc!r}"], ""
        config.digests.setdefault(op.cmd, digest)
        if config.expected is not None and not self.record and config.expected.get(op.cmd) != digest:
            errors.append(f"{op.key}: artifact digest {digest[:12]} != committed "
                          f"{str(config.expected.get(op.cmd))[:12]}")
        if errors:
            self.fail("; ".join(errors))

    def reference_op(self, run_op) -> Op:
        """The determinism op at --threads 1, checked, with its artifacts
        moved aside so that later passes do not overwrite them."""
        part, cmd = self.wl.determinism_op
        op = run_op(next(c for c in self.configs if c.part.name == part), cmd, 1, "t1")
        self.check(op)
        kept = []
        for path in op.artifacts:
            target = path.with_name("ref-" + path.name)
            if path.exists():
                path.replace(target)
            kept.append(target)
        op.artifacts = kept
        return op

    # -- the measurement window ----------------------------------------------

    def window(self, seconds: float, run_pass, between=None) -> list:
        """Repeat passes for `seconds` of wall time; a pass starts only if
        the previous one, run again, would end within them (the first pass
        always runs).  After each pass the calibration loop runs twice, then
        `between(elapsed)`."""
        passes, start, last = [], time.perf_counter(), 0.0
        while not passes or time.perf_counter() - start + last <= seconds:
            begin = time.perf_counter()
            passes.append(run_pass())
            self.host.extend(calibration_loop() for _ in range(2))
            if between is not None:
                between(time.perf_counter() - start)
            last = time.perf_counter() - begin
        return passes


# --- trace 0: subprocesses, end-to-end metrics -------------------------------------


def measure_end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    reference = run.reference_op(run.subprocess_op)
    setup = []

    def one_pass():
        ops = [run.subprocess_op(config, cmd, THREADS) for config, cmd in run.ops]
        for op in ops:
            run.check(op, reference)
        return ops

    def probe_setup(elapsed):
        if elapsed >= len(setup) * seconds / SETUP_PROBES:
            setup.append(run.setup_probe())

    passes = run.window(seconds, one_pass, probe_setup)
    setup.extend(run.setup_probe() for _ in range(SETUP_PROBES - len(setup)))
    series = {
        "wall_s": [sum(op.wall for op in ops) for ops in passes],
        "setup_s": setup,
        "cpu_s": [sum(op.cpu for op in ops) for ops in passes],
        "peak_rss_mb": [max(op.rss_mb for op in ops) for ops in passes],
        "ops_failed_share": [run.failed / run.attempted],
    }
    for i, op in enumerate(passes[0]):
        series[f"{op.key}_s"] = [ops[i].wall for ops in passes]
    values = {name: statistics.median(v) for name, v in series.items()}
    values["peak_rss_mb"] = max(series["peak_rss_mb"])
    return values, series


# --- trace 1: in-process, per-layer metrics -------------------------------------------


def measure_per_layer(run: Run, seconds: float, names: list[str]) -> tuple[dict, dict]:
    from spans import Tracer, instrument, pass_metrics

    wl = run.wl
    import_s = [run.import_probe() for _ in range(IMPORT_PROBES)]
    sys.path.insert(0, str(SRC))
    import matprng.cli  # noqa: F401

    reference = run.reference_op(run.inprocess_op)
    tracer = Tracer()
    overheads, per_pass, spans = [], [], []

    def checked(ops):  # both sides write the same files: check before the other side runs
        for op in ops:
            run.check(op, reference)
        return ops

    def plain_pass():
        return checked([run.inprocess_op(config, cmd, THREADS) for config, cmd in run.ops])

    def traced_pass():
        tracer.reset()
        with instrument(tracer):
            ops = [run.inprocess_op(config, cmd, THREADS) for config, cmd in run.ops]
        return checked(ops)

    def one_pass():
        # the side that runs second finds warm caches and the first side's
        # output files; alternating the order cancels that in the median
        if len(overheads) % 2 == 0:
            plain, traced = plain_pass(), traced_pass()
        else:
            traced, plain = traced_pass(), plain_pass()
        overheads.append(sum(op.wall for op in traced) - sum(op.wall for op in plain))
        per_pass.append(pass_metrics(tracer, [op.cmd for op in traced], [op.wall for op in traced], names))
        spans.append([list(span) for span in tracer.spans])
        return traced

    run.window(seconds, one_pass)
    # spans stay in memory during the window and are written out once here
    SPANS_OUT.write_text(json.dumps({
        "workload": wl.name, "seed": run.seed, "fields": ["name", "start_s", "end_s", "parent"],
        "passes": spans,
    }) + "\n")
    series = {name: [m[name] for m in per_pass] for name in names}
    series["cli.import_s"] = import_s
    series["trace.overhead_s"] = overheads
    values = {name: statistics.median(v) for name, v in series.items()}
    return values, series


# --- entry point ---------------------------------------------------------------------------


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 record: bool = False) -> tuple[dict, Run]:
    spec = benchmark_spec()
    metrics = spec["per_layer" if trace else "end_to_end"]
    run = Run(WORKLOADS[name], seed, smoke, record)
    try:
        run.host.extend(calibration_loop() for _ in range(5))
        if trace:
            values, series = measure_per_layer(run, seconds, [m["name"] for m in metrics])
        else:
            values, series = measure_end_to_end(run, seconds)
    finally:
        run.close()
    series["host.calib_s"] = run.host
    values["host.calib_s"] = statistics.median(run.host)
    print(f"# {name} seed={seed} trace={int(trace)}")
    units = {m["name"]: m["unit"] for m in metrics}
    for metric, samples in series.items():
        q1, med, q3 = quartiles(samples)
        print(f"{metric:34s} {values[metric]:14.6g} {units.get(metric, 's' if metric.endswith('_s') else '1'):6s}"
              f" median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  min {min(samples):.6g}  n {len(samples)}")
    for error in run.errors[:10]:
        print(f"FAILED {error}", file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    return result, run


def record_digests() -> None:
    """Write the default-seed digests of every op, at full and smoke size."""
    digests = {}
    for name in WORKLOADS:
        for smoke in (False, True):
            _, run = run_workload(name, DEFAULT_SEED, 0, trace=False, smoke=smoke, record=True)
            if run.failed:
                sys.exit(f"{name}: ops failed; digests not written")
            for config in run.configs:
                digests[run.digest_key(config.part)] = config.digests
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes: small p, N <= 64, count <= 1000")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from the current src/ at the default seed")
    args = parser.parse_args(argv)
    if not (SRC / "matprng" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no matprng sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests()
        return 0
    seconds = benchmark_spec()["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name], _ = run_workload(name, args.seed, seconds, bool(args.trace), args.smoke)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
