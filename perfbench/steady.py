"""Steadiness check: run the benchmark in two sets of ten seeds each and
compare the spreads and medians against BENCHMARK.json's bounds.

    python3 perfbench/steady.py [--workload NAME ...] [--out FILE]

Each run is `run.py --workload W --seed S --seconds <run_seconds> --trace 0`
as a subprocess; workloads are interleaved run by run so that host drift
reaches all of them alike.  Set 1 uses seeds 201-210 and set 2 seeds 211-220.
For each set and end-to-end metric it reports the median and the quartile
spread (q3 - q1) / median, which must stay within the metric's bound and
should stay below a third of it.  The two sets' medians must agree within the
bound, in either direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10  # runs per workload and set
FIRST_SEED = 201


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", type=Path, help="write the summary as JSON")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    sets, ok, seed = [], True, FIRST_SEED
    for set_index in range(2):
        samples = {w: {m: [] for m in bounds} for w in workloads}
        health = {w: {"runs": 0, "incorrect": 0, "failed": 0, "elapsed_s": []} for w in workloads}
        for _ in range(RUNS):
            for w in workloads:
                result, elapsed = run_once(w, seed, spec["run_seconds"])
                h = health[w]
                h["runs"] += 1
                h["incorrect"] += not result["correct"]
                h["failed"] += result["failed"]
                h["elapsed_s"].append(round(elapsed, 2))
                for m in bounds:
                    samples[w][m].append(result["metrics"][m]["value"])
            seed += 1
        summary = {w: {m: summarize(v) for m, v in samples[w].items()} for w in workloads}
        sets.append({"summary": summary, "health": health})
        print(f"== set {set_index + 1}")
        for w in workloads:
            h = health[w]
            ok &= h["incorrect"] == 0 and h["failed"] == 0
            print(f"{w}: runs {h['runs']} incorrect {h['incorrect']} failed ops {h['failed']} "
                  f"run time max {max(h['elapsed_s']):.1f} s")
            for m, s in summary[w].items():
                verdict = ("steady" if s["spread"] < bounds[m] / 3 else
                           "within bound" if s["spread"] <= bounds[m] else "TOO WIDE")
                ok &= verdict != "TOO WIDE"
                print(f"  {m:12s} median {s['median']:.5g} spread {s['spread']:.4f} "
                      f"(bound {bounds[m]}) {verdict}")
    print("== set 2 vs set 1")
    for w in workloads:
        for m in bounds:
            change = sets[1]["summary"][w][m]["median"] / sets[0]["summary"][w][m]["median"] - 1
            differ = abs(change) > bounds[m]
            ok &= not differ
            print(f"  {w:14s} {m:12s} {change:+.4f} (bound {bounds[m]}) {'DIFFER' if differ else 'ok'}")
    if args.out:
        args.out.write_text(json.dumps({"run_seconds": spec["run_seconds"], "sets": sets}, indent=1) + "\n")
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
