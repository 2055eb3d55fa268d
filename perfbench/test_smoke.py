"""Smoke test of the benchmark at tiny sizes; no timing assertions.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from checks import diagonal_count, star_discrepancy, stream_prefix
from workloads import PARTS, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_runs_and_checks_out(trace):
    proc = run_bench("--workload", "all", "--smoke", "--seconds", "0", "--seed", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    for name, wl in result["workloads"].items():
        assert list(wl["metrics"]) == names
        if trace == "1":
            assert wl["metrics"]["trace.coverage"]["value"] >= 0.5, name


def test_single_workload_prints_one_result_line():
    proc = run_bench("--workload", "stream-order", "--smoke", "--seconds", "0", "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "report-fib", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", sorted(PARTS))
@pytest.mark.parametrize("smoke", [False, True])
def test_generated_configs_pass_the_validator(name, smoke, tmp_path, capsys):
    from matprng.cli import main

    for seed in range(4):
        cfg = make_config(PARTS[name], seed, smoke, str(tmp_path / "records.bin"))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(path)]) == 0, (name, seed, capsys.readouterr())


def test_star_discrepancy_matches_the_library():
    from matprng.analysis import exact_discrepancy
    from matprng.generator import PointSet

    cfg = make_config(PARTS["report-fib"], 1, True, "")
    pts = stream_prefix(cfg, 40)
    den = cfg["p"] ** cfg["t"]
    expected = exact_discrepancy(PointSet(tuple(pts), den, 2), kind="star").value
    assert star_discrepancy(pts, den) == expected


@pytest.mark.parametrize("k, m", [(1, 5), (2, 4), (3, 4)])
def test_diagonal_count_matches_brute_force(k, m):
    sums = {}
    for xs in product(range(1, m + 1), repeat=k):
        key = tuple(sum(x**j for x in xs) for j in range(1, k + 1))
        sums[key] = sums.get(key, 0) + 1
    assert diagonal_count(k, k, m) == sum(c * c for c in sums.values())
