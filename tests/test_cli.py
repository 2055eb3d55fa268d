import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from matprng.cli import main


FIB_DOC = {
    "p": "3",
    "t": 4,
    "matrix": [["0", "1"], ["1", "1"]],
    "u0": ["1", "0"],
    "v": ["1", "0"],
    "level": "thm1",
    "N_schedule": ["24", "216"],
    "V": 4,
    "s_max": 5,
    "count": 16,
    "vmvt": [[1, 1, 2], [2, 1, 2], [2, 2, 2]],
}


@pytest.fixture
def fib_config(tmp_path) -> str:
    path = tmp_path / "fib.json"
    path.write_text(json.dumps(FIB_DOC))
    return str(path)


def write_config(tmp_path, doc, name="cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestValidate:
    def test_accepted(self, fib_config, tmp_path, capsys):
        assert main(["validate", "--config", fib_config]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["outcome"] == "accepted"

    def test_rejected_multiple_roots(self, tmp_path, capsys):
        doc = dict(FIB_DOC, p="5")
        cfg = write_config(tmp_path, doc)
        assert main(["validate", "--config", cfg]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["reason"] == "multiple-roots-mod-p"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"p": 3,')
        assert main(["validate", "--config", str(path)]) == 1

    def test_unknown_key(self, tmp_path):
        cfg = write_config(tmp_path, dict(FIB_DOC, typo_key=1))
        assert main(["validate", "--config", cfg]) == 1

    def test_missing_config_flag(self):
        assert main(["validate"]) == 1


class TestPeriod:
    def test_table(self, fib_config, tmp_path):
        out = tmp_path / "period.csv"
        assert main(["period", "--config", fib_config, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "s,tau_s"
        assert lines[1:] == ["1,8", "2,24", "3,72", "4,216", "5,648"]
        summary = json.loads((tmp_path / "period.csv.json").read_text())
        assert summary == {"beta_star": 1, "s_star": 1, "tau_star": 8, "w": 1}

    def test_single_row(self, tmp_path):
        cfg = write_config(tmp_path, dict(FIB_DOC, s_max=1))
        out = tmp_path / "p.csv"
        main(["period", "--config", cfg, "--out", str(out)])
        assert out.read_text().splitlines()[1:] == ["1,8"]

    def test_rejected_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, dict(FIB_DOC, p="5"))
        assert main(["period", "--config", cfg]) == 2


class TestGen:
    def test_vector_rows(self, fib_config, capsys):
        assert main(["gen", "--config", fib_config]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,u0,u1"
        assert lines[1] == "0,1,0"
        assert len(lines) == 17

    def test_scalar_and_binary(self, tmp_path):
        binary = tmp_path / "stream.bin"
        doc = dict(FIB_DOC, scalar=True, binary_out=str(binary))
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "gen.csv"
        assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
        from matprng.generator import load_records

        with open(binary, "rb") as fh:
            values = list(load_records(fh))
        rows = out.read_text().splitlines()[1:]
        assert [int(r.split(",")[1]) for r in rows] == values


class TestUnwritableOutput:
    @staticmethod
    def assert_one_error_line(capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["gen", "expsum"])
    def test_out_in_missing_directory_exits_1(self, command, fib_config, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "x.csv"
        assert main([command, "--config", fib_config, "--out", str(out)]) == 1
        self.assert_one_error_line(capsys)

    def test_binary_out_in_missing_directory_exits_1(self, tmp_path, capsys):
        binary = tmp_path / "missing_dir" / "x.bin"
        cfg = write_config(tmp_path, dict(FIB_DOC, binary_out=str(binary)))
        assert main(["gen", "--config", cfg]) == 1
        self.assert_one_error_line(capsys)

    def test_binary_out_in_missing_directory_writes_no_rows(self, tmp_path, capsys):
        # gen writes its CSV as the dump goes; the dump is opened first
        cfg = write_config(tmp_path, dict(FIB_DOC, binary_out=str(tmp_path / "missing_dir" / "x.bin")))
        assert main(["gen", "--config", cfg]) == 1
        assert capsys.readouterr().out == ""
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "gen.csv")]) == 1
        assert not (tmp_path / "gen.csv").exists()


class TestConfigErrors:
    @pytest.mark.parametrize(
        "key, value",
        [("matrix", [1, 2]), ("u0", 5), ("v", 5), ("N_schedule", 5), ("boxes", 3), ("vmvt", [5])],
    )
    def test_malformed_value_exits_1_with_one_line(self, key, value, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(FIB_DOC, **{key: value}))
        assert main(["discrepancy", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["expsum", "bounds", "discrepancy", "report"])
    def test_modulus_beyond_float_range_exits_1_with_one_line(self, command, tmp_path, capsys):
        # 3^700 > 2^1109: float(p^t) overflows
        doc = {"p": 3, "t": 700, "matrix": [[0, 1], [1, 1]], "u0": [1, 0], "v": [1, 2],
               "N": 64, "V": 1, "level": "thm1"}
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "2^1024" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["expsum", "bounds", "discrepancy", "report"])
def test_modulus_near_float_limit_exits_0(command, tmp_path):
    # 2^1023 converts to float, but 2 pi x overflows for residues x above
    # about 2^1021.35, which the frequency sums meet (v = (1, -1) wraps)
    doc = {"p": 2, "t": 1023, "matrix": [[0, 1], [1, 1]], "u0": [1, 0], "v": [1, 0],
           "N": 64, "V": 1, "level": "thm1"}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out.json"
    assert main([command, "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    assert not re.search(r"\b(inf|nan)\b", out.read_text(), re.IGNORECASE)


class TestGuards:
    def test_discrepancy_point_cap_exits_3(self, tmp_path):
        doc = dict(FIB_DOC, N="5000")
        doc.pop("N_schedule")
        cfg = write_config(tmp_path, doc)
        assert main(["discrepancy", "--config", cfg]) == 3

    def test_unfactorable_group_order_exits_3_fast(self, tmp_path, capsys):
        # p - 1 = 2 * 1048583 * 1048681: two primes above the trial-division
        # limit, so the multiple of tau_1 cannot be factored
        cfg = write_config(tmp_path, dict(FIB_DOC, p="2199258138047", t=2, s_max=2))
        start = time.perf_counter()
        assert main(["period", "--config", cfg]) == 3
        assert time.perf_counter() - start < 2
        err = json.loads(capsys.readouterr().err)
        assert set(err) == {"error", "message"}
        assert err["error"] == "IterationCapExceededError"


    @pytest.mark.parametrize("command, key", [("gen", "count"), ("expsum", "N")])
    def test_stream_memory_guard_exits_3(self, command, key, tmp_path, capsys):
        doc = dict(FIB_DOC, **{key: str(10**12)})
        doc.pop("N_schedule")
        cfg = write_config(tmp_path, doc)
        start = time.perf_counter()
        assert main([command, "--config", cfg]) == 3
        assert time.perf_counter() - start < 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "StreamTooLargeError", "message": err["message"]}

    def test_full_period_guard_bounds_the_terms_summed(self, tmp_path):
        # tau_20 = 8 * 3^19 is over the 10^7 guard, but t = 20 sums tau_10 terms
        out = tmp_path / "out"
        cfg = write_config(tmp_path, dict(FIB_DOC, t_range=[14, 20]))
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
        rows = json.loads((tmp_path / "out.json").read_text())["full_period"]
        assert [(r["t"], r["tau_t"]) for r in rows] == [(t, 8 * 3 ** (t - 1)) for t in range(14, 21)]

    def test_full_period_rows_above_t_lift_u0_as_given(self, tmp_path):
        # u0 = (100, 0) is (19, 0) mod 3^4; the t = 6 row must not depend on
        # the config's own t
        rows = {}
        for t in (4, 6):
            out = tmp_path / f"t{t}"
            cfg = write_config(tmp_path, dict(FIB_DOC, t=t, u0=["100", "0"], t_range=[6, 6]), f"cfg{t}.json")
            assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
            rows[t] = json.loads((tmp_path / f"t{t}.json").read_text())["full_period"]
        assert rows[4] == rows[6]
        assert float(rows[4][0]["abs_S"]) == pytest.approx(52.1449, abs=1e-4)

    def test_vmvt_byte_guard_exits_3(self, tmp_path, capsys):
        # 8193^2 ordered pairs at 16 bytes each exceed the 2^30-byte budget
        cfg = write_config(tmp_path, dict(FIB_DOC, vmvt=[[2, 2, 8193]]))
        start = time.perf_counter()
        assert main(["vmvt", "--config", cfg]) == 3
        assert time.perf_counter() - start < 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "EnumerationTooLargeError", "message": err["message"]}

    def test_star_sweep_guard_exits_3_fast(self, tmp_path, capsys):
        # 600 points of the 3x3 stream have 568 distinct coordinates a side,
        # and 568^3 grid cells are over the 2^27 cap of the star sweep
        doc = {"p": 3, "t": 8, "matrix": [[0, 1, 0], [0, 0, 1], [1, 1, 0]], "u0": [1, 2, 3],
               "v": [1, 0, 0], "N": 600, "V": 2, "level": "thm1"}
        cfg = write_config(tmp_path, doc)
        start = time.perf_counter()
        assert main(["discrepancy", "--config", cfg]) == 3
        assert time.perf_counter() - start < 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        payload = json.loads(err)
        assert payload == {"error": "TooManyPointsError", "message": payload["message"]}


class TestRowContents:
    def test_expsum(self, fib_config, capsys):
        assert main(["expsum", "--config", fib_config]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("N,rho,abs_S,S_over_N")
        assert len(lines) == 3

    def test_vmvt_counts(self, fib_config, capsys):
        assert main(["vmvt", "--config", fib_config]) == 0
        lines = capsys.readouterr().out.splitlines()
        counts = {tuple(line.split(",")[:3]): int(line.split(",")[3]) for line in lines[1:]}
        assert counts[("1", "1", "2")] == 2
        assert counts[("2", "1", "2")] == 6
        assert counts[("2", "2", "2")] == 6

    def test_vmvt_m_one(self, tmp_path, capsys):
        # k = 70 is above numpy's 64 dimensions; M = 1 needs no enumeration
        cfg = write_config(tmp_path, dict(FIB_DOC, vmvt=[[70, 3, 1]]))
        assert main(["vmvt", "--config", cfg]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert row.split(",")[:4] == ["70", "3", "1", "1"]

    def test_discrepancy_row(self, fib_config, capsys):
        assert main(["discrepancy", "--config", fib_config]) == 0
        lines = capsys.readouterr().out.splitlines()
        row216 = next(l for l in lines[1:] if l.startswith("216,"))
        cells = row216.split(",")
        assert cells[3] == "761/6561"
        assert cells[6] == "true"

    def test_discrepancy_box_diagnostics_sidecar(self, tmp_path):
        doc = dict(FIB_DOC, N_schedule=["24"], boxes=[[["0", "1/2"], ["0", "1/3"]]])
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "disc.csv"
        assert main(["discrepancy", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text().startswith("N,d,kind,exact")
        sidecar = json.loads((tmp_path / "disc.csv.json").read_text())
        (diag,) = sidecar["box_diagnostics"]
        assert diag["N"] == 24
        (box,) = diag["boxes"]
        assert box["bounds"] == [["0", "1/2"], ["0", "1/3"]]
        assert 0 <= box["count"] <= 24

    def test_bounds_json(self, fib_config, tmp_path):
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--config", fib_config, "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["rows"]) == 2
        assert all(float(r["S_over_N"]) <= 1.0 for r in doc["rows"])

    def test_report_sections(self, fib_config, tmp_path):
        out = tmp_path / "report.json"
        assert main(["report", "--config", fib_config, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["validate"]["outcome"] == "accepted"
        assert {"period", "expsum", "discrepancy", "vmvt", "reduction_residuals"} <= set(doc)
        assert all(s["nonnegative"] for s in doc["reduction_residuals"]["samples"])


class TestDeterminism:
    COMMANDS = ["validate", "period", "gen", "expsum", "discrepancy", "vmvt", "bounds", "report"]

    def _artifacts(self, tmp_path, tag) -> dict:
        out = {}
        for name in sorted(tmp_path.glob(f"{tag}*")):
            out[name.name.replace(tag, "")] = name.read_bytes()
        return out

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_reruns_and_threads_byte_identical(self, command, fmt, tmp_path):
        doc = dict(FIB_DOC, binary_out=str(tmp_path / "run_a.bin"))
        cfg_a = write_config(tmp_path, doc, "cfg_a.json")
        runs = {}
        for tag, threads in (("run_a", 1), ("run_b", 1), ("run_c", 4)):
            doc = dict(FIB_DOC, binary_out=str(tmp_path / f"{tag}.bin"))
            cfg = write_config(tmp_path, doc, f"cfg_{tag}.json")
            code = main(
                [command, "--config", cfg, "--out", str(tmp_path / f"{tag}.out"),
                 "--threads", str(threads), "--format", fmt, "--seed", "0"]
            )
            assert code == 0
            runs[tag] = self._artifacts(tmp_path, tag)
        assert runs["run_a"] == runs["run_b"]
        assert runs["run_a"] == runs["run_c"]


# --- artifact goldens ----------------------------------------------------------

GOLDEN_DIR = Path(__file__).parent / "golden" / "cli"
# 3x3 mod 3^40: d (p^t)^2 >= 2^63, so the stream runs on exact ints
CUBIC_3_40_DOC = {
    "p": 3, "t": 40, "matrix": [[0, 1, 0], [0, 0, 1], [1, 1, 0]],
    "u0": [31415926535, 27182818284, 16180339887], "v": [2, 7, 1],
    "level": "thm1", "N_schedule": [5000, 9000], "count": 200,
}
# Fibonacci mod 2^30: int64 stream, but p^t > 2^24 so expsum sums directly
FIB_2_30_DOC = {
    "p": 2, "t": 30, "matrix": [[0, 1], [1, 1]],
    "u0": [123456789, 987654321], "v": [1, 3],
    "level": "thm1", "N_schedule": [5000, 9000], "count": 200,
}
# 3x3 mod 3^45 > 2^64: record payloads of up to 9 bytes
CUBIC_3_45_DOC = dict(CUBIC_3_40_DOC, t=45)
GOLDEN_CASES = [
    ("fib", FIB_DOC, TestDeterminism.COMMANDS),
    ("cubic_3_40", CUBIC_3_40_DOC, ["gen", "expsum"]),
    ("fib_2_30", FIB_2_30_DOC, ["gen", "expsum"]),
    ("cubic_3_40_scalar", dict(CUBIC_3_40_DOC, scalar=True), ["gen"]),
    ("fib_2_30_scalar", dict(FIB_2_30_DOC, scalar=True), ["gen"]),
]
GOLDEN_RUNS = [
    (case, doc, command, fmt)
    for case, doc, commands in GOLDEN_CASES
    for command in commands
    for fmt in ("csv", "json")
]
_FLOAT = re.compile(r"-?\d+\.\d*(?:e[-+]?\d+)?")


def cli_artifacts(tmp_path: Path, doc: dict, command: str, fmt: str) -> dict[str, str]:
    """Every file `command` writes for `--out <command>.<fmt>` (the artifact
    and any .json sidecar), keyed by file name."""
    cfg = write_config(tmp_path, doc)
    name = f"{command}.{fmt}"
    code = main([command, "--config", cfg, "--out", str(tmp_path / name), "--format", fmt])
    assert code == 0
    return {f.name: f.read_text() for f in sorted(tmp_path.glob(name + "*"))}


def assert_same_artifact(got: str, want: str) -> None:
    """Every byte outside decimal floats is equal; floats agree to 1e-12
    relative, since libm cos/sin may differ in the last bits across CPUs.
    Phase sums of up to 10^4 terms carry absolute errors near 1e-11, so
    values that cancel to almost 0 are compared absolutely."""
    assert _FLOAT.split(got) == _FLOAT.split(want)
    for g, w in zip(_FLOAT.findall(got), _FLOAT.findall(want)):
        assert math.isclose(float(g), float(w), rel_tol=1e-12, abs_tol=1e-9), (g, w)


@pytest.mark.parametrize(
    "case, doc, command, fmt", GOLDEN_RUNS,
    ids=[f"{case}-{command}-{fmt}" for case, _, command, fmt in GOLDEN_RUNS],
)
def test_cli_artifacts_match_goldens(case, doc, command, fmt, tmp_path):
    got = cli_artifacts(tmp_path, doc, command, fmt)
    want_dir = GOLDEN_DIR / case
    want = {f.name: f.read_text() for f in sorted(want_dir.glob(f"{command}.{fmt}*"))}
    assert sorted(got) == sorted(want)
    for name in want:
        assert_same_artifact(got[name], want[name])


# `gen` record dumps (binary_out), compared by SHA-256
DUMP_DIGESTS = GOLDEN_DIR / "gen_dumps.json"
DUMP_CASES = {
    "cubic_3_40": CUBIC_3_40_DOC,
    "cubic_3_45": CUBIC_3_45_DOC,
    "cubic_3_45_scalar": dict(CUBIC_3_45_DOC, scalar=True),
    "fib_2_30_scalar": dict(FIB_2_30_DOC, scalar=True),
}


def gen_dump_digest(tmp_path: Path, doc: dict) -> str:
    binary = tmp_path / "stream.bin"
    cfg = write_config(tmp_path, dict(doc, binary_out=str(binary)))
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "gen.csv")]) == 0
    return hashlib.sha256(binary.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(DUMP_CASES))
def test_gen_record_dump_matches_golden_digest(case, tmp_path):
    want = json.loads(DUMP_DIGESTS.read_text())[case]
    assert gen_dump_digest(tmp_path, DUMP_CASES[case]) == want


# --- block boundaries and memory ---------------------------------------------

BLOCK_SIZES = [1, 7, 4096, None]


@pytest.mark.parametrize("block", BLOCK_SIZES, ids=["1", "7", "4096", "default"])
def test_gen_artifacts_do_not_depend_on_the_block_size(block, tmp_path, monkeypatch):
    from matprng import arith

    if block is not None:
        monkeypatch.setattr(arith, "STREAM_BLOCK", block)
    for case, doc, command, fmt in GOLDEN_RUNS:
        if command == "gen":
            out = tmp_path / f"{case}-{fmt}"
            out.mkdir()
            assert cli_artifacts(out, doc, command, fmt) == {
                f.name: f.read_text() for f in (GOLDEN_DIR / case).glob(f"gen.{fmt}*")
            }
    digests = json.loads(DUMP_DIGESTS.read_text())
    for case, doc in DUMP_CASES.items():
        out = tmp_path / f"dump-{case}"
        out.mkdir()
        assert gen_dump_digest(out, doc) == digests[case], case


def test_gen_memory_is_bounded_by_a_block(tmp_path):
    import tracemalloc

    # 10^5 vectors of 3 exact ints below 3^40: the parent held the whole
    # stream, its rows and their CSV text at once (38 MB traced)
    cfg = write_config(tmp_path, dict(CUBIC_3_40_DOC, count=100000, binary_out=str(tmp_path / "s.bin")))
    argv = ["gen", "--config", cfg, "--out", str(tmp_path / "gen.csv")]
    small = write_config(tmp_path, dict(CUBIC_3_40_DOC, binary_out=str(tmp_path / "w.bin")), "small.json")
    assert main(["gen", "--config", small, "--out", str(tmp_path / "w.csv")]) == 0  # imports
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert (tmp_path / "gen.csv").read_text().count("\n") == 100001


if __name__ == "__main__":
    # Rewrites tests/golden/cli from the current code.  Run it only for an
    # intended output change, and record that change in CHANGES.md.
    for case, doc, command, fmt in GOLDEN_RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in cli_artifacts(Path(tmp), doc, command, fmt).items():
                target = GOLDEN_DIR / case / name
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(text, encoding="utf-8", newline="")
    digests = {}
    for case, doc in sorted(DUMP_CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            digests[case] = gen_dump_digest(Path(tmp), doc)
    DUMP_DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")


def test_cli_import_loads_no_thread_pool():
    # every command runs in one thread; a fresh `import matprng.cli` must
    # not pull in concurrent.futures (it also costs cold-start time)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = "import sys, matprng.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
