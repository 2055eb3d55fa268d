import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest

from matprng.analysis.discrepancy import exact_discrepancy
from matprng.analysis.sums import double_sum_sigma
from matprng.analysis.vinogradov import vinogradov_count_naive
from matprng.arith import IntMatrix, PrimePowerModulus
from matprng.cli import main
from matprng.errors import ResourceGuardError
from matprng.generator import GeneratorConfig


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

    def test_w_is_null_where_f_splits_mod_p(self, tmp_path):
        # X^2 - X - 1 = (X - 4)(X - 8) mod 11: w has no root-based value
        out = tmp_path / "period.csv"
        assert main(["period", "--config", write_config(tmp_path, dict(FIB_DOC, p="11")), "--out", str(out)]) == 0
        assert json.loads((tmp_path / "period.csv.json").read_text())["w"] is None

    def test_each_question_about_f_is_asked_once(self, fib_config, tmp_path, monkeypatch):
        from matprng import fieldalg, padic

        calls = []
        for module, name in [(fieldalg, "is_squarefree_over_q"), (fieldalg, "irreducible_mod_p"),
                             (padic, "irreducible_mod_p")]:
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
        assert main(["period", "--config", fib_config, "--out", str(tmp_path / "period.csv")]) == 0
        assert sorted(calls) == ["irreducible_mod_p", "is_squarefree_over_q"]


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

    @pytest.mark.parametrize("scalar", [False, True])
    def test_json_and_csv_write_the_same_dump(self, scalar, tmp_path):
        dumps = {}
        for fmt in ("csv", "json"):
            binary = tmp_path / f"{fmt}.bin"
            cfg = write_config(tmp_path, dict(FIB_DOC, scalar=scalar, binary_out=str(binary)))
            out = tmp_path / f"gen.{fmt}"
            assert main(["gen", "--config", cfg, "--out", str(out), "--format", fmt]) == 0
            dumps[fmt] = binary.read_bytes()
        assert dumps["csv"] == dumps["json"] != b""

    def test_scalar_without_v_exits_1(self, tmp_path, capsys):
        doc = {k: x for k, x in FIB_DOC.items() if k != "v"}
        cfg = write_config(tmp_path, dict(doc, scalar=True))
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "gen.csv")]) == 1
        assert capsys.readouterr().err == "error: scalar sequences need v in the config\n"
        assert not (tmp_path / "gen.csv").exists()


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

    def test_binary_out_in_missing_directory_writes_no_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(FIB_DOC, binary_out=str(tmp_path / "missing_dir" / "x.bin")))
        assert main(["gen", "--config", cfg, "--format", "json"]) == 1
        assert capsys.readouterr().out == ""
        assert main(["gen", "--config", cfg, "--format", "json", "--out", str(tmp_path / "gen.json")]) == 1
        assert not (tmp_path / "gen.json").exists()


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


class TestUsage:
    COMMANDS = ["validate", "period", "gen", "expsum", "discrepancy", "vmvt", "bounds", "report"]

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["validate", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: matprng")
        assert all(command in out for command in self.COMMANDS)
        assert "--config" in out and "--format" in out

    def test_unknown_command_exits_1(self, fib_config, capsys):
        assert main(["nonesuch", "--config", fib_config]) == 1
        assert "invalid choice: 'nonesuch'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_missing_config_exits_1(self, command, capsys):
        assert main([command, "--format", "json"]) == 1
        assert "the following arguments are required: --config" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [[], ["--format", "xml", "validate"], ["validate", "--threads", "x"]])
    def test_usage_errors_exit_1(self, argv, fib_config, capsys):
        assert main(argv + ["--config", fib_config]) == 1
        assert capsys.readouterr().err.startswith("usage: matprng")

    def test_options_before_or_after_the_command(self, fib_config, tmp_path):
        before, after = tmp_path / "before.json", tmp_path / "after.json"
        assert main(["--config", fib_config, "--format", "json", "--out", str(before), "period"]) == 0
        assert main(["period", "--config", fib_config, "--format", "json", "--out", str(after)]) == 0
        assert before.read_bytes() == after.read_bytes()


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
        assert err == {"guard": "trial_division", "value": err["value"], "limit": 2**20}


    @pytest.mark.parametrize("command", ["period", "bounds"])
    def test_order_table_guard_exits_3_fast(self, command, tmp_path, capsys):
        # the benchmark's p = 317 generator with an order table 10^5 deep
        doc = dict(FIB_DOC, matrix=[[0, 1], [3, 1]], p=317, t=2, s_max=10**5)
        cfg = write_config(tmp_path, doc)
        start = time.perf_counter()
        assert main([command, "--config", cfg]) == 3
        assert time.perf_counter() - start < 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"guard": "order_digits", "value": err["value"], "limit": 4300}
        assert err["value"] > 4300

    def test_orders_past_the_int_to_str_limit_exit_3_fast(self, tmp_path, capsys):
        # tau_500 of [[7]] mod powers of 2^31 - 1 may have over 4300 digits
        doc = {"p": 2147483647, "t": 2, "matrix": [[7]], "u0": [1], "v": [1], "s_max": 500}
        out = tmp_path / "period.csv"
        start = time.perf_counter()
        assert main(["period", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 3
        assert time.perf_counter() - start < 2
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err == {"guard": "order_digits", "value": err["value"], "limit": 4300}
        assert err["value"] > 4300

    def test_deepest_admitted_order_table_prints(self, tmp_path):
        # 1717 is the deepest s_max at p = 317 that the default limit admits
        doc = dict(FIB_DOC, matrix=[[0, 1], [3, 1]], p=317, t=2, s_max=1717)
        out = tmp_path / "period.csv"
        assert main(["period", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))[1:]
        assert [int(s) for s, _ in rows] == list(range(1, 1718))
        taus = [int(tau) for _, tau in rows]
        assert all(y == 317 * x for x, y in zip(taus, taus[1:]))

    @pytest.mark.parametrize("command, key", [("gen", "count"), ("expsum", "N")])
    def test_stream_memory_guard_exits_3(self, command, key, tmp_path, capsys):
        doc = dict(FIB_DOC, **{key: str(10**12)})
        doc.pop("N_schedule")
        cfg = write_config(tmp_path, doc)
        start = time.perf_counter()
        assert main([command, "--config", cfg]) == 3
        assert time.perf_counter() - start < 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"guard": "stream_bytes", "value": err["value"], "limit": 2**30}
        assert err["value"] > 2**30

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
        # C(11585, 2) multisets at 16 bytes each exceed the 2^30-byte budget
        cfg = write_config(tmp_path, dict(FIB_DOC, vmvt=[[2, 2, 11584]]))
        start = time.perf_counter()
        assert main(["vmvt", "--config", cfg]) == 3
        assert time.perf_counter() - start < 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"guard": "multiset_bytes", "value": err["value"], "limit": 2**30}
        assert err["value"] > 2**30

    def test_vmvt_count_past_the_int_to_str_limit_exits_3(self, tmp_path, capsys):
        # the bound 2^16000 on N_{8000,1}(2) has 4817 digits, over the 4300 default
        cfg = write_config(tmp_path, dict(FIB_DOC, vmvt=[[8000, 1, 2]]))
        start = time.perf_counter()
        assert main(["vmvt", "--config", cfg]) == 3
        assert time.perf_counter() - start < 2
        out, err = capsys.readouterr()
        assert out == ""
        payload = json.loads(err)
        assert payload == {"guard": "count_digits", "value": 4817, "limit": 4300}

    def test_vmvt_count_digits_are_bounded_without_a_limit(self, tmp_path, capsys):
        # a limit of 0 converts any int; the count is still held to 4300 digits
        cfg = write_config(tmp_path, dict(FIB_DOC, vmvt=[[8000, 1, 2]]))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert main(["vmvt", "--config", cfg]) == 3
        finally:
            sys.set_int_max_str_digits(limit)
        assert json.loads(capsys.readouterr().err) == {"guard": "count_digits", "value": 4817, "limit": 4300}

    @pytest.mark.parametrize("k, code", [(1063, 0), (1064, 3)])
    def test_vmvt_digit_limit_edge(self, k, code, tmp_path, capsys):
        # at the least limit, 640 digits: 2^2126 has 640 digits, 2^2128 641
        cfg = write_config(tmp_path, dict(FIB_DOC, vmvt=[[k, 1, 2]]))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert main(["vmvt", "--config", cfg]) == code
        finally:
            sys.set_int_max_str_digits(limit)
        out = capsys.readouterr().out
        if code == 0:
            assert int(out.splitlines()[1].split(",")[3]) == math.comb(2 * k, k)

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
        assert payload == {"guard": "star_cells", "value": payload["value"], "limit": 2**27}
        assert payload["value"] > 2**27

    def test_unprintable_guard_value_is_named_by_its_bit_length(self, tmp_path, capsys):
        # a count of 4300 digits parses, and its bytes have more digits than
        # the interpreter converts to a string
        count = int("9" * 4300)
        cfg = write_config(tmp_path, dict(FIB_DOC, count=str(count)))
        assert main(["gen", "--config", cfg]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        bits = (count * 2 * 8).bit_length()
        assert json.loads(err) == {"guard": "stream_bytes", "value": f"an integer of {bits} bits", "limit": 2**30}


def _cli_guard(command: str, doc: dict):
    return command, {key: value for key, value in doc.items() if value is not None}


# Every raise site of a resource guard: its name, its limit, and the command
# that reaches it, or a library call where no command does.
GUARDS = [
    # p - 1 = 2 * 1048583 * 1048681 cannot be split by trial division to 2^20
    ("trial_division", 2**20, _cli_guard("period", dict(FIB_DOC, p="2199258138047", t=2, s_max=2))),
    ("stream_bytes", 2**30, _cli_guard("gen", dict(FIB_DOC, count=str(10**12)))),
    ("order_digits", 4300, _cli_guard("period", dict(FIB_DOC, matrix=[[0, 1], [3, 1]], p=317, t=2, s_max=10**5))),
    # X^2 + (4 + 5^70) X + 16 + 5^70: a root ratio within 5^70 of a cube
    # root of unity, so beta is unresolved at the precision cap 64
    ("w_precision", 64, _cli_guard("period", dict(
        FIB_DOC, matrix=[[0, 1], [str(-16 - 5**70), str(-4 - 5**70)]], p=5, t=2, s_max=3))),
    # t = 30 sums tau_15 = 8 * 3^14 terms
    ("full_period_terms", 10**7, _cli_guard("bounds", dict(FIB_DOC, t_range=[30, 30]))),
    ("sigma_grid", 10**8, lambda: double_sum_sigma(
        GeneratorConfig.create(IntMatrix.from_rows([[0, 1], [1, 1]]), PrimePowerModulus(3, 20), (1, 0), (1, 0)),
        n=0, s=10, r=1)),
    ("extreme_dimension", 2, lambda: exact_discrepancy([(Fraction(0),) * 3], kind="extreme")),
    ("extreme_points", 4096, _cli_guard("discrepancy", dict(FIB_DOC, N="5000", N_schedule=None))),
    # X^4 + X + 2, irreducible mod 3: the star discrepancy in 4-D
    ("star_dimension", 3, _cli_guard("discrepancy", dict(
        FIB_DOC, p=3, t=3, matrix=[[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-2, -1, 0, 0]],
        u0=[1, 0, 0, 0], v=[1, 0, 0, 0], N=8, N_schedule=None, V=1))),
    # 568^3 grid cells: see test_star_sweep_guard_exits_3_fast
    ("star_cells", 2**27, _cli_guard("discrepancy", {
        "p": 3, "t": 8, "matrix": [[0, 1, 0], [0, 0, 1], [1, 1, 0]], "u0": [1, 2, 3],
        "v": [1, 0, 0], "N": 600, "V": 2, "level": "thm1"})),
    ("multiset_bytes", 2**30, _cli_guard("vmvt", dict(FIB_DOC, vmvt=[[2, 2, 11584]]))),
    ("naive_tuples", 10**8, lambda: vinogradov_count_naive(15, 1, 10)),
    ("count_digits", 4300, _cli_guard("vmvt", dict(FIB_DOC, vmvt=[[8000, 1, 2]]))),
]


@pytest.mark.parametrize("guard, limit, trigger", GUARDS, ids=[guard for guard, *_ in GUARDS])
def test_every_guard_reports_its_name_value_and_limit(guard, limit, trigger, tmp_path, capsys):
    if callable(trigger):
        with pytest.raises(ResourceGuardError) as info:
            trigger()
        exc = info.value
        payload = exc.payload()
        assert exc.args == (exc.guard, exc.value, exc.limit) == tuple(payload.values())
        assert str(exc) == f"{exc.guard}: {exc.value}, limit {exc.limit}"
    else:
        command, doc = trigger
        out = tmp_path / "out"
        start = time.perf_counter()
        assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 3
        assert time.perf_counter() - start < 2
        assert not out.exists()
        payload = json.loads(capsys.readouterr().err)
    assert payload == {"guard": guard, "value": payload["value"], "limit": limit}
    if guard == "w_precision":
        assert payload["value"] == limit
    else:
        assert payload["value"] > limit


def test_every_guard_site_has_its_own_name():
    src = Path(__file__).resolve().parent.parent / "src"
    names = [name for path in sorted(src.rglob("*.py"))
             for name in re.findall(r'ResourceGuardError\("(\w+)"', path.read_text(encoding="utf-8"))]
    assert sorted(names) == sorted(guard for guard, *_ in GUARDS)


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


# the values computed through libm (cos, sin, log), whose last bits may differ
# across CPUs: a float under one of these keys or columns agrees to 1e-12
# relative.  Phase sums of up to 10^4 terms carry absolute errors near 1e-11,
# so values that cancel to almost 0 are compared absolutely.
LIBM_KEYS = frozenset(
    {"abs_S", "S_over_N", "re_S", "im_S", "ks_bound", "rho", "theta_t", "residual", "rho0"}
)


def _same_value(key: str | None, got, want) -> None:
    if key in LIBM_KEYS and isinstance(want, str) and _FLOAT.fullmatch(want):
        assert math.isclose(float(got), float(want), rel_tol=1e-12, abs_tol=1e-9), (key, got, want)
    else:
        assert got == want, (key, got, want)


def _same_json(key: str | None, got, want) -> None:
    """Walk two JSON documents together; a value sits under the nearest key."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want)
        for k in want:
            _same_json(k, got[k], want[k])
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want)
        for g, w in zip(got, want):
            _same_json(key, g, w)
    else:
        _same_value(key, got, want)


def assert_same_artifact(got: str, want: str) -> None:
    """Every byte outside decimal floats is equal, and every float is equal
    too unless it is a LIBM_KEYS value.  A JSON document is compared value
    by value under its keys, a CSV table cell by cell under its header."""
    assert _FLOAT.split(got) == _FLOAT.split(want)
    if want.startswith("{"):
        _same_json(None, json.loads(got), json.loads(want))
        return
    got_rows, want_rows = (list(csv.reader(io.StringIO(text))) for text in (got, want))
    assert len(got_rows) == len(want_rows)
    header = want_rows[0]
    for got_row, want_row in zip(got_rows, want_rows):
        assert len(got_row) == len(want_row) == len(header)
        for key, g, w in zip(header, got_row, want_row):
            _same_value(key, g, w)


def assert_matches_golden(got: dict[str, str], case: str, command: str, fmt: str, mask=None) -> None:
    """`got` matches the golden files, after `mask` (text to text) when given."""
    want = {f.name: f.read_text() for f in sorted((GOLDEN_DIR / case).glob(f"{command}.{fmt}*"))}
    assert sorted(got) == sorted(want), (case, command, fmt)
    for name in want:
        if mask is None:
            assert_same_artifact(got[name], want[name])
        else:
            assert_same_artifact(mask(got[name]), mask(want[name]))


@pytest.mark.parametrize(
    "case, doc, command, fmt", GOLDEN_RUNS,
    ids=[f"{case}-{command}-{fmt}" for case, _, command, fmt in GOLDEN_RUNS],
)
def test_cli_artifacts_match_goldens(case, doc, command, fmt, tmp_path):
    assert_matches_golden(cli_artifacts(tmp_path, doc, command, fmt), case, command, fmt)


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


# --- the process entry point ----------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("command", ["gen", "report"])
def test_entry_point_artifacts_match_goldens(command, tmp_path):
    # `python -m matprng.cli` runs entry(): main() with the cyclic GC off
    cfg = write_config(tmp_path, FIB_DOC)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "matprng.cli", command, "--config", cfg, "--out", str(tmp_path / f"{command}.csv")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    got = {f.name: f.read_text() for f in sorted(tmp_path.glob(f"{command}.csv*"))}
    assert_matches_golden(got, "fib", command, "csv")


def test_main_leaves_the_gc_as_it_found_it(fib_config, tmp_path):
    import gc

    frozen = gc.get_freeze_count()
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(["report", "--config", fib_config, "--out", str(tmp_path / "report.csv")]) == 0
            assert gc.isenabled() == enabled
            assert gc.get_freeze_count() == frozen
        finally:
            gc.enable()


# --- every integer path --------------------------------------------------------

# stream.int_dtype reads INT64_EDGE at each call.  At 0 every computation runs
# on exact ints; at the lower edges the stream kernel runs in several int64
# limbs on the golden moduli, and the analysis layers on exact ints sooner.
INT64_EDGES = [0, 2**20, 2**30, 2**40]


def assert_goldens(tmp_path: Path, mask=None) -> None:
    """Every GOLDEN_RUNS case matches its golden (after `mask`, when given),
    and every DUMP_CASES record dump its digest."""
    for case, doc, command, fmt in GOLDEN_RUNS:
        out = tmp_path / f"{case}-{command}-{fmt}"
        out.mkdir()
        assert_matches_golden(cli_artifacts(out, doc, command, fmt), case, command, fmt, mask)
    digests = json.loads(DUMP_DIGESTS.read_text())
    for case, doc in DUMP_CASES.items():
        out = tmp_path / f"dump-{case}"
        out.mkdir()
        assert gen_dump_digest(out, doc) == digests[case], case


@pytest.mark.parametrize("edge", INT64_EDGES, ids=["0", "2^20", "2^30", "2^40"])
def test_every_golden_on_every_integer_path(edge, tmp_path, monkeypatch):
    from matprng import stream

    monkeypatch.setattr(stream, "INT64_EDGE", edge)
    assert_goldens(tmp_path)


# --- every reference path ------------------------------------------------------

# A fast path's module constant, read at each call, sends the work it selects
# down the reference path: exp_sum counts no histogram at _HISTOGRAM_LIMIT = 0,
# and every command streams in blocks of the given size.  Every golden matches
# under each.
REFERENCE_PATHS = [
    ("analysis.sums", "_HISTOGRAM_LIMIT", 0),
    ("stream", "STREAM_BLOCK", 1),
    ("stream", "STREAM_BLOCK", 7),
    ("stream", "STREAM_BLOCK", 4096),
    ("analysis.discrepancy", "BOX_BLOCK_CAP", 1),  # the exhaustive box scan
]
# The `method` cell of `expsum` names the path exp_sum took, so without the
# histogram it reads "direct" where the goldens read "histogram": that one
# cell is masked, and every value must still match.
_METHOD = re.compile(r"\b(?:histogram|direct)\b")


@pytest.mark.parametrize(
    "module, name, value", REFERENCE_PATHS, ids=[f"{name}={value}" for _, name, value in REFERENCE_PATHS]
)
def test_every_golden_on_every_reference_path(module, name, value, tmp_path, monkeypatch):
    import importlib

    monkeypatch.setattr(importlib.import_module(f"matprng.{module}"), name, value)
    mask = (lambda text: _METHOD.sub("<method>", text)) if name == "_HISTOGRAM_LIMIT" else None
    assert_goldens(tmp_path, mask=mask)


# --- block boundaries and memory ---------------------------------------------

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
