"""The config schema: one table (`cli.SCHEMA`, `cli.CONSTANTS`) gives every
key's parser and every constant's parser and default.  A malformed value
exits 1 with one `config error:` line, whatever the command."""

import contextlib
import io
import json
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from matprng import cli
from matprng.cli import ConfigError, load_experiment, main

from test_cli import FIB_DOC, write_config

README = Path(__file__).resolve().parent.parent / "README.md"


def run(tmp_path, capsys, command: str, doc: dict) -> tuple[int, str]:
    code = main([command, "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")])
    return code, capsys.readouterr().err


def assert_one_config_error(err: str) -> None:
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


class TestConstants:
    @pytest.mark.parametrize(
        "command, name, value",
        [
            ("report", "eta", None),
            ("bounds", "eta", [1]),
            ("bounds", "c0", "abc"),
            ("bounds", "d_power", 2.5),
            ("discrepancy", "ks_constant", True),
        ],
    )
    def test_malformed_constant_exits_1_with_one_line(self, command, name, value, tmp_path, capsys):
        code, err = run(tmp_path, capsys, command, dict(FIB_DOC, constants={name: value}))
        assert code == 1
        assert_one_config_error(err)
        assert not list(tmp_path.glob("out*"))

    def test_values_are_typed_and_defaults_fill_the_rest(self):
        consts = load_experiment({"constants": {"c0": "12", "eta": 2, "ks_constant": "0.5"}}).constants
        assert consts == {name: default for name, (_, default) in cli.CONSTANTS.items()} | {
            "c0": 12, "eta": 2.0, "ks_constant": 0.5
        }
        assert type(consts["c0"]) is int and type(consts["eta"]) is float
        assert load_experiment({}).constants == load_experiment({"constants": {}}).constants

    @pytest.mark.parametrize("value", ["1e400", "nan", "inf", 10**400])
    def test_real_constant_must_be_finite(self, value):
        with pytest.raises(ConfigError):
            load_experiment({"constants": {"eta": value}})


class TestExplicitValues:
    # a value the config gives is used as given, never read as "absent"

    def test_binary_out_null_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, err = run(tmp_path, capsys, "gen", dict(FIB_DOC, binary_out=None))
        assert code == 1
        assert_one_config_error(err)
        assert not (tmp_path / "None").exists()

    def test_count_zero_gives_header_only_table(self, tmp_path, capsys):
        binary = tmp_path / "stream.bin"
        code, _ = run(tmp_path, capsys, "gen", dict(FIB_DOC, count=0, binary_out=str(binary)))
        assert code == 0
        assert (tmp_path / "out").read_text().splitlines() == ["n,u0,u1"]
        assert binary.exists()

    @pytest.mark.parametrize("command", ["period", "report"])
    def test_s_max_zero_exits_1(self, command, tmp_path, capsys):
        code, err = run(tmp_path, capsys, command, dict(FIB_DOC, s_max=0))
        assert code == 1
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_empty_vmvt_gives_header_only_table(self, tmp_path, capsys):
        code, _ = run(tmp_path, capsys, "vmvt", dict(FIB_DOC, vmvt=[]))
        assert code == 0
        assert len((tmp_path / "out").read_text().splitlines()) == 1

    def test_key_s_is_unknown(self, tmp_path, capsys):
        code, err = run(tmp_path, capsys, "validate", dict(FIB_DOC, s=3))
        assert code == 1
        assert_one_config_error(err)


def test_missing_key_is_named_by_its_config_keys(tmp_path, capsys):
    doc = {k: v for k, v in FIB_DOC.items() if k != "N_schedule"}
    code, err = run(tmp_path, capsys, "expsum", doc)
    assert code == 1
    assert err == "config error: expsum needs N or N_schedule in the config\n"


class TestOneRouteToAGenerator:
    # every command checks the verdict before it builds the generator

    @pytest.mark.parametrize("command", ["validate", "period", "expsum", "report"])
    def test_rejection_comes_before_the_det_check(self, command, tmp_path, capsys):
        # X^2 - X - 3 is reducible mod 3, and 3 | det A
        doc = dict(FIB_DOC, matrix=[[0, 1], [3, 1]], level="thm2")
        assert run(tmp_path, capsys, command, doc)[0] == 2

    def test_validate_refuses_what_no_command_can_run(self, tmp_path, capsys):
        # X - 3 is irreducible mod 3, so thm2 accepts it, but det A = 3
        doc = dict(FIB_DOC, matrix=[[3]], u0=[1], v=[1], level="thm2")
        code, err = run(tmp_path, capsys, "validate", doc)
        assert code == 1
        assert err == "error: det A must be coprime to p\n"


def test_n_and_n_schedule_together_are_refused():
    with pytest.raises(ConfigError, match="either N or N_schedule"):
        load_experiment(dict(FIB_DOC, N=5))


# --- fuzzing: wrong-typed values for every key and constant of the table ------


def _numeric(text: str) -> bool:
    for convert in (int, float, Fraction):
        try:
            convert(text)
            return True
        except (ValueError, ZeroDivisionError):
            pass
    return False


TEXT = st.text(max_size=8).filter(lambda s: not _numeric(s) and s not in ("thm1", "thm2"))
LEAF = st.one_of(st.none(), st.booleans(), TEXT)
ITEM = st.one_of(LEAF, st.floats())
KINDS = {
    "null": st.none(),
    "bool": st.booleans(),
    "float": st.floats(),
    "string": TEXT,
    "list": st.lists(ITEM, min_size=1, max_size=3),
    "nested list": st.lists(st.lists(ITEM, min_size=1, max_size=3), min_size=1, max_size=3),
    "object": st.dictionaries(st.text(max_size=8), LEAF, min_size=1, max_size=3),
}
# the kinds a key or a constant takes as its right type; `comment` takes all
RIGHT_KINDS = {"scalar": {"bool"}, "binary_out": {"string"}, "comment": set(KINDS)}
RIGHT_KINDS_BY_PARSER = {cli._as_real: {"float"}}

TARGETS = [("key", key) for key in cli.SCHEMA] + [("constant", name) for name in cli.CONSTANTS]


def wrong_kinds(where: str, name: str) -> list[str]:
    if where == "key":
        right = RIGHT_KINDS.get(name, set())
    else:
        right = RIGHT_KINDS_BY_PARSER.get(cli.CONSTANTS[name][0], set())
    return sorted(set(KINDS) - right)


@pytest.mark.parametrize(
    "where, name",
    [t for t in TARGETS if wrong_kinds(*t)],
    ids=[f"{w}-{n}" for w, n in TARGETS if wrong_kinds(w, n)],
)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_wrong_typed_value_is_a_config_error(where, name, data):
    kind = data.draw(st.sampled_from(wrong_kinds(where, name)), label="kind")
    value = data.draw(KINDS[kind], label="value")
    doc = {name: value} if where == "key" else {"constants": {name: value}}
    with pytest.raises(ConfigError):
        load_experiment(doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["validate", "--config", str(path)]) == 1
    assert_one_config_error(err.getvalue())


# --- README -------------------------------------------------------------------


def readme_tables() -> dict[str, list[list[str]]]:
    """The config schema section's tables, keyed by their first header cell;
    each row is its list of cells."""
    section = README.read_text(encoding="utf-8").split("### Config schema", 1)[1].split("\n### ", 1)[0]
    tables: dict[str, list[list[str]]] = {}
    rows = None
    for line in section.splitlines():
        if not line.startswith("|"):
            rows = None
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        if rows is None:
            rows = tables[cells[0]] = []
        elif not cells[0].startswith("---"):
            rows.append(cells)
    return tables


def test_readme_lists_every_key_and_constant_with_its_default():
    tables = readme_tables()
    keys = [k for row in tables["key"] for k in re.findall(r"`([^`]+)`", row[0])]
    assert sorted(keys) == sorted(cli.SCHEMA)
    constants = {row[0].strip("`"): row[1] for row in tables["constant"]}
    assert constants == {name: repr(default) for name, (_, default) in cli.CONSTANTS.items()}
