"""Start-up budget: each CLI command imports only the layers it runs, and the
packages resolve their public names on first access.  Every check runs in a
fresh interpreter, since this process has long imported everything."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import test_cli
from test_cli import FIB_DOC, GOLDEN_CASES, SRC, write_config

SPANS = SRC.parent / "perfbench" / "spans.py"
ANALYSIS = "matprng.analysis"
# what the exact-integer side (config loading, validate, period and the
# exit-1 and exit-2 paths) must not import
HEAVY = ("numpy", "mpmath", ANALYSIS)
# what no CLI process may import: dataclasses costs about 10 ms to import,
# through inspect (and with it ast, dis and tokenize), and about 1 ms a class
# to build.  numpy imports inspect itself, so only the commands without
# numpy are held to the second.
DATACLASSES = ("dataclasses",)
INSPECT = ("dataclasses", "inspect")


def fresh_output(code: str, *args: str, environ: dict | None = None) -> str:
    """The standard output of `code` run in a new interpreter, with
    `environ` laid over this process's environment (a None value unsets the
    name)."""
    env = dict(os.environ)
    for name, value in (environ or {}).items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def fresh_modules(code: str, *args: str, environ: dict | None = None) -> list[str]:
    """sys.modules after running `code` in a new interpreter (see fresh_output)."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    return json.loads(fresh_output(script, *args, environ=environ).splitlines()[-1])


def command_modules(
    tmp_path, command: str, environ: dict | None = None, doc: dict = FIB_DOC, exit_code: int = 0
) -> list[str]:
    cfg = write_config(tmp_path, doc)
    code = (
        "import sys\nfrom matprng.cli import main\n"
        f"assert main(sys.argv[1:]) == {exit_code}"
    )
    return fresh_modules(code, command, "--config", cfg, "--out", str(tmp_path / "out"), environ=environ)


def heavy(loaded: list[str], names: tuple[str, ...] = HEAVY) -> list[str]:
    """The modules of `loaded` that are one of `names` or inside one."""
    return [m for m in loaded if any(m == name or m.startswith(name + ".") for name in names)]


def test_cli_import_loads_only_arith_and_errors():
    loaded = {m for m in fresh_modules("import matprng.cli") if m.split(".")[0] == "matprng"}
    assert loaded == {"matprng", "matprng.cli", "matprng.arith", "matprng.errors"}


def test_config_loading_imports_no_numpy():
    docs = [doc for _, doc, _ in GOLDEN_CASES]
    code = (
        "import json, sys\nfrom matprng.cli import load_experiment\n"
        "for doc in json.loads(sys.argv[1]):\n    load_experiment(doc)\n"
    )
    assert heavy(fresh_modules(code, json.dumps(docs))) == []


@pytest.mark.parametrize("command", test_cli.TestDeterminism.COMMANDS)
def test_no_command_loads_mpmath(command, tmp_path):
    # 30-digit rendering and the bound formulas run on the standard library
    assert heavy(command_modules(tmp_path, command), ("mpmath",)) == []


@pytest.mark.parametrize("command", test_cli.TestDeterminism.COMMANDS)
def test_no_command_loads_numpy_ma(command, tmp_path):
    # numpy.ma costs 10-14 ms to import and more at exit; np.unique without
    # return_counts imports it (numpy 2.4), and no artifact needs it
    assert heavy(command_modules(tmp_path, command), ("numpy.ma",)) == []


def test_commands_leave_few_cyclic_objects(tmp_path):
    # entry() runs main() with the cyclic GC off, for good: each command
    # must leave a small number of cyclic objects, and one that does not
    # grow with the size of its run.  The first `gen` and `report` also
    # count what their imports leave.
    code = (
        "import gc, json, sys\nfrom matprng.cli import main\n"
        "gc.collect()\ngc.disable()\nfound = []\n"
        "for cfg, command in zip(sys.argv[1::2], sys.argv[2::2]):\n"
        "    assert main([command, '--config', cfg, '--out', cfg + '.out']) == 0\n"
        "    found.append(gc.collect())\n"
        "print(json.dumps(found))\n"
    )
    runs = [(FIB_DOC, "gen"), (dict(FIB_DOC, count=10**3), "gen"), (dict(FIB_DOC, count=10**4), "gen"),
            (FIB_DOC, "report")]
    args = [
        arg for i, (doc, command) in enumerate(runs)
        for arg in (write_config(tmp_path, doc, f"cfg{i}.json"), command)
    ]
    found = json.loads(fresh_output(code, *args))
    assert max(found) < 1000, found
    assert found[1] == found[2], found


def test_bounds_module_loads_no_mpmath():
    assert heavy(fresh_modules("import matprng.analysis.bounds"), ("mpmath",)) == []


@pytest.mark.parametrize("command", ["gen", "period", "validate"])
def test_light_commands_load_no_analysis_or_mpmath(command, tmp_path):
    assert heavy(command_modules(tmp_path, command), ("mpmath", ANALYSIS)) == []


@pytest.mark.parametrize("command", ["period", "validate"])
def test_integer_commands_load_no_numpy_mpmath_or_analysis(command, tmp_path):
    assert heavy(command_modules(tmp_path, command)) == []


# The pre-flight table refuses a config before the command imports a layer.
# Beyond the first cases: one field each command needs, left out (exit 1),
# an improper pair (exit 2) for the other commands that validate, a modulus
# 3^700 > 2^1109 beyond float range (exit 1) for those that sum phases, a
# thm2 config for those that need v, and V or N below 1 (exit 1).
NEEDED = {"validate": "matrix", "period": "p", "gen": "u0", "expsum": "N_schedule",
          "discrepancy": "V", "vmvt": "vmvt", "bounds": "N_schedule", "report": "t"}
REJECTED = ["expsum", "discrepancy", "bounds", "report"]
BEYOND_FLOAT = dict(FIB_DOC, t=700)
# the commands that always sum scalar residues v . u_n, on a thm2 config,
# which has no v
NEED_V = ["expsum", "bounds", "report"]
THM2_WITHOUT_V = dict(FIB_DOC, level="thm2", v=None)
CONFIG_ERRORS = [
    ("period", dict(FIB_DOC, s_max=0), 1),  # a malformed value
    ("gen", dict(FIB_DOC, count=None, N_schedule=None), 1),  # a missing key
    ("expsum", dict(FIB_DOC, no_such_key=1), 1),  # an unknown key
    ("validate", dict(FIB_DOC, v=["0", "0"]), 2),  # improper pair
    ("period", dict(FIB_DOC, v=["0", "0"]), 2),
    *((command, dict(FIB_DOC, **{key: None}), 1) for command, key in NEEDED.items()),
    *((command, dict(FIB_DOC, v=["0", "0"]), 2) for command in REJECTED),
    *((command, BEYOND_FLOAT, 1) for command in REJECTED),
    *((command, THM2_WITHOUT_V, 1) for command in NEED_V),
    ("discrepancy", dict(FIB_DOC, V=0), 1),
    ("expsum", dict(FIB_DOC, N=0, N_schedule=None), 1),
]


@pytest.mark.parametrize("command, doc, exit_code", CONFIG_ERRORS, ids=[
    "malformed", "missing", "unknown", "validate-rejected", "period-rejected",
    *(f"{command}-without-{key}" for command, key in NEEDED.items()),
    *(f"{command}-rejected" for command in REJECTED),
    *(f"{command}-beyond-float-range" for command in REJECTED),
    *(f"{command}-thm2-without-v" for command in NEED_V),
    "discrepancy-V-0", "expsum-N-0",
])
def test_config_errors_and_rejections_load_no_numpy(command, doc, exit_code, tmp_path):
    doc = {key: value for key, value in doc.items() if value is not None}
    assert heavy(command_modules(tmp_path, command, doc=doc, exit_code=exit_code)) == []


def test_cli_import_and_config_loading_load_no_dataclasses_or_inspect():
    docs = [doc for _, doc, _ in GOLDEN_CASES]
    code = (
        "import json, sys\nfrom matprng.cli import load_experiment\n"
        "for doc in json.loads(sys.argv[1]):\n    load_experiment(doc)\n"
    )
    assert heavy(fresh_modules(code, json.dumps(docs)), INSPECT) == []


@pytest.mark.parametrize("command", test_cli.TestDeterminism.COMMANDS)
def test_no_command_loads_dataclasses(command, tmp_path):
    assert heavy(command_modules(tmp_path, command), DATACLASSES) == []


@pytest.mark.parametrize("command", ["period", "validate"])
def test_integer_commands_load_no_inspect(command, tmp_path):
    assert heavy(command_modules(tmp_path, command), INSPECT) == []


# an unknown key (exit 1) and an improper pair (exit 2); gen and vmvt run no
# validator, so they have no exit-2 path
ERROR_PATHS = [
    *((command, dict(FIB_DOC, no_such_key=1), 1) for command in test_cli.TestDeterminism.COMMANDS),
    *((command, dict(FIB_DOC, v=["0", "0"]), 2)
      for command in test_cli.TestDeterminism.COMMANDS if command not in ("gen", "vmvt")),
]


@pytest.mark.parametrize("command, doc, exit_code", ERROR_PATHS,
                         ids=[f"{command}-exit{code}" for command, _, code in ERROR_PATHS])
def test_exit_1_and_2_paths_load_no_dataclasses(command, doc, exit_code, tmp_path):
    loaded = command_modules(tmp_path, command, doc=doc, exit_code=exit_code)
    assert heavy(loaded, DATACLASSES) == []
    if "numpy" not in loaded:
        assert heavy(loaded, INSPECT) == []


def test_preflight_table_rows():
    from matprng import cli

    choices = next(a.choices for a in cli.build_parser()._actions if a.dest == "command")
    assert list(cli._COMMANDS) == list(choices) == list(NEEDED)
    fields = {name for name, _ in cli.SCHEMA.values() if name is not None}
    for command, (handler, needs, generator, rejection, phases) in cli._COMMANDS.items():
        assert callable(handler), command
        assert set(needs) <= fields, command
        assert generator in ("validated", "unvalidated", None), command
        assert rejection in ("verdict", "report", None), command
        assert phases is (command in REJECTED), command


def test_no_source_file_imports_dataclasses():
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in names, f"{path.relative_to(SRC)}:{node.lineno}"


INT64_EDGES = {2**62, 2**63}


def test_only_the_stream_kernel_spells_the_int64_edge():
    # stream.int_dtype is the one rule for int64 or exact ints: a second
    # spelling of the edge could drift from it and let int64 wrap silently
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC) == Path("matprng", "stream.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Pow, ast.LShift)):
                if not all(isinstance(x, ast.Constant) for x in (node.left, node.right)):
                    continue
                a, b = node.left.value, node.right.value
                value = a**b if isinstance(node.op, ast.Pow) else a << b
            elif isinstance(node, ast.Constant) and type(node.value) is int:
                value = node.value
            else:
                continue
            assert value not in INT64_EDGES, f"{path.relative_to(SRC)}:{node.lineno}"


@pytest.mark.parametrize("command", ["gen", "expsum"])
def test_streaming_commands_load_numpy(command, tmp_path):
    assert "numpy" in command_modules(tmp_path, command)


def test_expsum_loads_no_padic(tmp_path):
    # padic serves the full-period and double sums, which expsum does not run
    loaded = command_modules(tmp_path, "expsum")
    assert f"{ANALYSIS}.sums" in loaded
    assert heavy(loaded, ("matprng.padic",)) == []


def test_expsum_loads_no_bounds_discrepancy_or_vinogradov(tmp_path):
    loaded = set(command_modules(tmp_path, "expsum"))
    assert f"{ANALYSIS}.sums" in loaded
    for module in ("bounds", "discrepancy", "vinogradov"):
        assert f"{ANALYSIS}.{module}" not in loaded


@pytest.mark.parametrize("package", ["matprng", ANALYSIS])
def test_every_public_name_imports(package):
    # each name is the object its defining submodule holds, and dir() lists it
    code = (
        f"import importlib\nimport {package} as pkg\n"
        "for name in pkg.__all__:\n"
        f"    exec(f'from {package} import {{name}} as obj')\n"
        "    assert getattr(importlib.import_module(obj.__module__), name) is obj, name\n"
        "    assert name in dir(pkg), name\n"
    )
    fresh_modules(code)


@pytest.mark.parametrize("package", ["matprng", ANALYSIS])
def test_unknown_attribute_raises(package):
    code = (
        f"import {package} as pkg\n"
        "try:\n    pkg.no_such_name\nexcept AttributeError:\n    pass\n"
        "else:\n    raise SystemExit('no AttributeError')\n"
    )
    fresh_modules(code)


def test_submodule_import_through_package():
    loaded = fresh_modules(
        f"from {ANALYSIS} import discrepancy\n"
        "assert discrepancy.__name__ == 'matprng.analysis.discrepancy'\n"
        "from matprng import padic\nassert padic.__name__ == 'matprng.padic'\n"
    )
    assert f"{ANALYSIS}.bounds" not in loaded


@pytest.mark.parametrize("package", ["matprng", ANALYSIS])
def test_every_submodule_is_an_attribute(package):
    # after a bare `import matprng`, `matprng.padic.period_profile` resolves
    code = (
        f"import importlib, pkgutil\nimport {package} as pkg\n"
        "for info in pkgutil.iter_modules(pkg.__path__):\n"
        "    module = getattr(pkg, info.name)\n"
        f"    assert module is importlib.import_module('{package}.' + info.name), info.name\n"
    )
    fresh_modules(code)


# --- one thread: the CLI starts no BLAS worker pool ---------------------------

BLAS = "OPENBLAS_NUM_THREADS"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_streaming_command_leaves_one_thread(tmp_path):
    # gen imports numpy (and with it OpenBLAS) after the CLI set the variable
    cfg = write_config(tmp_path, FIB_DOC)
    code = (
        "import os, sys\nfrom matprng.cli import main\n"
        "assert main(sys.argv[1:]) == 0\nassert 'numpy' in sys.modules\n"
        "assert len(os.listdir('/proc/self/task')) == 1, os.listdir('/proc/self/task')"
    )
    fresh_modules(code, "gen", "--config", cfg, "--out", str(tmp_path / "out"), environ={BLAS: None})


def test_cli_import_keeps_the_users_blas_setting():
    code = f"import os\nimport matprng.cli\nassert os.environ['{BLAS}'] == '2', os.environ['{BLAS}']"
    fresh_modules(code, environ={BLAS: "2"})


def test_library_import_leaves_the_environment_alone():
    code = f"import os\nimport matprng.analysis.sums\nassert '{BLAS}' not in os.environ"
    fresh_modules(code, environ={BLAS: None})


@pytest.mark.parametrize("command", ["gen", "expsum", "bounds"])
def test_artifacts_do_not_depend_on_the_blas_setting(command, tmp_path):
    outputs = []
    for value in (None, "2"):
        run_dir = tmp_path / str(value)
        run_dir.mkdir()
        command_modules(run_dir, command, environ={BLAS: value})
        outputs.append({f.name: f.read_bytes() for f in run_dir.glob("out*")})
    assert outputs[0] == outputs[1]
    assert "out" in outputs[0]


def test_every_benchmark_wrapped_name_resolves():
    # the benchmark's span recorder wraps these functions by name: a renamed
    # or deleted one would otherwise show only in the benchmark's own runs.
    # spans.py imports only the standard library.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.INSTRUMENTED
    for module, name, _ in spans.INSTRUMENTED:
        assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"
