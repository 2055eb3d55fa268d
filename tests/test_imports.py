"""Start-up budget: each CLI command imports only the layers it runs, and the
packages resolve their public names on first access.  Every check runs in a
fresh interpreter, since this process has long imported everything."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import FIB_DOC, write_config

SRC = Path(__file__).resolve().parent.parent / "src"
ANALYSIS = "matprng.analysis"


def fresh_modules(code: str, *args: str, environ: dict | None = None) -> list[str]:
    """sys.modules after running `code` in a new interpreter, with `environ`
    laid over this process's environment (a None value unsets the name)."""
    env = dict(os.environ)
    for name, value in (environ or {}).items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def command_modules(tmp_path, command: str, environ: dict | None = None) -> list[str]:
    cfg = write_config(tmp_path, FIB_DOC)
    code = (
        "import sys\nfrom matprng.cli import main\n"
        "assert main(sys.argv[1:]) == 0"
    )
    return fresh_modules(code, command, "--config", cfg, "--out", str(tmp_path / "out"), environ=environ)


def test_cli_import_loads_only_arith_and_errors():
    loaded = {m for m in fresh_modules("import matprng.cli") if m.split(".")[0] == "matprng"}
    assert loaded == {"matprng", "matprng.cli", "matprng.arith", "matprng.errors"}


@pytest.mark.parametrize("command", ["gen", "period", "validate"])
def test_light_commands_load_no_analysis_or_mpmath(command, tmp_path):
    loaded = command_modules(tmp_path, command)
    assert not [m for m in loaded if m == "mpmath" or m.startswith(("mpmath.", ANALYSIS))]


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
def test_cli_import_leaves_one_thread():
    code = "import os\nimport matprng.cli\nassert len(os.listdir('/proc/self/task')) == 1, os.listdir('/proc/self/task')"
    fresh_modules(code, environ={BLAS: None})


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
