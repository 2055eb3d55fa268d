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


def fresh_modules(code: str, *args: str) -> list[str]:
    """sys.modules after running `code` in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def command_modules(tmp_path, command: str) -> list[str]:
    cfg = write_config(tmp_path, FIB_DOC)
    code = (
        "import sys\nfrom matprng.cli import main\n"
        "assert main(sys.argv[1:]) == 0"
    )
    return fresh_modules(code, command, "--config", cfg, "--out", str(tmp_path / "out"))


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
