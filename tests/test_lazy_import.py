"""The package loads its submodules on first use.

Each test runs in a fresh interpreter, since this process has long since
imported every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run(code: str):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


_LOADED = "sorted(m for m in sys.modules if m.startswith('loopforms.'))"

# the standard modules that defining a dataclass loads: value types are
# Records, so a request loads neither
_CODEGEN = "sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules)"


def _request(argv: list[str]):
    code = (
        "import contextlib, io, json, sys\n"
        "from loopforms import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        f"print(json.dumps([code, {_LOADED}, {_CODEGEN}]))\n"
    )
    return _run(code)


def test_import_loads_no_submodule():
    assert _run(f"import json, sys, loopforms\nprint(json.dumps({_LOADED}))") == []


def test_grade_loads_only_the_modules_it_uses():
    code, loaded, codegen = _request(["grade", "--type", "A2"])
    assert code == 0
    assert loaded == [
        "loopforms.algebra",
        "loopforms.chevalley",
        "loopforms.cli",
        "loopforms.cyclo",
        "loopforms.linalg",
        "loopforms.record",
    ]
    assert codegen == []


def test_classify_loads_no_code_generator():
    code, loaded, codegen = _request(["classify", "--type", "A2"])
    assert code == 0
    assert "loopforms.classify" in loaded
    assert codegen == []


def test_every_public_name_resolves_to_its_definition():
    code = (
        "import importlib, json, loopforms\n"
        "wrong = [name for name in loopforms.__all__\n"
        "         if getattr(loopforms, name) is not getattr(\n"
        "             importlib.import_module('loopforms.' + loopforms._SOURCES[name]), name)]\n"
        "print(json.dumps([len(loopforms.__all__), wrong]))\n"
    )
    count, wrong = _run(code)
    assert count == 53
    assert wrong == []


def test_star_import_binds_every_public_name():
    code = (
        "import json, loopforms\n"
        "namespace = {}\n"
        "exec('from loopforms import *', namespace)\n"
        "print(json.dumps([name for name in loopforms.__all__ if name not in namespace]))\n"
    )
    assert _run(code) == []


def test_unknown_name_raises_attribute_error():
    code = (
        "import json, loopforms\n"
        "caught = []\n"
        "for name in ('no_such_name', 'base_change_check'):\n"
        "    try:\n"
        "        getattr(loopforms, name)\n"
        "    except AttributeError as exc:\n"
        "        caught.append(str(exc))\n"
        "print(json.dumps(caught))\n"
    )
    assert _run(code) == [
        "module 'loopforms' has no attribute 'no_such_name'",
        "module 'loopforms' has no attribute 'base_change_check'",
    ]
