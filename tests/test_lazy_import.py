"""The package loads its submodules on first use.

Each test runs in a fresh interpreter, since this process has long since
imported every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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

# scalars are ints over a common denominator, read and written without
# Fractions, so no request loads fractions or the decimal module it imports
_NUMBERS = "sorted(m for m in ('fractions', 'decimal') if m in sys.modules)"


def _request(argv: list[str]):
    """Exit code, loopforms submodules and code generators loaded by one
    request; every request also leaves the argument-parsing module of the
    standard library, and the rational and decimal number modules, unloaded."""
    code = (
        "import contextlib, io, json, sys\n"
        "from loopforms import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        f"print(json.dumps([code, {_LOADED}, {_CODEGEN}, {_NUMBERS}, 'argparse' in sys.modules]))\n"
    )
    code, loaded, codegen, numbers, parser_loaded = _run(code)
    assert not parser_loaded
    assert numbers == []
    return code, loaded, codegen


def test_import_loads_no_submodule():
    assert _run(f"import json, sys, loopforms\nprint(json.dumps({_LOADED}))") == []


def test_descent_loads_no_chevalley():
    # descent reads no root system, so its table paths never build one
    loaded = _run(f"import json, sys, loopforms.descent\nprint(json.dumps({_LOADED}))")
    assert "loopforms.descent" in loaded
    assert "loopforms.chevalley" not in loaded


def test_grade_loads_only_the_modules_it_uses():
    code, loaded, codegen = _request(["grade", "--type", "A2"])
    assert code == 0
    assert loaded == [
        "loopforms.algebra",
        "loopforms.chevalley",
        "loopforms.cli",
        "loopforms.cyclo",
        "loopforms.grading",
        "loopforms.record",
    ]
    assert codegen == []


# the elimination kernel, linalg, is compiled only by the centroid layer
_CORE = ["loopforms.algebra", "loopforms.cli", "loopforms.cyclo", "loopforms.record"]


def test_matrix_algebra_request_loads_no_chevalley():
    argv = ["grade", "--matrix-algebra", "2", "--auto", '{"exponents": [0, 1], "m": 2}']
    code, loaded, codegen = _request(argv)
    assert code == 0
    assert loaded == sorted(_CORE + ["loopforms.descent", "loopforms.grading"])
    assert codegen == []


def test_table_request_loads_no_chevalley(tmp_path):
    table = {
        "dim": 1, "scalar_order": 1, "kind": "associative", "labels": ["e"],
        "constants": [[0, 0, [[0, {"order": 1, "coeffs": ["1"]}]]]],
    }
    path = tmp_path / "field.json"
    path.write_text(json.dumps(table))
    code, loaded, codegen = _request(["build", "--algebra", str(path)])
    assert code == 0
    assert loaded == _CORE
    assert codegen == []


# a type label adds chevalley to the table layer; each later layer is a
# module of its own, compiled only by the commands that run it
_TYPE_LABEL = sorted(_CORE + ["loopforms.chevalley"])


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["build", "--type", "A2"], []),
        (["grade", "--type", "A2"], ["loopforms.grading"]),
        (
            ["centroid", "--type", "A2", "--auto", '{"pi": [2, 1], "m": 2}'],
            ["loopforms.centroid", "loopforms.grading", "loopforms.linalg"],
        ),
        (
            ["extract-gcm", "--type", "A2", "--auto", '{"pi": [2, 1]}'],
            ["loopforms.affine", "loopforms.grading"],
        ),
        (
            ["untwist", "--type", "A2", "--auto", '{"pi": [2, 1], "s": [1, 1], "m": 3}'],
            ["loopforms.descent", "loopforms.grading"],
        ),
        (
            ["descent-verify", "--type", "A2", "--auto", '{"pi": [2, 1], "m": 2}'],
            ["loopforms.descent", "loopforms.grading"],
        ),
    ],
    ids=["build", "grade", "centroid", "extract-gcm", "untwist", "descent-verify"],
)
def test_each_command_loads_only_the_layers_it_runs(argv, layers):
    code, loaded, codegen = _request(argv)
    assert code == 0
    assert loaded == sorted(_TYPE_LABEL + layers)
    assert codegen == []


def test_help_and_argv_errors_load_no_chevalley():
    for argv, want in ((["--help"], 0), (["grade", "--typ", "A2"], 2)):
        code, loaded, _ = _request(argv)
        assert code == want
        assert "loopforms.chevalley" not in loaded


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
    assert count == 34
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
        "for name in ('no_such_name', 'base_change_check', 'ToralCharge', 'GCMCertificate'):\n"
        "    try:\n"
        "        getattr(loopforms, name)\n"
        "    except AttributeError as exc:\n"
        "        caught.append(str(exc))\n"
        "print(json.dumps(caught))\n"
    )
    assert _run(code) == [
        "module 'loopforms' has no attribute 'no_such_name'",
        "module 'loopforms' has no attribute 'base_change_check'",
        "module 'loopforms' has no attribute 'ToralCharge'",
        "module 'loopforms' has no attribute 'GCMCertificate'",
    ]
