import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import time
from functools import lru_cache

import pytest

import loopforms
from ledger import assert_recorded, recorder
from loopforms import acceptance, algebra, chevalley, cli
from loopforms.algebra import KIND_LIE, MultTableAlgebra, make_table
from loopforms.cyclo import CycloNum
from loopforms.chevalley import standard_algebra


def run_cli(*argv, binary=False, timeout=300, env=None):
    return subprocess.run(
        [sys.executable, "-m", "loopforms", *argv],
        capture_output=True,
        text=not binary,
        timeout=timeout,
        env=env,
    )


def report_of(result):
    assert result.stdout, result.stderr
    return json.loads(result.stdout)


def _sl2_table(h_e_coeff):
    def q(x):
        return CycloNum.rational(1, x)

    c = q(h_e_coeff)
    table = make_table({
        (0, 1): {1: c},
        (1, 0): {1: -c},
        (0, 2): {2: q(-2)},
        (2, 0): {2: q(2)},
        (1, 2): {0: q(1)},
        (2, 1): {0: q(-1)},
    })
    return MultTableAlgebra(
        dim=3, scalar_order=1, kind=KIND_LIE,
        constants=table, basis_labels=("h", "e", "f"),
    )


# -- happy paths -----------------------------------------------------------------


def test_build_d4():
    result = run_cli("build", "--type", "D4")
    assert result.returncode == 0
    report = report_of(result)
    assert report["command"] == "build"
    assert report["status"] == "pass"
    assert report["payload"]["dim"] == 28
    assert report["payload"]["roots"] == 24
    assert report["payload"]["rank"] == 4
    assert "elapsed:" in result.stderr


def test_build_e8_certifies_every_ordered_triple(capsys):
    # in-process: the E8 table is cached per process, and the extract-gcm and
    # classify tests of E8 read the same one
    assert cli.main(["build", "--type", "E8"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "pass"
    assert report["payload"]["validation"]["triples_checked"] == 15252992


def test_each_built_algebra_is_certified_once(monkeypatch, capsys, tmp_path):
    swept, folded = [], []
    real_validate, real_fold = algebra.validate_algebra, chevalley._fold

    def counting_validate(alg):
        swept.append(alg.dim)
        return real_validate(alg)

    def counting_fold(rs):
        folded.append(rs.cartan.type_label)
        return real_fold(rs)

    # rebind every alias, so a direct call from any module is counted too
    for name, module in list(sys.modules.items()):
        if name.startswith("loopforms") and getattr(module, "validate_algebra", None) is real_validate:
            monkeypatch.setattr(module, "validate_algebra", counting_validate)
    monkeypatch.setattr(chevalley, "_fold", counting_fold)
    # an empty type cache, as in a fresh process
    fresh = lru_cache(maxsize=None)(chevalley._chevalley_cached.__wrapped__)
    monkeypatch.setattr(chevalley, "_chevalley_cached", fresh)
    # a type label is certified by its fold, with no sweep
    assert cli.main(["build", "--type", "B4"]) == 0
    assert (swept, folded) == ([], ["B4"])
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["validation"]["triples_checked"] == 36 ** 3
    folded.clear()
    # criterion 1 builds its fixtures, each certified once inside the build,
    # and reports those certificates without certifying again
    assert acceptance.criterion_1()["status"] == "pass"
    assert (swept, folded) == ([], [label for label, _ in acceptance._CONSTRUCTION])
    folded.clear()
    assert acceptance.criterion_1()["status"] == "pass"
    assert (swept, folded) == ([], [])
    # a table read from a file is swept once, and folds nothing
    path = tmp_path / "b3.json"
    path.write_text(json.dumps(standard_algebra("B3")[1].to_obj()))
    folded.clear()
    assert cli.main(["build", "--algebra", str(path)]) == 0
    assert (swept, folded) == ([21], [])
    capsys.readouterr()


def test_grade_triality():
    result = run_cli("grade", "--type", "D4", "--auto", '{"pi": [3, 2, 4, 1]}')
    assert result.returncode == 0
    payload = report_of(result)["payload"]
    assert payload["dims"] == [14, 7, 7]
    assert payload["period"] == 3


def test_classify_d4():
    result = run_cli("classify", "--type", "D4")
    assert result.returncode == 0
    payload = report_of(result)["payload"]
    assert len(payload["classes"]) == 3
    assert sorted(r["twist_order"] for r in payload["classes"]) == [1, 2, 3]
    assert payload["r_classes"] == payload["k_classes"] == 3
    assert payload["inverse_conjugacy"] is True
    assert payload["centroid_trivial"] is True


def test_classify_matrix_algebra():
    result = run_cli("classify", "--matrix-algebra", "2")
    assert result.returncode == 0
    payload = report_of(result)["payload"]
    assert payload["classes"] == 1
    # the one twist the witness certifies, as --auto takes it
    assert payload["auto"] == {"exponents": [0, 1], "m": 2}
    assert "note" not in payload
    assert payload["witness_checks"]
    assert all(c["status"] == "pass" for c in payload["witness_checks"])


def test_extract_gcm_triality():
    result = run_cli("extract-gcm", "--type", "D4", "--auto", '{"pi": [3, 2, 4, 1]}')
    assert result.returncode == 0
    payload = report_of(result)["payload"]
    assert payload["label"] == "D4^(3)"
    assert payload["grading_dims"] == [14, 7, 7]
    assert payload["gcm"] == [[2, -1, 0], [-3, 2, -1], [0, -1, 2]]


def test_untwist_toral():
    result = run_cli("untwist", "--type", "A2", "--auto", '{"s": [1, 0], "m": 3}')
    assert result.returncode == 0
    payload = report_of(result)["payload"]
    assert all(c["status"] == "pass" for c in payload["checks"])


def test_descent_verify_defaults():
    result = run_cli("descent-verify", "--type", "A1", "--auto", '{"s": [1], "m": 2}')
    assert result.returncode == 0
    payload = report_of(result)["payload"]
    names = {c["check"] for c in payload["checks"]}
    assert names == {"cocycle-identity", "twisted-fixed-points"}
    assert payload["fixed_dims"]["0"] == 1


def test_centroid_flip():
    result = run_cli("centroid", "--type", "A2", "--auto", '{"pi": [2, 1], "m": 2}')
    assert result.returncode == 0
    payload = report_of(result)["payload"]
    assert payload["by_shift"] == [
        {"shift": 0, "solution_dim": 1, "contains_identity": True},
        {"shift": 1, "solution_dim": 0, "contains_identity": False},
    ]


def test_external_algebra_file(tmp_path):
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(_sl2_table(2).to_obj()))
    result = run_cli("build", "--algebra", str(path))
    assert result.returncode == 0
    payload = report_of(result)["payload"]
    assert payload["dim"] == 3
    assert payload["kind"] == "lie"


# -- output modes ----------------------------------------------------------------


def test_classify_b3():
    result = run_cli("classify", "--type", "B3")
    assert result.returncode == 0
    payload = report_of(result)["payload"]
    assert [r["affine_label"] for r in payload["classes"]] == ["B3^(1)"]


def test_extract_gcm_a4_flip():
    result = run_cli("extract-gcm", "--type", "A4", "--auto", '{"pi": [4, 3, 2, 1]}')
    assert result.returncode == 0
    assert report_of(result)["payload"]["label"] == "A4^(2)"


def test_text_rendering():
    result = run_cli("classify", "--type", "D4", "--text")
    assert result.returncode == 0
    assert not result.stdout.startswith("{")
    assert "D4^(3)" in result.stdout
    assert "yes" in result.stdout


def test_out_file(tmp_path):
    path = tmp_path / "report.json"
    result = run_cli("build", "--type", "A1", "--out", str(path))
    assert result.returncode == 0
    assert result.stdout == ""
    report = json.loads(path.read_text())
    assert report["payload"]["dim"] == 3


def test_out_into_missing_directory_exits_2(tmp_path):
    out = tmp_path / "missing" / "x.json"
    result = run_cli("build", "--type", "A1", "--out", str(out))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in result.stderr


def test_identical_requests_identical_bytes():
    argv = ("extract-gcm", "--type", "D4", "--auto", '{"pi": [3, 2, 4, 1]}')
    first = run_cli(*argv, binary=True)
    second = run_cli(*argv, binary=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")


# -- failure and error paths -------------------------------------------------------


def test_verification_failure_exits_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_sl2_table(3).to_obj()))
    result = run_cli("build", "--algebra", str(path))
    assert result.returncode == 1
    report = report_of(result)
    assert report["status"] == "fail"
    violations = report["payload"]["validation"]["violations"]
    assert violations and all(v["law"] == "jacobi" for v in violations)
    assert ["h", "e", "f"] in [v["labels"] for v in violations]


@pytest.mark.parametrize(
    "argv",
    [
        ("build", "--type", "Z9"),  # unknown label
        ("build",),  # no input source
        ("build", "--type", "A1", "--matrix-algebra", "2"),  # two sources
        ("grade", "--type", "A1", "--auto", "{not json"),
        ("grade", "--type", "A2", "--auto", '{"pi": [2, 1], "s": [1, 0], "m": 2}'),
        ("grade", "--type", "A1", "--auto", '{"sigma": 1}'),  # unknown key
        ("extract-gcm", "--matrix-algebra", "2"),  # unsupported source
        ("classify", "--matrix-algebra", "0"),
        ("verify-all", "--type", "A1"),  # no inputs allowed
        # JSON booleans are not integers
        ("grade", "--type", "A2", "--auto", '{"s": [true, 0], "m": true}'),
        ("grade", "--type", "A2", "--auto", '{"m": true}'),
        ("grade", "--type", "A2", "--auto", '{"s": [true, 0]}'),
        ("grade", "--type", "A2", "--auto", '{"pi": [2, true]}'),
        ("grade", "--matrix-algebra", "2", "--auto", '{"exponents": [true, 0]}'),
        ("grade", "--matrix-algebra", "2", "--auto", '{"exponents": [0, 1], "m": true}'),
        # resource limits: m, the twist period lcm(|pi|, m), M_n size
        ("grade", "--type", "A2", "--auto", '{"m": 25}'),
        ("grade", "--type", "A2", "--auto", '{"pi": [2, 1], "s": [1, 1], "m": 13}'),
        ("grade", "--matrix-algebra", "9"),
        # a permutation that is not a symmetry of the diagram
        ("grade", "--type", "A3", "--auto", '{"pi": [2, 1, 3]}'),
        ("untwist", "--type", "A3", "--auto", '{"pi": [2, 1, 3]}'),
        # --auto on a command that reads no automorphism
        ("build", "--type", "A1", "--auto", "garbage"),
        ("build", "--type", "A2", "--auto", '{"pi": [2, 1]}'),
        ("classify", "--type", "A2", "--auto", '{"pi": [2, 1]}'),
        ("classify", "--matrix-algebra", "2", "--auto", '{"exponents": [0, 1], "m": 2}'),
        # a permutation that is not a symmetry of the diagram, on the other
        # commands that read one
        ("extract-gcm", "--type", "A3", "--auto", '{"pi": [2, 1, 3]}'),
        ("extract-gcm", "--type", "B2", "--auto", '{"pi": [2, 1]}'),
        ("centroid", "--type", "A3", "--auto", '{"pi": [2, 1, 3]}'),
        ("descent-verify", "--type", "A3", "--auto", '{"pi": [2, 1, 3]}'),
    ],
)
def test_malformed_requests_exit_2(argv):
    result = run_cli(*argv)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "error" in result.stderr.lower() or "usage" in result.stderr.lower()


def test_period_at_the_limit_passes():
    result = run_cli("grade", "--type", "A1", "--auto", '{"s": [1], "m": 24}')
    assert result.returncode == 0, result.stderr
    assert report_of(result)["payload"]["period"] == 24


def test_unreadable_and_invalid_files_exit_2(tmp_path):
    nope = tmp_path / "nope.json"
    missing = run_cli("build", "--algebra", str(nope))
    assert missing.returncode == 2
    assert missing.stderr.startswith(f"error: cannot read {nope}: ")
    garbled = tmp_path / "garbled.json"
    garbled.write_text("[1, 2,")
    result = run_cli("build", "--algebra", str(garbled))
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: {garbled} is not valid JSON: ")
    # a scalar order that names no cyclotomic field
    for order in (0, -3):
        table = tmp_path / f"order{order}.json"
        table.write_text(json.dumps(
            {"dim": 1, "scalar_order": order, "kind": "lie", "labels": ["x"], "constants": []}
        ))
        result = run_cli("build", "--algebra", str(table))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error:")
        assert "scalar order must be a positive integer" in result.stderr


# (path into the serialized sl2 table, the value put there): floats, bools
# and strings where an integer belongs, a float or bool coefficient, a
# coefficient string in place of the list, a zero denominator, and labels
# that are not a list of strings; None is the untouched round trip
_MALFORMED_TABLES = [
    (None, None),
    (("dim",), 3.9),
    (("scalar_order",), 1.2),
    (("constants", 0, 0), 0.7),
    (("constants", 0, 1), "1"),
    (("constants", 0, 2, 0, 0), True),
    (("constants", 0, 2, 0, 1, "order"), 1.2),
    (("constants", 0, 2, 0, 1, "coeffs", 0), 0.1),
    (("constants", 0, 2, 0, 1, "coeffs", 0), True),
    (("constants", 0, 2, 0, 1, "coeffs"), "2"),
    (("constants", 0, 2, 0, 1, "coeffs", 0), "1/0"),
    (("labels",), "hef"),
    (("labels", 0), 0),
    # coefficient strings follow the to_obj grammar -?[0-9]+(/[0-9]+)?: no
    # exponent, decimal, sign but a leading minus, underscore or non-ASCII digit
    (("constants", 0, 2, 0, 1, "coeffs", 0), "1e999999"),
    (("constants", 0, 2, 0, 1, "coeffs", 0), "nan"),
    (("constants", 0, 2, 0, 1, "coeffs", 0), "0.5"),
    (("constants", 0, 2, 0, 1, "coeffs", 0), "+1"),
    (("constants", 0, 2, 0, 1, "coeffs", 0), "1_0"),
    (("constants", 0, 2, 0, 1, "coeffs", 0), "\u0661"),
    (("constants", 0, 2, 0, 1, "coeffs", 0), "1/-2"),
    (("constants", 0, 2, 0, 1), [1]),
    # an order too large for its coefficients is refused before euler_phi
    # factors it: phi(m) >= sqrt(m/2)
    (("constants", 0, 2, 0, 1, "order"), 1000000000000000003),
]


@pytest.mark.parametrize("path, value", _MALFORMED_TABLES)
def test_algebra_file_is_read_without_coercion(tmp_path, capsys, path, value):
    obj = _sl2_table(2).to_obj()
    if path is not None:
        target = obj
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    table = tmp_path / "table.json"
    table.write_text(json.dumps(obj))
    code = cli.main(["build", "--algebra", str(table)])
    out, err = capsys.readouterr()
    if path is None:
        assert code == 0
        assert json.loads(out)["status"] == "pass"
    else:
        assert code == 2
        assert out == "" and err.startswith("error:")
        assert "is not a serialized algebra" in err


@pytest.mark.parametrize(
    "table, message",
    [
        ([], "a serialized algebra must be a JSON object"),
        (
            {"scalar_order": 1, "kind": "lie", "labels": [], "constants": []},
            "a serialized algebra lacks the field 'dim'",
        ),
        (
            {"dim": 1, "scalar_order": 1, "kind": "lie", "labels": ["x"]},
            "a serialized algebra lacks the field 'constants'",
        ),
        (
            {"dim": 1, "scalar_order": 1, "kind": "lie", "labels": ["x"],
             "constants": [[0, 0, [[0, {"order": 1, "coeffs": ["1e999999"]}]]]]},
            "coefficient '1e999999' is not an integer or a string p or p/q of ASCII digits"
            " with a nonzero q",
        ),
        (
            {"dim": 1, "scalar_order": 1, "kind": "lie", "labels": ["x"],
             "constants": [[0, 0, [[0, {"order": 1, "coeffs": ["1/0"]}]]]]},
            "coefficient '1/0' is not an integer",
        ),
        (
            {"dim": 1, "scalar_order": 1, "kind": "lie", "labels": ["x"],
             "constants": [[0, 0, [[0, {"order": 1}]]]]},
            "missing field 'coeffs' in a scalar",
        ),
        # raw text: an integer past the interpreter's digit limit
        ('{"dim": ' + "9" * 4400 + "}", "is not valid JSON"),
        # a table and scalar order of 19 digits, refused before euler_phi
        # factors it by trial division
        (
            {"dim": 1, "scalar_order": 10**18 + 3, "kind": "lie", "labels": ["x"],
             "constants": [[0, 0, [[0, {"order": 10**18 + 3, "coeffs": ["1"]}]]]]},
            "a scalar of order 1000000000000000003 needs more than 1 coefficients",
        ),
        # raw text nested past the JSON reader's recursion limit
        ("[" * 3000 + "]" * 3000, "nests too deeply to read"),
    ],
    ids=["list", "no dim", "no constants", "exponent", "zero denominator", "no coeffs",
         "long integer", "huge order", "deep nesting"],
)
def test_malformed_table_error_names_the_fault(tmp_path, capsys, table, message):
    path = tmp_path / "table.json"
    path.write_text(table if isinstance(table, str) else json.dumps(table))
    assert cli.main(["build", "--algebra", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_missing_subcommand_exits_2():
    result = run_cli()
    assert result.returncode == 2


# (where in the serialized sl2 table, the value put there, the refusal): a
# table of the right JSON types whose shape MultTableAlgebra refuses
_MISSHAPEN_TABLES = [
    (("dim",), 0, "dimension must be positive"),
    (("kind",), "jordan", "unknown algebra kind 'jordan'"),
    (("labels",), ["h", "e"], "one label per basis element required"),
    (("labels", 0), 0, "labels must be a list of strings"),
    (("constants", 0, 0), 3, "structure constant index (3,1) out of range"),
    (("constants", 0, 2, 0, 0), 5, "structure constant target 5 out of range"),
    (
        ("constants", 0, 2, 0, 1),
        {"order": 2, "coeffs": ["2"]},
        "structure constants must use the declared scalar order",
    ),
]


@pytest.mark.parametrize("path, value, message", _MISSHAPEN_TABLES, ids=lambda x: str(x)[:24])
def test_misshapen_table_names_its_fault(tmp_path, capsys, path, value, message):
    obj = _sl2_table(2).to_obj()
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    table = tmp_path / "table.json"
    table.write_text(json.dumps(obj))
    assert cli.main(["build", "--algebra", str(table)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {table} is not a serialized algebra: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("grade", "--type", "A2", "--auto", "[1]"), "--auto must be a JSON object"),
        (("grade", "--type", "A2", "--auto", '{"pi":[1,1]}'),
         "pi is not a permutation: not a permutation"),
        (("grade", "--matrix-algebra", "2", "--auto", '{"x":1}'),
         "unsupported --auto keys for a matrix algebra: ['x']"),
        (("grade", "--type", "A1", "--auto", '{"sigma": 1}'),
         "unsupported --auto keys for a type label: ['sigma']"),
        (("grade", "--type", "A1", "--auto", "{not json"), "--auto is not valid JSON: "),
        (("grade", "--type", "A2", "--auto", '{"pi": [1]}'),
         "unsupported automorphism: permutation does not preserve the Cartan matrix of A2: pi = [1]"),
        (("grade", "--type", "A3", "--auto", '{"pi": [2, 1, 3]}'),
         "unsupported automorphism: permutation does not preserve the Cartan matrix"),
        (("grade", "--type", "A2", "--auto", '{"s": [1]}'),
         "charge rank mismatch: A2 has rank 2, but s = [1]"),
        (("grade", "--type", "A2", "--auto", '{"pi": [2, 1], "s": [1, 0], "m": 2}'),
         "s must be constant on the orbits of pi"),
        (("grade", "--type", "A2", "--auto", '{"pi": [2, 1], "s": [1, 1], "m": 13}'),
         "the twist period lcm(2, 13) = 26 exceeds the limit 24"),
        (("grade", "--type", "A2", "--auto", '{"m": 0}'), "m must be a positive integer"),
        (("grade", "--type", "A2", "--auto", '{"m": 25}'), "m = 25 exceeds the period limit 24"),
        (("grade", "--matrix-algebra", "2", "--auto", '{"exponents": [0]}'),
         "M_2 needs one exponent per row, got 1"),
        (("build",), "exactly one input source required; got none"),
        (("build", "--type", "A1", "--matrix-algebra", "2"),
         "exactly one input source required; got ['type', 'matrix-algebra']"),
        (("extract-gcm", "--matrix-algebra", "2"),
         "--matrix-algebra is not supported by this command"),
        (("classify", "--matrix-algebra", "0"), "M_n needs n >= 1, got n = 0"),
        (("grade", "--matrix-algebra", "9"), "--matrix-algebra 9 exceeds the size limit 8"),
        (("build", "--type", "Z9"),
         f"--type 'Z9' is not a type label; choose one of {', '.join(chevalley.TYPE_LABELS)}"),
        (("build", "--type", "A2", "--auto", "{}"), "build takes no --auto"),
        (("verify-all", "--type", "A1"), "verify-all takes no input flags"),
        ((), "a command is required; choose one of build, grade, classify, extract-gcm,"),
        (("grade", "--type", "A2", "--auto", '{"pi": [2, true]}'), "pi must be a list of integers"),
        (("grade", "--type", "A2", "--auto", '{"s": [0.5, 1]}'), "s must be a list of integers"),
        (("grade", "--matrix-algebra", "2", "--auto", '{"exponents": "01"}'),
         "exponents must be a list of integers"),
        # an empty path is refused, not read as no --out
        (("build", "--type", "A1", "--out", ""),
         "cannot write : [Errno 2] No such file or directory: ''"),
        (("build", "--type", "A1", "--out="),
         "cannot write : [Errno 2] No such file or directory: ''"),
    ],
)
def test_refused_request_names_its_fault(capsys, argv, message):
    # one error line, and no traceback: cli.main maps every refusal to exit 2
    assert cli.main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


# the input flags each command reads
_READS = {
    "build": ("type", "algebra"),
    "grade": ("type", "matrix-algebra", "auto"),
    "classify": ("type", "matrix-algebra"),
    "extract-gcm": ("type", "auto"),
    "untwist": ("type", "matrix-algebra", "auto"),
    "descent-verify": ("type", "matrix-algebra", "auto"),
    "centroid": ("type", "matrix-algebra", "auto"),
    "verify-all": (),
}
# a value for each input flag; every request below is refused before reading it
_INPUTS = {"type": "A2", "algebra": "table.json", "matrix-algebra": "2", "auto": "{}"}


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command in cli._COMMANDS for flag in _INPUTS if flag not in _READS[command]],
)
def test_every_command_refuses_the_inputs_it_does_not_read(capsys, command, flag):
    argv = [command, f"--{flag}", _INPUTS[flag]]
    if not _READS[command]:
        message = f"{command} takes no input flags"
    elif flag == "auto":
        # given with a source the command reads
        source = _READS[command][0]
        argv += [f"--{source}", _INPUTS[source]]
        message = f"{command} takes no --auto"
    else:
        message = f"--{flag} is not supported by this command"
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("frobnicate", "--type", "A2"),
         "unknown command 'frobnicate'; choose one of build, grade, classify, extract-gcm,"
         " untwist, descent-verify, centroid, verify-all"),
        (("grade", "--type", "A2", "--colour", "red"),
         "unknown flag '--colour'; flags are not abbreviated"),
        (("grade", "--type", "A2", "stray"), "unexpected argument 'stray'"),
        (("grade", "--type"), "--type needs a value"),
        (("grade", "--type", "--auto", "{}"), "--type needs a value"),
        # the degree window is no input: --window is an unknown flag
        (("untwist", "--type", "A1", "--auto", '{"s": [1], "m": 2}', "--window", "4"),
         "unknown flag '--window'; flags are not abbreviated"),
        (("extract-gcm", "--type", "A2", "--window", "two"),
         "unknown flag '--window'; flags are not abbreviated"),
        (("grade", "--matrix-algebra", "2x"), "--matrix-algebra needs an integer, got '2x'"),
        (("grade", "--matrix-algebra=", "2"), "--matrix-algebra needs an integer, got ''"),
        (("grade", "--type", "A2", "--json", "--text"), "--json and --text exclude each other"),
        (("grade", "--type", "A2", "--text=yes"), "--text takes no value"),
        # abbreviations are refused: a prefix of a flag is an unknown flag
        (("grade", "--ty", "A2"), "unknown flag '--ty'; flags are not abbreviated"),
        (("grade", "--matrix", "2"), "unknown flag '--matrix'; flags are not abbreviated"),
        (("untwist", "--type", "A1", "--auto", '{"s": [1], "m": 2}', "--win", "4"),
         "unknown flag '--win'; flags are not abbreviated"),
        # a flag given twice is refused, not read as its last value
        (("build", "--type", "A2", "--type", "A3"), "flag --type given twice"),
        (("build", "--type=A2", "--type", "A3"), "flag --type given twice"),
        (("grade", "--type", "A2", "--auto", "{}", "--auto", '{"m": 2}'), "flag --auto given twice"),
        (("grade", "--matrix-algebra", "2", "--matrix-algebra=3"),
         "flag --matrix-algebra given twice"),
        (("grade", "--type", "A2", "--text", "--text"), "flag --text given twice"),
        (("grade", "--type", "A2", "--json", "--json"), "flag --json given twice"),
        (("build", "--type", "A1", "--out", "a.json", "--out", "b.json"), "flag --out given twice"),
        (("build", "--algebra", "a.json", "--algebra", "b.json"), "flag --algebra given twice"),
        # an integer flag reads ASCII decimal digits only, as a table
        # coefficient does: no other script's digit, space, underscore or plus
        (("grade", "--matrix-algebra", "\u0663"), "--matrix-algebra needs an integer, got '\u0663'"),
        (("grade", "--matrix-algebra", " 2"), "--matrix-algebra needs an integer, got ' 2'"),
        (("grade", "--matrix-algebra", "0_2"), "--matrix-algebra needs an integer, got '0_2'"),
        (("grade", "--matrix-algebra", "+2"), "--matrix-algebra needs an integer, got '+2'"),
        # JSON nested past the reader's recursion limit is malformed input
        (("grade", "--type", "A2", "--auto", '{"s": ' + "[" * 3000 + "]" * 3000 + "}"),
         "--auto nests too deeply to read"),
    ],
)
def test_malformed_argv_exits_2_without_traceback(argv, message):
    result = run_cli(*argv)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"


def test_argv_errors_in_process_return_2(capsys):
    assert cli.main(["grade", "--type", "A2", "--windo", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: unknown flag '--windo'; flags are not abbreviated"]


def test_no_public_callable_takes_a_window():
    # every check covers all degrees, so no function, constructor or method
    # exported by a module takes a degree window
    found = []
    for info in pkgutil.iter_modules(loopforms.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"loopforms.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            members = [(name, obj)]
            if inspect.isclass(obj):
                if issubclass(obj, Exception):
                    continue
                members += [
                    (f"{name}.{attr}", value)
                    for attr, value in vars(obj).items()
                    if not attr.startswith("_") and inspect.isfunction(value)
                ]
            elif not inspect.isfunction(obj):
                continue  # constants and type aliases
            for qualname, member in members:
                if "window" in inspect.signature(member).parameters:
                    found.append(f"{info.name}.{qualname}")
    assert found == []


@pytest.mark.parametrize(
    "argv", [("--help",), ("-h",), ("grade", "--help"), ("extract-gcm", "--type", "A2", "-h")]
)
def test_help_exits_0(argv):
    result = run_cli(*argv)
    assert result.returncode == 0
    assert result.stdout.startswith("usage: loopforms COMMAND")
    for name in ("build", "grade", "classify", "extract-gcm", "untwist", "descent-verify",
                 "centroid", "verify-all", "--matrix-algebra", "--out"):
        assert name in result.stdout
    assert "--window" not in result.stdout
    assert result.stderr == ""


def test_flag_equals_value_is_the_flag_and_value(capsys):
    spelled = ["extract-gcm", "--type", "D4", "--auto", '{"pi":[4,2,1,3]}']
    joined = ["extract-gcm", "--type=D4", '--auto={"pi":[4,2,1,3]}']
    assert cli.main(spelled) == 0
    first = capsys.readouterr().out
    assert cli.main(joined) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first)["payload"]["label"] == "D4^(3)"
    # a repeated flag is refused, whichever spelling repeats it
    assert cli.main(["grade", "--type", "A3", "--type=A2", "--text"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: flag --type given twice\n"


# -- the full suite through the CLI -------------------------------------------------


def test_verify_all_subprocess():
    # the ledger is recorded under PYTHONHASHSEED=0; seed 1 prints it too
    for seed in ("0", "1"):
        started = time.monotonic()
        result = run_cli("verify-all", timeout=400, env=dict(os.environ, PYTHONHASHSEED=seed))
        wall = time.monotonic() - started
        assert result.returncode == 0
        payload = report_of(result)["payload"]
        assert [row["id"] for row in payload["criteria"]] == list(range(1, 9))
        assert all(row["status"] == "pass" for row in payload["criteria"])
        assert_recorded(["verify-all"], result)
        assert wall < 240


def test_untwist_d4_composed_stdout_is_pinned():
    result = run_cli(*recorder.UNTWIST_D4)
    assert result.returncode == 0
    assert_recorded(recorder.UNTWIST_D4, result)


def test_table_listing_a_pair_twice_exits_2(tmp_path):
    # (h1, e[1]) listed twice, first with the wrong constant 5: the table is
    # refused rather than certified on its last listing
    obj = standard_algebra("A1")[1].to_obj()
    obj["constants"].insert(0, [0, 1, [[1, {"order": 1, "coeffs": ["5"]}]]])
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(obj))
    result = run_cli("build", "--algebra", str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "(h1, e[1]) is listed twice" in lines[0]
