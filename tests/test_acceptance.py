"""verify-all's table of CLI requests (`verify._VERIFY_TABLE`).

Each row is a request and the payload fields its report must hold.  The
rows are grouped here by the release criterion whose known answers they
carry, each group with its wall-clock budget, measured around the rows in
this process; a tampered table, catalog or expected field fails its rows,
and the report is the same bytes in a fresh interpreter under another hash
seed.  tests/test_cli.py runs verify-all cold under PYTHONHASHSEED 0 and 1.
"""

import json
import time

import pytest

from loopforms import affine, chevalley, cli, verify
from loopforms.affine import GCM
from loopforms.algebra import KIND_LIE, MultTableAlgebra
from loopforms.cyclo import CycloNum


def _composed(argv):
    """The request names a diagram symmetry pi in its --auto."""
    return '"pi"' in argv[-1]


# criterion -> (which rows carry its known answers, their budget in seconds)
_CRITERIA = {
    "1-construction-soundness": (lambda argv: argv[0] == "build", 10.0),
    "2-grading-laws": (lambda argv: argv[0] == "grade", 60.0),
    "3-descent-cocycle": (lambda argv: argv[0] == "descent-verify", 10.0),
    "4-triviality-witnesses": (lambda argv: argv[0] == "untwist" and not _composed(argv), 10.0),
    "5-composed-twist-labels": (
        lambda argv: argv[0] in ("untwist", "extract-gcm") and _composed(argv),
        10.0,
    ),
    "6-classification-counts": (lambda argv: argv[0] == "classify", 2.0),
    "7-gcm-certificates": (lambda argv: argv[0] == "extract-gcm", 10.0),
}


def _rows(monkeypatch, selects):
    """The rows of the table whose argv selects keeps, as verify-all reports
    them."""
    table = [row for row in verify._VERIFY_TABLE if selects(row[0].split())]
    monkeypatch.setattr(verify, "_VERIFY_TABLE", table)
    return verify._run_table()[0]


def test_every_row_carries_one_criterion_or_more():
    assert all(
        any(selects(line.split()) for selects, _ in _CRITERIA.values())
        for line, _ in verify._VERIFY_TABLE
    )


@pytest.mark.parametrize("criterion", _CRITERIA)
def test_criterion(criterion, monkeypatch):
    selects, budget = _CRITERIA[criterion]
    started = time.monotonic()
    rows = _rows(monkeypatch, selects)
    wall = time.monotonic() - started
    print(f"criterion {criterion}: {len(rows)} rows in {wall:.1f}s")
    assert rows
    assert [row for row in rows if row["status"] != "pass" or "report" in row] == []
    assert wall < budget, f"criterion {criterion} took {wall:.1f}s"


def test_criterion_8_determinism(monkeypatch):
    # the child hashes under seed 1 and this process under its own
    monkeypatch.setenv("PYTHONHASHSEED", "0")
    rows, serialized = verify._run_table()
    assert verify._fresh_rerun() == serialized
    # the compared bytes are every request's whole report, payload included
    reports = json.loads(serialized)
    assert [report["command"] for report in reports] == [row["argv"][0] for row in rows]
    assert all(report["status"] == "pass" and report["payload"] for report in reports)


def test_a_payload_field_that_no_row_names_is_compared(monkeypatch, capsys):
    # the request path adds 1 to the dim_total of a grade request whose row
    # names only period and dims, against the rerun's bytes of the untampered
    # row, so the row still passes and only the comparison fails
    line = 'grade --type A1 --auto {"s":[1],"m":2}'
    table = [row for row in verify._VERIFY_TABLE if row[0] == line]
    assert table == [(line, {"period": 2, "dims": [1, 2]})]
    monkeypatch.setattr(verify, "_VERIFY_TABLE", table)
    untampered = verify._run_table()[1]
    monkeypatch.setattr(verify, "_fresh_rerun", lambda: untampered)
    real = verify._request

    def shifted(argv):
        code, report, args = real(argv)
        report["payload"]["dim_total"] += 1
        return code, report, args

    monkeypatch.setattr(verify, "_request", shifted)
    assert cli.main(["verify-all"]) == 1
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["rows"] == [
        {"argv": line.split(), "status": "pass", "matches": {"period": True, "dims": True}}
    ]
    assert payload["determinism"]["identical_bytes"] is False


# -- a tampered input fails its rows ------------------------------------------------


def test_tampered_expected_field_exits_1(monkeypatch, capsys):
    flip = 'grade --type A2 --auto {"pi":[2,1]}'
    assert (flip, {"period": 2, "dims": [3, 5]}) in verify._VERIFY_TABLE
    table = [
        (line, {"period": 2, "dims": [3, 4]} if line == flip else expected)
        for line, expected in verify._VERIFY_TABLE
    ]
    monkeypatch.setattr(verify, "_VERIFY_TABLE", table)
    assert cli.main(["verify-all"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "fail"
    (bad,) = [row for row in report["payload"]["rows"] if "report" in row]
    assert bad["argv"] == flip.split()
    assert bad["status"] == "pass"
    assert bad["matches"] == {"period": True, "dims": False}
    assert bad["report"]["payload"]["dims"] == [3, 5]
    # the rerun reads the untampered table, but the expected fields are not
    # part of a report, so the reports are the same bytes: the row alone fails
    assert report["payload"]["determinism"]["identical_bytes"] is True


def _tampered_sl2():
    def q(x):
        return CycloNum.rational(1, x)

    # [h,e] = 3e against [h,f] = -2f: antisymmetric but not Jacobi
    table = {
        (0, 1): {1: q(3)},
        (1, 0): {1: q(-3)},
        (0, 2): {2: q(-2)},
        (2, 0): {2: q(2)},
        (1, 2): {0: q(1)},
        (2, 1): {0: q(-1)},
    }
    return MultTableAlgebra(
        dim=3, scalar_order=1, kind=KIND_LIE,
        products=table, basis_labels=("h", "e", "f"),
    )


def test_corrupted_fixture_fails_with_named_triple(monkeypatch):
    built = chevalley.algebra_over

    def tampered(label, order):
        rs, alg = built(label, order)
        return rs, _tampered_sl2() if label == "A1" else alg

    monkeypatch.setattr(chevalley, "algebra_over", tampered)
    rows = _rows(monkeypatch, lambda argv: argv[0] == "build")
    bad = rows[0]
    assert bad["argv"] == ["build", "--type", "A1"] and bad["status"] == "fail"
    violations = bad["report"]["payload"]["validation"]["violations"]
    assert {"indices": [0, 1, 2], "labels": ["h", "e", "f"], "law": "jacobi"} in violations
    # the other fixtures still pass alongside the bad one
    assert len(rows) == 7
    assert all(row["status"] == "pass" and "report" not in row for row in rows[1:])


def test_criterion_7_fails_on_tampered_catalog(monkeypatch):
    real = affine.own_type_forms

    def tamper(label, gcm):
        if str(label) != "D4^(3)":
            return gcm
        # the transpose is G2^(1), a valid affine matrix of the wrong type
        return GCM(entries=tuple(zip(*gcm.entries)))

    monkeypatch.setattr(
        affine,
        "own_type_forms",
        lambda type_label: {label: tamper(label, gcm) for label, gcm in real(type_label).items()},
    )
    rows = _rows(monkeypatch, lambda argv: argv[0] == "extract-gcm")
    failed = {" ".join(row["argv"][2:]) for row in rows if "report" in row}
    assert failed == {
        'D4 --auto {"pi":[3,2,4,1]}',
        'D4 --auto {"pi":[3,2,4,1],"s":[1,0,1,1],"m":3}',
    }
    for row in rows:
        if "report" in row:
            assert row["status"] == "fail"
            assert row["report"]["error"] == (
                "AffineExtractError: the extracted matrix matches no form of D4"
            )
