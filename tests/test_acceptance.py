"""Acceptance gate: one pass/fail line per criterion, with the stated
wall-clock budgets measured around the criterion that carries them."""

import time

import pytest

from loopforms import acceptance
from loopforms.acceptance import CRITERION_NAMES, verify_all
from loopforms.affine import GCM, CatalogEntry, affine_catalog
from loopforms.algebra import KIND_LIE, MultTableAlgebra, make_table
from loopforms.cyclo import CycloNum

BUDGETS = {1: 10.0, 2: 60.0, 4: 10.0, 5: 10.0, 6: 2.0}


@pytest.mark.parametrize("cid,name", CRITERION_NAMES[:-1])
def test_criterion(cid, name):
    started = time.monotonic()
    report = verify_all(selected=[cid])
    wall = time.monotonic() - started
    row = report["criteria"][0]
    print(f"criterion {cid} ({name}): {row['status'].upper()} in {wall:.1f}s")
    assert row["status"] == "pass", row["payload"]
    if cid in BUDGETS:
        assert wall < BUDGETS[cid], f"criterion {cid} took {wall:.1f}s"


def test_criterion_8_determinism():
    report = verify_all()
    rows = {r["id"]: r for r in report["criteria"]}
    print(f"criterion 8 (determinism): {rows[8]['status'].upper()}")
    assert rows[8]["payload"]["identical_bytes"] is True
    assert rows[8]["payload"]["bytes"] > 0
    assert [r["id"] for r in report["criteria"]] == list(range(1, 9))
    assert all(r["status"] == "pass" for r in report["criteria"])
    assert report["status"] == "pass"


# -- failure and edge behavior of the runner ----------------------------------------


def _tampered_sl2():
    def q(x):
        return CycloNum.rational(1, x)

    # [h,e] = 3e against [h,f] = -2f: antisymmetric but not Jacobi
    table = make_table({
        (0, 1): {1: q(3)},
        (1, 0): {1: q(-3)},
        (0, 2): {2: q(-2)},
        (2, 0): {2: q(2)},
        (1, 2): {0: q(1)},
        (2, 1): {0: q(-1)},
    })
    return MultTableAlgebra(
        dim=3, scalar_order=1, kind=KIND_LIE,
        constants=table, basis_labels=("h", "e", "f"),
    )


def test_corrupted_fixture_fails_with_named_triple(monkeypatch):
    built = acceptance.standard_algebra

    def tampered(label):
        rs, alg = built(label)
        return rs, _tampered_sl2() if label == "A1" else alg

    monkeypatch.setattr(acceptance, "standard_algebra", tampered)
    payload = acceptance.criterion_1()
    assert payload["status"] == "fail"
    bad = next(r for r in payload["fixtures"] if r["fixture"] == "A1")
    assert bad["status"] == "fail"
    assert any("jacobi fails on (h, e, f)" == v for v in bad["violations"])
    # the other fixtures still pass alongside the bad one
    good = [r for r in payload["fixtures"] if r["fixture"] != "A1"]
    assert good and all(r["status"] == "pass" for r in good)


def test_criterion_7_fails_on_tampered_catalog(monkeypatch):
    def tamper(entry):
        if str(entry.label) != "D4^(3)":
            return entry
        # the transpose is G2^(1), a valid affine matrix of the wrong type
        return CatalogEntry(label=entry.label, gcm=GCM(entries=tuple(zip(*entry.gcm.entries))))

    tampered = tuple(tamper(e) for e in affine_catalog())
    monkeypatch.setattr(acceptance, "affine_catalog", lambda: tampered)
    row = verify_all(selected=[7])["criteria"][0]
    assert row["status"] == "fail"
    rows = {r["label"]: r["equivalent"] for r in row["payload"]["catalog"]}
    assert rows.pop("D4^(3)") is False
    assert all(rows.values())


def test_empty_selection_gives_empty_passing_report():
    assert verify_all(selected=[]) == {"criteria": [], "status": "pass"}


def test_unknown_criterion_id_rejected():
    with pytest.raises(ValueError):
        verify_all(selected=[9])
