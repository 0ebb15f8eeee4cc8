"""Release gate: every acceptance criterion as a callable returning JSON.

Each criterion_N() either returns a deterministic payload dict (no
timestamps, no floats, stable ordering) or raises; verify_all wraps them
into a pass/fail table and finishes with the determinism row, which reruns
the other criteria in a fresh interpreter under another hash seed and
compares serialized bytes.  Wall-clock budgets are asserted by the test suite
around these calls, never inside the payloads.
"""

from __future__ import annotations

import json
import os
import sys
from math import lcm
from typing import Callable, Optional, Sequence

from .affine import (
    affine_catalog,
    affine_certificate,
    affine_roots,
    extract_gcm,
    fixed_cartan,
    gcm_equivalent,
    graded_twist,
    simple_affine_roots,
)
from .chevalley import (
    DiagramPermutation,
    ToralCharge,
    algebra_over,
    cartan_matrix,
    charge_pairings,
    compose_pi_toral,
    diagram_automorphism,
    standard_algebra,
    TYPE_LABELS,
)
from .classify import (
    classification_table,
    conjugacy_classes,
    dynkin_automorphism_group,
    inverse_conjugacy_check,
    k_vs_r_classes,
)
from .descent import (
    build_cocycle,
    build_matrix_algebra,
    coboundary_witness,
    fixed_point_report,
    matrix_twist_factors,
    untwist_iso,
)
from .grading import eigengrading

__all__ = [
    "CRITERION_NAMES",
    "criterion_1",
    "criterion_2",
    "criterion_3",
    "criterion_4",
    "criterion_5",
    "criterion_6",
    "criterion_7",
    "verify_all",
]

_CONSTRUCTION = (
    ("A1", 3),
    ("A2", 8),
    ("A3", 15),
    ("B2", 10),
    ("C3", 21),
    ("D4", 28),
    ("G2", 14),
)

_FLIP = DiagramPermutation((1, 0))
_TRIALITY = DiagramPermutation((2, 1, 3, 0))

# counted classes for the small catalog of types
_CLASS_COUNTS = (("A1", 1), ("A2", 2), ("A3", 2), ("B2", 1), ("D4", 3), ("G2", 1))


def criterion_1() -> dict:
    """Construction soundness: full antisymmetry + Jacobi, dim = roots + rank.

    Each built type reports the certificate its construction already computed
    (`MultTableAlgebra.validation`); no table is validated twice.
    """
    rows = []
    status = "pass"
    for label, want_dim in _CONSTRUCTION:
        rs, alg = standard_algebra(label)
        report = alg.validation
        row = {
            "fixture": label,
            "dim": alg.dim,
            "roots": len(rs.roots),
            "rank": rs.rank,
            "triples_checked": report.triples_checked,
            "status": "pass" if report.ok else "fail",
        }
        if not report.ok:
            row["violations"] = [str(v) for v in report.violations]
            status = "fail"
        if alg.dim != want_dim or alg.dim != len(rs.roots) + rs.rank:
            row["status"] = "fail"
            row["expected_dim"] = want_dim
            status = "fail"
        rows.append(row)
    return {"status": status, "fixtures": rows}


def _grading_fixtures():
    """Shared automorphism fixtures for the grading and descent criteria."""
    rs1, a1 = algebra_over("A1", 2)
    rs2, a2 = algebra_over("A2", 2)
    rs4, a4 = algebra_over("D4", 3)
    m3, s3 = build_matrix_algebra(3, (0, 1, 2), 3)
    toral = compose_pi_toral(
        a1, rs1, DiagramPermutation.identity(1), ToralCharge(s=(1,), modulus=2)
    )
    composed = compose_pi_toral(a2, rs2, _FLIP, ToralCharge(s=(1, 1), modulus=2))
    return (
        ("A1 toral s=(1) m=2", a1, toral, (1, 2)),
        ("A2 diagram flip", a2, diagram_automorphism(a2, rs2, _FLIP), (3, 5)),
        ("D4 diagram triality", a4,
         diagram_automorphism(a4, rs4, _TRIALITY), (14, 7, 7)),
        ("A2 flip * toral s=(1,1) m=2", a2, composed, None),
        ("M3 conjugation (0,1,2) m=3", m3, s3, None),
    )


def criterion_2() -> dict:
    """Grading laws: dims sum to dim A, products respect residues (a theorem
    of the certified automorphism inside eigengrading), named fixtures hit
    their dims."""
    rows = []
    status = "pass"
    for name, alg, sigma, want in _grading_fixtures():
        grading = eigengrading(alg, sigma)
        row = {
            "fixture": name,
            "period": grading.period,
            "dims": list(grading.dims),
            "dim_total": sum(grading.dims),
            "status": "pass",
        }
        if sum(grading.dims) != alg.dim:
            row["status"] = "fail"
            status = "fail"
        if want is not None and tuple(grading.dims) != want:
            row["status"] = "fail"
            row["expected_dims"] = list(want)
            status = "fail"
        rows.append(row)
    return {"status": status, "fixtures": rows}


def criterion_3() -> dict:
    """Descent: cocycle identity on all m^2 pairs, twisted fixed points equal
    the grading components on every residue, listed for |j| <= 2m."""
    rows = []
    for name, alg, sigma, _ in _grading_fixtures():
        cocycle = build_cocycle(sigma)
        _, fixed_dims = fixed_point_report(cocycle, eigengrading(alg, sigma))
        m = cocycle.period
        rows.append({
            "fixture": name,
            "period": m,
            "pairs_checked": m * m,
            "fixed_dims": fixed_dims,
            "status": "pass",
        })
    return {"status": "pass", "fixtures": rows}


_TORAL_FIXTURES = (
    ("A1 s=(1) m=2", "A1", (1,), 2),
    ("A2 s=(1,0) m=3", "A2", (1, 0), 3),
    ("A2 s=(1,1) m=2", "A2", (1, 1), 2),
    ("D4 s=(1,0,0,0) m=2", "D4", (1, 0, 0, 0), 2),
)

_MATRIX_FIXTURES = (
    ("M2 exponents (0,1) m=2", 2, (0, 1), 2),
    ("M3 exponents (0,1,2) m=3", 3, (0, 1, 2), 3),
)


def _untwist_fixtures():
    """(name, algebra, outer, exponents, m) of each fixture of criterion 4, in
    the order of its rows: the identity outer map with the charge pairings
    of a type label, then with the matrix-unit shifts of M_n."""
    for name, label, s, m in _TORAL_FIXTURES:
        rs, alg = algebra_over(label, m)
        identity = diagram_automorphism(alg, rs, DiagramPermutation.identity(rs.rank))
        yield name, alg, identity, charge_pairings(rs, ToralCharge(s=s, modulus=m)), m
    for name, n, exponents, m in _MATRIX_FIXTURES:
        yield (name, *matrix_twist_factors(n, exponents, m), m)


def criterion_4() -> dict:
    """Triviality witnesses: explicit untwisting of L(tau_s) onto L(id) and
    the coboundary identity u(n) = a^-1 gamma^n(a), per fixture."""
    rows = []
    status = "pass"
    for name, alg, outer, exponents, m in _untwist_fixtures():
        iso = untwist_iso(alg, outer, exponents, m)
        shifts, cob = coboundary_witness(alg, exponents, m)
        checks = [c.to_obj() for c in iso.checks] + [c.to_obj() for c in cob]
        row = {"fixture": name, "period": iso.period,
               "shift_values": sorted(set(shifts)), "checks": checks}
        if any(c["status"] != "pass" for c in checks):
            row["status"] = "fail"
            status = "fail"
        else:
            row["status"] = "pass"
        rows.append(row)
    return {"status": status, "fixtures": rows}


_COMPOSED_FIXTURES = (
    ("A2 flip * s=(1,1) m=2", "A2", _FLIP, (1, 1), 2),
    ("D4 triality * s=(1,0,1,1) m=3", "D4", _TRIALITY, (1, 0, 1, 1), 3),
)


def criterion_5() -> dict:
    """Composed twists: untwisting onto L(pi) passes and the affine label of
    L(pi o tau_s) equals the label of L(pi)."""
    rows = []
    status = "pass"
    for name, label, perm, s, m in _COMPOSED_FIXTURES:
        period = lcm(perm.order(), m)
        rs, alg = algebra_over(label, period)
        charge = ToralCharge(s=s, modulus=m)
        outer = diagram_automorphism(alg, rs, perm)
        iso = untwist_iso(alg, outer, charge_pairings(rs, charge), m)
        composed = affine_certificate(label, perm=perm, charge=charge)
        plain = affine_certificate(label, perm=perm)
        row = {
            "fixture": name,
            "period": iso.period,
            "untwist_checks": [c.to_obj() for c in iso.checks],
            "label_composed": str(composed.label),
            "label_plain": str(plain.label),
        }
        ok = (
            all(c.status == "pass" for c in iso.checks)
            and str(composed.label) == str(plain.label)
        )
        row["status"] = "pass" if ok else "fail"
        if not ok:
            status = "fail"
        rows.append(row)
    return {"status": status, "fixtures": rows}


def criterion_6() -> dict:
    """Classification: class counts, distinct labels, inverse-conjugacy over
    every supported type, and the k-versus-R count comparison."""
    rows = []
    status = "pass"
    for label, want in _CLASS_COUNTS:
        group = dynkin_automorphism_group(cartan_matrix(label))
        h1_classes = len(conjugacy_classes(group).classes)
        table = classification_table(label)
        report = k_vs_r_classes(label)
        row = {
            "type": label,
            "h1_classes": h1_classes,
            "rows": [r.to_obj() for r in table],
            "r_classes": report.r_class_count,
            "k_classes": report.k_class_count,
            "inverse_conjugacy": report.inverse_conjugacy_ok,
            "centroid_trivial": report.centroid_ok,
        }
        ok = (
            h1_classes == want
            and len(table) == want
            and report.r_class_count == report.k_class_count == want
            and report.hypotheses_hold
        )
        if not ok:
            row["expected_classes"] = want
            status = "fail"
        row["status"] = "pass" if ok else "fail"
        rows.append(row)
    inverse_rows = []
    for label in TYPE_LABELS:
        group = dynkin_automorphism_group(cartan_matrix(label))
        report = inverse_conjugacy_check(group)
        inverse_rows.append({"type": label, "order": group.order, "ok": report.ok})
        if not report.ok:
            status = "fail"
    return {"status": status, "types": rows, "inverse_conjugacy": inverse_rows}


def _reversed_base_gcm(type_label: str, perm: Optional[DiagramPermutation]):
    """Rerun the extraction with the base in the opposite order."""
    rank = cartan_matrix(type_label).rank
    if perm is None:
        perm = DiagramPermutation.identity(rank)
    rs, alg, grading = graded_twist(type_label, perm, ToralCharge.trivial(rank))
    h0 = fixed_cartan(alg, rs, perm)
    data = affine_roots(alg, grading, h0)
    base = tuple(reversed(simple_affine_roots(data)))
    return extract_gcm(alg, base, data).gcm


_GCM_FIXTURES = (
    ("A1 untwisted", "A1", None),
    ("A2 flip", "A2", _FLIP),
    ("D4 triality", "D4", _TRIALITY),
)

# one loop algebra per diagram class of the small types, extracted here and
# compared with its entry in the Kac-table catalog
_CATALOG_FIXTURES = (
    ("A1", None),
    ("A2", None),
    ("A3", None),
    ("B2", None),
    ("C3", None),
    ("D4", None),
    ("G2", None),
    ("A2", _FLIP),
    ("A3", DiagramPermutation((2, 1, 0))),
    ("D4", DiagramPermutation((0, 1, 3, 2))),
    ("D4", _TRIALITY),
)


def _catalog_rows() -> list[dict]:
    """Extract every catalog fixture and compare it with its catalog entry."""
    entries = {(e.label.base_type, e.label.twist_order): e for e in affine_catalog()}
    rows = []
    for label, perm in _CATALOG_FIXTURES:
        report = affine_certificate(label, perm=perm)
        entry = entries[(label, report.perm.order())]
        rows.append({
            "label": str(report.label),
            "extracted": report.gcm.to_obj(),
            "catalog": entry.gcm.to_obj(),
            "equivalent": gcm_equivalent(report.gcm, entry.gcm) is not None,
        })
    return rows


def criterion_7() -> dict:
    """GCM certificates: named fixtures match their matrices, re-extraction
    over a reversed base gives a permutation-equivalent GCM, and the
    extractor reproduces the catalog entry of every catalog fixture."""
    catalog_rows = _catalog_rows()
    rows = []
    status = "pass" if all(r["equivalent"] for r in catalog_rows) else "fail"
    for name, label, perm in _GCM_FIXTURES:
        report = affine_certificate(label, perm=perm)
        gcm = report.gcm
        reversed_gcm = _reversed_base_gcm(label, perm)
        n = len(gcm.entries)
        reversal_exact = all(
            reversed_gcm.entries[i][j] == gcm.entries[n - 1 - i][n - 1 - j]
            for i in range(n)
            for j in range(n)
        )
        row = {
            "fixture": name,
            "label": str(report.label),
            "gcm": [list(r) for r in gcm.entries],
            "reversed_base_equivalent": gcm_equivalent(gcm, reversed_gcm) is not None,
            "reversal_exact": reversal_exact,
        }
        ok = row["reversed_base_equivalent"] and reversal_exact
        if name == "A1 untwisted":
            ok = ok and gcm.entries == ((2, -2), (-2, 2))
        if name == "A2 flip":
            ok = ok and n == 2 and gcm.entries[0][1] * gcm.entries[1][0] == 4
        if name == "D4 triality":
            products = {
                gcm.entries[i][j] * gcm.entries[j][i]
                for i in range(n)
                for j in range(n)
                if i != j
            }
            ok = ok and n == 3 and 3 in products
        row["status"] = "pass" if ok else "fail"
        if not ok:
            status = "fail"
        rows.append(row)
    return {"status": status, "fixtures": rows, "catalog": catalog_rows}


CRITERION_NAMES = (
    (1, "construction-soundness"),
    (2, "grading-laws"),
    (3, "descent-cocycle"),
    (4, "triviality-witnesses"),
    (5, "composed-twist-labels"),
    (6, "classification-counts"),
    (7, "gcm-certificates"),
    (8, "determinism"),
)

_RUNNERS: dict[int, Callable[[], dict]] = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
}


def _run_one(cid: int) -> dict:
    name = dict(CRITERION_NAMES)[cid]
    try:
        payload = _RUNNERS[cid]()
    except Exception as exc:  # any crash is a failed criterion, with the reason
        return {"id": cid, "name": name, "status": "fail",
                "payload": {"error": f"{type(exc).__name__}: {exc}"}}
    return {"id": cid, "name": name, "status": payload["status"], "payload": payload}


def _serialized(rows: list[dict]) -> bytes:
    return json.dumps(rows, sort_keys=True).encode()


# the rerun of criterion 8: the criteria named in argv, serialized to stdout
_RERUN = (
    "import sys\n"
    "from loopforms.acceptance import _run_one, _serialized\n"
    "sys.stdout.buffer.write(_serialized([_run_one(int(c)) for c in sys.argv[1:]]))\n"
)


def _fresh_rerun(ids: Sequence[int]) -> bytes:
    """The serialized rows of `ids` from a new interpreter, which shares no
    cache with this one, under a hash seed other than this process's."""
    import subprocess

    seed = os.environ.get("PYTHONHASHSEED", "")
    env = dict(os.environ)
    # 0 when this process hashes at random, else the next seed
    env["PYTHONHASHSEED"] = str((int(seed) + 1) % 2**32) if seed.isdigit() else "0"
    # the directory holding this package, so the child imports this same code
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    child = subprocess.run(
        [sys.executable, "-c", _RERUN, *map(str, ids)], capture_output=True, env=env
    )
    return child.stdout if child.returncode == 0 else b""


def verify_all(selected: Optional[Sequence[int]] = None) -> dict:
    """Run the acceptance criteria and aggregate into one pass/fail table.

    selected=None means all eight; an empty sequence yields an empty passing
    report.  The determinism criterion reruns the other selected criteria in
    a fresh interpreter under another hash seed and compares the serialized
    bytes, so it always comes last.
    """
    ids = [cid for cid, _ in CRITERION_NAMES] if selected is None else list(selected)
    for cid in ids:
        if cid not in dict(CRITERION_NAMES):
            raise ValueError(f"unknown criterion id {cid}")
    rerun_ids = [cid for cid in ids if cid != 8]
    rows = [_run_one(cid) for cid in rerun_ids]
    if 8 in ids:
        first = _serialized(rows)
        identical = first == _fresh_rerun(rerun_ids)
        rows.append({
            "id": 8,
            "name": "determinism",
            "status": "pass" if identical else "fail",
            "payload": {"status": "pass" if identical else "fail",
                        "identical_bytes": identical,
                        "bytes": len(first)},
        })
    status = "pass" if all(r["status"] == "pass" for r in rows) else "fail"
    return {"criteria": rows, "status": status}
