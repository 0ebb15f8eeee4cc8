import json
from pathlib import Path

import pytest

from loopforms import affine
from loopforms.affine import (
    GCM,
    AffineExtractError,
    AffineLabel,
    affine_catalog,
    affine_certificate,
    affine_roots,
    bordered_untwisted,
    extract_gcm,
    fixed_cartan,
    gcm_equivalent,
    match_affine_label,
    simple_affine_roots,
)
from loopforms.algebra import eigengrading
from loopforms.chevalley import (
    TYPE_LABELS,
    DiagramPermutation,
    ToralCharge,
    algebra_over,
    cartan_matrix,
    compose_pi_toral,
    root_system,
)
from loopforms.classify import conjugacy_classes, dynkin_automorphism_group

GOLDEN = Path(__file__).parent / "golden" / "affine_catalog.json"


def _pipeline(label, images, window=None):
    rank = cartan_matrix(label).rank
    perm = (
        DiagramPermutation.identity(rank)
        if images is None
        else DiagramPermutation(images)
    )
    m = perm.order()
    rs, alg = algebra_over(label, m)
    charge = ToralCharge(s=tuple(0 for _ in range(rank)), modulus=1)
    sigma = compose_pi_toral(alg, rs, perm, charge)
    grading = eigengrading(alg, sigma)
    h0 = fixed_cartan(alg, rs, perm)
    data = affine_roots(alg, grading, h0, window if window is not None else m + 1)
    return alg, data


# -- fixed Cartan ----------------------------------------------------------------


def test_fixed_cartan_a2_flip():
    rs, alg = algebra_over("A2", 2)
    fc = fixed_cartan(alg, rs, DiagramPermutation((1, 0)))
    assert fc.rank == 1
    assert fc.orbits == ((0, 1),)
    assert fc.candidates == ((-2,), (-1,), (0,), (1,), (2,))


def test_fixed_cartan_rejects_bad_permutation():
    rs, alg = algebra_over("B2", 1)
    with pytest.raises(AffineExtractError):
        fixed_cartan(alg, rs, DiagramPermutation((1, 0)))
    with pytest.raises(AffineExtractError):
        fixed_cartan(alg, rs, DiagramPermutation.identity(3))


# -- root data -------------------------------------------------------------------


def test_affine_roots_a1_untwisted_window_3():
    alg, data = _pipeline("A1", None, window=3)
    assert data.period == 1
    weights = {(r.weight, r.degree) for r in data.reals}
    assert weights == {(w, j) for w in ((2,), (-2,)) for j in range(-3, 4)}
    assert all(r.multiplicity == 1 for r in data.reals)
    assert all(r.is_real for r in data.reals)
    imag = {(r.degree, r.multiplicity) for r in data.imaginary}
    assert imag == {(j, 1) for j in (-3, -2, -1, 1, 2, 3)}
    assert all(not any(r.weight) for r in data.imaginary)


def test_affine_roots_a2_flip_layers():
    alg, data = _pipeline("A2", (1, 0), window=2)
    assert data.period == 2
    odd = {r.weight for r in data.reals if r.degree == 1}
    even = {r.weight for r in data.reals if r.degree == 0}
    assert even == {(1,), (-1,)}
    assert odd == {(1,), (-1,), (2,), (-2,)}
    assert {(r.degree, r.multiplicity) for r in data.imaginary} == {
        (-2, 1),
        (-1, 1),
        (1, 1),
        (2, 1),
    }


def test_affine_roots_window_floor():
    rs, alg = algebra_over("A2", 2)
    perm = DiagramPermutation((1, 0))
    charge = ToralCharge(s=(0, 0), modulus=1)
    sigma = compose_pi_toral(alg, rs, perm, charge)
    grading = eigengrading(alg, sigma)
    h0 = fixed_cartan(alg, rs, perm)
    with pytest.raises(AffineExtractError):
        affine_roots(alg, grading, h0, 1)


def test_base_a1_and_exact_gcm():
    alg, data = _pipeline("A1", None)
    base = simple_affine_roots(data)
    assert [(r.weight, r.degree) for r in base] == [((2,), 0), ((-2,), 1)]
    cert = extract_gcm(alg, base, data)
    assert cert.gcm.entries == ((2, -2), (-2, 2))
    obj = cert.to_obj()
    assert obj["det"] == "0"
    assert obj["corank"] == 1


def test_base_a2_flip():
    alg, data = _pipeline("A2", (1, 0))
    base = simple_affine_roots(data)
    assert [(r.weight, r.degree) for r in base] == [((1,), 0), ((-2,), 1)]
    cert = extract_gcm(alg, base, data)
    assert cert.gcm.entries == ((2, -4), (-1, 2))


# -- GCM axioms ------------------------------------------------------------------


@pytest.mark.parametrize(
    "entries",
    [
        ((2, -1), (-1, 2)),  # finite: determinant 3
        ((2, -2, 0, 0), (-2, 2, 0, 0), (0, 0, 2, -2), (0, 0, -2, 2)),  # corank 2
        ((2, 1), (1, 2)),  # positive off-diagonal
        ((2, -1), (0, 2)),  # asymmetric zero pattern
        ((1, -1), (-1, 1)),  # diagonal not 2
        ((2, -2), (-2, 2, 0)),  # not square
    ],
)
def test_gcm_axioms_reject(entries):
    with pytest.raises(AffineExtractError):
        GCM(entries=entries)


# -- the Kac-table catalog ------------------------------------------------------


def _entry(base_type, order):
    return next(
        e
        for e in affine_catalog()
        if e.label.base_type == base_type and e.label.twist_order == order
    )


UNTWISTED = ("A1", "A2", "A3", "B2", "C3", "D4", "G2")


@pytest.mark.parametrize("label", UNTWISTED)
def test_untwisted_catalog_matches_bordered_oracle(label):
    oracle = bordered_untwisted(label)
    assert gcm_equivalent(oracle, _entry(label, 1).gcm) is not None
    # delta = alpha_0 + theta: the marks (1, theta) are a null vector
    marks = (1,) + root_system(cartan_matrix(label)).positives[-1]
    assert all(sum(a * x for a, x in zip(row, marks)) == 0 for row in oracle.entries)


def test_catalog_covers_every_type_and_class_order():
    orders: dict = {}
    for entry in affine_catalog():
        orders.setdefault(entry.label.base_type, []).append(entry.label.twist_order)
    assert sorted(orders) == sorted(TYPE_LABELS)
    for label in TYPE_LABELS:
        classes = conjugacy_classes(dynkin_automorphism_group(cartan_matrix(label)))
        assert sorted(orders[label]) == sorted({rep.order() for rep, _ in classes.classes})


def test_catalog_entries_pairwise_inequivalent():
    entries = list(affine_catalog())
    for i, first in enumerate(entries):
        for second in entries[i + 1:]:
            assert gcm_equivalent(first.gcm, second.gcm) is None, (first.label, second.label)


# the loop algebras the catalog was once extracted from, the A4 flip and B3
EXTRACTED = (
    ("A1", None),
    ("A2", None),
    ("A3", None),
    ("B2", None),
    ("C3", None),
    ("D4", None),
    ("G2", None),
    ("A2", (1, 0)),
    ("A3", (2, 1, 0)),
    ("D4", (0, 1, 3, 2)),
    ("D4", (2, 1, 3, 0)),
    ("A4", (3, 2, 1, 0)),
    ("B3", None),
)


@pytest.mark.parametrize("label,images", EXTRACTED, ids=lambda x: "id" if x is None else str(x))
def test_extractor_agrees_with_catalog(label, images):
    rank = cartan_matrix(label).rank
    perm = DiagramPermutation.identity(rank) if images is None else DiagramPermutation(images)
    report = affine_certificate(label, perm=perm)
    assert (report.label.base_type, report.label.twist_order) == (label, perm.order())
    assert gcm_equivalent(report.gcm, _entry(label, perm.order()).gcm) is not None


def test_certificate_rejects_label_of_another_type(monkeypatch):
    monkeypatch.setattr(affine, "match_affine_label", lambda gcm: AffineLabel("A3", 1))
    with pytest.raises(AffineExtractError):
        affine_certificate("A2")


# -- frozen matrices for the twisted entries ---------------------------------------

TWISTED = {
    ("A2", 2): ((2, -4), (-1, 2)),
    ("A3", 2): ((2, -2, 0), (-1, 2, -1), (0, -2, 2)),
    ("D4", 2): ((2, 0, -2, 0), (0, 2, -1, -1), (-1, -1, 2, 0), (0, -2, 0, 2)),
    ("D4", 3): ((2, -1, 0), (-3, 2, -1), (0, -1, 2)),
}


@pytest.mark.parametrize("key", sorted(TWISTED))
def test_twisted_catalog_matches_frozen_matrices(key):
    frozen = GCM(entries=TWISTED[key])
    assert gcm_equivalent(frozen, _entry(*key).gcm) is not None


def test_catalog_against_golden_file():
    catalog = affine_catalog()
    # 31 untwisted types, 7 A_l^(2), 5 D_l^(2), D4^(3) and E6^(2)
    assert len(catalog) == 45
    recorded = json.loads(GOLDEN.read_text())
    produced = [{"label": str(e.label), "gcm": e.gcm.to_obj()} for e in catalog]
    assert produced == recorded


# -- matching --------------------------------------------------------------------


def _permute(entries, p):
    n = len(entries)
    return tuple(tuple(entries[p[i]][p[j]] for j in range(n)) for i in range(n))


def test_match_handles_reordered_bases():
    original = GCM(entries=TWISTED[("D4", 3)])
    shuffled = GCM(entries=_permute(original.entries, (2, 0, 1)))
    label = match_affine_label(shuffled)
    assert (label.base_type, label.twist_order) == ("D4", 3)


def test_match_rejects_unknown_matrix():
    # A10^(2): A10 is not advertised, and its matrix has the size of the
    # rank-5 entries
    a10_twisted = GCM(entries=(
        (2, -2, 0, 0, 0, 0),
        (-1, 2, -1, 0, 0, 0),
        (0, -1, 2, -1, 0, 0),
        (0, 0, -1, 2, -1, 0),
        (0, 0, 0, -1, 2, -2),
        (0, 0, 0, 0, -1, 2),
    ))
    assert any(e.gcm.size == a10_twisted.size for e in affine_catalog())
    with pytest.raises(AffineExtractError):
        match_affine_label(a10_twisted)


def test_equivalence_distinguishes_same_size():
    a1 = GCM(entries=((2, -2), (-2, 2)))
    a2_twisted = GCM(entries=TWISTED[("A2", 2)])
    assert gcm_equivalent(a1, a2_twisted) is None


# -- end-to-end reports ------------------------------------------------------------


def test_certificate_a2_composed_charge():
    report = affine_certificate(
        "A2",
        perm=DiagramPermutation((1, 0)),
        charge=ToralCharge(s=(1, 1), modulus=2),
    )
    assert str(report.label) == "A2^(2)"
    assert report.period == 2


def test_certificate_window_override():
    default = affine_certificate("A2", perm=DiagramPermutation((1, 0)))
    wide = affine_certificate("A2", perm=DiagramPermutation((1, 0)), window=5)
    assert default.gcm.entries == wide.gcm.entries
    assert str(default.label) == "A2^(2)"


def test_certificate_d4_triality_dims():
    report = affine_certificate("D4", perm=DiagramPermutation((2, 1, 3, 0)))
    assert report.grading_dims == (14, 7, 7)
    assert str(report.label) == "D4^(3)"
    assert report.to_obj()["label"] == "D4^(3)"
