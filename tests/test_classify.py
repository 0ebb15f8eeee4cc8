import json
import sys
from functools import cached_property, lru_cache
from itertools import permutations
from types import SimpleNamespace

import pytest

from dense import inverse_witnesses
from ledger import assert_replays, recorder
from loopforms import chevalley, classify, cli, grading
from loopforms.affine import AffineLabel
from loopforms.chevalley import TYPE_LABELS, DiagramPermutation, cartan_matrix
from loopforms.classify import (
    ClassifyError,
    OutGroup,
    classify_type,
    dynkin_automorphism_group,
)

# element counts of the Dynkin symmetry groups, and their class counts
GROUP_TABLE = {
    "A1": (1, 1),
    "A2": (2, 2),
    "A3": (2, 2),
    "B2": (1, 1),
    "C3": (1, 1),
    "D4": (6, 3),
    "G2": (1, 1),
    "F4": (1, 1),
    "D5": (2, 2),
    "E6": (2, 2),
    "E7": (1, 1),
}


@pytest.mark.parametrize("label,expected", sorted(GROUP_TABLE.items()))
def test_group_orders_and_class_counts(label, expected):
    order, classes = expected
    group = dynkin_automorphism_group(cartan_matrix(label))
    assert len(group.elements) == order
    assert len(group.classes) == classes
    assert sum(size for _, size in group.classes) == order


@pytest.mark.parametrize("label", [t for t in TYPE_LABELS if cartan_matrix(t).rank <= 7])
def test_group_equals_brute_force_over_permutations(label):
    cartan = cartan_matrix(label)
    want = [
        images
        for images in permutations(range(cartan.rank))
        if DiagramPermutation(images).preserves(cartan)
    ]
    assert [g.images for g in dynkin_automorphism_group(cartan).elements] == want


def test_d4_class_sizes():
    group = dynkin_automorphism_group(cartan_matrix("D4"))
    assert sorted(size for _, size in group.classes) == [1, 2, 3]
    orders = sorted(rep.order() for rep, _ in group.classes)
    assert orders == [1, 2, 3]


@pytest.mark.parametrize("label, order", [("A10", 2), ("A25", 2), ("D12", 2), ("D18", 2), ("B18", 1)])
def test_group_past_rank_9_needs_no_budget(label, order):
    # node_isomorphisms prunes its search, so the group has no rank limit of
    # its own: cartan_matrix's size limit is the one a label meets
    assert len(dynkin_automorphism_group(cartan_matrix(label)).elements) == order


# -- subgroups of Out -------------------------------------------------------------

D4 = cartan_matrix("D4")
# the triality rotation 1 -> 3 -> 4 -> 1 of D4's outer nodes, 0-based
ROTATION = DiagramPermutation((2, 1, 3, 0))


def _cyclic3():
    """D4's triality subgroup, cyclic of order 3."""
    return OutGroup(
        elements=(DiagramPermutation((0, 1, 2, 3)), ROTATION, ROTATION.inverse()), cartan=D4
    )


def test_group_axioms_are_checked():
    identity = DiagramPermutation((0, 1, 2, 3))
    # no element, so no identity
    with pytest.raises(ClassifyError, match="missing identity"):
        OutGroup(elements=(), cartan=D4)
    with pytest.raises(ClassifyError, match="duplicate elements"):
        OutGroup(elements=(identity, identity), cartan=D4)
    with pytest.raises(ClassifyError, match="missing identity"):
        OutGroup(elements=(ROTATION,), cartan=D4)
    with pytest.raises(ClassifyError, match="not closed under inversion"):
        OutGroup(elements=(identity, ROTATION), cartan=D4)
    # closed under inversion, but the flips (0 2) and (0 3) compose to a
    # rotation
    flips = (DiagramPermutation((2, 1, 0, 3)), DiagramPermutation((3, 1, 2, 0)))
    with pytest.raises(ClassifyError, match="not closed under composition"):
        OutGroup(elements=(identity, *flips), cartan=D4)
    with pytest.raises(ClassifyError, match="element does not preserve the Cartan matrix"):
        OutGroup(
            elements=(DiagramPermutation((0, 1)), DiagramPermutation((1, 0))),
            cartan=cartan_matrix("B2"),  # flip does not preserve B2
        )
    # the identity of rank 3 fixes the two nodes of A2 but is no symmetry of it
    with pytest.raises(ClassifyError, match="element does not preserve the Cartan matrix"):
        OutGroup(elements=(DiagramPermutation((0, 1, 2)),), cartan=cartan_matrix("A2"))


@pytest.mark.parametrize("label", ["A2", "A3"])
def test_group_of_mixed_lengths_is_refused(label):
    # the element of the other rank, the longer one for A2 and the shorter
    # for A3, fails preserves before the closure loops, where composing the
    # two would index past the shorter permutation
    elements = (DiagramPermutation((0, 1)), DiagramPermutation((0, 1, 2)))
    if label == "A3":
        elements = elements[::-1]
    with pytest.raises(ClassifyError, match="element does not preserve the Cartan matrix"):
        OutGroup(elements=elements, cartan=cartan_matrix(label))


def test_cyclic3_shows_the_k_vs_r_gap():
    """A cyclic group of order 3 is abelian, so conjugation never reaches the
    inverse; merging inverse classes drops 3 classes to 2."""
    group = _cyclic3()
    assert [size for _, size in group.classes] == [1, 1, 1]
    # the two rotations are each other's inverse class
    assert group.inverses == (0, 2, 1)
    assert group.k_classes == 2
    assert not group.inverse_conjugacy


@pytest.mark.parametrize("label", [*TYPE_LABELS, "cyclic3"])
def test_inverse_classes_match_the_witness_search(label):
    group = _cyclic3() if label == "cyclic3" else dynkin_automorphism_group(cartan_matrix(label))
    witnesses = inverse_witnesses(group)
    assert group.inverse_conjugacy == all(h is not None for _, h in witnesses)
    # merge the class of each g with the class of g^-1, which is g's own when
    # the search finds a witness
    class_of = {im: index for index, orbit in enumerate(group.members) for im in orbit}
    merged = set()
    for g, h in witnesses:
        own = class_of[g.images]
        merged.add(frozenset((own, own if h is not None else class_of[g.inverse().images])))
    assert group.k_classes == len(merged)


# -- classification tables --------------------------------------------------------


def test_classification_rows_a2():
    rows = classify_type("A2").rows
    assert [str(r.affine_label) for r in rows] == ["A2^(1)", "A2^(2)"]
    assert [r.twist_order for r in rows] == [1, 2]
    assert [r.class_size for r in rows] == [1, 1]
    assert rows[0].grading_dims == (8,)
    assert rows[1].grading_dims == (3, 5)


def test_classification_rows_d4():
    rows = classify_type("D4").rows
    assert sorted(str(r.affine_label) for r in rows) == ["D4^(1)", "D4^(2)", "D4^(3)"]
    by_order = {r.twist_order: r for r in rows}
    assert by_order[1].grading_dims == (28,)
    assert by_order[2].grading_dims == (21, 7)
    assert by_order[3].grading_dims == (14, 7, 7)
    # twist orders line up with the conjugacy representatives
    group = dynkin_automorphism_group(cartan_matrix("D4"))
    assert sorted(r.twist_order for r in rows) == sorted(
        rep.order() for rep, _ in group.classes
    )


@pytest.mark.parametrize("label,count", [("A1", 1), ("B2", 1), ("G2", 1), ("A3", 2)])
def test_classification_row_counts(label, count):
    assert len(classify_type(label).rows) == count


def test_k_vs_r_equal_with_hypotheses():
    result = classify_type("A3")
    assert result.hypotheses_hold
    assert result.r_classes == result.k_classes == 2
    for row in result.rows:
        assert row.centroid_dims[0] == 1
        assert all(d == 0 for d in row.centroid_dims[1:])


def test_k_vs_r_single_class_b2():
    result = classify_type("B2")
    assert result.r_classes == result.k_classes == 1
    assert result.hypotheses_hold


# -- what a classify request checks, and how often it builds Out ------------------


def _classify_a2(capsys):
    code = cli.main(["classify", "--type", "A2"])
    return code, json.loads(capsys.readouterr().out)


def test_classify_fails_on_a_nontrivial_centroid(monkeypatch, capsys):
    # every class reports dims (1, 1): the flip class expects (1, 0), and
    # the identity class one dim for its one shift
    monkeypatch.setattr(
        classify, "centroid_graded", lambda alg, grading: (SimpleNamespace(solution_dim=1),) * 2
    )
    code, report = _classify_a2(capsys)
    assert code == 1
    assert report["status"] == "fail"
    assert report["payload"]["centroid_trivial"] is False


def test_classify_refuses_classes_that_share_a_label(monkeypatch, capsys):
    real = classify.affine_certificate

    def untwisted_label(type_label, alg, sigma):
        report = real(type_label, alg, sigma)
        return SimpleNamespace(label=AffineLabel(type_label, 1), grading=report.grading)

    monkeypatch.setattr(classify, "affine_certificate", untwisted_label)
    code, report = _classify_a2(capsys)
    assert code == 1
    assert report["status"] == "fail"
    assert report["error"].startswith("ClassifyError: classes share an affine label: ")


def test_classify_builds_out_and_its_class_table_once(monkeypatch, capsys):
    calls = dict.fromkeys(
        ("dynkin_automorphism_group", "members", "eigengrading", "_fold", "check_twist"), 0
    )

    def counting(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    monkeypatch.setattr(
        classify,
        "dynkin_automorphism_group",
        counting("dynkin_automorphism_group", classify.dynkin_automorphism_group),
    )
    # the orbit walk that every column of the class table is read from
    members = cached_property(counting("members", OutGroup.members.func))
    members.__set_name__(OutGroup, "members")
    monkeypatch.setattr(OutGroup, "members", members)
    # rebind every alias of eigengrading and check_twist, so a call from
    # any module is counted
    for name, real in (
        ("eigengrading", grading.eigengrading),
        ("check_twist", chevalley.check_twist),
    ):
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("loopforms") and (
                getattr(module, name, None) is real
            ):
                monkeypatch.setattr(module, name, counting(name, real))
    monkeypatch.setattr(chevalley, "_fold", counting("_fold", chevalley._fold))
    # an empty type cache, as in a fresh process
    fresh = lru_cache(maxsize=None)(chevalley._type_fold.__wrapped__)
    monkeypatch.setattr(chevalley, "_type_fold", fresh)
    assert cli.main(["classify", "--type", "D4"]) == 0
    capsys.readouterr()
    # three classes, each graded once: its centroid is solved on the grading
    # its label was read from, and all three write their tables from the
    # one D4 fold; each class's pi is checked once, by type_twist_factors,
    # and not again by its diagram map or the extraction
    assert calls == {
        "dynkin_automorphism_group": 1,
        "members": 1,
        "eigengrading": 3,
        "_fold": 1,
        "check_twist": 3,
    }


# -- recorded stdout, and the types the ledger leaves out ----------------------


@pytest.mark.parametrize("label", ["E7", "E8"])
def test_classify_passes_on_the_types_the_golden_file_leaves_out(label, capsys):
    # one class row per R-isomorphism class, on the cached E7 and E8 tables
    assert cli.main(["classify", "--type", label]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "pass"
    assert report["payload"]["r_classes"] == len(report["payload"]["classes"])


def test_centroid_and_classify_stdout_match_golden_digests():
    # each request's stdout, as the ledger records it
    requests = recorder.centroid_requests()
    # 43 centroid classes, 29 classify requests, 2 composed A3 and 8 M4
    # variants, and M6 twisted and untwisted
    assert len(requests) == 84
    ledger = recorder.load()
    assert all(ledger[recorder.key(argv)]["exit"] == 0 for argv in requests)
    assert_replays(requests)
