import hashlib
import importlib.util
import json
from itertools import permutations
from pathlib import Path
from types import SimpleNamespace

import pytest

from loopforms import classify, cli
from loopforms.affine import AffineLabel
from loopforms.chevalley import TYPE_LABELS, DiagramPermutation, cartan_matrix
from loopforms.classify import (
    ClassifyError,
    OutGroup,
    classify_type,
    conjugacy_classes,
    dynkin_automorphism_group,
    inverse_conjugacy_check,
    k_class_count,
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
    assert group.order == order
    table = conjugacy_classes(group)
    assert len(table.classes) == classes
    assert sum(size for _, size in table.classes) == order


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
    table = conjugacy_classes(dynkin_automorphism_group(cartan_matrix("D4")))
    assert sorted(size for _, size in table.classes) == [1, 2, 3]
    orders = sorted(rep.order() for rep, _ in table.classes)
    assert orders == [1, 2, 3]


def test_rank_budget_guard():
    with pytest.raises(ClassifyError, match="rank above the brute-force budget"):
        dynkin_automorphism_group(cartan_matrix("A10"))


# -- abstract groups -------------------------------------------------------------


def _cyclic3():
    return OutGroup(elements=(
        DiagramPermutation((0, 1, 2)),
        DiagramPermutation((1, 2, 0)),
        DiagramPermutation((2, 0, 1)),
    ))


def test_group_axioms_are_checked():
    identity, rotation = DiagramPermutation((0, 1, 2)), DiagramPermutation((1, 2, 0))
    with pytest.raises(ClassifyError, match="group must be nonempty"):
        OutGroup(elements=())
    with pytest.raises(ClassifyError, match="duplicate elements"):
        OutGroup(elements=(identity, identity))
    with pytest.raises(ClassifyError, match="missing identity"):
        OutGroup(elements=(rotation,))
    with pytest.raises(ClassifyError, match="not closed under inversion"):
        OutGroup(elements=(identity, rotation))
    # closed under inversion, but the flips compose to a rotation
    flips = (DiagramPermutation((0, 2, 1)), DiagramPermutation((1, 0, 2)))
    with pytest.raises(ClassifyError, match="not closed under composition"):
        OutGroup(elements=(identity, *flips))
    with pytest.raises(ClassifyError, match="element does not preserve the Cartan matrix"):
        OutGroup(
            elements=(DiagramPermutation((0, 1)), DiagramPermutation((1, 0))),
            cartan=cartan_matrix("B2"),  # flip does not preserve B2
        )


def test_cyclic3_shows_the_k_vs_r_gap():
    """A cyclic group of order 3 is abelian, so conjugation never reaches the
    inverse; merging inverse classes drops 3 classes to 2."""
    c3 = _cyclic3()
    table = conjugacy_classes(c3)
    assert len(table.classes) == 3
    assert k_class_count(table) == 2
    report = inverse_conjugacy_check(c3)
    assert not report.ok
    missing = [g for g, h in report.witnesses if h is None]
    assert len(missing) == 2


def test_conjugacy_class_lookup():
    group = dynkin_automorphism_group(cartan_matrix("D4"))
    table = conjugacy_classes(group)
    flip = DiagramPermutation((0, 1, 3, 2))
    other_flip = DiagramPermutation((3, 1, 2, 0))
    assert table.class_of(flip) == table.class_of(other_flip)
    with pytest.raises(ClassifyError, match="element not in the group"):
        table.class_of(DiagramPermutation((1, 0, 2, 3)))


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
    table = conjugacy_classes(dynkin_automorphism_group(cartan_matrix("D4")))
    assert sorted(r.twist_order for r in rows) == sorted(
        rep.order() for rep, _ in table.classes
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

    def untwisted_label(type_label, perm):
        dims = real(type_label, perm=perm).grading_dims
        return SimpleNamespace(label=AffineLabel(type_label, 1), grading_dims=dims)

    monkeypatch.setattr(classify, "affine_certificate", untwisted_label)
    code, report = _classify_a2(capsys)
    assert code == 1
    assert report["status"] == "fail"
    assert report["error"].startswith("ClassifyError: classes share an affine label: ")


def test_classify_refuses_counts_that_differ_under_both_hypotheses(monkeypatch, capsys):
    monkeypatch.setattr(classify, "k_class_count", lambda table: len(table.classes) + 1)
    code, report = _classify_a2(capsys)
    assert code == 1
    assert report["error"] == "ClassifyError: hypotheses hold but counts differ: 2 vs 3"


def test_classify_builds_out_and_its_class_table_once(monkeypatch, capsys):
    calls = {"dynkin_automorphism_group": 0, "conjugacy_classes": 0}
    for name in calls:
        real = getattr(classify, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(classify, name, counted)
    assert cli.main(["classify", "--type", "D4"]) == 0
    capsys.readouterr()
    assert calls == {"dynkin_automorphism_group": 1, "conjugacy_classes": 1}


# -- recorded stdout ---------------------------------------------------------------

CENTROID_GOLDEN = Path(__file__).parent / "golden" / "centroid_classify.json"
POOL = Path(__file__).resolve().parent.parent / "perfbench" / "pool.py"


def _pool_requests(names):
    spec = importlib.util.spec_from_file_location("perfbench_pool", POOL)
    pool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pool)
    return [argv for name, requests in pool.strata("twist") if name in names for argv in requests]


def _centroid_classify_requests():
    """centroid of every diagram-class representative and classify of every
    type but E7 and E8, then the benchmark's centroid variants."""
    labels = [label for label in TYPE_LABELS if label not in ("E7", "E8")]
    requests = []
    for label in labels:
        for rep, _ in conjugacy_classes(dynkin_automorphism_group(cartan_matrix(label))).classes:
            argv = ["centroid", "--type", label]
            if rep.order() > 1:
                argv += ["--auto", json.dumps({"pi": [i + 1 for i in rep.images]}, separators=(",", ":"))]
            requests.append(argv)
    requests += [["classify", "--type", label] for label in labels]
    # the pool's first A3 variant is the diagram class above
    return requests + [
        argv for argv in _pool_requests(("centroid A3", "centroid M4")) if argv not in requests
    ]


@pytest.mark.parametrize("label", ["E7", "E8"])
def test_classify_passes_on_the_types_the_golden_file_leaves_out(label, capsys):
    # one class row per R-isomorphism class, on the cached E7 and E8 tables
    assert cli.main(["classify", "--type", label]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "pass"
    assert report["payload"]["r_classes"] == len(report["payload"]["classes"])


def test_centroid_and_classify_stdout_match_golden_digests(capsys):
    # the sha256 of each request's stdout, as recorded in the golden file
    recorded = json.loads(CENTROID_GOLDEN.read_text())
    requests = _centroid_classify_requests()
    # 43 centroid classes, 29 classify requests, 2 composed A3 and 8 M4 variants
    assert len(requests) == 82
    assert sorted(recorded) == sorted(json.dumps(argv, separators=(",", ":")) for argv in requests)
    changed = []
    for argv in requests:
        assert cli.main(argv) == 0, argv
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        if digest != recorded[json.dumps(argv, separators=(",", ":"))]:
            changed.append(argv)
    assert changed == []
