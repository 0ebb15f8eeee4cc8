import json
import random
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

from dense import kernel_affine_roots
from ledger import assert_replays, recorder
from loopforms import affine, cli
from loopforms.acceptance import _CATALOG_FIXTURES
from loopforms.affine import (
    GCM,
    AffineExtractError,
    AffineLabel,
    AffineRoot,
    AffineRootData,
    FixedCartan,
    affine_catalog,
    affine_certificate,
    affine_roots,
    bordered_untwisted,
    extract_gcm,
    fixed_cartan,
    gcm_equivalent,
    simple_affine_roots,
)
from loopforms.chevalley import (
    TYPE_LABELS,
    DiagramPermutation,
    ToralCharge,
    algebra_over,
    cartan_matrix,
    node_isomorphisms,
    root_system,
    type_twist_factors,
)
from loopforms.classify import conjugacy_classes, dynkin_automorphism_group
from loopforms.cyclo import CycloNum, zeta_power
from loopforms.grading import ComponentSolver, eigengrading, twist
from loopforms.linalg import SpanSolver

GOLDEN = Path(__file__).parent / "golden" / "affine_catalog.json"


def _twist(label, perm=None, s=None, m=1):
    """The algebra, root system, grading and fixed Cartan of L(pi o tau_s)."""
    rank = cartan_matrix(label).rank
    perm = perm or DiagramPermutation.identity(rank)
    charge = ToralCharge(s=s or (0,) * rank, modulus=m)
    rs, alg, *factors = type_twist_factors(label, perm, charge)
    grading = eigengrading(alg, twist(alg, *factors))
    return alg, rs, grading, fixed_cartan(alg, rs, perm)


def _pipeline(label, images):
    perm = None if images is None else DiagramPermutation(images)
    alg, _, grading, h0 = _twist(label, perm)
    return alg, affine_roots(alg, grading, h0)


# -- fixed Cartan ----------------------------------------------------------------


def test_fixed_cartan_a2_flip():
    rs, alg = algebra_over("A2", 2)
    fc = fixed_cartan(alg, rs, DiagramPermutation((1, 0)))
    assert fc.rank == 1
    assert fc.orbits == ((0, 1),)


def test_fixed_cartan_rejects_bad_permutation():
    rs, alg = algebra_over("B2", 1)
    # refused by chevalley.check_twist, with the error class of this layer
    with pytest.raises(AffineExtractError, match=r"Cartan matrix of B2: pi = \[2, 1\]"):
        fixed_cartan(alg, rs, DiagramPermutation((1, 0)))
    with pytest.raises(AffineExtractError, match=r"Cartan matrix of B2: pi = \[1, 2, 3\]"):
        fixed_cartan(alg, rs, DiagramPermutation.identity(3))


# -- root data -------------------------------------------------------------------


def test_affine_roots_a1_untwisted_one_period():
    # one residue: degrees -1, 0 and 1 of the untwisted A1 all read component 0
    alg, data = _pipeline("A1", None)
    assert data.period == 1
    (space,) = data.spaces
    assert {w: len(vs) for w, vs in space.items()} == {(-2,): 1, (0,): 1, (2,): 1}
    assert list(space) == sorted(space)
    for j in range(-1, 2):
        for w, vectors in space.items():
            assert data.space(w, j) == vectors
    assert data.space((4,), 1) == ()


def test_affine_roots_a2_flip_layers():
    alg, data = _pipeline("A2", (1, 0))
    assert data.period == 2
    even, odd = ({w: len(vs) for w, vs in space.items()} for space in data.spaces)
    assert even == {(-1,): 1, (0,): 1, (1,): 1}
    assert odd == {(-2,): 1, (-1,): 1, (0,): 1, (1,): 1, (2,): 1}
    assert data.space((2,), -1) == data.spaces[1][(2,)]
    assert data.space((2,), 2) == ()


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


# toral charges whose simple roots sit at degrees past 1: (type, zero-based pi
# or None, s, m, the label of L(pi))
TORAL = (
    ("A1", None, (1,), 5, "A1^(1)"),
    ("A1", None, (2,), 5, "A1^(1)"),
    ("A1", None, (3,), 5, "A1^(1)"),
    ("A2", None, (0, 0), 2, "A2^(1)"),
    ("A2", (1, 0), (2, 2), 5, "A2^(2)"),
    ("D4", (3, 1, 0, 2), (1, 3, 1, 1), 5, "D4^(3)"),
)


def _toral_id(case):
    label, images, s, m, _ = case
    return f"{label} pi={images} s={s} m={m}"


@pytest.mark.parametrize("case", TORAL, ids=_toral_id)
def test_toral_twist_has_the_label_of_its_diagram_part(case):
    # the label of L(pi o tau_s) is the label of L(pi); the base reaches
    # degrees up to deg delta, not only 0 and 1
    label, images, s, m, want = case
    perm = None if images is None else DiagramPermutation(images)
    composed = affine_certificate(label, perm=perm, charge=ToralCharge(s=s, modulus=m))
    plain = affine_certificate(label, perm=perm)
    assert str(composed.label) == str(plain.label) == want
    assert max(r.degree for r in composed.certificate.base) > 1


# the twists of the benchmark's identify workload: (type, pi, s, m)
_POOL_TWISTS = (
    ("A2", DiagramPermutation((1, 0)), None, 1),
    ("A2", DiagramPermutation((1, 0)), (1, 1), 2),
    ("A2", DiagramPermutation((1, 0)), (1, 1), 4),
    ("A2", DiagramPermutation((1, 0)), (3, 3), 4),
    ("A3", DiagramPermutation((2, 1, 0)), None, 1),
    ("D4", DiagramPermutation.from_one_based((4, 2, 1, 3)), None, 1),
    ("D4", DiagramPermutation.from_one_based((3, 2, 1, 4)), None, 1),
    ("D4", DiagramPermutation.from_one_based((4, 2, 3, 1)), None, 1),
)

_DIFFERENTIAL = (
    tuple((label, perm, None, 1) for label, perm in _CATALOG_FIXTURES)
    + _POOL_TWISTS
    + tuple(
        (label, None if images is None else DiagramPermutation(images), s, m)
        for label, images, s, m, _ in TORAL
    )
)


def _twist_id(case):
    label, perm, s, m = case
    return f"{label} pi={None if perm is None else perm.images} s={s} m={m}"


@pytest.mark.parametrize("case", _DIFFERENTIAL, ids=_twist_id)
def test_weights_read_off_the_grading_equal_candidate_kernels(case):
    alg, rs, grading, h0 = _twist(*case)
    fast = affine_roots(alg, grading, h0)
    slow = kernel_affine_roots(alg, rs, grading, h0)
    assert fast == slow


@pytest.mark.parametrize("fixture", _CATALOG_FIXTURES, ids=lambda f: _twist_id((*f, None, 1)))
def test_fixed_cartan_solver_equals_span_solver(fixture):
    # the coroot coordinates of every [e, f], read on the orbit sums and
    # solved by elimination
    alg, _, grading, h0 = _twist(*fixture)
    data = affine_roots(alg, grading, h0)
    fast, slow = ComponentSolver(h0.basis), SpanSolver(h0.basis)
    for res, space in enumerate(data.spaces):
        for w, vectors in space.items():
            if not any(w):
                continue
            (e,) = vectors
            (f,) = data.space(tuple(-x for x in w), -res)
            ef = alg.product_sparse(e, f)
            assert fast.coords(ef) is not None
            assert fast.coords(ef) == slow.coords(ef)
            assert fast.coords(e) is None and slow.coords(e) is None


def test_affine_roots_rejects_a_fixed_cartan_that_is_not_diagonal():
    alg, rs, grading, h0 = _twist("A2")
    # h_1 plus one root vector: ad of it moves the Cartan vectors into e_alpha
    tampered = dict(h0.basis[0])
    tampered[rs.rank] = CycloNum.one(alg.scalar_order)
    h0 = FixedCartan(basis=(tampered,) + h0.basis[1:], orbits=h0.orbits)
    with pytest.raises(
        AffineExtractError, match="a vector of component 0 is not diagonal under the fixed Cartan"
    ):
        affine_roots(alg, grading, h0)


def test_affine_roots_rejects_non_integral_weights():
    alg, _, grading, h0 = _twist("A2")
    half = CycloNum.rational(alg.scalar_order, Fraction(1, 2))
    basis = tuple({i: half * x for i, x in b.items()} for b in h0.basis)
    h0 = FixedCartan(basis=basis, orbits=h0.orbits)
    with pytest.raises(AffineExtractError, match="has weight .*, not a rational integer"):
        affine_roots(alg, grading, h0)


def test_affine_roots_rejects_a_fixed_cartan_that_does_not_control_the_twist():
    # the untwisted grading of A2 read on the flip's fixed Cartan h1 + h2:
    # alpha_1 and alpha_2 have the same weight 1 there, and the negatives,
    # met first, the weight -1
    alg, rs, grading, _ = _twist("A2")
    h0 = fixed_cartan(alg, rs, DiagramPermutation((1, 0)))
    with pytest.raises(
        AffineExtractError, match=r"real root \(-1,\) in residue 0 has multiplicity 2"
    ):
        affine_roots(alg, grading, h0)
    # on a fixed Cartan of rank 0 every vector has weight zero
    empty = FixedCartan(basis=(), orbits=())
    with pytest.raises(
        AffineExtractError,
        match="zero-weight space in residue 0 exceeds the fixed Cartan; unsupported twist shape",
    ):
        affine_roots(alg, grading, empty)


def test_simple_roots_need_rank_plus_one_roots():
    # A1^(1) without the weight -2: delta - alpha is gone, so one simple
    # root is left
    alg, _, grading, h0 = _twist("A1")
    data = affine_roots(alg, grading, h0)
    assert len(simple_affine_roots(data)) == 2
    (space,) = data.spaces
    cut = AffineRootData(h0=h0, period=1, spaces=({w: v for w, v in space.items() if w != (-2,)},))
    with pytest.raises(AffineExtractError, match="base has 1 roots, expected 2; unsupported twist"):
        simple_affine_roots(cut)


def _vector(alg, *terms):
    """The sparse vector sum c e_label over the (label, c) terms."""
    return {alg.basis_labels.index(label): c for label, c in terms}


def _hand_built(alg, h0, base, space):
    """extract_gcm on base roots of degree 0 and a residue-0 space written
    by hand."""
    data = AffineRootData(h0=h0, period=1, spaces=(space,))
    return extract_gcm(alg, tuple(AffineRoot(weight=w, degree=0) for w in base), data)


def test_extract_gcm_refuses_hand_built_root_spaces():
    alg, _, _, h0 = _twist("A2")
    one = CycloNum.one(alg.scalar_order)
    e1, e2 = _vector(alg, ("e[1,0]", one)), _vector(alg, ("e[0,1]", one))
    f1 = _vector(alg, ("f[1,0]", one))
    alpha, minus = (2, -1), (-2, 1)
    with pytest.raises(AffineExtractError, match=r"missing root space for base root \(2, -1\)"):
        _hand_built(alg, h0, [alpha], {})
    with pytest.raises(AffineExtractError, match="base root space is not one-dimensional"):
        _hand_built(alg, h0, [alpha], {alpha: (e1, e2), minus: (f1,)})
    # [e_alpha1, e_alpha2] is a root vector
    with pytest.raises(AffineExtractError, match=r"\[e, f\] leaves the fixed Cartan"):
        _hand_built(alg, h0, [alpha], {alpha: (e1,), minus: (e2,)})
    # [e_alpha1, e_alpha1] = 0 pairs to nothing
    with pytest.raises(AffineExtractError, match=r"degenerate pairing for base root \(2, -1\)"):
        _hand_built(alg, h0, [alpha], {alpha: (e1,), minus: (e1,)})
    # weights 3 alpha_1 and alpha_1 for the one sl2 triple: the coroots are
    # (2/3, 0) and (2, 0), so entry (0, 1) is 2/3
    space = {(3, 0): (e1,), (-3, 0): (f1,), (1, 0): (e1,), (-1, 0): (f1,)}
    with pytest.raises(AffineExtractError, match=r"entry \(0,1\) = 2/3 is not an integer"):
        _hand_built(alg, h0, [(3, 0), (1, 0)], space)


def test_extract_gcm_refuses_a_coroot_that_is_not_rational():
    # e = e1 + e2 and f = f1 + zeta f2 over Q(zeta_3): [e, f] = h1 + zeta h2
    rs, alg = algebra_over("A2", 3)
    h0 = fixed_cartan(alg, rs, DiagramPermutation.identity(2))
    one, zeta = CycloNum.one(3), zeta_power(3, 1)
    e = _vector(alg, ("e[1,0]", one), ("e[0,1]", one))
    f = _vector(alg, ("f[1,0]", one), ("f[0,1]", zeta))
    with pytest.raises(AffineExtractError, match=r"coroot of base root \(2, -1\) is not rational"):
        _hand_built(alg, h0, [(2, -1)], {(2, -1): (e,), (-2, 1): (f,)})


# -- GCM axioms ------------------------------------------------------------------


@pytest.mark.parametrize(
    "entries, message",
    [
        pytest.param(((2, -1), (-1, 2)), "determinant 3 is not 0", id="entries0"),
        pytest.param(
            ((2, -2, 0, 0), (-2, 2, 0, 0), (0, 0, 2, -2), (0, 0, -2, 2)),
            "corank 2 is not 1",
            id="entries1",
        ),
        pytest.param(((2, 1), (1, 2)), r"positive off-diagonal entry at \(0,1\)", id="entries2"),
        pytest.param(((2, -1), (0, 2)), r"zero pattern asymmetric at \(0,1\)", id="entries3"),
        pytest.param(((1, -1), (-1, 1)), "diagonal entry 0 is 1, not 2", id="entries4"),
        pytest.param(((2, -2), (-2, 2, 0)), "matrix must be square", id="entries5"),
    ],
)
def test_gcm_axioms_reject(entries, message):
    with pytest.raises(AffineExtractError, match=message):
        GCM(entries=entries)


def test_gcm_must_be_indecomposable():
    # A1^(1) beside A1: determinant 0 and corank 1, in two components
    with pytest.raises(AffineExtractError, match="matrix is decomposable"):
        GCM(entries=((2, -2, 0), (-2, 2, 0), (0, 0, 2)))


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
    # no own row matches, and no other row is read: the request is refused
    affine.affine_catalog.cache_clear()
    monkeypatch.setattr(affine, "own_type_forms", lambda type_label: ())
    with pytest.raises(AffineExtractError, match="the extracted matrix matches no form of A2"):
        affine_certificate("A2")
    assert affine.affine_catalog.cache_info().currsize == 0


@pytest.mark.parametrize("label", TYPE_LABELS)
def test_own_type_matcher_finds_each_own_row(label):
    for entry in affine.own_type_forms(label):
        assert entry.label.base_type == label
        assert affine.match_own_type(entry.gcm, label) == entry.label


@pytest.mark.parametrize("label", TYPE_LABELS)
def test_own_type_matcher_refuses_a_label_of_another_type(label):
    # every row of every other type, and a row equivalent to one of them
    # under a reversal of its nodes, finds no row of this type
    for entry in affine_catalog():
        if entry.label.base_type == label:
            continue
        reversed_gcm = GCM(entries=tuple(tuple(row[::-1]) for row in entry.gcm.entries[::-1]))
        assert affine.match_own_type(entry.gcm, label) is None
        assert affine.match_own_type(reversed_gcm, label) is None
        assert affine.match_own_type(reversed_gcm, entry.label.base_type) == entry.label


def test_certificate_reads_only_own_rows(monkeypatch):
    # a request whose label is among the type's own rows builds no catalog
    affine.affine_catalog.cache_clear()
    report = affine_certificate("D4", perm=DiagramPermutation((3, 1, 0, 2)))
    assert str(report.label) == "D4^(3)"
    assert affine.affine_catalog.cache_info().currsize == 0


def test_catalog_refuses_two_equivalent_rows(monkeypatch):
    # every type given the rows of A1: the second A1^(1) repeats the first
    real = affine.own_type_forms
    affine.affine_catalog.cache_clear()
    monkeypatch.setattr(affine, "own_type_forms", lambda type_label: real("A1"))
    with pytest.raises(
        AffineExtractError, match=r"catalog entries A1\^\(1\) and A1\^\(1\) coincide"
    ):
        affine_catalog()
    assert affine.affine_catalog.cache_info().currsize == 0


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


def test_extract_gcm_stdout_matches_golden_digests():
    # the whole report, base roots and their degrees included, not only the
    # label: every diagram class but E8's and four twists, as the ledger
    # records them
    requests = recorder.extract_requests()
    assert len(requests) == 48
    ledger = recorder.load()
    assert all(ledger[recorder.key(argv)]["exit"] == 0 for argv in requests)
    assert_replays(requests)


def test_extract_gcm_labels_e8(capsys):
    # the one class the stdout ledger leaves out: E8 has no diagram symmetry,
    # so its identity twist is untwisted E8^(1); the E8 build test reads the
    # same cached table
    assert cli.main(["extract-gcm", "--type", "E8"]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["label"] == "E8^(1)"


# -- matching --------------------------------------------------------------------


def _permute(entries, p):
    n = len(entries)
    return tuple(tuple(entries[p[i]][p[j]] for j in range(n)) for i in range(n))


def _catalog_labels(gcm):
    """The labels of the catalog entries equivalent to gcm."""
    return [e.label for e in affine_catalog() if gcm_equivalent(gcm, e.gcm) is not None]


def test_match_handles_reordered_bases():
    original = GCM(entries=TWISTED[("D4", 3)])
    shuffled = GCM(entries=_permute(original.entries, (2, 0, 1)))
    assert _catalog_labels(shuffled) == [AffineLabel("D4", 3)]


def test_node_search_equals_brute_force_on_the_catalog():
    """The self-equivalences of every catalog matrix of size at most 7 are
    exactly those of a brute force over all permutations, in the same order,
    and a randomly relabelled copy is matched by a permutation that carries
    each entry onto its image."""
    rng = random.Random(0)
    for entry in affine_catalog():
        a = entry.gcm.entries
        n = len(a)
        if n <= 7:
            want = [p for p in permutations(range(n)) if _permute(a, p) == a]
            assert list(node_isomorphisms(a, a)) == want, entry.label
        q = list(range(n))
        rng.shuffle(q)
        b = _permute(a, q)
        p = gcm_equivalent(entry.gcm, GCM(entries=b))
        assert p is not None, entry.label
        assert all(b[p[i]][p[j]] == a[i][j] for i in range(n) for j in range(n)), entry.label


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
    assert any(len(e.gcm.entries) == len(a10_twisted.entries) for e in affine_catalog())
    assert _catalog_labels(a10_twisted) == []


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


def test_certificate_d4_triality_dims():
    report = affine_certificate("D4", perm=DiagramPermutation((2, 1, 3, 0)))
    assert report.grading_dims == (14, 7, 7)
    assert str(report.label) == "D4^(3)"
    assert report.to_obj()["label"] == "D4^(3)"
