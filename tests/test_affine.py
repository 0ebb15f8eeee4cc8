import json
import random
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

from dense import kernel_affine_roots, orbit_sum_cartan, span_probes
from ledger import assert_replays, recorder
from loopforms import affine, chevalley, cli
from loopforms.affine import (
    GCM,
    AffineExtractError,
    AffineLabel,
    AffineRoot,
    AffineRootData,
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
    algebra_over,
    cartan_matrix,
    node_isomorphisms,
    root_system,
    type_twist_factors,
)
from loopforms.algebra import MultTableAlgebra
from loopforms.classify import dynkin_automorphism_group
from loopforms.cyclo import CycloNum, zeta_power
from loopforms.grading import ComponentSolver, GradingError, eigengrading, twist
from loopforms.linalg import SpanSolver
from loopforms.record import RequestError

GOLDEN = Path(__file__).parent / "golden" / "affine_catalog.json"


def _twist(label, perm=None, s=None, m=1):
    """The algebra, root system, grading and fixed Cartan of L(pi o tau_s)."""
    rank = cartan_matrix(label).rank
    perm = perm or DiagramPermutation.identity(rank)
    alg, *factors = type_twist_factors(label, perm, s or (0,) * rank, m)
    grading = eigengrading(alg, twist(alg, *factors))
    return alg, root_system(cartan_matrix(label)), grading, fixed_cartan(alg, grading)


def _certificate(label, perm=None, s=None, m=1):
    """`affine_certificate` of L(pi o tau_s), its twist built as the CLI
    builds it."""
    rank = cartan_matrix(label).rank
    perm = perm or DiagramPermutation.identity(rank)
    alg, *factors = type_twist_factors(label, perm, s or (0,) * rank, m)
    return affine_certificate(label, alg, twist(alg, *factors))


def _pipeline(label, images):
    perm = None if images is None else DiagramPermutation(images)
    alg, _, grading, h0 = _twist(label, perm)
    return alg, affine_roots(alg, grading, h0)


# one loop algebra per diagram class of the small types: (type, pi or None)
_CATALOG_FIXTURES = (
    ("A1", None),
    ("A2", None),
    ("A3", None),
    ("B2", None),
    ("C3", None),
    ("D4", None),
    ("G2", None),
    ("A2", DiagramPermutation((1, 0))),
    ("A3", DiagramPermutation((2, 1, 0))),
    ("D4", DiagramPermutation((0, 1, 3, 2))),
    ("D4", DiagramPermutation((2, 1, 3, 0))),
)


# -- fixed Cartan ----------------------------------------------------------------


def test_fixed_cartan_a2_flip():
    # h1 + h2, the one orbit sum of the flip, out of the 3 vectors of
    # component 0 (the other two are orbit sums of root vectors)
    alg, _, grading, h0 = _twist("A2", DiagramPermutation((1, 0)))
    one = CycloNum.one(alg.scalar_order)
    assert len(grading.component_bases[0]) == 3
    assert h0 == ({0: one, 1: one},)


def test_fixed_cartan_refuses_a_table_without_weights():
    # a table read from a file carries no weights, so no index is known to be
    # toral
    alg, _, grading, _ = _twist("A2", DiagramPermutation((1, 0)))
    read = MultTableAlgebra.from_obj(alg.to_obj())
    with pytest.raises(RequestError, match="^the table carries no weights to read the fixed Cartan h0 off$"):
        fixed_cartan(read, grading)


def _charges(perm):
    """The trivial charge (s, m), and s = 1 on the first orbit of pi at m = 2
    and 3."""
    rank = len(perm.images)
    first = perm.orbits()[0]
    s = tuple(int(i in first) for i in range(rank))
    return (((0,) * rank, 1), (s, 2), (s, 3))


@pytest.mark.parametrize("label", TYPE_LABELS)
def test_fixed_cartan_equals_the_orbit_sums_of_pi(label):
    # every diagram symmetry of the type, each at three charges: component
    # 0's Cartan-supported vectors are the orbit sums built from pi, in the
    # order of pi's orbits
    cartan = cartan_matrix(label)
    for perm in dynkin_automorphism_group(cartan).elements:
        for charge in _charges(perm):
            alg, *factors = type_twist_factors(label, perm, *charge)
            grading = eigengrading(alg, twist(alg, *factors))
            assert fixed_cartan(alg, grading) == orbit_sum_cartan(alg, perm), (perm, charge)


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
    assert extract_gcm(alg, base, data).entries == ((2, -2), (-2, 2))
    # the report prints the GCM it certified with its base, det, corank and label
    obj = _certificate("A1").to_obj()
    assert list(obj) == ["gcm", "base", "det", "corank", "label"]
    assert obj["gcm"] == [[2, -2], [-2, 2]]
    assert obj["base"] == [{"weight": [2], "degree": 0}, {"weight": [-2], "degree": 1}]
    assert obj["det"] == "0"
    assert obj["corank"] == 1
    assert obj["label"] == "A1^(1)"


def test_base_a2_flip():
    alg, data = _pipeline("A2", (1, 0))
    base = simple_affine_roots(data)
    assert [(r.weight, r.degree) for r in base] == [((1,), 0), ((-2,), 1)]
    assert extract_gcm(alg, base, data).entries == ((2, -4), (-1, 2))


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
    composed = _certificate(label, perm, s, m)
    plain = _certificate(label, perm)
    assert str(composed.label) == str(plain.label) == want
    assert max(r.degree for r in composed.base) > 1


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
    # solved by elimination, and the probes that leave h0
    alg, _, grading, h0 = _twist(*fixture)
    data = affine_roots(alg, grading, h0)
    fast, slow = ComponentSolver(h0), SpanSolver(h0)
    probes = span_probes(h0, alg.dim, alg.scalar_order)
    reads = [fast.coords(v) for v in probes]
    assert reads == [slow.coords(v) for v in probes] == [None] * (len(probes) - 1) + [{}]
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
    tampered = dict(h0[0])
    tampered[rs.rank] = CycloNum.one(alg.scalar_order)
    h0 = (tampered,) + h0[1:]
    with pytest.raises(
        AffineExtractError, match="a vector of component 0 is not diagonal under the fixed Cartan"
    ):
        affine_roots(alg, grading, h0)


def test_affine_roots_rejects_non_integral_weights():
    alg, _, grading, h0 = _twist("A2")
    half = CycloNum.rational(alg.scalar_order, Fraction(1, 2))
    h0 = tuple({i: half * x for i, x in b.items()} for b in h0)
    with pytest.raises(AffineExtractError, match="has weight .*, not a rational integer"):
        affine_roots(alg, grading, h0)


def test_affine_roots_rejects_a_fixed_cartan_that_does_not_control_the_twist():
    # the untwisted grading of A2 read on the flip's fixed Cartan h1 + h2:
    # alpha_1 and alpha_2 have the same weight 1 there, and the negatives,
    # met first, the weight -1
    alg, _, grading, _ = _twist("A2")
    h0 = orbit_sum_cartan(alg, DiagramPermutation((1, 0)))
    with pytest.raises(
        AffineExtractError, match=r"real root \(-1,\) in residue 0 has multiplicity 2"
    ):
        affine_roots(alg, grading, h0)
    # on a fixed Cartan of rank 0 every vector has weight zero
    with pytest.raises(
        AffineExtractError,
        match="zero-weight space in residue 0 exceeds the fixed Cartan; unsupported twist shape",
    ):
        affine_roots(alg, grading, ())


def test_simple_roots_need_rank_plus_one_roots():
    # A1^(1) without the weight -2: delta - alpha is gone, so one simple
    # root is left
    alg, _, grading, h0 = _twist("A1")
    data = affine_roots(alg, grading, h0)
    assert len(simple_affine_roots(data)) == 2
    (space,) = data.spaces
    cut = AffineRootData(h0=h0, spaces=({w: v for w, v in space.items() if w != (-2,)},))
    with pytest.raises(AffineExtractError, match="base has 1 roots, expected 2; unsupported twist"):
        simple_affine_roots(cut)


def _vector(alg, *terms):
    """The sparse vector sum c e_label over the (label, c) terms."""
    return {alg.basis_labels.index(label): c for label, c in terms}


def _hand_built(alg, h0, base, space):
    """extract_gcm on base roots of degree 0 and a residue-0 space written
    by hand."""
    data = AffineRootData(h0=h0, spaces=(space,))
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
    _, alg = algebra_over("A2", 3)
    h0 = orbit_sum_cartan(alg, DiagramPermutation.identity(2))
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


@pytest.fixture(scope="module")
def catalog():
    # affine_catalog builds the catalog anew on every call; the module's
    # tests read one build
    return affine_catalog()


def _entry(catalog, base_type, order):
    return catalog[AffineLabel(base_type=base_type, twist_order=order)]


UNTWISTED = ("A1", "A2", "A3", "B2", "C3", "D4", "G2")


@pytest.mark.parametrize("label", UNTWISTED)
def test_untwisted_catalog_matches_bordered_oracle(label, catalog):
    oracle = bordered_untwisted(label)
    assert gcm_equivalent(oracle, _entry(catalog, label, 1)) is not None
    # delta = alpha_0 + theta: the marks (1, theta) are a null vector
    marks = (1,) + root_system(cartan_matrix(label)).positives[-1]
    assert all(sum(a * x for a, x in zip(row, marks)) == 0 for row in oracle.entries)


def test_catalog_covers_every_type_and_class_order(catalog):
    orders: dict = {}
    for label in catalog:
        orders.setdefault(label.base_type, []).append(label.twist_order)
    assert sorted(orders) == sorted(TYPE_LABELS)
    for label in TYPE_LABELS:
        group = dynkin_automorphism_group(cartan_matrix(label))
        assert sorted(orders[label]) == sorted({rep.order() for rep, _ in group.classes})


def test_catalog_entries_pairwise_inequivalent(catalog):
    entries = list(catalog.items())
    for i, (first, first_gcm) in enumerate(entries):
        for second, second_gcm in entries[i + 1:]:
            assert gcm_equivalent(first_gcm, second_gcm) is None, (first, second)


# the catalog fixtures, the A4 flip and B3: (type, zero-based pi or None)
EXTRACTED = tuple(
    (label, None if perm is None else perm.images) for label, perm in _CATALOG_FIXTURES
) + (("A4", (3, 2, 1, 0)), ("B3", None))


@pytest.mark.parametrize("label,images", EXTRACTED, ids=lambda x: "id" if x is None else str(x))
def test_extractor_agrees_with_catalog(label, images, catalog):
    rank = cartan_matrix(label).rank
    perm = DiagramPermutation.identity(rank) if images is None else DiagramPermutation(images)
    report = _certificate(label, perm)
    assert (report.label.base_type, report.label.twist_order) == (label, perm.order())
    assert gcm_equivalent(report.gcm, _entry(catalog, label, perm.order())) is not None


@pytest.mark.parametrize("label,images", [("A1", None), ("A2", (1, 0)), ("D4", (2, 1, 3, 0))])
def test_reversed_base_extracts_the_reversed_gcm(label, images):
    # the extractor reads A_ij off the base in the order given: the base in
    # the opposite order gives the matrix with rows and columns reversed
    alg, data = _pipeline(label, images)
    base = simple_affine_roots(data)
    gcm = extract_gcm(alg, base, data)
    reversed_gcm = extract_gcm(alg, tuple(reversed(base)), data)
    assert reversed_gcm.entries == tuple(tuple(reversed(row)) for row in reversed(gcm.entries))
    assert gcm_equivalent(gcm, reversed_gcm) is not None


def _forbid_catalog(monkeypatch):
    def built():
        pytest.fail("the whole catalog was built")

    monkeypatch.setattr(affine, "affine_catalog", built)


def test_certificate_rejects_label_of_another_type(monkeypatch):
    # no own row matches, and no other row is read: the request is refused
    _forbid_catalog(monkeypatch)
    monkeypatch.setattr(affine, "own_type_forms", lambda type_label: {})
    with pytest.raises(AffineExtractError, match="the extracted matrix matches no form of A2"):
        _certificate("A2")


@pytest.mark.parametrize("label", TYPE_LABELS)
def test_own_type_matcher_finds_each_own_row(label):
    for own, gcm in affine.own_type_forms(label).items():
        assert own.base_type == label
        assert affine.match_own_type(gcm, label) == own


@pytest.mark.parametrize("label", TYPE_LABELS)
def test_own_type_matcher_refuses_a_label_of_another_type(label, catalog):
    # every row of every other type, and a row equivalent to one of them
    # under a reversal of its nodes, finds no row of this type
    for other, gcm in catalog.items():
        if other.base_type == label:
            continue
        reversed_gcm = GCM(entries=tuple(tuple(row[::-1]) for row in gcm.entries[::-1]))
        assert affine.match_own_type(gcm, label) is None
        assert affine.match_own_type(reversed_gcm, label) is None
        assert affine.match_own_type(reversed_gcm, other.base_type) == other


def test_certificate_reads_only_own_rows(monkeypatch):
    # a request whose label is among the type's own rows builds no catalog
    _forbid_catalog(monkeypatch)
    report = _certificate("D4", DiagramPermutation((3, 1, 0, 2)))
    assert str(report.label) == "D4^(3)"


def test_catalog_refuses_two_equivalent_rows(monkeypatch):
    # every type given the rows of A1: the second A1^(1) repeats the first
    real = affine.own_type_forms
    monkeypatch.setattr(affine, "own_type_forms", lambda type_label: real("A1"))
    with pytest.raises(
        AffineExtractError, match=r"catalog entries A1\^\(1\) and A1\^\(1\) coincide"
    ):
        affine_catalog()


# -- frozen matrices for the twisted entries ---------------------------------------

TWISTED = {
    ("A2", 2): ((2, -4), (-1, 2)),
    ("A3", 2): ((2, -2, 0), (-1, 2, -1), (0, -2, 2)),
    ("D4", 2): ((2, 0, -2, 0), (0, 2, -1, -1), (-1, -1, 2, 0), (0, -2, 0, 2)),
    ("D4", 3): ((2, -1, 0), (-3, 2, -1), (0, -1, 2)),
}


@pytest.mark.parametrize("key", sorted(TWISTED))
def test_twisted_catalog_matches_frozen_matrices(key, catalog):
    frozen = GCM(entries=TWISTED[key])
    assert gcm_equivalent(frozen, _entry(catalog, *key)) is not None


def test_catalog_against_golden_file(catalog):
    # 31 untwisted types, 7 A_l^(2), 5 D_l^(2), D4^(3) and E6^(2)
    assert len(catalog) == 45
    recorded = json.loads(GOLDEN.read_text())
    produced = [{"label": str(label), "gcm": gcm.to_obj()} for label, gcm in catalog.items()]
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


def _catalog_labels(catalog, gcm):
    """The labels of the catalog entries equivalent to gcm."""
    return [label for label, form in catalog.items() if gcm_equivalent(gcm, form) is not None]


def test_match_handles_reordered_bases(catalog):
    original = GCM(entries=TWISTED[("D4", 3)])
    shuffled = GCM(entries=_permute(original.entries, (2, 0, 1)))
    assert _catalog_labels(catalog, shuffled) == [AffineLabel("D4", 3)]


def test_node_search_equals_brute_force_on_the_catalog(catalog):
    """The self-equivalences of every catalog matrix of size at most 7 are
    exactly those of a brute force over all permutations, in the same order,
    and a randomly relabelled copy is matched by a permutation that carries
    each entry onto its image."""
    rng = random.Random(0)
    for label, gcm in catalog.items():
        a = gcm.entries
        n = len(a)
        if n <= 7:
            want = [p for p in permutations(range(n)) if _permute(a, p) == a]
            assert list(node_isomorphisms(a, a)) == want, label
        q = list(range(n))
        rng.shuffle(q)
        b = _permute(a, q)
        p = gcm_equivalent(gcm, GCM(entries=b))
        assert p is not None, label
        assert all(b[p[i]][p[j]] == a[i][j] for i in range(n) for j in range(n)), label


def test_match_rejects_unknown_matrix(catalog):
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
    assert any(len(gcm.entries) == len(a10_twisted.entries) for gcm in catalog.values())
    assert _catalog_labels(catalog, a10_twisted) == []


def test_equivalence_distinguishes_same_size():
    a1 = GCM(entries=((2, -2), (-2, 2)))
    a2_twisted = GCM(entries=TWISTED[("A2", 2)])
    assert gcm_equivalent(a1, a2_twisted) is None


# -- end-to-end reports ------------------------------------------------------------


def test_certificate_a2_composed_charge():
    report = _certificate("A2", DiagramPermutation((1, 0)), (1, 1), 2)
    assert str(report.label) == "A2^(2)"
    assert report.grading.period == 2


def test_certificate_d4_triality_dims():
    report = _certificate("D4", DiagramPermutation((2, 1, 3, 0)))
    assert report.grading.dims == (14, 7, 7)
    assert str(report.label) == "D4^(3)"
    assert report.to_obj()["label"] == "D4^(3)"


def test_certificate_refuses_a_twist_certified_on_another_table():
    # two builds of the flipped A2 are two tables: a twist certified on one
    # is refused on the other, by eigengrading
    flip = DiagramPermutation((1, 0))
    alg, *factors = type_twist_factors("A2", flip, (0, 0), 1)
    other, *_ = type_twist_factors("A2", flip, (0, 0), 1)
    sigma = twist(alg, *factors)
    assert str(affine_certificate("A2", alg, sigma).label) == "A2^(2)"
    with pytest.raises(GradingError, match="the automorphism is not certified on this table"):
        affine_certificate("A2", other, sigma)


def test_extract_gcm_checks_its_twist_once(monkeypatch, capsys):
    # type_twist_factors refuses a malformed pi through check_twist before it
    # builds anything, and builds the diagram map of the pi it accepted;
    # affine takes the certified twist and checks none
    calls = []
    real = chevalley.check_twist
    monkeypatch.setattr(chevalley, "check_twist", lambda *args: calls.append(args) or real(*args))
    assert cli.main(["extract-gcm", "--type", "D4", "--auto", '{"pi":[4,2,1,3]}']) == 0
    capsys.readouterr()
    assert [perm for _, perm, _, _ in calls] == [DiagramPermutation.from_one_based((4, 2, 1, 3))]
