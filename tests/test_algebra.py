import hashlib
import json
import random
from itertools import permutations, product
from fractions import Fraction

import pytest

from dense import (
    TWIST_FIXTURES,
    product_rule_check,
    all_pairs_centroid,
    base_change_check,
    build_cocycle,
    check_automorphism,
    check_diagonal_automorphism,
    compose,
    dense_check_automorphism,
    densify,
    charge_pairings,
    identity_map,
    layout_exponents,
    mat_inverse,
    matrix_unit_shifts,
    mat_mul,
    ordered_triple_validation,
    rank,
    span_probes,
    twist_factors,
    twist_fixture,
    twisted_fixed_points,
)
from loopforms import algebra, centroid, cli, linalg
from loopforms.algebra import (
    KIND_ASSOCIATIVE,
    KIND_LIE,
    _left_paths,
    _power_basis_table,
    AlgebraError,
    MultTableAlgebra,
    ValidationReport,
    Violation,
    validate_algebra,
)
from loopforms.centroid import _Generators, centroid_graded
from loopforms.grading import (
    AutomorphismError,
    ComponentSolver,
    FiniteOrderAutomorphism,
    GradedDecomposition,
    GradingError,
    _check_period,
    eigengrading,
    twist,
)
from loopforms.chevalley import (
    TYPE_LABELS,
    DiagramPermutation,
    algebra_over,
    cartan_matrix,
    diagram_automorphism,
    root_system,
    type_twist_factors,
)
from loopforms.classify import dynkin_automorphism_group
from loopforms.cyclo import CycloNum, zeta_power
from loopforms.descent import build_matrix_algebra, matrix_twist_factors
from loopforms.linalg import Echelon, SpanSolver, nullspace
from loopforms.record import RequestError


def q(x, order=1):
    return CycloNum.rational(order, Fraction(x))


def _sl2(order=1, h_e_coeff=2):
    # basis h, e, f with [h,e] = c*e, [h,f] = -2f, [e,f] = h; any c != 2
    # breaks Jacobi on (h,e,f) while the table stays antisymmetric
    c = q(h_e_coeff, order)
    table = {
        (0, 1): {1: c},
        (1, 0): {1: -c},
        (0, 2): {2: q(-2, order)},
        (2, 0): {2: q(2, order)},
        (1, 2): {0: q(1, order)},
        (2, 1): {0: q(-1, order)},
    }
    return MultTableAlgebra(
        dim=3, scalar_order=order, kind=KIND_LIE,
        products=table, basis_labels=("h", "e", "f"),
    )


def test_hand_sl2_is_valid():
    report = validate_algebra(_sl2())
    assert report.ok
    assert report.triples_checked == 27


def test_corrupted_sl2_names_the_triple():
    # [h,e] = 3e breaks Jacobi; the report must say which triple
    report = validate_algebra(_sl2(h_e_coeff=3))
    assert not report.ok
    laws = {v.law for v in report.violations}
    assert laws == {"jacobi"}
    named = {v.labels for v in report.violations}
    assert ("h", "e", "f") in named


def test_non_alternating_table_rejected():
    table = {(0, 0): {1: q(1)}}
    alg = MultTableAlgebra(
        dim=2, scalar_order=1, kind=KIND_LIE,
        products=table, basis_labels=("a", "b"),
    )
    report = validate_algebra(alg)
    assert any(v.law == "alternating" for v in report.violations)


def test_matrix_algebra_table_is_associative():
    alg, _ = build_matrix_algebra(2, (0, 0), 1)
    assert alg.kind == KIND_ASSOCIATIVE
    report = validate_algebra(alg)
    assert report.ok
    assert report.triples_checked == 64


def _retabled(alg, entries):
    return MultTableAlgebra(
        dim=alg.dim, scalar_order=alg.scalar_order, kind=alg.kind,
        products=entries, basis_labels=alg.basis_labels,
    )


def _entries(alg):
    return {key: dict(entry) for key, entry in alg.products.items()}


def _scaled(alg, keys, factor):
    entries = _entries(alg)
    for key in keys:
        entries[key] = {k: v * factor for k, v in entries[key].items()}
    return _retabled(alg, entries)


def _scaled_pair(label, factor, seed):
    # scale e_i e_j and e_j e_i together: still antisymmetric, Jacobi breaks
    _, alg = algebra_over(label, 1)
    i, j = random.Random(seed).choice(sorted((i, j) for i, j in alg.products if i < j))
    return _scaled(alg, ((i, j), (j, i)), factor)


def _non_alternating():
    entries = _entries(_sl2())
    entries[(1, 1)] = {0: q(1)}
    return _retabled(_sl2(), entries)


def _rescaled_basis():
    # e_i -> d_i e_i with d_i = i + zeta_3: each stored constant is reduced on
    # its own, so the Jacobiators cancel only modulo Phi_3
    _, alg = algebra_over("A2", 3)
    d = [zeta_power(3, 1) + i for i in range(alg.dim)]
    entries = {
        (i, j): {k: v * d[i] * d[j] / d[k] for k, v in sparse.items()}
        for (i, j), sparse in _entries(alg).items()
    }
    return _retabled(alg, entries)


def _single_pair_jacobiator(x, y):
    # on a, b, c, l only [x,y] = l and [l,z] = z for the third z: the
    # Jacobiator of (a, b, c) is [[x,y],z] = z, though the other two of the
    # three pair products e_a e_b, e_b e_c, e_c e_a are zero
    (z,) = {0, 1, 2} - {x, y}
    table = {
        (x, y): {3: q(1)}, (y, x): {3: q(-1)},
        (3, z): {z: q(1)}, (z, 3): {z: q(-1)},
    }
    return MultTableAlgebra(
        dim=4, scalar_order=1, kind=KIND_LIE,
        products=table, basis_labels=("a", "b", "c", "l"),
    )


def _right_only_associator():
    # y z = u and x u = w, nothing else: the associator fails on (x, y, z)
    # alone, where (x y) z = 0 and x (y z) = w, so only a path of the
    # opposite table finds it
    table = {(1, 2): {3: q(1)}, (0, 3): {4: q(1)}}
    return MultTableAlgebra(
        dim=5, scalar_order=1, kind=KIND_ASSOCIATIVE,
        products=table, basis_labels=("x", "y", "z", "u", "w"),
    )


def _explicit_zero_products():
    obj = _sl2().to_obj()
    obj["constants"].append([1, 1, [[0, {"order": 1, "coeffs": ["0"]}]]])
    obj["constants"].append([0, 0, []])
    return MultTableAlgebra.from_obj(obj)


def _repeated_targets():
    # [e,e] written as h - h and [h,e] as e + e: an entry's repeated targets
    # are summed, so this is the valid sl2
    obj = _sl2().to_obj()
    one, minus = {"order": 1, "coeffs": ["1"]}, {"order": 1, "coeffs": ["-1"]}
    obj["constants"] = [
        [i, j, [[1, one], [1, one]] if (i, j) == (0, 1) else entry]
        for i, j, entry in obj["constants"]
    ] + [[1, 1, [[0, one], [0, minus]]]]
    return MultTableAlgebra.from_obj(obj)


# name -> (function making the table, whether it is a valid algebra)
_VALIDATION_CASES = {
    **{label: (lambda label=label: algebra_over(label, 1)[1], True)
       for label in ("A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2")},
    "G2 over Q(zeta_6)": (lambda: algebra_over("G2", 6)[1], True),
    **{f"A3 pair x{f} seed {seed}": (lambda f=f, seed=seed: _scaled_pair("A3", q(f), seed), False)
       for f in (2, 3, -1) for seed in (1, 2, 3)},
    # over Q(zeta_3) the failing Jacobiators are cyclotomic
    "A2 pair x zeta_3": (
        lambda: _scaled(algebra_over("A2", 3)[1], ((2, 3), (3, 2)), zeta_power(3, 1)), False),
    "A2 rescaled over Q(zeta_3)": (_rescaled_basis, True),
    # scaling e_i e_j alone breaks antisymmetry
    "A2 one-sided x2": (lambda: _scaled(algebra_over("A2", 1)[1], ((3, 2),), q(2)), False),
    # [e_a2, e_a4] alone doubled: Jacobi is evaluated on every rotation of a path
    "D4 one-sided x2": (lambda: _scaled(algebra_over("D4", 1)[1], ((6, 4),), q(2)), False),
    "sl2 non-alternating": (_non_alternating, False),
    **{f"only [{'abc'[x]},{'abc'[y]}]": (lambda x=x, y=y: _single_pair_jacobiator(x, y), False)
       for x, y in ((0, 1), (1, 2), (2, 0))},
    "sl2 explicit zero products": (_explicit_zero_products, True),
    "sl2 repeated targets": (_repeated_targets, True),
    "sl2 [h,e]=3e": (lambda: _sl2(h_e_coeff=3), False),
    "M2": (lambda: build_matrix_algebra(2, (0, 0), 1)[0], True),
    "M3 over Q(zeta_3)": (lambda: build_matrix_algebra(3, (0, 1, 2), 3)[0], True),
    "M2 product x2": (
        lambda: _scaled(build_matrix_algebra(2, (0, 0), 1)[0], ((1, 2),), q(2)), False),
    "M3 product x zeta_3": (
        lambda: _scaled(build_matrix_algebra(3, (0, 1, 2), 3)[0], ((4, 5),), zeta_power(3, 1)),
        False),
    # tampered M_2..M_4, whose associators are evaluated only on live triples
    **{f"M{n} E12 E21 x2": (lambda n=n: _scaled(_matrix_table(n), ((1, n),), q(2)), False)
       for n in (2, 3, 4)},
    **{f"M{n} E11 E11 dropped": (lambda n=n: _dropped(_matrix_table(n), (0, 0)), False)
       for n in (2, 3, 4)},
    **{f"M{n} E11 E22 = E12": (lambda n=n: _spurious(_matrix_table(n), (0, n + 1), 1), False)
       for n in (2, 3, 4)},
    "x (y z) only": (_right_only_associator, False),
}


def _matrix_table(n):
    return build_matrix_algebra(n, (0,) * n, 1)[0]


def _dropped(alg, key):
    entries = _entries(alg)
    del entries[key]
    return _retabled(alg, entries)


def _spurious(alg, key, target):
    entries = _entries(alg)
    entries[key] = {target: q(1)}
    return _retabled(alg, entries)


@pytest.mark.parametrize("name", sorted(_VALIDATION_CASES))
def test_validation_equals_ordered_triple_oracle(name):
    build, valid = _VALIDATION_CASES[name]
    alg = build()
    report = validate_algebra(alg)
    assert report == ordered_triple_validation(alg)
    assert report.triples_checked == alg.dim ** 3
    assert report.ok == valid


def _paths_by_definition(table, n):
    # every ordered triple (a, b, c) with some target l of e_a e_b such
    # that (l, c) is a key
    return [
        (a, b, c) for a, b, c in product(range(n), repeat=3)
        if any((l, c) in table for l, _ in table.get((a, b), ()))
    ]


@pytest.mark.parametrize(
    "build",
    [
        *(pytest.param(lambda n=n: _spurious(_matrix_table(n), (0, n + 1), 1), id=str(n))
          for n in (2, 3, 4)),
        pytest.param(lambda: _VALIDATION_CASES["D4 one-sided x2"][0](), id="D4 one-sided x2"),
    ],
)
def test_associator_skips_only_dead_triples(build):
    # the triples a law is evaluated on come from these paths, on a tampered
    # associative table and on a Lie table that fails antisymmetry
    alg = build()
    table = _power_basis_table(alg)
    paths = list(_left_paths(table, alg.dim))
    assert sorted(paths) == _paths_by_definition(table, alg.dim)
    assert len(paths) < alg.dim ** 3


@pytest.mark.parametrize(
    "build, evaluated",
    [
        pytest.param(lambda: algebra_over("E6", 1)[1], 13056, id="E6"),
        pytest.param(lambda: _matrix_table(6), 1296, id="M6"),
    ],
)
def test_validation_evaluates_only_triples_with_a_path(monkeypatch, build, evaluated):
    # E6: the increasing triples {a, b, c} that carry a path; M_6: the
    # triples (ij, jk, kl), the paths of the table and of its opposite
    alg = build()
    calls = []
    evaluate = algebra._combination_vanishes

    def counted(*args):
        calls.append(None)
        return evaluate(*args)

    monkeypatch.setattr(algebra, "_combination_vanishes", counted)
    assert validate_algebra(alg).ok
    assert len(calls) == evaluated


def test_pair_laws_look_up_only_the_nonzero_products(monkeypatch):
    # sl2 on the first three of 2000 basis vectors, the rest central:
    # alternation and antisymmetry are read off the three pairs with a
    # product, not off all 2000 * 1999 / 2 pairs
    n = 2000
    sl2 = _sl2()
    alg = MultTableAlgebra(
        dim=n, scalar_order=1, kind=KIND_LIE, products=sl2.products,
        basis_labels=sl2.basis_labels + tuple(f"z{i}" for i in range(3, n)),
    )
    calls = []
    lookup = MultTableAlgebra.basis_product

    def counted(self, i, j):
        calls.append((i, j))
        return lookup(self, i, j)

    monkeypatch.setattr(MultTableAlgebra, "basis_product", counted)
    report = validate_algebra(alg)
    assert report.ok and report.triples_checked == n**3
    assert sorted(calls) == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]


def test_sl2_violation_reported_on_all_six_orderings():
    report = validate_algebra(_sl2(h_e_coeff=3))
    jacobi = [v.indices for v in report.violations if v.law == "jacobi"]
    assert jacobi == sorted(permutations((0, 1, 2)))
    assert [v.labels for v in report.violations][0] == ("h", "e", "f")


@pytest.mark.parametrize("label", ["A2", "G2"])
def test_product_sparse_equals_bilinear_expansion(label):
    # the product against a dense expansion over the basis pairs; entries
    # that cancel must leave no zero behind, and x * x = 0 in a Lie algebra
    _, alg = algebra_over(label, 3)
    rng = random.Random(7)
    scalars = [q(1, 3), q(-2, 3), zeta_power(3, 1), zeta_power(3, 2) * 3]
    for _ in range(10):
        x = {i: rng.choice(scalars) for i in rng.sample(range(alg.dim), 4)}
        y = {i: rng.choice(scalars) for i in rng.sample(range(alg.dim), 4)}
        want = [q(0, 3)] * alg.dim
        for i, a in x.items():
            for j, b in y.items():
                for k, c in alg.basis_product(i, j).items():
                    want[k] = want[k] + a * b * c
        got = alg.product_sparse(x, y)
        assert densify(got, alg.dim, 3) == tuple(want)
        assert all(not v.is_zero() for v in got.values())
        assert alg.product_sparse(x, x) == {}


def test_serialization_round_trip():
    alg = _sl2()
    clone = MultTableAlgebra.from_obj(alg.to_obj())
    assert clone == alg


def test_pair_listed_twice_is_refused():
    # (h1, e[1]) listed twice, first with the wrong constant 5; the lookup
    # would keep only the last listing, so the table is refused outright
    obj = algebra_over("A1", 1)[1].to_obj()
    obj["constants"].insert(0, [0, 1, [[1, {"order": 1, "coeffs": ["5"]}]]])
    with pytest.raises(RequestError, match=r"\(h1, e\[1\]\) is listed twice"):
        MultTableAlgebra.from_obj(obj)


def _scalar(order, *coeffs):
    return {"order": order, "coeffs": [str(c) for c in coeffs]}


def _sl2_file(h_e):
    """sl2 over Q(zeta_3) as a file writes it loosely: [h,e] = h_e e as two
    terms in e, [e,h] with a zero constant beside its term, [f,e] as two
    terms in h, and two products that are zero, one of them by
    cancellation."""
    s = _scalar
    return {
        "dim": 3, "scalar_order": 3, "kind": "lie", "labels": ["h", "e", "f"],
        "constants": [
            [0, 1, [[1, s(3, 1, 1)], [1, s(3, h_e - 1, -1)]]],
            [1, 0, [[1, s(3, -h_e, 0)], [0, s(3, 0, 0)]]],
            [0, 2, [[2, s(3, -2, 0)]]],
            [2, 0, [[2, s(3, 2, 0)]]],
            [1, 2, [[0, s(3, 1, 0)]]],
            [2, 1, [[0, s(3, 0, 1)], [0, s(3, -1, -1)]]],
            [1, 1, [[0, s(3, 0, 0)]]],
            [2, 2, [[1, s(3, 1, 0)], [1, s(3, -1, 0)]]],
        ],
    }


@pytest.mark.parametrize("h_e, jacobi", [(2, ()), (3, tuple(permutations((0, 1, 2))))])
def test_from_obj_sums_repeated_targets_and_drops_zeros(h_e, jacobi):
    # the products and the report the list-based table gave: repeated targets
    # summed, zero constants and zero products dropped
    alg = MultTableAlgebra.from_obj(_sl2_file(h_e))
    assert alg.products == {
        (0, 1): {1: q(h_e, 3)}, (1, 0): {1: q(-h_e, 3)},
        (0, 2): {2: q(-2, 3)}, (2, 0): {2: q(2, 3)},
        (1, 2): {0: q(1, 3)}, (2, 1): {0: q(-1, 3)},
    }
    assert alg.validation == ValidationReport("lie", 3, tuple(
        Violation("jacobi", t, tuple("hef"[i] for i in t)) for t in jacobi
    ))


@pytest.mark.parametrize("first", [True, False])
def test_from_obj_refuses_a_repeated_target_of_another_order(first):
    # a term of order 1 beside one of order 3 at the same target is not
    # summed across orders, whichever comes first: the constructor sees it
    obj = _sl2_file(2)
    terms = [[1, _scalar(3, 1, 1)], [1, _scalar(1, 1)]]
    obj["constants"][0][2] = terms if first else terms[::-1]
    with pytest.raises(RequestError, match="structure constants must use the declared scalar order"):
        MultTableAlgebra.from_obj(obj)


@pytest.mark.parametrize(
    "build, digest",
    [
        pytest.param(
            lambda: algebra_over("B3", 3)[1],
            "14be9b6eee3e9409f3cbd02d22c46d94ccdec1f2a4091cd408c85af5d20772fe",
            id="B3 over Q(zeta_3)",
        ),
        pytest.param(
            lambda: build_matrix_algebra(6, [0] * 6, 3)[0],
            "68da4be11d7ee9fad1ab1e0c131321d0f5e7ab41a3dcd76f3981c188bc0b9d19",
            id="M6 over Q(zeta_3)",
        ),
    ],
)
def test_benchmark_tables_write_the_same_bytes_and_read_back(build, digest):
    # the tables perfbench/tables.py writes: pairs and targets in order, the
    # bytes the list-based table wrote, and read back to the same products
    alg = build()
    text = json.dumps(alg.to_obj())
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    # a file carries no weights
    unweighted = MultTableAlgebra(
        alg.dim, alg.scalar_order, alg.kind, alg.products, alg.basis_labels
    )
    assert MultTableAlgebra.from_obj(json.loads(text)) == unweighted


# -- weights -------------------------------------------------------------------


def _non_additive_products(alg):
    """The basis pairs (i, j) whose product has a term e_k with
    weights[k] != weights[i] + weights[j]."""
    w = alg.weights
    return [
        (alg.basis_labels[i], alg.basis_labels[j])
        for (i, j), entry in alg.products.items()
        for k in entry
        if w[k] != tuple(a + b for a, b in zip(w[i], w[j]))
    ]


@pytest.mark.parametrize("label", TYPE_LABELS)
def test_type_weights_are_additive_on_every_product(label):
    # root coordinates, 0 on h_1..h_l, as the layout lists the roots
    rs, alg = algebra_over(label, 1)
    assert alg.weights == ((0,) * rs.rank,) * rs.rank + rs.roots
    assert _non_additive_products(alg) == []


@pytest.mark.parametrize("n", range(1, 9))
def test_matrix_weights_are_additive_on_every_product(n):
    alg, *_ = matrix_twist_factors(n, (0,) * n, 1)
    assert len(alg.weights) == n * n and all(len(w) == n for w in alg.weights)
    assert _non_additive_products(alg) == []


def test_a_table_read_from_a_file_has_no_weights():
    _, alg = algebra_over("A2", 1)
    read = MultTableAlgebra.from_obj(json.loads(json.dumps(alg.to_obj())))
    assert read.weights is None and alg.weights is not None
    assert read.to_obj() == alg.to_obj()


def test_pairing_refuses_a_table_without_weights():
    read = MultTableAlgebra.from_obj(algebra_over("A2", 1)[1].to_obj())
    with pytest.raises(RequestError, match=r"^the table carries no weights to pair with h = \[1, 0\]$"):
        read.pairing((1, 0))


@pytest.mark.parametrize("h", [(1,), (1, 0, 0)])
def test_pairing_refuses_a_coweight_of_another_length(h):
    # each weight of A2's table has 2 coordinates; h is not cut short or padded
    _, alg = algebra_over("A2", 2)
    message = f"the coweight h = {list(h)} has length {len(h)}, but the weights have length 2"
    with pytest.raises(RequestError) as refused:
        alg.pairing(h)
    assert str(refused.value) == message


def _two_dim_table(weights):
    return MultTableAlgebra(
        dim=2,
        scalar_order=1,
        kind=KIND_ASSOCIATIVE,
        products={(0, 0): {0: q(1)}},
        basis_labels=("e1", "e2"),
        weights=weights,
    )


def test_table_refuses_a_weight_count_other_than_dim():
    # one weight for two basis elements would let pairing return one exponent
    with pytest.raises(RequestError) as refused:
        _two_dim_table(((0,),))
    assert str(refused.value) == "one weight per basis element required, 2 in all, got 1"
    assert _two_dim_table(((0,), (1,))).pairing((1,)) == (0, 1)


def test_table_refuses_weights_of_different_lengths():
    # weights (0, 0) and (1,) would let pairing cut h = (1, 1) short to (0, 1)
    with pytest.raises(RequestError) as refused:
        _two_dim_table(((0, 0), (1,)))
    assert str(refused.value) == "the weights must all have the same length"
    assert _two_dim_table(((0, 0), (1, 0))).pairing((1, 1)) == (0, 1)


@pytest.mark.parametrize("name", TWIST_FIXTURES)
def test_pairing_equals_the_layout_rules_on_twist_fixtures(name):
    alg, _, exponents, _ = twist_factors(name)
    h, oracle = layout_exponents(name)
    assert alg.pairing(h) == exponents == oracle


_TWIST_COMMANDS = ("grade", "descent-verify", "untwist", "extract-gcm", "centroid")


@pytest.mark.parametrize(
    "line", [line for line, _ in cli._VERIFY_TABLE if line.split()[0] in _TWIST_COMMANDS]
)
def test_pairing_equals_the_layout_rules_on_verify_all_twists(line):
    # the exponents the CLI hands grading.twist, against the rule of the
    # table's basis layout
    args = cli._parse_args(line.split())
    spec = cli._parse_auto_json(args.auto)
    source = "type" if args.type is not None else "matrix-algebra"
    _, _, exponents, _, _ = cli._build_sigma(args, source, spec)
    if args.type is not None:
        rs = root_system(cartan_matrix(args.type))
        s = tuple(spec.get("s") or (0,) * rs.rank)
        assert exponents == charge_pairings(rs, s)
    else:
        assert exponents == matrix_unit_shifts(args.matrix_algebra, spec["exponents"])


def _moved_weight(alg, label, coordinate):
    """alg with one coordinate of the weight of one basis element moved by 1."""
    k = alg.basis_labels.index(label)
    weights = [list(w) for w in alg.weights]
    weights[k][coordinate] += 1
    return MultTableAlgebra(
        alg.dim, alg.scalar_order, alg.kind, alg.products, alg.basis_labels,
        tuple(map(tuple, weights)),
    )


@pytest.mark.parametrize(
    "table, h, moved, message",
    [
        (
            algebra_over("A2", 3)[1],
            (1, 0),
            ("e[1,1]", 0),
            "(e[0,1], e[1,0]): exponent 2 of e[1,1] is not 0 + 1",
        ),
        (
            matrix_twist_factors(3, (0, 1, 2), 3)[0],
            (0, 1, 2),
            ("E12", 1),
            "(E12, E21): exponent 0 of E11 is not 0 + 1",
        ),
    ],
    ids=["A2", "M3"],
)
def test_twist_refuses_a_moved_weight(table, h, moved, message):
    # one weight moved by 1 breaks additivity, and twist names the product
    # whose target's exponent the pairing moved
    assert twist(table, identity_map(table), table.pairing(h), 3).period == 3
    tampered = _moved_weight(table, *moved)
    with pytest.raises(AutomorphismError) as refused:
        twist(tampered, identity_map(tampered), tampered.pairing(h), 3)
    assert str(refused.value) == "exponent additivity fails on basis pair " + message


# -- gradings ------------------------------------------------------------------


def _sl2_graded():
    alg, *factors = type_twist_factors("A1", DiagramPermutation((0,)), (1,), 2)
    sigma = twist(alg, *factors)
    return alg, sigma, eigengrading(alg, sigma)


def test_eigengrading_toral_sl2_dims():
    _, _, grading = _sl2_graded()
    assert grading.period == 2
    assert grading.dims == (1, 2)
    assert grading.dim == 3


def test_a_grading_reads_its_period_and_dimension_off_its_components():
    # two residues of one vector each: period 2 and dimension 2, with no
    # stored field to disagree, and residue 2 is residue 0
    one = q(1, 2)
    grading = GradedDecomposition((({0: one},), ({1: one},)))
    assert (grading.period, grading.dim, grading.dims) == (2, 2, (1, 1))
    assert grading.component_solver(2) is grading.component_solver(0)


@pytest.mark.parametrize(
    "images, scalars, period, message",
    [
        ((0, 1), (1, 1), 1, "images and scalars must both have length dim = 3"),
        ((0, 1, 2), (1, 1, 1), 0, "period must be positive"),
    ],
)
def test_check_automorphism_refuses_a_malformed_map(images, scalars, period, message):
    # twist refuses a malformed outer map as the separate pair check did
    alg = _sl2()
    scalars = tuple(q(c) for c in scalars)
    with pytest.raises(AutomorphismError, match=message):
        twist(alg, FiniteOrderAutomorphism(images, scalars, period), (0, 0, 0), 1)
    with pytest.raises(AutomorphismError, match=message):
        check_automorphism(alg, images, scalars, period)


def test_maps_and_gradings_need_the_table_scalar_order():
    alg = _sl2()
    with pytest.raises(AutomorphismError, match="scalars must use the algebra scalar order"):
        twist(alg, FiniteOrderAutomorphism((0, 1, 2), (q(1, 3),) * 3, 1), (0, 0, 0), 1)
    identity = identity_map(alg)
    with pytest.raises(AutomorphismError, match="the diagonal period m must be positive"):
        twist(alg, identity, (0, 0, 0), 0)
    with pytest.raises(
        AutomorphismError, match="the diagonal map needs one exponent per basis element, 3 in all"
    ):
        twist(alg, identity, (0, 0), 1)
    # the identity, certified at period 2, on a table over Q
    identity = twist(alg, FiniteOrderAutomorphism((0, 1, 2), (q(1),) * 3, 2), (0, 0, 0), 1)
    with pytest.raises(
        GradingError,
        match=r"scalar order 1 lacks the 2-th roots of unity; build the table over Q\(zeta_n\) for"
        " a multiple n of 2",
    ):
        eigengrading(alg, identity)


def test_eigengrading_rejects_non_automorphism():
    alg = _sl2(order=2)
    # h <-> e, f fixed
    with pytest.raises(ValueError):
        twist(alg, FiniteOrderAutomorphism((1, 0, 2), (q(1, 2),) * 3, 2), (0, 0, 0), 1)


def test_eigengrading_refuses_uncertified_non_multiplicative_map():
    # h -> -h, e and f fixed: [e, f] = h lands in residue 1, not 0 + 0
    alg = _sl2(order=2)
    images, scalars = (0, 1, 2), (q(-1, 2), q(1, 2), q(1, 2))
    sigma = FiniteOrderAutomorphism(images, scalars, 2)
    with pytest.raises(
        GradingError, match="the automorphism is not certified on this table; check it first"
    ):
        eigengrading(alg, sigma)
    with pytest.raises(AutomorphismError, match=r"multiplicativity fails"):
        twist(alg, sigma, (0, 0, 0), 1)
    # the n^2 product loop refuses the same grading, written out by hand
    one = q(1, 2)
    by_hand = GradedDecomposition((({1: one}, {2: one}), ({0: one},)))
    with pytest.raises(GradingError, match="product of components 0 and 0"):
        product_rule_check(alg, by_hand)


def test_eigengrading_accepts_only_certified_maps():
    alg, sigma, grading = _sl2_graded()
    plain = FiniteOrderAutomorphism(sigma.images, sigma.scalars, sigma.period)
    with pytest.raises(GradingError, match="not certified"):
        eigengrading(alg, plain)
    # the certificate is of one table object, not of every table of its shape
    with pytest.raises(GradingError, match="not certified"):
        eigengrading(_sl2(order=2), sigma)
    with pytest.raises(GradingError, match="not certified"):
        eigengrading(algebra_over("A1", 2)[1], sigma)
    # a plain composition drops the certificate
    assert not compose(sigma, sigma).certified_on(alg)


def test_eigengrading_refuses_a_component_that_is_not_an_eigenvector(monkeypatch):
    # the closed form read along each 3-cycle of triality backwards: the
    # vectors still exhaust the algebra and are independent, but sigma does
    # not scale them by their eigenvalue, and the dense eigenspaces say so
    rs, alg = algebra_over("D4", 3)
    sigma = diagram_automorphism(alg, rs, DiagramPermutation((2, 1, 3, 0)))
    _assert_dense_eigenspaces(alg, sigma, eigengrading(alg, sigma))
    real = algebra._cycles

    def backwards(images):
        return [c if len(c) < 3 else [c[0], *reversed(c[1:])] for c in real(images)]

    monkeypatch.setattr("loopforms.grading._cycles", backwards)
    mutated = eigengrading(alg, sigma)
    assert sum(mutated.dims) == alg.dim
    with pytest.raises(AssertionError):
        _assert_dense_eigenspaces(alg, sigma, mutated)


@pytest.mark.parametrize("name", TWIST_FIXTURES)
def test_product_rule_holds_on_every_twist_fixture(name):
    # the theorem eigengrading relies on, against the n^2 product loop
    alg, sigma = twist_fixture(name)
    assert sigma.certified_on(alg)
    product_rule_check(alg, eigengrading(alg, sigma))


@pytest.mark.parametrize("name", TWIST_FIXTURES)
def test_diagonal_certificate_equals_pair_check(name):
    # every diagonal twist of the pool, certified by additivity, against
    # the full pair check; a non-diagonal twist has no exponents to add
    alg, sigma = twist_fixture(name)
    if sigma.images != tuple(range(alg.dim)):
        return
    m = sigma.period
    step = alg.scalar_order // m
    exponents = [next(p for p in range(m) if zeta_power(alg.scalar_order, step * p) == c)
                 for c in sigma.scalars]
    additive = check_diagonal_automorphism(alg, exponents, m)
    assert additive == sigma == check_automorphism(alg, sigma.images, sigma.scalars, m)
    # only twist marks a map certified
    assert sigma.certified_on(alg) and not additive.certified_on(alg)


def test_non_additive_charge_raises():
    _, alg = algebra_over("A2", 3)
    identity = identity_map(alg)
    good = list(alg.pairing((1, 0)))
    assert twist(alg, identity, good, 3).period == 3
    bad = list(good)
    top = alg.basis_labels.index("e[1,1]")
    bad[top] += 1  # <s, a1 + a2> is no longer <s, a1> + <s, a2>
    with pytest.raises(AutomorphismError) as refused:
        twist(alg, identity, bad, 3)
    assert str(refused.value) == (
        "exponent additivity fails on basis pair (e[0,1], e[1,0]): exponent 2 of e[1,1] is not 0 + 1"
    )
    with pytest.raises(AutomorphismError, match=r"exponent 2 of e\[1,1\] is not 0 \+ 1 mod 3"):
        check_diagonal_automorphism(alg, bad, 3)
    scalars = tuple(zeta_power(3, p) for p in bad)
    with pytest.raises(AutomorphismError, match="multiplicativity fails"):
        check_automorphism(alg, range(alg.dim), scalars, 3)
    # as an outer map with scalars other than 1, twist reads its products
    with pytest.raises(AutomorphismError, match="multiplicativity fails"):
        twist(alg, FiniteOrderAutomorphism(tuple(range(alg.dim)), scalars, 3), (0,) * alg.dim, 1)
    with pytest.raises(AutomorphismError, match="scalar order 3 lacks the 2-th roots of unity"):
        twist(alg, identity, good, 2)


def test_composition_needs_certified_factors():
    # twist certifies both factors itself: the outer map is a plain value
    rs, alg = algebra_over("A2", 6)
    flip = diagram_automorphism(alg, rs, DiagramPermutation((1, 0)))
    exponents = alg.pairing((1, 1))
    tau = check_diagonal_automorphism(alg, exponents, 3)
    composed = twist(alg, flip, exponents, 3)
    assert composed == compose(flip, tau) and composed.certified_on(alg)
    # exponents that are all 0 mod m leave the outer map, at the common period
    lifted = twist(alg, flip, [3 * p for p in exponents], 3)
    assert lifted == FiniteOrderAutomorphism(flip.images, flip.scalars, 6)
    assert lifted.certified_on(alg)
    plain = FiniteOrderAutomorphism(flip.images, flip.scalars, flip.period)
    assert not plain.certified_on(alg)
    assert twist(alg, plain, exponents, 3) == composed
    # a plain outer map that is not multiplicative is refused
    scalars = list(flip.scalars)
    top = alg.basis_labels.index("e[1,1]")
    scalars[top] = -scalars[top]
    tampered = FiniteOrderAutomorphism(flip.images, tuple(scalars), flip.period)
    with pytest.raises(AutomorphismError, match=r"multiplicativity fails on basis pair"):
        twist(alg, tampered, exponents, 3)
    # the period lcm(2, 3) follows from the certified period of the outer
    # factor and the commuting: the cycle-by-cycle check that twist runs on
    # the outer factor passes on both compositions, and twist runs it on
    # neither
    for sigma in (composed, lifted):
        assert sigma.period == 6
        _check_period(alg, sigma.images, sigma.scalars, sigma.period)


# -- monomial automorphisms against the dense oracle -------------------------------


@pytest.mark.parametrize("name", TWIST_FIXTURES)
def test_dense_check_accepts_monomial_twist(name):
    alg, sigma = twist_fixture(name)
    dense_check_automorphism(alg, sigma.matrix, sigma.period)


def _assert_dense_eigenspaces(alg, sigma, grading):
    """Each component equals the kernel of sigma - zeta^i on the dense matrix."""
    n, order, period = alg.dim, alg.scalar_order, sigma.period
    zero = CycloNum.zero(order)
    for i in range(period):
        zeta = zeta_power(order, (order // period) * i)
        rows = [
            [sigma.matrix[r][c] - (zeta if r == c else zero) for c in range(n)]
            for r in range(n)
        ]
        kernel = [densify(v, n, order) for v in nullspace(rows, n, order)]
        assert kernel == [densify(v, n, order) for v in grading.component_bases[i]]


@pytest.mark.parametrize("name", TWIST_FIXTURES)
def test_closed_form_grading_equals_dense_nullspace(name):
    alg, sigma = twist_fixture(name)
    _assert_dense_eigenspaces(alg, sigma, eigengrading(alg, sigma))


def _solvers(grading, i):
    return grading.component_solver(i), SpanSolver(grading.component_bases[i % grading.period])


@pytest.mark.parametrize("name", TWIST_FIXTURES)
def test_component_solver_equals_span_solver(name):
    # one-pass coordinates against elimination: every pair product of
    # component vectors, every kernel vector of twisted_fixed_points, and
    # the probes of each component that leave its span
    alg, sigma = twist_fixture(name)
    grading = eigengrading(alg, sigma)
    m = grading.period
    comps = grading.component_bases
    for i in range(m):
        fast, slow = _solvers(grading, i)
        probes = span_probes(comps[i], alg.dim, alg.scalar_order)
        reads = [fast.coords(v) for v in probes]
        assert reads == [slow.coords(v) for v in probes] == [None] * (len(probes) - 1) + [{}]
    for i in range(m):
        for j in range(m):
            target = _solvers(grading, i + j)
            # the same products against the next component are outside it
            # whenever they are nonzero and m > 1
            other = _solvers(grading, i + j + 1)
            for x in comps[i]:
                for y in comps[j]:
                    v = alg.product_sparse(x, y)
                    fast, slow = target[0].coords(v), target[1].coords(v)
                    assert fast is not None and fast == slow
                    rebuilt = {}
                    for k, c in fast.items():
                        for idx, e in comps[(i + j) % m][k].items():
                            rebuilt[idx] = c * e
                    assert rebuilt == v
                    if m > 1:
                        assert other[0].coords(v) == other[1].coords(v)
                        assert (other[0].coords(v) is None) == bool(v)
    for r, kernel in enumerate(twisted_fixed_points(build_cocycle(sigma), grading)):
        fast, slow = _solvers(grading, r)
        for v in kernel:
            assert fast.coords(v) is not None
            assert fast.coords(v) == slow.coords(v)


class _CountingSparse(dict):
    """A sparse vector that counts the reads made of it."""

    reads = 0

    def get(self, *args):
        self.reads += 1
        return super().get(*args)

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def items(self):
        self.reads += 1
        return super().items()


def test_component_solver_read_costs_the_size_of_the_vector():
    # 2000 two-entry vectors over Q: reading v visits v, not every pivot
    n = 2000
    span = [
        {2 * k: CycloNum.one(1), 2 * k + 1: CycloNum.rational(1, Fraction(1, k + 2))}
        for k in range(n)
    ]
    solver = ComponentSolver(span)
    c, d = CycloNum.rational(1, 3), CycloNum.rational(1, -5)
    for v, expected in (
        (_CountingSparse({2 * 1500: c, 2 * 1500 + 1: c * span[1500][3001]}), {1500: c}),
        (
            _CountingSparse({0: d, 1: d * span[0][1], 3998: c, 3999: c * span[1999][3999]}),
            {0: d, 1999: c},
        ),
    ):
        assert solver.coords(v) == expected
        assert v.reads <= 4 * len(v)


def _triality_grading():
    rs, alg = algebra_over("D4", 3)
    return eigengrading(alg, diagram_automorphism(alg, rs, DiagramPermutation((2, 1, 3, 0))))


def test_component_solver_refuses_pivot_not_one():
    grading = _triality_grading()
    comp = [dict(v) for v in grading.component_bases[1]]
    pivot = min(comp[0])
    comp[0][pivot] = comp[0][pivot] * 2
    with pytest.raises(GradingError, match="at its pivot"):
        ComponentSolver(comp)
    tampered = GradedDecomposition(
        (grading.component_bases[0], tuple(comp), grading.component_bases[2])
    )
    with pytest.raises(GradingError, match="at its pivot"):
        tampered.component_solver(1)


def test_component_solver_refuses_shared_index():
    grading = _triality_grading()
    comp = [dict(v) for v in grading.component_bases[0]]
    # a later vector also covers an index of the first one
    first, second = comp[0], comp[1]
    borrowed = max(first)
    second[borrowed] = first[borrowed]
    assert min(second) != borrowed
    with pytest.raises(GradingError, match="share index"):
        ComponentSolver(comp)


def test_vector_outside_span_refused_by_both_solvers():
    grading = _triality_grading()
    # the scalar order of the table, read off a component vector's entries
    order = next(iter(grading.component_bases[0][0].values())).order
    for i in range(grading.period):
        fast, slow = _solvers(grading, i)
        comp = grading.component_bases[i]
        # perturb one non-pivot entry of a component vector
        v = dict(next(vec for vec in comp if len(vec) > 1))
        idx = max(v)
        v[idx] = v[idx] + CycloNum.one(order)
        if v[idx].is_zero():
            del v[idx]
        assert fast.coords(v) is None and slow.coords(v) is None
        # drop one non-pivot entry of it instead
        del v[idx]
        assert fast.coords(v) is None and slow.coords(v) is None
        # a vector of the next component, and one that adds an index no
        # vector of this component covers
        w = grading.component_bases[(i + 1) % grading.period][0]
        assert fast.coords(w) is None and slow.coords(w) is None
        covered = {k for vec in comp for k in vec}
        for outside in sorted(set(range(grading.dim)) - covered)[:1]:
            w = {**comp[0], outside: CycloNum.one(order)}
            assert fast.coords(w) is None and slow.coords(w) is None
        assert fast.coords({}) == slow.coords({}) == {}


def _triality_images_scalars():
    rs, alg = algebra_over("D4", 3)
    sigma = diagram_automorphism(alg, rs, DiagramPermutation((2, 1, 3, 0)))
    return alg, list(sigma.images), list(sigma.scalars)


def _repeat_an_image(alg, images, scalars):
    images[1] = images[0]
    return images, scalars, 3


def test_twist_refuses_factors_that_do_not_commute():
    # the charge s = (1, 0) is not constant on the orbit of the flip
    rs, alg = algebra_over("A2", 6)
    flip = diagram_automorphism(alg, rs, DiagramPermutation((1, 0)))
    skewed = alg.pairing((1, 0))
    with pytest.raises(AutomorphismError) as refused:
        twist(alg, flip, skewed, 3)
    assert str(refused.value) == (
        "exponent invariance fails on e[0,1]: its exponent 0 is not 1,"
        " the exponent of its image e[1,0]"
    )


def _zero_a_scalar(alg, images, scalars):
    scalars[5] = CycloNum.zero(alg.scalar_order)
    return images, scalars, 3


def _flip_highest_root_sign(alg, images, scalars):
    idx = alg.basis_labels.index("e[1,2,1,1]")
    scalars[idx] = -scalars[idx]
    return images, scalars, 3


def _declare_period_two(alg, images, scalars):
    return images, scalars, 2


@pytest.mark.parametrize(
    "tamper, message",
    [
        pytest.param(
            _repeat_an_image,
            "images are not a permutation of the basis",
            id="_repeat_an_image-not a permutation",
        ),
        pytest.param(
            _zero_a_scalar,
            "a basis element maps to zero; the map is not invertible",
            id="_zero_a_scalar-not invertible",
        ),
        (_flip_highest_root_sign, "multiplicativity fails"),
        pytest.param(
            _declare_period_two,
            "sigma\\^2 is not the identity on the cycle of h1",
            id="_declare_period_two-sigma\\^2 is not the identity",
        ),
    ],
)
def test_check_automorphism_refuses_tampered_triality(tamper, message):
    # twist certifies the outer map alone at m = 1, and refuses each
    # tampered map as the separate pair check does
    alg, images, scalars = _triality_images_scalars()
    zeros = (0,) * alg.dim
    assert twist(alg, FiniteOrderAutomorphism(tuple(images), tuple(scalars), 3), zeros, 1).period == 3
    assert check_automorphism(alg, images, scalars, 3).period == 3
    images, scalars, period = tamper(alg, images, scalars)
    with pytest.raises(AutomorphismError, match=message):
        twist(alg, FiniteOrderAutomorphism(tuple(images), tuple(scalars), period), zeros, 1)
    with pytest.raises(AutomorphismError, match=message):
        check_automorphism(alg, images, scalars, period)


def _idempotents():
    # k x k: e1 e1 = e1, e2 e2 = e2, and e1 e2 = e2 e1 = 0
    table = {(0, 0): {0: q(1)}, (1, 1): {1: q(1)}}
    return MultTableAlgebra(
        dim=2, scalar_order=1, kind=KIND_ASSOCIATIVE, products=table, basis_labels=("e1", "e2")
    )


def _triangular():
    # upper triangular 2x2 matrices on the basis E22, E12, E11, so that the
    # products E12 E22 = E12 and E11 E12 = E12 sit at pairs i > j
    table = {
        (0, 0): {0: q(1)}, (1, 0): {1: q(1)}, (2, 1): {1: q(1)}, (2, 2): {2: q(1)},
    }
    return MultTableAlgebra(
        dim=3, scalar_order=1, kind=KIND_ASSOCIATIVE, products=table,
        basis_labels=("E22", "E12", "E11"),
    )


@pytest.mark.parametrize(
    "build, images, signs, pair",
    [
        # e1 -> -e1 breaks only the diagonal product e1 e1 = e1
        pytest.param(_idempotents, (0, 1), (-1, 1), "e1, e1", id="diagonal"),
        # exchanging E11 and E22 is the transpose, an anti-automorphism: it
        # breaks only the two products at pairs i > j
        pytest.param(_triangular, (2, 1, 0), (1, 1, 1), "E12, E22", id="i > j"),
    ],
)
def test_check_automorphism_checks_every_pair_of_the_table(build, images, signs, pair):
    alg = build()
    scalars = tuple(q(sign) for sign in signs)
    matrix = FiniteOrderAutomorphism(images, scalars, 2).matrix
    assert _raises_automorphism_error(dense_check_automorphism, alg, matrix, 2)
    with pytest.raises(AutomorphismError, match=f"multiplicativity fails on basis pair \\({pair}\\)"):
        twist(alg, FiniteOrderAutomorphism(images, scalars, 2), (0,) * alg.dim, 1)
    with pytest.raises(AutomorphismError, match=f"multiplicativity fails on basis pair \\({pair}\\)"):
        check_automorphism(alg, images, scalars, 2)


def _raises_automorphism_error(check, *args):
    try:
        check(*args)
    except AutomorphismError:
        return True
    return False


def _twist_outer(alg, images, scalars, period):
    """twist of the plain map e_j -> scalars[j] e_images[j] with no charge."""
    return twist(alg, FiniteOrderAutomorphism(images, scalars, period), (0,) * alg.dim, 1)


@pytest.mark.parametrize(
    "build, kinds",
    [
        # (refused, sends a zero product onto a nonzero one) over all 48 maps
        pytest.param(_sl2, {(False, False), (True, False)}, id="sl2"),
        # E11 E22 = 0, yet E12 <-> E22 sends it onto E11 E12 = E12; such maps
        # must be refused though only the nonzero products are compared
        pytest.param(
            lambda: build_matrix_algebra(2, (0, 0), 1)[0],
            {(False, False), (True, False), (True, True)},
            id="M2",
        ),
    ],
)
def test_check_automorphism_agrees_with_dense_on_signed_permutations(build, kinds):
    # every signed permutation of the basis as the outer map of a twist,
    # against the separate pair check and the dense check; sigma^24 = 1 for
    # each of them, since each cycle has length k <= 4 and 24 / k is even
    alg = build()
    n, period = alg.dim, 24
    seen = set()
    for images in permutations(range(n)):
        hits_zero = any(
            not alg.basis_product(i, j) and alg.basis_product(images[i], images[j])
            for i, j in product(range(n), repeat=2)
        )
        for signs in product((1, -1), repeat=n):
            scalars = tuple(q(sign) for sign in signs)
            refused = _raises_automorphism_error(_twist_outer, alg, images, scalars, period)
            matrix = FiniteOrderAutomorphism(images, scalars, period).matrix
            assert refused == _raises_automorphism_error(dense_check_automorphism, alg, matrix, period)
            assert refused == _raises_automorphism_error(
                check_automorphism, alg, images, scalars, period
            )
            seen.add((refused, hits_zero))
    assert seen == kinds


def test_base_change_flattens_in_window():
    alg, _, grading = _sl2_graded()
    report = base_change_check(alg, grading, 3)
    assert report.ok
    assert report.window == 3
    for _, dims in report.degree_dims:
        assert sum(dims) == alg.dim


# -- centroid ------------------------------------------------------------------


def _centroid_oracle_dim(alg, grading, shift):
    """Dense independent solve: T commuting with all left/right multiplications
    and moving residue i to residue i + shift; returns the solution dimension.

    Unknowns are the n^2 ambient entries of T; the graded constraint is imposed
    with projector matrices, the commuting constraint with the multiplication
    operators of every basis element.
    """
    n = alg.dim
    order = alg.scalar_order
    m = grading.period
    zero = CycloNum.zero(order)

    basis_cols = []
    for i in range(m):
        basis_cols.extend(densify(v, n, order) for v in grading.component_bases[i])
    change = tuple(tuple(basis_cols[c][r] for c in range(n)) for r in range(n))
    change_inv = mat_inverse(change)

    def projector(i):
        offsets = []
        start = 0
        for k in range(m):
            d = len(grading.component_bases[k])
            if k == i % m:
                offsets = list(range(start, start + d))
            start += d
        sel = tuple(
            tuple(CycloNum.rational(order, 1 if r == c and r in offsets else 0)
                  for c in range(n))
            for r in range(n)
        )
        return mat_mul(mat_mul(change, sel), change_inv)

    def mult_ops(u):
        left = tuple(tuple(zero for _ in range(n)) for _ in range(n))
        left = [list(row) for row in left]
        right = [list(row) for row in left]
        for s in range(n):
            for k, c in alg.basis_product(u, s).items():
                left[k][s] = left[k][s] + c
            for k, c in alg.basis_product(s, u).items():
                right[k][s] = right[k][s] + c
        return left, right

    rows = []

    def add_commutator_rows(op):
        # T @ op - op @ T = 0, linear in the entries t[r][s]
        for a in range(n):
            for b in range(n):
                row = [zero] * (n * n)
                for s in range(n):
                    row[a * n + s] = row[a * n + s] + op[s][b]
                for r in range(n):
                    row[r * n + b] = row[r * n + b] - op[a][r]
                rows.append(row)

    for u in range(n):
        left, right = mult_ops(u)
        add_commutator_rows(left)
        add_commutator_rows(right)

    for i in range(m):
        p_in = projector(i)
        p_out = projector(i + shift)
        # (I - P_{i+shift}) T P_i = 0
        for a in range(n):
            for b in range(n):
                row = [zero] * (n * n)
                for r in range(n):
                    for s in range(n):
                        coeff = p_in[s][b] * ((q(1, order) if a == r else zero) - p_out[a][r])
                        if not coeff.is_zero():
                            row[r * n + s] = row[r * n + s] + coeff
                rows.append(row)

    return len(nullspace(rows, n * n, order))


def test_centroid_dims_match_dense_oracle_sl2():
    alg, _, grading = _sl2_graded()
    dims = [report.solution_dim for report in centroid_graded(alg, grading)]
    assert dims == [_centroid_oracle_dim(alg, grading, shift) for shift in range(grading.period)]
    assert dims == [1, 0]


def test_centroid_dims_match_dense_oracle_m2():
    alg, sigma = build_matrix_algebra(2, (0, 1), 2)
    grading = eigengrading(alg, sigma)
    for shift, got in enumerate(centroid_graded(alg, grading)):
        assert got.solution_dim == _centroid_oracle_dim(alg, grading, shift)


def test_centroid_identity_membership():
    alg, _, grading = _sl2_graded()
    reports = centroid_graded(alg, grading)
    assert reports[0].contains_identity
    assert not reports[1].contains_identity


@pytest.mark.parametrize(
    "row, identity, families",
    [
        ({0: 1, 1: -1}, True, 2),
        ({0: 1, 1: 1}, False, 2),
        ({1: 1, 4: -1}, True, 2),
        ({4: 1}, False, 2),
    ],
)
def test_centroid_reads_the_identity_off_its_pivot_rows(monkeypatch, row, identity, families):
    # sl2 graded by s = 1, m = 2 has dims (1, 2), and at shift 0 its
    # surviving unknowns are the diagonal ones, 0, 1 and 4: one equation in
    # place of the system leaves two families, and the identity (1, 1, 1)
    # solves it exactly when its entries at the diagonal unknowns sum to 0
    alg, _, grading = _sl2_graded()
    equation = {k: CycloNum.rational(alg.scalar_order, c) for k, c in row.items()}
    monkeypatch.setattr(centroid, "eliminate", lambda rows: linalg.eliminate([equation]))
    report = centroid_graded(alg, grading)[0]
    assert (report.contains_identity, report.solution_dim) == (identity, families)
    one = CycloNum.one(alg.scalar_order)
    assert identity == (rank([*report.basis, {0: one, 1: one, 4: one}]) == families)


def test_centroid_of_untwisted_simple_algebra_is_scalars():
    alg, *factors = type_twist_factors("A1", DiagramPermutation((0,)), (0,), 1)
    grading = eigengrading(alg, twist(alg, *factors))
    (report,) = centroid_graded(alg, grading)
    assert report.solution_dim == 1
    assert report.contains_identity


# -- the centroid on a generating set against the centroid on all basis pairs ---


def _assert_centroid_matches_all_pairs(alg, grading):
    reports = centroid_graded(alg, grading)
    assert len(reports) == grading.period
    for shift, got in enumerate(reports):
        assert got == all_pairs_centroid(alg, grading, shift)


@pytest.mark.parametrize("name", TWIST_FIXTURES)
def test_centroid_matches_all_pairs_on_twist_fixtures(name):
    alg, sigma = twist_fixture(name)
    _assert_centroid_matches_all_pairs(alg, eigengrading(alg, sigma))


def _pool_m4_exponents():
    """The M_4 requests of the twist pool's centroid stratum: the exponents
    (0, 1, 2, 3), reversed and rotated, times each unit mod 4, each also
    raised by 1."""
    base = (0, 1, 2, 3)
    out = []
    for order in (base, base[::-1], base[1:] + base[:1]):
        for k in (1, 3):
            for lift in (0, 1):
                a = tuple((k * x) % 4 + lift for x in order)
                if a not in out:
                    out.append(a)
    return out


# the A3 requests of the twist pool's centroid stratum: (one-based pi, s, m)
_POOL_A3 = (((3, 2, 1), (0, 0, 0), 1), ((3, 2, 1), (1, 0, 1), 2), ((3, 2, 1), (3, 0, 3), 2))


@pytest.mark.parametrize("pi,s,m", _POOL_A3)
def test_centroid_matches_all_pairs_on_pool_a3(pi, s, m):
    perm = DiagramPermutation.from_one_based(pi)
    alg, *factors = type_twist_factors("A3", perm, s, m)
    sigma = twist(alg, *factors)
    _assert_centroid_matches_all_pairs(alg, eigengrading(alg, sigma))


@pytest.mark.parametrize("exponents", _pool_m4_exponents())
def test_centroid_matches_all_pairs_on_pool_m4(exponents):
    alg, sigma = build_matrix_algebra(4, exponents, 4)
    _assert_centroid_matches_all_pairs(alg, eigengrading(alg, sigma))


def _class_representatives():
    for label in ("A2", "A3", "A4", "B2", "C3", "D4", "G2", "F4"):
        for rep, _ in dynkin_automorphism_group(cartan_matrix(label)).classes:
            yield label, rep.images


@pytest.mark.parametrize(
    "label,images",
    list(_class_representatives()),
    ids=[f"{label} {list(images)}" for label, images in _class_representatives()],
)
def test_centroid_matches_all_pairs_on_class_representatives(label, images):
    perm = DiagramPermutation(images)
    rs, alg = algebra_over(label, perm.order())
    grading = eigengrading(alg, diagram_automorphism(alg, rs, perm))
    _assert_centroid_matches_all_pairs(alg, grading)


def test_one_centroid_call_builds_one_generating_set(monkeypatch):
    alg, sigma = twist_fixture("D4 diagram triality")
    grading = eigengrading(alg, sigma)
    built = []

    class Counted(_Generators):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr("loopforms.centroid._Generators", Counted)
    assert len(centroid_graded(alg, grading)) == grading.period == 3
    (gens,) = built
    assert len(gens.gens) < alg.dim
    # each kept vector lies outside what the earlier ones generate, and all
    # of them generate the algebra
    vectors = [grading.component_bases[res][t] for res, t in gens.gens]
    for k, g in enumerate(vectors):
        assert _generated(alg, vectors[:k]).reduce(g)
    assert len(_generated(alg, vectors)) == alg.dim


def _generated(alg, gens):
    """The span of the subalgebra of a Lie table that gens generate: the
    closure of span(gens) under left multiplication by each generator."""
    span = Echelon()
    frontier = [g for g in gens if span.add(g)]
    while frontier:
        w = frontier.pop()
        for g in gens:
            v = alg.product_sparse(g, w)
            if span.add(v):
                frontier.append(v)
    return span


def _non_antisymmetric_sl2():
    # [h,e] = 2e and [e,h] = 2e, where antisymmetry wants -2e
    table = {
        (0, 1): {1: q(2)},
        (1, 0): {1: q(2)},
        (0, 2): {2: q(-2)},
        (2, 0): {2: q(2)},
        (1, 2): {0: q(1)},
        (2, 1): {0: q(-1)},
    }
    return MultTableAlgebra(
        dim=3, scalar_order=1, kind=KIND_LIE, products=table, basis_labels=("h", "e", "f"),
    )


def test_centroid_refuses_a_table_failing_its_laws():
    alg = _non_antisymmetric_sl2()
    sigma = twist(alg, identity_map(alg), (0, 0, 0), 1)
    grading = eigengrading(alg, sigma)
    with pytest.raises(AlgebraError, match="the table fails its lie laws: .*antisymmetry"):
        centroid_graded(alg, grading)


def test_centroid_refuses_a_grading_that_breaks_the_product_rule():
    # the toral grading of sl2 with its components exchanged: [e, f] = h
    # leaves the component of e and f, which now has residue 0
    alg, _, grading = _sl2_graded()
    swapped = GradedDecomposition(grading.component_bases[::-1])
    assert swapped.dims == (2, 1)
    with pytest.raises(GradingError, match="product rule violated while building centroid system"):
        centroid_graded(alg, swapped)


def test_embedding_keeps_the_validation_certificate():
    _, alg = algebra_over("A2", 1)
    embedded = algebra_over("A2", 6)[1]
    assert "validation" in embedded.__dict__
    assert embedded.validation == alg.validation == validate_algebra(embedded)
