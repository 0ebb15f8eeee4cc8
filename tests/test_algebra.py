import random
from itertools import permutations
from fractions import Fraction

import pytest

from dense import (
    TWIST_FIXTURES,
    basis_vector,
    dense_check_automorphism,
    densify,
    mat_inverse,
    mat_mul,
    ordered_triple_validation,
    twist_fixture,
)
from loopforms.algebra import (
    KIND_ASSOCIATIVE,
    KIND_LIE,
    AutomorphismError,
    ComponentSolver,
    GradedDecomposition,
    GradingError,
    MultTableAlgebra,
    base_change_check,
    centroid_graded,
    check_automorphism,
    eigengrading,
    loop_bracket,
    loop_element,
    make_table,
    ts_product,
    validate_algebra,
)
from loopforms.chevalley import (
    DiagramPermutation,
    ToralCharge,
    algebra_over,
    diagram_automorphism,
    standard_algebra,
    toral_automorphism,
)
from loopforms.cyclo import CycloNum, zeta_power
from loopforms.descent import build_cocycle, build_matrix_algebra, twisted_fixed_points
from loopforms.linalg import SpanSolver, nullspace


def q(x, order=1):
    return CycloNum.rational(order, Fraction(x))


def _sl2(order=1, h_e_coeff=2):
    # basis h, e, f with [h,e] = c*e, [h,f] = -2f, [e,f] = h; any c != 2
    # breaks Jacobi on (h,e,f) while the table stays antisymmetric
    c = q(h_e_coeff, order)
    table = make_table({
        (0, 1): {1: c},
        (1, 0): {1: -c},
        (0, 2): {2: q(-2, order)},
        (2, 0): {2: q(2, order)},
        (1, 2): {0: q(1, order)},
        (2, 1): {0: q(-1, order)},
    })
    return MultTableAlgebra(
        dim=3, scalar_order=order, kind=KIND_LIE,
        constants=table, basis_labels=("h", "e", "f"),
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
    table = make_table({(0, 0): {1: q(1)}})
    alg = MultTableAlgebra(
        dim=2, scalar_order=1, kind=KIND_LIE,
        constants=table, basis_labels=("a", "b"),
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
        constants=make_table(entries), basis_labels=alg.basis_labels,
    )


def _entries(alg):
    return {(i, j): dict(entry) for i, j, entry in alg.constants}


def _scaled(alg, keys, factor):
    entries = _entries(alg)
    for key in keys:
        entries[key] = {k: v * factor for k, v in entries[key].items()}
    return _retabled(alg, entries)


def _scaled_pair(label, factor, seed):
    # scale e_i e_j and e_j e_i together: still antisymmetric, Jacobi breaks
    _, alg = standard_algebra(label)
    i, j = random.Random(seed).choice(sorted((i, j) for i, j, _ in alg.constants if i < j))
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
    table = make_table({
        (x, y): {3: q(1)}, (y, x): {3: q(-1)},
        (3, z): {z: q(1)}, (z, 3): {z: q(-1)},
    })
    return MultTableAlgebra(
        dim=4, scalar_order=1, kind=KIND_LIE,
        constants=table, basis_labels=("a", "b", "c", "l"),
    )


def _explicit_zero_products():
    obj = _sl2().to_obj()
    obj["constants"].append([1, 1, [[0, {"order": 1, "coeffs": ["0"]}]]])
    obj["constants"].append([0, 0, []])
    return MultTableAlgebra.from_obj(obj)


# name -> (function making the table, whether it is a valid algebra)
_VALIDATION_CASES = {
    **{label: (lambda label=label: standard_algebra(label)[1], True)
       for label in ("A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2")},
    "G2 over Q(zeta_6)": (lambda: algebra_over("G2", 6)[1], True),
    **{f"A3 pair x{f} seed {seed}": (lambda f=f, seed=seed: _scaled_pair("A3", q(f), seed), False)
       for f in (2, 3, -1) for seed in (1, 2, 3)},
    # over Q(zeta_3) the failing Jacobiators are cyclotomic
    "A2 pair x zeta_3": (
        lambda: _scaled(algebra_over("A2", 3)[1], ((2, 3), (3, 2)), zeta_power(3, 1)), False),
    "A2 rescaled over Q(zeta_3)": (_rescaled_basis, True),
    # scaling e_i e_j alone breaks antisymmetry
    "A2 one-sided x2": (lambda: _scaled(standard_algebra("A2")[1], ((3, 2),), q(2)), False),
    "sl2 non-alternating": (_non_alternating, False),
    **{f"only [{'abc'[x]},{'abc'[y]}]": (lambda x=x, y=y: _single_pair_jacobiator(x, y), False)
       for x, y in ((0, 1), (1, 2), (2, 0))},
    "sl2 explicit zero products": (_explicit_zero_products, True),
    "sl2 [h,e]=3e": (lambda: _sl2(h_e_coeff=3), False),
    "M2": (lambda: build_matrix_algebra(2, (0, 0), 1)[0], True),
    "M3 over Q(zeta_3)": (lambda: build_matrix_algebra(3, (0, 1, 2), 3)[0], True),
    "M2 product x2": (
        lambda: _scaled(build_matrix_algebra(2, (0, 0), 1)[0], ((1, 2),), q(2)), False),
    "M3 product x zeta_3": (
        lambda: _scaled(build_matrix_algebra(3, (0, 1, 2), 3)[0], ((4, 5),), zeta_power(3, 1)),
        False),
}


@pytest.mark.parametrize("name", sorted(_VALIDATION_CASES))
def test_validation_equals_ordered_triple_oracle(name):
    build, valid = _VALIDATION_CASES[name]
    alg = build()
    report = validate_algebra(alg)
    assert report == ordered_triple_validation(alg)
    assert report.triples_checked == alg.dim ** 3
    assert report.ok == valid


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
                for k, c in alg.basis_product(i, j):
                    want[k] = want[k] + a * b * c
        got = alg.product_sparse(x, y)
        assert densify(got, alg.dim, 3) == tuple(want)
        assert all(not v.is_zero() for v in got.values())
        assert alg.product_sparse(x, x) == {}


def test_serialization_round_trip():
    alg = _sl2()
    clone = MultTableAlgebra.from_obj(alg.to_obj())
    assert clone == alg


# -- gradings ------------------------------------------------------------------


def _sl2_graded():
    rs, alg = algebra_over("A1", 2)
    sigma = toral_automorphism(alg, rs, ToralCharge(s=(1,), modulus=2))
    return alg, sigma, eigengrading(alg, sigma)


def test_eigengrading_toral_sl2_dims():
    _, _, grading = _sl2_graded()
    assert grading.period == 2
    assert grading.dims == (1, 2)


def test_eigengrading_rejects_non_automorphism():
    alg = _sl2(order=2)
    # h <-> e, f fixed
    with pytest.raises(ValueError):
        check_automorphism(alg, (1, 0, 2), (q(1, 2),) * 3, 2)


# -- monomial automorphisms against the dense oracle -------------------------------


@pytest.mark.parametrize("name", TWIST_FIXTURES)
def test_dense_check_accepts_monomial_twist(name):
    alg, sigma = twist_fixture(name)
    dense_check_automorphism(alg, sigma.matrix, sigma.period)


@pytest.mark.parametrize("name", TWIST_FIXTURES)
def test_closed_form_grading_equals_dense_nullspace(name):
    alg, sigma = twist_fixture(name)
    grading = eigengrading(alg, sigma)
    n, order = alg.dim, alg.scalar_order
    zero = CycloNum.zero(order)
    for i in range(sigma.period):
        zeta = grading.residue_zeta(i)
        rows = [
            [sigma.matrix[r][c] - (zeta if r == c else zero) for c in range(n)]
            for r in range(n)
        ]
        kernel = [densify(v, n, order) for v in nullspace(rows, n, order)]
        assert kernel == [densify(v, n, order) for v in grading.component_bases[i]]


def _solvers(grading, i):
    return grading.component_solver(i), SpanSolver(grading.component_bases[i % grading.period])


@pytest.mark.parametrize("name", TWIST_FIXTURES)
def test_component_solver_equals_span_solver(name):
    # read-and-confirm coordinates against elimination: every pair product of
    # component vectors, and every kernel vector of twisted_fixed_points
    alg, sigma = twist_fixture(name)
    grading = eigengrading(alg, sigma)
    m = grading.period
    comps = grading.component_bases
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
    fixed = twisted_fixed_points(build_cocycle(sigma), grading, 2 * m)
    for deg, kernel in fixed.items():
        fast, slow = _solvers(grading, deg)
        for v in kernel:
            assert fast.coords(v) is not None
            assert fast.coords(v) == slow.coords(v)


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
        period=grading.period,
        scalar_order=grading.scalar_order,
        dim=grading.dim,
        component_bases=(grading.component_bases[0], tuple(comp), grading.component_bases[2]),
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
    order = grading.scalar_order
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
        (_repeat_an_image, "not a permutation"),
        (_zero_a_scalar, "not invertible"),
        (_flip_highest_root_sign, "multiplicativity fails"),
        (_declare_period_two, "sigma\\^2 is not the identity"),
    ],
)
def test_check_automorphism_refuses_tampered_triality(tamper, message):
    alg, images, scalars = _triality_images_scalars()
    assert check_automorphism(alg, images, scalars, 3).period == 3
    with pytest.raises(AutomorphismError, match=message):
        check_automorphism(alg, *tamper(alg, images, scalars))


def test_loop_product_adds_degrees():
    alg, _, grading = _sl2_graded()
    h, e, f = (basis_vector(alg, i) for i in range(3))
    x = loop_element([(1, e)])
    y = loop_element([(-1, f)])
    out = loop_bracket(alg, grading, x, y)
    assert out == loop_element([(0, h)])
    dense = {d: densify(v, alg.dim, alg.scalar_order) for d, v in out.terms.items()}
    assert dense == {0: densify(h, alg.dim, alg.scalar_order)}
    # [e z, e z] = 0
    assert ts_product(alg, x, x).is_zero()


def test_loop_bracket_rejects_misgraded_input():
    alg, _, grading = _sl2_graded()
    e = basis_vector(alg, 1)
    bad = loop_element([(0, e)])  # e lives in residue 1, not 0
    with pytest.raises(ValueError):
        loop_bracket(alg, grading, bad, bad)


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
            for k, c in alg.basis_product(u, s):
                left[k][s] = left[k][s] + c
            for k, c in alg.basis_product(s, u):
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
    for shift in range(grading.period):
        want = _centroid_oracle_dim(alg, grading, shift)
        got = centroid_graded(alg, grading, shift)
        assert got.solution_dim == want
    assert centroid_graded(alg, grading, 0).solution_dim == 1
    assert centroid_graded(alg, grading, 1).solution_dim == 0


def test_centroid_dims_match_dense_oracle_m2():
    alg, sigma = build_matrix_algebra(2, (0, 1), 2)
    grading = eigengrading(alg, sigma)
    for shift in range(grading.period):
        want = _centroid_oracle_dim(alg, grading, shift)
        got = centroid_graded(alg, grading, shift)
        assert got.solution_dim == want


def test_centroid_families_serialize_as_dense_matrices():
    alg, _, grading = _sl2_graded()
    report = centroid_graded(alg, grading, 0)
    # entries are numbered residue by residue, row-major within a matrix
    order = [(res, r, s) for res in range(2) for r in range(grading.dims[res]) for s in range(grading.dims[res])]
    assert [report.entry_index(*key) for key in order] == list(range(len(order)))
    one, zero = q(1, 2).to_obj(), q(0, 2).to_obj()
    assert report.to_obj()["basis"] == [[[[one]], [[one, zero], [zero, one]]]]
    assert centroid_graded(alg, grading, 1).to_obj()["basis"] == []


def test_centroid_identity_membership():
    alg, _, grading = _sl2_graded()
    report = centroid_graded(alg, grading, 0)
    assert report.contains_identity()
    assert not centroid_graded(alg, grading, 1).contains_identity()


def test_centroid_of_untwisted_simple_algebra_is_scalars():
    rs, alg = algebra_over("A1", 1)
    sigma = toral_automorphism(alg, rs, ToralCharge(s=(0,), modulus=1))
    grading = eigengrading(alg, sigma)
    report = centroid_graded(alg, grading, 0)
    assert report.solution_dim == 1
    assert report.contains_identity()
