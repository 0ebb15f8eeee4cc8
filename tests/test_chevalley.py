import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from loopforms.chevalley import (
    DiagramPermutation,
    FiniteCartanMatrix,
    LieConstructError,
    ToralCharge,
    algebra_over,
    cartan_matrix,
    charge_pairings,
    chevalley_algebra,
    compose_pi_toral,
    diagram_automorphism,
    root_system,
    standard_algebra,
    toral_automorphism,
)
from dense import basis_vector, dense_product, densify, is_identity, mat_pow
from loopforms.cyclo import CycloNum

FLIP = DiagramPermutation((1, 0))
TRIALITY = DiagramPermutation((2, 1, 3, 0))


# -- Cartan matrices -------------------------------------------------------------


def test_cartan_fixtures():
    assert cartan_matrix("A1").entries == ((2,),)
    assert cartan_matrix("B2").entries == ((2, -2), (-1, 2))
    assert cartan_matrix("G2").entries == ((2, -1), (-3, 2))
    f4 = cartan_matrix("F4").entries
    assert f4[1][2] == -2 and f4[2][1] == -1
    c3 = cartan_matrix("C3").entries
    assert c3[2][1] == -2 and c3[1][2] == -1
    e6 = cartan_matrix("E6").entries
    assert e6[1][3] == -1 and e6[3][1] == -1  # branch node
    assert e6[0][1] == 0  # node 2 hangs off node 4, not node 1
    d4 = cartan_matrix("D4").entries
    assert d4[1][0] == d4[1][2] == d4[1][3] == -1


@pytest.mark.parametrize("label", ["A0", "B1", "C2", "D3", "E5", "E9", "F5", "G3", "H4", "X"])
def test_unknown_labels_rejected(label):
    with pytest.raises(LieConstructError):
        cartan_matrix(label)


def test_affine_shape_is_not_finite_type():
    with pytest.raises(LieConstructError):
        FiniteCartanMatrix(rank=2, entries=((2, -2), (-2, 2)), type_label="bad")


def test_positive_offdiagonal_rejected():
    with pytest.raises(LieConstructError):
        FiniteCartanMatrix(rank=2, entries=((2, 1), (1, 2)), type_label="bad")


# -- root systems ----------------------------------------------------------------

# closed forms: A_l -> l(l+1), B_l/C_l -> 2l^2, D_l -> 2l(l-1),
# E6 -> 72, E7 -> 126, E8 -> 240, F4 -> 48, G2 -> 12
ROOT_COUNTS = {
    "A1": 2, "A2": 6, "A3": 12, "A5": 30,
    "B2": 8, "B3": 18, "C3": 18, "C4": 32,
    "D4": 24, "D5": 40,
    "E6": 72, "E7": 126, "E8": 240, "F4": 48, "G2": 12,
}


@pytest.mark.parametrize("label,count", sorted(ROOT_COUNTS.items()))
def test_root_counts_match_closed_forms(label, count):
    rs = root_system(cartan_matrix(label))
    assert len(rs.roots) == count
    assert len(rs.positives) == count // 2


def test_positives_sorted_and_start_with_simples():
    rs = root_system(cartan_matrix("B3"))
    heights = [rs.height(a) for a in rs.positives]
    assert heights == sorted(heights)
    simples = set(rs.positives[:3])
    assert simples == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_highest_root_is_unique_maximum():
    for label in ["A3", "B2", "D4", "G2"]:
        rs = root_system(cartan_matrix(label))
        top_height = rs.height(rs.positives[-1])
        assert sum(1 for a in rs.positives if rs.height(a) == top_height) == 1
        theta = rs.positives[-1]
        roots = rs.root_set()
        for i in range(rs.rank):
            grown = tuple(theta[j] + (1 if j == i else 0) for j in range(rs.rank))
            assert grown not in roots


# -- structure constants ---------------------------------------------------------


def _root_index_map(alg, rank):
    out = {}
    for idx, label in enumerate(alg.basis_labels):
        if label.startswith("e[") or label.startswith("f["):
            coords = tuple(int(c) for c in label[2:-1].split(","))
            if label[0] == "f":
                coords = tuple(-c for c in coords)
            out[coords] = idx
    return out


def _string_length(roots, alpha, beta):
    # p = how far beta - k*alpha stays a root
    p = 0
    probe = tuple(b - a for a, b in zip(alpha, beta))
    while probe in roots:
        p += 1
        probe = tuple(x - a for a, x in zip(alpha, probe))
    return p


@pytest.mark.parametrize("label", ["A3", "B2", "C3", "G2"])
def test_bracket_magnitude_is_string_length(label):
    """Chevalley's theorem: [e_a, e_b] = +-(p+1) e_{a+b}; p is recomputed here
    by walking the root string through the root set alone."""
    rs, alg = standard_algebra(label)
    roots = rs.root_set()
    index = _root_index_map(alg, rs.rank)
    pairs = 0
    for alpha in roots:
        for beta in roots:
            total = tuple(a + b for a, b in zip(alpha, beta))
            if alpha == beta or total not in roots:
                continue
            entry = dict(alg.basis_product(index[alpha], index[beta]))
            value = entry[index[total]].as_fraction()
            p = _string_length(roots, alpha, beta)
            assert abs(value) == p + 1, (alpha, beta)
            pairs += 1
    assert pairs > 0


@pytest.mark.parametrize("label", ["B2", "G2"])
def test_coroot_brackets_form_sl2_triples(label):
    # h_a := [e_a, f_a] has integer Cartan coordinates and [h_a, e_a] = 2 e_a
    rs, alg = standard_algebra(label)
    index = _root_index_map(alg, rs.rank)
    for alpha in rs.positives:
        e_idx, f_idx = index[alpha], index[tuple(-c for c in alpha)]
        n, order = alg.dim, alg.scalar_order
        h = densify(alg.product_sparse(basis_vector(alg, e_idx), basis_vector(alg, f_idx)), n, order)
        for pos, c in enumerate(h):
            if pos >= rs.rank:
                assert c.is_zero()
            else:
                assert c.as_fraction().denominator == 1
        back = dense_product(alg, h, densify(basis_vector(alg, e_idx), n, order))
        assert back[e_idx].as_fraction() == 2
        assert all(c.is_zero() for k, c in enumerate(back) if k != e_idx)


def _comm(x, y):
    n = len(x)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[i][j] = sum(x[i][k] * y[k][j] - y[i][k] * x[k][j] for k in range(n))
    return out


def test_sl3_table_matches_matrix_representation():
    """Full independent oracle: map the basis to 3x3 trace-zero matrices and
    compare every structure constant against honest matrix commutators."""
    rs, alg = standard_algebra("A2")
    index = _root_index_map(alg, 2)

    def unit(i, j):
        out = [[Fraction(0)] * 3 for _ in range(3)]
        out[i][j] = Fraction(1)
        return out

    def scale(c, x):
        return [[c * v for v in row] for row in x]

    mats = {
        alg.basis_labels.index("h1"): _comm(unit(0, 1), unit(1, 0)),
        alg.basis_labels.index("h2"): _comm(unit(1, 2), unit(2, 1)),
        index[(1, 0)]: unit(0, 1),
        index[(0, 1)]: unit(1, 2),
        index[(-1, 0)]: unit(1, 0),
        index[(0, -1)]: unit(2, 1),
    }
    # the two remaining vectors are pinned by the table's own normalization
    for plus, a, b in [(True, (1, 0), (0, 1)), (False, (-1, 0), (0, -1))]:
        target = (1, 1) if plus else (-1, -1)
        coeff = dict(alg.basis_product(index[a], index[b]))[index[target]]
        mats[index[target]] = scale(
            1 / coeff.as_fraction(), _comm(mats[index[a]], mats[index[b]])
        )

    for i in range(alg.dim):
        for j in range(alg.dim):
            want = _comm(mats[i], mats[j])
            got = [[Fraction(0)] * 3 for _ in range(3)]
            for k, c in alg.basis_product(i, j):
                got = [
                    [g + c.as_fraction() * m for g, m in zip(grow, mrow)]
                    for grow, mrow in zip(got, mats[k])
                ]
            assert got == want, (alg.basis_labels[i], alg.basis_labels[j])


def test_chevalley_algebra_dimension_formula():
    for label in ["A1", "B2", "G2"]:
        rs = root_system(cartan_matrix(label))
        alg = chevalley_algebra(rs)
        assert alg.dim == len(rs.roots) + rs.rank


# -- automorphisms ---------------------------------------------------------------


def test_diagram_permutation_basics():
    assert FLIP.order() == 2
    assert TRIALITY.order() == 3
    assert TRIALITY.inverse().compose(TRIALITY).images == (0, 1, 2, 3)
    assert DiagramPermutation.from_one_based((2, 1)).images == (1, 0)
    assert FLIP.to_one_based() == [2, 1]
    assert FLIP.preserves(cartan_matrix("A2"))
    assert not FLIP.preserves(cartan_matrix("B2"))
    with pytest.raises(LieConstructError):
        DiagramPermutation((0, 0))


def test_flip_automorphism_swaps_generators():
    rs, alg = algebra_over("A2", 2)
    sigma = diagram_automorphism(alg, rs, FLIP)
    assert sigma.period == 2
    assert is_identity(mat_pow(sigma.matrix, 2))
    index = _root_index_map(alg, 2)
    e1, e2 = index[(1, 0)], index[(0, 1)]
    image = densify(sigma.apply(basis_vector(alg, e1)), alg.dim, 2)
    assert image[e2] == CycloNum.one(2)
    assert sum(0 if c.is_zero() else 1 for c in image) == 1
    h_image = sigma.apply(basis_vector(alg, 0))
    assert h_image == basis_vector(alg, 1)


def test_flip_on_wrong_diagram_rejected():
    rs, alg = algebra_over("B2", 2)
    with pytest.raises(LieConstructError):
        diagram_automorphism(alg, rs, FLIP)


def test_triality_has_period_three():
    rs, alg = algebra_over("D4", 3)
    sigma = diagram_automorphism(alg, rs, TRIALITY)
    assert sigma.period == 3
    assert is_identity(mat_pow(sigma.matrix, 3))
    assert not is_identity(sigma.matrix)


def test_toral_automorphism_exact_matrix():
    rs, alg = algebra_over("A1", 2)
    sigma = toral_automorphism(alg, rs, ToralCharge(s=(1,), modulus=2))
    one, minus = CycloNum.one(2), CycloNum.rational(2, -1)
    for idx, want in [(0, one), (1, minus), (2, minus)]:
        col = tuple(sigma.matrix[r][idx] for r in range(3))
        assert col[idx] == want
        assert sum(0 if c.is_zero() else 1 for c in col) == 1


def test_charge_pairings_sl2():
    rs, _ = algebra_over("A1", 2)
    assert charge_pairings(rs, ToralCharge(s=(1,), modulus=2)) == (0, 1, -1)


def test_composed_automorphism_period_is_lcm():
    rs, alg = algebra_over("A2", 6)
    sigma = compose_pi_toral(alg, rs, FLIP, ToralCharge(s=(1, 1), modulus=3))
    assert sigma.period == 6
    assert is_identity(mat_pow(sigma.matrix, 6))
    assert not is_identity(mat_pow(sigma.matrix, 2))
    assert not is_identity(mat_pow(sigma.matrix, 3))


def test_composed_requires_invariant_charge():
    rs, alg = algebra_over("A2", 6)
    with pytest.raises(LieConstructError):
        compose_pi_toral(alg, rs, FLIP, ToralCharge(s=(1, 0), modulus=3))


_TAMPERED_UNDER_O = textwrap.dedent(
    """
    import sys
    from loopforms import algebra, chevalley, cyclo

    print("optimize", sys.flags.optimize)
    rs, alg = chevalley.algebra_over("A2", 6)
    flip = chevalley.DiagramPermutation((1, 0))
    real = chevalley.toral_automorphism

    def skewed(alg, rs, charge):
        # a charge that is not constant on the orbits of the flip
        return real(alg, rs, chevalley.ToralCharge(s=(1, 0), modulus=charge.modulus))

    chevalley.toral_automorphism = skewed
    try:
        chevalley.compose_pi_toral(alg, rs, flip, chevalley.ToralCharge(s=(1, 1), modulus=3))
    except chevalley.LieConstructError as exc:
        print("refused:", exc)
    try:
        cyclo._poly_divmod_int((1, 0, 1), (1, 2))
    except cyclo.CycloError as exc:
        print("refused:", exc)
    # a grading whose first component vector of residue 1 is 2 at its pivot
    rs, alg = chevalley.algebra_over("A1", 2)
    sigma = real(alg, rs, chevalley.ToralCharge(s=(1,), modulus=2))
    grading = algebra.eigengrading(alg, sigma)
    bases = [list(comp) for comp in grading.component_bases]
    bases[1][0] = {k: v * 2 for k, v in bases[1][0].items()}
    tampered = algebra.GradedDecomposition(
        grading.period, grading.scalar_order, grading.dim, tuple(map(tuple, bases))
    )
    try:
        tampered.component_solver(1)
    except algebra.GradingError as exc:
        print("refused:", exc)
    """
)


def test_certificate_checks_survive_optimize_flag():
    # python -O strips assert statements; these checks must raise regardless
    result = subprocess.run(
        [sys.executable, "-O", "-c", _TAMPERED_UNDER_O],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "optimize 1"
    assert lines[1] == "refused: factors fail to commute despite an invariant charge"
    assert lines[2] == "refused: polynomial division needs a monic divisor"
    assert lines[3] == "refused: component vector 0 is 2 at its pivot 1, not 1"


def test_algebra_over_is_cached():
    assert algebra_over("A2", 2)[1] is algebra_over("A2", 2)[1]
