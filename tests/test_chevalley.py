import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import lcm

import pytest

from loopforms import chevalley, cli
from loopforms.grading import (
    AutomorphismError,
    FiniteOrderAutomorphism,
    check_automorphism,
    check_diagonal_automorphism,
    eigengrading,
    twist,
)
from loopforms.chevalley import (
    TYPE_LABELS,
    DiagramPermutation,
    FiniteCartanMatrix,
    LieConstructError,
    ToralCharge,
    algebra_over,
    cartan_matrix,
    charge_pairings,
    chevalley_algebra,
    compose_pi_toral,
    _symmetrizers,
    diagram_automorphism,
    highest_root,
    root_system,
    standard_algebra,
)
from dense import (
    basis_vector,
    dense_product,
    densify,
    diagram_and_composition,
    is_identity,
    mat_pow,
    product_rule_check,
    propagation_consistency,
    three_pass_composition,
)
from loopforms.classify import conjugacy_classes, dynkin_automorphism_group
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


@pytest.mark.parametrize("label", TYPE_LABELS)
def test_highest_root_by_reflection_matches_closure(label):
    cartan = cartan_matrix(label)
    assert highest_root(cartan) == root_system(cartan).positives[-1]


@pytest.mark.parametrize("label", TYPE_LABELS)
def test_symmetrizers_are_the_smallest_integers(label):
    a = cartan_matrix(label).entries
    d = _symmetrizers(cartan_matrix(label))
    assert all(type(x) is int and x > 0 for x in d)
    assert all(d[i] * a[i][j] == d[j] * a[j][i] for i in range(len(a)) for j in range(len(a)))
    assert min(d) == 1  # one component, so gcd 1 and the short roots have d = 1


def test_symmetrizers_fixtures():
    assert _symmetrizers(cartan_matrix("B3")) == (1, 1, 2)
    assert _symmetrizers(cartan_matrix("C3")) == (2, 2, 1)
    assert _symmetrizers(cartan_matrix("G2")) == (3, 1)
    assert _symmetrizers(cartan_matrix("F4")) == (1, 1, 2, 2)


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
    sigma = compose_pi_toral(alg, rs, DiagramPermutation.identity(1), ToralCharge(s=(1,), modulus=2))
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


def _diagram_classes():
    """(type, pi, the pi-orbit of node 1) for every diagram class of A2-A5,
    D4 and E6."""
    for label in ("A2", "A3", "A4", "A5", "D4", "E6"):
        group = dynkin_automorphism_group(cartan_matrix(label))
        for perm, _ in conjugacy_classes(group).classes:
            orbit = {0}
            while {perm(i) for i in orbit} - orbit:
                orbit |= {perm(i) for i in orbit}
            yield label, perm, orbit


def _charges(moduli, trivial):
    """(type, pi, charge) for every diagram class: with s = m on the pi-orbit
    of node 1, and with s = 0, when trivial; else with s = 1 there."""
    for label, perm, orbit in _diagram_classes():
        for m in moduli:
            zero = (0,) * len(perm.images)
            weight = m if trivial else 1
            on_orbit = tuple(weight if i in orbit else 0 for i in range(len(perm.images)))
            for s in (zero, on_orbit) if trivial else (on_orbit,):
                pi = "".join(map(str, perm.to_one_based()))
                yield pytest.param(
                    label, perm, ToralCharge(s=s, modulus=m),
                    id=f"{label}-pi{pi}-s{''.join(map(str, s))}-m{m}",
                )


def _trivial_charges():
    return _charges((1, 2), trivial=True)


def _twist_matches_three_passes(label, perm, charge):
    """twist of the diagram factor by the charge pairings, against three full
    pair checks and against the type-label path it replaced."""
    rs, alg = algebra_over(label, lcm(perm.order(), charge.modulus))
    outer = diagram_automorphism(alg, rs, perm)
    fast = twist(alg, outer, charge_pairings(rs, charge), charge.modulus)
    assert (outer, fast) == three_pass_composition(alg, rs, perm, charge)
    assert (outer, fast) == diagram_and_composition(alg, rs, perm, charge)
    assert fast == compose_pi_toral(alg, rs, perm, charge)
    assert fast.period == lcm(perm.order(), charge.modulus)
    assert fast.certified_on(alg)
    return alg, fast


@pytest.mark.parametrize("label, perm, charge", _trivial_charges())
def test_trivial_charge_composition_matches_three_passes(label, perm, charge):
    _twist_matches_three_passes(label, perm, charge)


@pytest.mark.parametrize("label, perm, charge", _charges((2, 3), trivial=False))
def test_charged_composition_matches_three_passes(label, perm, charge):
    # tau_s certified by additivity and the composition by its period,
    # against three full pair checks and the n^2 product loop
    alg, fast = _twist_matches_three_passes(label, perm, charge)
    product_rule_check(alg, eigengrading(alg, fast))


@pytest.mark.parametrize("label", [label for label in TYPE_LABELS if cartan_matrix(label).rank <= 6])
def test_identity_certificate_equals_propagated_identity(label):
    # the diagonal certificate with every exponent 0, which diagram_automorphism
    # returns for the identity symmetry, against the propagated identity map
    # and its full pair check
    rs, alg = standard_algebra(label)
    identity = DiagramPermutation.identity(rs.rank)
    propagated = check_automorphism(alg, *chevalley._propagate(alg, rs, identity), 1)
    certificate = check_diagonal_automorphism(alg, (0,) * alg.dim, 1)
    assert propagated == certificate == diagram_automorphism(alg, rs, identity)
    assert propagated.images == tuple(range(alg.dim))


@pytest.mark.parametrize(
    "label, perm", [pytest.param(label, perm, id=f"{label}-pi{perm.to_one_based()}")
                    for label, perm, _ in _diagram_classes()]
)
def test_one_check_implies_consistency_and_product_rule(label, perm):
    # the all-pairs consistency pass and the n^2 product loop, against the
    # one check_automorphism of the propagated map
    rs, alg = algebra_over(label, perm.order())
    sigma = diagram_automorphism(alg, rs, perm)
    propagation_consistency(alg, rs, sigma)
    product_rule_check(alg, eigengrading(alg, sigma))


def test_propagated_image_with_flipped_sign_is_caught(monkeypatch):
    rs, alg = algebra_over("A3", 2)
    roots = rs.root_set()
    # the decomposition diagram_automorphism propagates the first root of
    # height 2 along, with the structure constant it reads off the table's
    # product [e_xi, e_eta] negated
    alpha = next(r for r in rs.positives if sum(r) == 2)
    xi = next(x for x in rs.positives
              if tuple(a - b for a, b in zip(alpha, x)) in roots and sum(alpha) > sum(x))
    eta = tuple(a - b for a, b in zip(alpha, xi))
    untampered = diagram_automorphism(alg, rs, DiagramPermutation((2, 1, 0)))
    index = {label: k for k, label in enumerate(alg.basis_labels)}
    pair = tuple(index["e[" + ",".join(map(str, r)) + "]"] for r in (xi, eta))

    class Flipped:
        """alg, with the one product [e_xi, e_eta] negated."""

        def __getattr__(self, name):
            return getattr(alg, name)

        def basis_product(self, i, j):
            entry = alg.basis_product(i, j)
            return tuple((k, -c) for k, c in entry) if (i, j) == pair else entry

    built = []

    def capture(table, images, scalars, period):
        built.append(FiniteOrderAutomorphism(tuple(images), tuple(scalars), period))
        return check_automorphism(alg, images, scalars, period)

    monkeypatch.setattr("loopforms.grading.check_automorphism", capture)
    with pytest.raises(AutomorphismError, match="multiplicativity fails"):
        diagram_automorphism(Flipped(), rs, DiagramPermutation((2, 1, 0)))
    (propagated,) = built
    # the image of e_alpha is the one flipped
    idx = alg.basis_labels.index("e[" + ",".join(map(str, alpha)) + "]")
    assert [k for k in range(alg.dim) if propagated.scalars[k] != untampered.scalars[k]] == [idx]
    assert propagated.scalars[idx] == -untampered.scalars[idx]
    # the all-pairs consistency pass refuses the same map
    with pytest.raises(LieConstructError, match="propagation paths disagree"):
        propagation_consistency(alg, rs, propagated)


def test_trivial_charge_checks_one_automorphism(monkeypatch, capsys):
    calls = []

    def counted(*args):
        calls.append(args[3])
        return check_automorphism(*args)

    monkeypatch.setattr("loopforms.grading.check_automorphism", counted)
    assert cli.main(["grade", "--type", "D4", "--auto", '{"pi":[3,2,4,1]}']) == 0
    capsys.readouterr()
    assert calls == [3]


@pytest.mark.parametrize(
    "argv",
    [
        ["grade", "--type", "D4", "--auto", '{"s":[1,0,0,0],"m":3}'],
        ["untwist", "--type", "A2", "--auto", '{"s":[1,1],"m":6}'],
    ],
    ids=["grade D4 toral", "untwist A2 toral"],
)
def test_toral_twist_checks_no_automorphism_pairwise(argv, monkeypatch, capsys):
    # the identity outer map and tau_s are both diagonal certificates, so a
    # toral-only twist runs no pair-by-pair check_automorphism
    calls = []

    def counted(*args):
        calls.append(args[3])
        return check_automorphism(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("loopforms") and getattr(module, "check_automorphism", None) is check_automorphism:
            monkeypatch.setattr(module, "check_automorphism", counted)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert calls == []


_TAMPERED_UNDER_O = textwrap.dedent(
    """
    import sys
    from loopforms import chevalley, cyclo
    from loopforms.grading import (
        AutomorphismError,
        GradedDecomposition,
        GradingError,
        check_automorphism,
        eigengrading,
        twist,
    )

    print("optimize", sys.flags.optimize)
    rs, alg = chevalley.algebra_over("A2", 6)
    flip = chevalley.diagram_automorphism(alg, rs, chevalley.DiagramPermutation((1, 0)))
    # the pairings of a charge that is not constant on the orbits of the flip
    skewed = chevalley.charge_pairings(rs, chevalley.ToralCharge(s=(1, 0), modulus=3))
    try:
        twist(alg, flip, skewed, 3)
    except AutomorphismError as exc:
        print("refused:", exc)
    try:
        cyclo._poly_divmod_int((1, 0, 1), (1, 2))
    except cyclo.CycloError as exc:
        print("refused:", exc)
    # a grading whose first component vector of residue 1 is 2 at its pivot
    rs, alg = chevalley.algebra_over("A1", 2)
    sigma = chevalley.compose_pi_toral(
        alg, rs, chevalley.DiagramPermutation.identity(1), chevalley.ToralCharge(s=(1,), modulus=2)
    )
    grading = eigengrading(alg, sigma)
    bases = [list(comp) for comp in grading.component_bases]
    bases[1][0] = {k: v * 2 for k, v in bases[1][0].items()}
    tampered = GradedDecomposition(
        grading.period, grading.scalar_order, grading.dim, tuple(map(tuple, bases))
    )
    try:
        tampered.component_solver(1)
    except GradingError as exc:
        print("refused:", exc)
    # an untwisting shift moved by one period on e: it lands, but is not additive
    from loopforms import descent

    one = cyclo.CycloNum.one(alg.scalar_order)
    identity = check_automorphism(alg, range(3), [one] * 3, 2)
    target = eigengrading(alg, identity)
    try:
        descent._verify_untwist(alg, grading, target, (0, 3, -1))
    except descent.DescentError as exc:
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
    assert lines[4] == (
        "refused: bracket preservation fails on the pair (e[1], f[1]): shift 0 of h1 is not 3 + -1"
    )


def test_algebra_over_is_cached():
    assert algebra_over("A2", 2)[1] is algebra_over("A2", 2)[1]
