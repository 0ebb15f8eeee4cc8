import sys

import pytest

from dense import TWIST_FIXTURES, is_identity, mat_mul, mat_pow, twist_fixture
from loopforms.algebra import FiniteOrderAutomorphism, eigengrading, loop_element
from loopforms.chevalley import (
    DiagramPermutation,
    ToralCharge,
    algebra_over,
    diagram_automorphism,
    toral_automorphism,
)
from loopforms.cyclo import CycloNum, zeta_power
from loopforms.descent import (
    DescentError,
    LoopCocycle,
    build_cocycle,
    build_matrix_algebra,
    coboundary_witness,
    coboundary_witness_matrix,
    matrix_unit_shifts,
    twisted_fixed_points,
    untwist_iso,
    untwist_matrix_iso,
)

FLIP = DiagramPermutation((1, 0))


def _sl2_toral():
    rs, alg = algebra_over("A1", 2)
    sigma = toral_automorphism(alg, rs, ToralCharge(s=(1,), modulus=2))
    return rs, alg, sigma


# -- cocycles --------------------------------------------------------------------


def test_cocycle_values_are_inverse_powers():
    _, alg, sigma = _sl2_toral()
    cocycle = build_cocycle(sigma)
    assert cocycle.period == 2
    assert is_identity(cocycle.value(0).matrix)
    assert is_identity(mat_mul(cocycle.value(1).matrix, sigma.matrix))
    assert cocycle.value(5) == cocycle.value(1)


def test_cocycle_on_diagram_automorphism():
    rs, alg = algebra_over("A2", 2)
    sigma = diagram_automorphism(alg, rs, FLIP)
    cocycle = build_cocycle(sigma)
    # order 2: u(1) = sigma^-1 = sigma
    assert cocycle.value(1).matrix == sigma.matrix


@pytest.mark.parametrize("name", TWIST_FIXTURES)
def test_cocycle_values_match_dense_powers(name):
    _, sigma = twist_fixture(name)
    cocycle = build_cocycle(sigma)
    m = sigma.period
    for n in range(m):
        assert cocycle.value(n).matrix == mat_pow(sigma.matrix, (m - n) % m)


def test_twisted_fixed_points_equal_grading():
    _, alg, sigma = _sl2_toral()
    grading = eigengrading(alg, sigma)
    cocycle = build_cocycle(sigma)
    fixed = twisted_fixed_points(cocycle, grading, 4)
    assert sorted(fixed) == list(range(-4, 5))
    for j, basis in fixed.items():
        assert len(basis) == grading.dims[j % 2]


def test_tampered_cocycle_detected():
    _, alg, sigma = _sl2_toral()
    grading = eigengrading(alg, sigma)
    one = CycloNum.one(alg.scalar_order)
    eye = FiniteOrderAutomorphism(tuple(range(alg.dim)), (one,) * alg.dim, 2)
    assert is_identity(eye.matrix)
    fake = LoopCocycle(sigma=sigma, values=(eye, eye))
    with pytest.raises(DescentError):
        twisted_fixed_points(fake, grading, 2)


# -- untwisting ------------------------------------------------------------------


def test_untwist_sl2_moves_weight_lines():
    rs, alg, _ = _sl2_toral()
    iso = untwist_iso(alg, rs, DiagramPermutation.identity(1), ToralCharge(s=(1,), modulus=2))
    assert iso.period == 2
    assert iso.shifts == (0, 1, -1)
    assert all(c.status == "pass" for c in iso.checks)
    h, e, f = (alg.basis_vector(i) for i in range(3))
    # e drops one degree, f gains one, h stays
    assert iso.apply(loop_element([(1, e)])) == loop_element([(0, e)])
    assert iso.apply(loop_element([(0, f)])) == loop_element([(1, f)])
    assert iso.apply(loop_element([(2, h)])) == loop_element([(2, h)])
    mixed = loop_element([(1, e), (-1, f), (0, h)])
    assert iso.apply_inverse(iso.apply(mixed)) == mixed


def test_untwist_composed_flip_passes(monkeypatch):
    built = []
    real = diagram_automorphism

    def counting(*args):
        built.append(args[2])
        return real(*args)

    # rebind every alias, so a direct call from any module is counted too
    for name, module in list(sys.modules.items()):
        if name.startswith("loopforms") and getattr(module, "diagram_automorphism", None) is real:
            monkeypatch.setattr(module, "diagram_automorphism", counting)
    rs, alg = algebra_over("A2", 2)
    iso = untwist_iso(alg, rs, FLIP, ToralCharge(s=(1, 1), modulus=2))
    # the pi factor of the composition is reused for the target grading
    assert built == [FLIP]
    assert iso.period == 2
    assert all(c.status == "pass" for c in iso.checks)
    names = {c.check for c in iso.checks}
    assert names == {
        "lands-in-target",
        "lands-in-source",
        "bracket-preservation",
        "t-intertwine",
    }


def test_untwist_window_override():
    rs, alg, _ = _sl2_toral()
    iso = untwist_iso(
        alg, rs, DiagramPermutation.identity(1), ToralCharge(s=(1,), modulus=2), window=2
    )
    assert iso.window == 2
    assert all(c.window == 2 for c in iso.checks)


def test_untwist_matrix_iso_shifts():
    iso = untwist_matrix_iso(2, (0, 1), 2)
    # basis order E11, E12, E21, E22; shift a_i - a_k
    assert iso.shifts == (0, -1, 1, 0)
    assert all(c.status == "pass" for c in iso.checks)
    alg, _ = build_matrix_algebra(2, (0, 1), 2)
    e12 = alg.basis_vector(1)
    assert iso.apply(loop_element([(0, e12)])) == loop_element([(1, e12)])


def test_matrix_unit_shifts_m3():
    shifts = matrix_unit_shifts(3, (0, 1, 2))
    # row-major E11..E33: a_i - a_k
    assert shifts == (0, -1, -2, 1, 0, -1, 2, 1, 0)


# -- coboundary witnesses --------------------------------------------------------


def test_coboundary_witness_sl2():
    rs, alg, _ = _sl2_toral()
    shifts, checks = coboundary_witness(alg, rs, ToralCharge(s=(1,), modulus=2))
    assert shifts == (0, 1, -1)
    assert all(c.status == "pass" for c in checks)
    assert any(c.check == "coboundary-identity" for c in checks)


def test_coboundary_witness_matrix():
    shifts, checks = coboundary_witness_matrix(3, (0, 1, 2), 3)
    assert shifts == matrix_unit_shifts(3, (0, 1, 2))
    assert all(c.status == "pass" for c in checks)


def test_coboundary_rejects_rank_mismatch():
    rs, alg = algebra_over("A2", 2)
    with pytest.raises(ValueError):
        coboundary_witness(alg, rs, ToralCharge(s=(1,), modulus=2), window=2)


# -- matrix algebra construction ---------------------------------------------------


def test_build_matrix_algebra_action():
    alg, sigma = build_matrix_algebra(3, (0, 1, 2), 3)
    assert alg.dim == 9
    assert sigma.period == 3
    labels = alg.basis_labels
    e12 = labels.index("E12")
    col = tuple(sigma.matrix[r][e12] for r in range(9))
    assert col[e12] == zeta_power(3, -1)
    assert sum(0 if c.is_zero() else 1 for c in col) == 1
    e21 = labels.index("E21")
    assert sigma.matrix[e21][e21] == zeta_power(3, 1)


def test_build_matrix_algebra_period_not_exact_order():
    # constant exponents give the identity map; declared period still accepted
    alg, sigma = build_matrix_algebra(2, (1, 1), 4)
    assert sigma.period == 4
    assert is_identity(sigma.matrix)


@pytest.mark.parametrize(
    "n,exponents,m",
    [(0, (), 2), (2, (0,), 2), (2, (0, 1), 0)],
)
def test_build_matrix_algebra_input_errors(n, exponents, m):
    with pytest.raises(DescentError):
        build_matrix_algebra(n, exponents, m)
