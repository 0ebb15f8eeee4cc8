import importlib.util
import json
import sys
from math import lcm
from pathlib import Path

import pytest

from dense import (
    TWIST_FIXTURES,
    DescentError,
    LoopCocycle,
    _verify_untwist,
    build_cocycle,
    check_diagonal_automorphism,
    coboundary_witness_matrix,
    compose,
    densify,
    identity_map,
    is_identity,
    mat_mul,
    mat_pow,
    matrix_unit_shifts,
    twist_factors,
    twist_fixture,
    twisted_fixed_points,
    untwist_matrix_iso,
    windowed_untwist_check,
)
from loopforms import chevalley, cli, descent, grading, linalg
from loopforms.chevalley import (
    DiagramPermutation,
    algebra_over,
    diagram_automorphism,
    type_twist_factors,
)
from loopforms.cyclo import CycloNum, zeta_power
from loopforms.linalg import nullspace
from loopforms.record import RequestError
from loopforms.descent import (
    build_matrix_algebra,
    fixed_point_report,
    matrix_twist_factors,
    untwist_iso,
)
from loopforms.grading import (
    AutomorphismError,
    FiniteOrderAutomorphism,
    GradingError,
    eigengrading,
    twist,
)

FLIP = DiagramPermutation((1, 0))


def _sl2_toral():
    alg, *factors = type_twist_factors("A1", DiagramPermutation.identity(1), (1,), 2)
    return alg, twist(alg, *factors)


def _type_twist(label, perm, s, m):
    """(alg, outer, exponents, m) of pi o tau_s, as `untwist_iso` takes them."""
    return type_twist_factors(label, perm, s, m)


# -- cocycles --------------------------------------------------------------------


def test_cocycle_values_are_inverse_powers():
    alg, sigma = _sl2_toral()
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
    alg, sigma = _sl2_toral()
    grading = eigengrading(alg, sigma)
    cocycle = build_cocycle(sigma)
    fixed = twisted_fixed_points(cocycle, grading)
    assert len(fixed) == 2
    n, order = alg.dim, alg.scalar_order
    for r, basis in enumerate(fixed):
        assert len(basis) == grading.dims[r]
        # both are reduced row-echelon bases of one space, hence equal
        assert [densify(v, n, order) for v in basis] == [
            densify(v, n, order) for v in grading.component_bases[r]
        ]
    # the reports list component j mod 2 at every degree |j| <= 4
    checks, fixed_dims = fixed_point_report(alg, sigma)
    assert checks == [
        {"check": "cocycle-identity", "window": 2, "status": "pass"},
        {"check": "twisted-fixed-points", "window": 4, "status": "pass"},
    ]
    assert fixed_dims == {str(j): grading.dims[j % 2] for j in range(-4, 5)}


@pytest.mark.parametrize("name", TWIST_FIXTURES)
def test_twisted_fixed_points_equal_nullspace_per_degree(name):
    alg, sigma = twist_fixture(name)
    m, n, order = sigma.period, alg.dim, alg.scalar_order
    fixed = twisted_fixed_points(build_cocycle(sigma), eigengrading(alg, sigma))
    assert len(fixed) == m
    u1 = mat_pow(sigma.matrix, m - 1)
    minus_one = CycloNum.rational(order, -1)
    for j in range(-2 * m, 2 * m + 1):
        basis = fixed[j % m]
        # the kernel of zeta^j u(1) - id, eliminated for this degree alone
        zeta = zeta_power(order, (order // m) * j)
        rows = [
            [zeta * x + (minus_one if r == c else 0) for c, x in enumerate(row)]
            for r, row in enumerate(u1)
        ]
        direct = nullspace(rows, n, order)
        assert [densify(v, n, order) for v in basis] == [densify(v, n, order) for v in direct]


@pytest.mark.parametrize("name", TWIST_FIXTURES)
def test_fixed_point_report_matches_eliminated_kernels(name):
    # the report reads component j mod m off the certificate; the oracle
    # composes the cocycle and eliminates one kernel per residue
    alg, sigma = twist_fixture(name)
    m, n, order = sigma.period, alg.dim, alg.scalar_order
    grading = eigengrading(alg, sigma)
    kernels = twisted_fixed_points(build_cocycle(sigma), grading)
    for kernel, component in zip(kernels, grading.component_bases, strict=True):
        assert [densify(v, n, order) for v in kernel] == [
            densify(v, n, order) for v in component
        ]
    _, fixed_dims = fixed_point_report(alg, sigma)
    assert fixed_dims == {str(j): len(kernels[j % m]) for j in range(-2 * m, 2 * m + 1)}


def test_fixed_point_report_refuses_uncertified_twist():
    alg, sigma = _sl2_toral()
    fixed_point_report(alg, sigma)
    # the same map written out by hand carries no certificate on the table
    plain = FiniteOrderAutomorphism(sigma.images, sigma.scalars, sigma.period)
    with pytest.raises(GradingError, match="not certified"):
        fixed_point_report(alg, plain)


def test_descent_verify_runs_no_nullspace(monkeypatch, capsys):
    solved = []
    real = linalg.nullspace

    def counting(*args):
        solved.append(args[1])
        return real(*args)

    # rebind every alias, so a direct call from any module is counted too
    for name, module in list(sys.modules.items()):
        if name.startswith("loopforms") and getattr(module, "nullspace", None) is real:
            monkeypatch.setattr(module, "nullspace", counting)
    argv = _pool_requests("descent-verify B3")[0]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)["payload"]
    assert [c["check"] for c in report["checks"]] == ["cocycle-identity", "twisted-fixed-points"]
    assert solved == []


def test_tampered_cocycle_detected():
    alg, sigma = _sl2_toral()
    grading = eigengrading(alg, sigma)
    one = CycloNum.one(alg.scalar_order)
    eye = FiniteOrderAutomorphism(tuple(range(alg.dim)), (one,) * alg.dim, 2)
    assert is_identity(eye.matrix)
    fake = LoopCocycle(values=(eye, eye))
    with pytest.raises(DescentError):
        twisted_fixed_points(fake, grading)


# -- untwisting ------------------------------------------------------------------


_UNTWIST_ROWS = ("lands-in-target", "lands-in-source", "bracket-preservation", "t-intertwine")


def _untwist_rows(window):
    return [{"check": name, "window": window, "status": "pass"} for name in _UNTWIST_ROWS]


def test_untwist_sl2_moves_weight_lines():
    alg, *factors = _type_twist("A1", DiagramPermutation.identity(1), (1,), 2)
    iso = untwist_iso(alg, *factors)
    assert iso.period == 2
    # basis order h, e, f: e drops one degree, f gains one, h stays
    assert alg.basis_labels == ("h1", "e[1]", "f[1]")
    assert iso.shifts == (0, 1, -1)
    assert iso.checks == _untwist_rows(4)


def test_untwist_composed_flip_passes(monkeypatch, capsys):
    built = []
    real = chevalley._diagram_map

    def counting(*args):
        built.append(args[2])
        return real(*args)

    # type_twist_factors builds the outer map of a pi that check_twist has
    # accepted, and no other module builds one
    monkeypatch.setattr(chevalley, "_diagram_map", counting)
    argv = ["untwist", "--type", "A2", "--auto", '{"pi":[2,1],"s":[1,1],"m":2}']
    assert cli.main(argv) == 0
    iso = json.loads(capsys.readouterr().out)["payload"]
    # the pi factor of the twist is the outer map of the certificate
    assert built == [FLIP]
    assert iso["period"] == 2
    assert all(c["status"] == "pass" for c in iso["checks"])
    names = {c["check"] for c in iso["checks"]}
    assert names == {
        "lands-in-target",
        "lands-in-source",
        "bracket-preservation",
        "t-intertwine",
    }


def test_untwist_matrix_iso_shifts():
    alg, identity, shifts, _ = matrix_twist_factors(2, (0, 1), 2)
    iso = untwist_iso(alg, identity, shifts, 2)
    # basis order E11, E12, E21, E22; shift a_i - a_k: E12 gains one degree
    assert alg.basis_labels == ("E11", "E12", "E21", "E22")
    assert iso.shifts == (0, -1, 1, 0)
    assert iso.checks == _untwist_rows(4)


# (n, exponents, m, window) on M_2-M_4: shifts 0 mod m, exact and inexact
# period; window is the degree window of the windowed oracle, None for its
# two periods
_MATRIX_WITNESSES = (
    (2, (0, 1), 2, None),
    (2, (0, 1), 3, None),
    (2, (1, 1), 4, 3),
    (3, (0, 1, 2), 3, None),
    (3, (0, 2, 4), 2, 5),
    (3, (0, 1, 1), 6, None),
    (4, (0, 1, 2, 3), 4, None),
    (4, (0, 1, 2, 3), 6, 7),
    (4, (3, 1, 0, 2), 2, None),
)


@pytest.mark.parametrize("n, exponents, m, window", _MATRIX_WITNESSES)
def test_unified_witnesses_match_matrix_oracles(n, exponents, m, window):
    # the one untwist of every table, against the matrix-unit path it
    # replaced: same shifts, period, toral_modulus and checks, and the same
    # coboundary row; the untwisting map also passes the windowed oracle
    alg, identity, shifts, _ = matrix_twist_factors(n, exponents, m)
    iso = untwist_iso(alg, identity, shifts, m)
    oracle = untwist_matrix_iso(n, exponents, m)
    assert iso == oracle
    assert (iso.shifts, iso.period, iso.toral_modulus) == (oracle.shifts, m, m)
    assert iso.checks == oracle.checks
    oracle_shifts, oracle_rows = coboundary_witness_matrix(n, exponents, m)
    assert iso.shifts == oracle_shifts
    assert iso.witness_checks == iso.checks + oracle_rows
    source = eigengrading(alg, twist(alg, identity, shifts, m))
    target = eigengrading(alg, twist(alg, identity, (0,) * alg.dim, m))
    windowed_untwist_check(alg, source, target, iso.shifts, window or 2 * m)


# -- untwisting in every degree against the windowed oracle --------------------------

_POOL = Path(__file__).resolve().parent.parent / "perfbench" / "pool.py"


def _pool_requests(stratum):
    spec = importlib.util.spec_from_file_location("loopforms_bench_pool", _POOL)
    pool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pool)
    return dict(pool.strata("twist"))[stratum]


@pytest.fixture
def untwist_calls(monkeypatch):
    """Run the windowed oracle, over two periods, beside every untwist
    certificate; both accept.  The oracle computes the two gradings the
    certificate does without."""
    calls = []
    real = descent.untwist_iso

    def both(alg, outer, exponents, m):
        iso = real(alg, outer, exponents, m)
        window = 2 * iso.period
        source = eigengrading(alg, twist(alg, outer, exponents, m))
        target = eigengrading(alg, twist(alg, outer, (0,) * alg.dim, iso.period))
        windowed_untwist_check(alg, source, target, iso.shifts, window)
        calls.append(window)
        return iso

    # rebind every alias, so a direct call from any module is checked too
    for name, module in list(sys.modules.items()):
        if name.startswith("loopforms") and getattr(module, "untwist_iso", None) is real:
            monkeypatch.setattr(module, "untwist_iso", both)
    return calls


def test_untwist_agrees_with_windowed_oracle_on_criteria_4_and_5(untwist_calls, monkeypatch):
    # the untwist rows of verify-all: toral twists of type labels and of M_n,
    # and composed twists
    rows = [row for row in cli._VERIFY_TABLE if row[0].startswith("untwist ")]
    monkeypatch.setattr(cli, "_VERIFY_TABLE", rows)
    assert all("report" not in row for row in cli._run_table()[0])
    assert len(untwist_calls) == len(rows) == 8


@pytest.mark.parametrize("stratum", ["untwist A2", "untwist M2"])
def test_untwist_agrees_with_windowed_oracle_on_pool(stratum, untwist_calls, capsys):
    requests = _pool_requests(stratum)
    for argv in requests:
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    assert len(untwist_calls) == len(requests) == 8


def _untwist_inputs(label, perm, s, m):
    """The algebra, twist, outer map and shifts `untwist_iso` certifies, and
    the source and target gradings the windowed oracle reads."""
    alg, outer, exponents, m = _type_twist(label, perm, s, m)
    sigma = twist(alg, outer, exponents, m)
    period = sigma.period
    shifts = tuple((period // m) * p for p in exponents)
    target = twist(alg, outer, (0,) * alg.dim, period)
    gradings = eigengrading(alg, sigma), eigengrading(alg, target)
    return alg, sigma, outer, shifts, gradings


def test_perturbed_shift_fails_additivity():
    alg, sigma, outer, shifts, gradings = _untwist_inputs(
        "A1", DiagramPermutation.identity(1), (1,), 2
    )
    assert shifts == (0, 1, -1)
    assert untwist_iso(alg, outer, shifts, 2).shifts == shifts
    # e moves by one period more: it still lands, but [e, f] = h breaks 3 - 1 = 0
    bad = (0, 3, -1)
    with pytest.raises(AutomorphismError) as refused:
        untwist_iso(alg, outer, bad, 2)
    assert str(refused.value) == (
        "exponent additivity fails on basis pair (e[1], f[1]): exponent 0 of h1 is not 3 + -1"
    )
    with pytest.raises(DescentError, match=r"bracket preservation fails on the pair \(e\[1\], f\[1\]\)"):
        _verify_untwist(alg, outer, bad)
    with pytest.raises(DescentError, match="bracket preservation"):
        windowed_untwist_check(alg, *gradings, bad, 4)


def test_doubled_shifts_are_additive_but_do_not_land():
    alg, sigma, outer, shifts, gradings = _untwist_inputs(
        "A2", DiagramPermutation.identity(2), (1, 0), 3
    )
    doubled = tuple(2 * x for x in shifts)
    for (a, b), entry in alg.products.items():
        for c in entry:
            assert doubled[c] == doubled[a] + doubled[b]
    # zeta^(2p) is not zeta^p where p is not 0 mod 3: doubled shifts untwist
    # another twist, which untwist_iso never pairs with this one
    with pytest.raises(DescentError, match="lands-in-target"):
        windowed_untwist_check(alg, *gradings, doubled, 6)


def test_orbit_breaking_shift_does_not_land():
    alg, sigma, outer, shifts, gradings = _untwist_inputs("A2", FLIP, (1, 1), 3)
    assert sigma.period == 6
    h1, h2 = alg.basis_labels.index("h1"), alg.basis_labels.index("h2")
    assert (outer.images[h1], shifts[h1], shifts[h2]) == (h2, 0, 0)
    # a full period more on h1 alone names the same twist, mod 6, but the
    # flip swaps h1 and h2, so the flip-invariant h1 + h2 splits across degrees;
    # the untwisting shift is twice the exponent, as the period is 6 and m = 3
    bad = tuple(x + 6 if k == h1 else x for k, x in enumerate(shifts))
    with pytest.raises(AutomorphismError) as refused:
        untwist_iso(alg, outer, tuple(x // 2 for x in bad), 3)
    assert str(refused.value) == (
        "exponent invariance fails on h1: its exponent 3 is not 0, the exponent of its image h2"
    )
    with pytest.raises(DescentError, match="lands-in-target: shift 0 of h2 is not the shift 6 of h1"):
        _verify_untwist(alg, outer, bad)
    with pytest.raises(DescentError, match="lands-in-target"):
        windowed_untwist_check(alg, *gradings, bad, 12)
    # nor does the flip twist untwist onto the identity outer map
    identity = identity_map(alg)
    trivial = eigengrading(alg, twist(alg, identity, (0,) * alg.dim, 6))
    with pytest.raises(DescentError, match="lands-in-target"):
        windowed_untwist_check(alg, gradings[0], trivial, shifts, 12)


def test_residue_two_is_covered_beyond_the_window():
    alg, sigma, outer, shifts, gradings = _untwist_inputs(
        "B2", DiagramPermutation.identity(2), (1, 1), 4
    )
    # one period more on every root vector of residue 2 keeps every landing
    bad = tuple(x + 4 if x % 4 == 2 else x for x in shifts)
    assert bad != shifts
    # degrees -1..1 never reach residue 2, so a window-1 slice check misses it
    windowed_untwist_check(alg, *gradings, bad, 1)
    with pytest.raises(AutomorphismError) as refused:
        untwist_iso(alg, outer, bad, 4)
    assert str(refused.value) == (
        "exponent additivity fails on basis pair (e[0,1], e[1,0]): exponent 6 of e[1,1] is not 1 + 1"
    )
    with pytest.raises(DescentError, match=r"\(e\[0,1\], e\[1,0\]\): shift 6 of e\[1,1\] is not 1 \+ 1"):
        _verify_untwist(alg, outer, bad)


def test_untwist_computes_no_grading(monkeypatch, capsys):
    graded = []
    real = grading.eigengrading

    def counting(*args):
        graded.append(args[1])
        return real(*args)

    # rebind every alias, so a direct call from any module is counted too
    for name, module in list(sys.modules.items()):
        if name.startswith("loopforms") and getattr(module, "eigengrading", None) is real:
            monkeypatch.setattr(module, "eigengrading", counting)
    argv = ["untwist", "--type", "A2", "--auto", '{"pi":[2,1],"s":[1,1],"m":3}']
    assert argv in _pool_requests("untwist A2")
    assert cli.main(argv) == 0
    iso = json.loads(capsys.readouterr().out)["payload"]
    assert iso["checks"] == _untwist_rows(12)
    assert graded == []


def test_perturbed_coboundary_shift_detected():
    alg, identity, shifts, m = _type_twist("A2", DiagramPermutation.identity(2), (1, 0), 3)
    assert untwist_iso(alg, identity, shifts, m).shifts == shifts
    e01 = alg.basis_labels.index("e[0,1]")
    # a shift moved by one names no automorphism
    bad = tuple(x + 1 if k == e01 else x for k, x in enumerate(shifts))
    with pytest.raises(AutomorphismError, match=r"exponent additivity fails on basis pair \("):
        untwist_iso(alg, identity, bad, m)
    # moved by a full period it names the same twist, but the map that lowers
    # degrees by it breaks [e[0,1], e[1,0]]
    moved = tuple(x + m if k == e01 else x for k, x in enumerate(shifts))
    with pytest.raises(AutomorphismError) as refused:
        untwist_iso(alg, identity, moved, m)
    assert str(refused.value) == (
        "exponent additivity fails on basis pair (e[0,1], e[1,0]): exponent 1 of e[1,1] is not 3 + 1"
    )
    assert check_diagonal_automorphism(alg, moved, m) == twist(alg, identity, shifts, m)


def _oracle_twist(alg, outer, exponents, m):
    """outer o diag(zeta_m^p) as the two passes that `twist` replaced
    certified it, or None where either refuses: the diagonal factor by
    additivity mod m, and the untwisting shift by invariance and additivity
    as integers."""
    try:
        diagonal = check_diagonal_automorphism(alg, exponents, m)
        period = lcm(outer.period, m)
        _verify_untwist(alg, outer, [(period // m) * p for p in exponents])
    except (AutomorphismError, DescentError):
        return None
    return compose(outer, diagonal)


def _twist_or_none(alg, outer, exponents, m):
    try:
        return twist(alg, outer, exponents, m)
    except AutomorphismError:
        return None


_UNTWIST_TABLE_ROWS = [line for line, _ in cli._VERIFY_TABLE if line.startswith("untwist ")]


def _request_factors(line, monkeypatch, capsys):
    """The factors (alg, outer, exponents, m) that one CLI request hands to
    `untwist_iso`."""
    calls = []
    real = descent.untwist_iso

    def recording(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("loopforms") and getattr(module, "untwist_iso", None) is real:
            monkeypatch.setattr(module, "untwist_iso", recording)
    assert cli.main(line.split()) == 0
    capsys.readouterr()
    assert len(calls) == 1
    return calls[0]


@pytest.mark.parametrize("row", [*TWIST_FIXTURES, *_UNTWIST_TABLE_ROWS])
def test_twist_accepts_exactly_what_both_oracles_accept(row, monkeypatch, capsys):
    if row in TWIST_FIXTURES:
        alg, outer, exponents, m = twist_factors(row)
    else:
        alg, outer, exponents, m = _request_factors(row, monkeypatch, capsys)
    # the factors, and each exponent moved by one and by m: a move by one
    # names another diagonal map, a move by m the same one mod m but another
    # untwisting shift
    moved = [
        tuple(p + step if j == k else p for j, p in enumerate(exponents))
        for k in range(alg.dim)
        for step in (1, m)
    ]
    assert _twist_or_none(alg, outer, exponents, m) is not None
    for p in [tuple(exponents), *moved]:
        expected = _oracle_twist(alg, outer, p, m)
        sigma = _twist_or_none(alg, outer, p, m)
        assert sigma == expected, p
        if sigma is not None:
            assert sigma.period == expected.period == lcm(outer.period, m)
            assert sigma.certified_on(alg)


def test_twist_asks_for_the_integer_lift_of_its_exponents():
    alg, identity, exponents, m = _type_twist("A1", DiagramPermutation.identity(1), (1,), 2)
    assert alg.basis_labels == ("h1", "e[1]", "f[1]") and exponents == (0, 1, -1)
    # (0, 1, 1) is additive mod 2 only: [e, f] = h has 0 = 1 + 1 mod 2
    oracle = check_diagonal_automorphism(alg, (0, 1, 1), 2)
    with pytest.raises(AutomorphismError) as refused:
        twist(alg, identity, (0, 1, 1), 2)
    assert str(refused.value) == (
        "exponent additivity fails on basis pair (e[1], f[1]): exponent 0 of h1 is not 1 + 1"
    )
    # its lift, the pairing with s = (1), names the same sigma
    lifted = twist(alg, identity, (0, 1, -1), 2)
    assert lifted == oracle and lifted.period == 2


def test_matrix_unit_shifts_m3():
    # the pairing of a = (0, 1, 2) with the weights eps_i - eps_k of the
    # matrix units, row-major E11..E33: a_i - a_k, as the oracle writes it
    alg, _, shifts, _ = matrix_twist_factors(3, (0, 1, 2), 3)
    assert alg.weights[1] == (1, -1, 0)
    assert shifts == matrix_unit_shifts(3, (0, 1, 2)) == (0, -1, -2, 1, 0, -1, 2, 1, 0)


# -- coboundary witnesses --------------------------------------------------------


def test_coboundary_witness_sl2():
    alg, *factors = _type_twist("A1", DiagramPermutation.identity(1), (1,), 2)
    iso = untwist_iso(alg, *factors)
    assert iso.shifts == (0, 1, -1)
    row = {"check": "coboundary-identity", "window": 4, "status": "pass"}
    assert iso.witness_checks == _untwist_rows(4) + [row]
    # the row depends on m alone, as the matrix-unit path at m = 2 has it
    assert iso.witness_checks == iso.checks + coboundary_witness_matrix(2, (0, 1), 2)[1]


def test_coboundary_witness_matrix():
    alg, identity, exponents, _ = matrix_twist_factors(3, (0, 1, 2), 3)
    iso = untwist_iso(alg, identity, exponents, 3)
    shifts, rows = coboundary_witness_matrix(3, (0, 1, 2), 3)
    assert iso.shifts == shifts == matrix_unit_shifts(3, (0, 1, 2))
    assert iso.witness_checks == iso.checks + rows
    assert [row["check"] for row in rows] == ["coboundary-identity"]


def test_coboundary_rejects_rank_mismatch():
    # the pairings of an A1 charge on the A2 table: one exponent per basis
    # vector of A1, not of A2
    _, a1 = algebra_over("A1", 2)
    _, alg = algebra_over("A2", 2)
    identity = identity_map(alg)
    with pytest.raises(
        AutomorphismError, match="the diagonal map needs one exponent per basis element, 8 in all"
    ):
        untwist_iso(alg, identity, a1.pairing((1,)), 2)


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
    "n,exponents,m,message",
    [
        pytest.param(0, (), 2, "M_n needs n >= 1, got n = 0", id="0-exponents0-2"),
        pytest.param(2, (0,), 2, "M_2 needs one exponent per row, got 1", id="2-exponents1-2"),
        pytest.param(2, (0, 1), 0, "the period m must be >= 1, got m = 0", id="2-exponents2-0"),
    ],
)
def test_build_matrix_algebra_input_errors(n, exponents, m, message):
    with pytest.raises(RequestError, match=message):
        build_matrix_algebra(n, exponents, m)
