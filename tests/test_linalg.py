import random
from fractions import Fraction

import pytest

from dense import (
    densify,
    fraction_rank_det,
    identity_matrix,
    is_identity,
    mat_inverse,
    mat_mul,
    mat_pow,
    mat_vec,
    sparsify,
)
from loopforms.cyclo import CycloNum, zeta_power
from loopforms.linalg import Echelon, SpanSolver, eliminate, int_rank_det, nullspace, rank


def q(x, order=1):
    return CycloNum.rational(order, Fraction(x))


def _combination(pairs):
    """sum c * v over (c, v) pairs of a scalar and a dense vector."""
    out = None
    for c, v in pairs:
        scaled = tuple(c * x for x in v)
        out = scaled if out is None else tuple(a + b for a, b in zip(out, scaled))
    return out


def _random_matrix(rng, rows, cols, order):
    pool = [q(v, order) for v in (-2, -1, 0, 0, 1, 2)] + [zeta_power(order, 1)]
    return tuple(tuple(rng.choice(pool) for _ in range(cols)) for _ in range(rows))


def test_rref_rank_one_fixture():
    # zero rows are dropped; only the reduced nonzero rows come back
    mat = [{0: q(1), 1: q(2)}, {0: q(2), 1: q(4)}]
    assert eliminate(mat) == {0: {0: q(1), 1: q(2)}}


def test_nullspace_hand_fixture():
    mat = [[q(1), q(1), q(0)], [q(0), q(1), q(1)]]
    basis = nullspace(mat, 3, 1)
    assert len(basis) == 1
    v = densify(basis[0], 3, 1)
    assert all(c.is_zero() for c in mat_vec(mat, v))
    # kernel direction (1, -1, 1) up to scale
    scale = v[0]
    assert v == (scale, -scale, scale)


def test_rank_nullity_on_random_matrices():
    rng = random.Random(31337)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        mat = _random_matrix(rng, rows, cols, 3)
        r = rank(mat)
        basis = nullspace(mat, cols, 3)
        assert r + len(basis) == cols
        # the same rows given as sparse {column: scalar} mappings
        assert nullspace([dict(enumerate(row)) for row in mat], cols, 3) == basis
        for v in basis:
            assert all(c.is_zero() for c in mat_vec(mat, densify(v, cols, 3)))


def test_mat_pow_zero_exponent_is_identity():
    mat = [[q(0), q(1)], [q(1), q(0)]]
    assert is_identity(mat_pow(mat, 0))
    assert is_identity(mat_pow(mat, 2))


def test_mat_inverse_on_random_invertible():
    rng = random.Random(404)
    produced = 0
    while produced < 25:
        mat = _random_matrix(rng, 3, 3, 4)
        if rank(mat) < 3:
            continue
        produced += 1
        assert is_identity(mat_mul(mat, mat_inverse(mat)))


def test_mat_mul_associativity():
    rng = random.Random(8)
    for _ in range(20):
        a = _random_matrix(rng, 2, 3, 3)
        b = _random_matrix(rng, 3, 2, 3)
        c = _random_matrix(rng, 2, 2, 3)
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


def test_span_solver_recovers_coefficients():
    rng = random.Random(55)
    basis = [
        (q(1, 4), q(0, 4), q(2, 4)),
        (q(0, 4), q(1, 4), zeta_power(4, 1)),
    ]
    solver = SpanSolver([sparsify(b) for b in basis])
    for _ in range(20):
        c0 = q(rng.randint(-3, 3), 4)
        c1 = q(rng.randint(-3, 3), 4)
        v = _combination([(c0, basis[0]), (c1, basis[1])])
        coords = solver.coords(sparsify(v))
        # coordinates are sparse: a zero coefficient has no entry
        assert densify(coords, 2, 4) == (c0, c1)
        assert all(not c.is_zero() for c in coords.values())
    assert not solver.contains({2: q(1, 4)})
    assert solver.contains({})


def test_identity_matrix_shape():
    eye = identity_matrix(4, 6)
    assert is_identity(eye)
    assert rank(eye) == 4


def _random_sparse_rows(rng, nrows, ncols, order):
    pool = [q(v, order) for v in (-2, -1, 1, 3)] + [zeta_power(order, 1), zeta_power(order, 2)]
    rows = []
    for _ in range(nrows):
        rows.append({c: rng.choice(pool) for c in range(ncols) if rng.random() < 0.4})
    # append combinations of earlier rows so the rank falls below the row count
    for _ in range(nrows // 2):
        a, b = rng.sample(rows[:nrows], 2)
        ca, cb = rng.choice(pool), rng.choice(pool)
        combo = {}
        for c in range(ncols):
            value = ca * a.get(c, q(0, order)) + cb * b.get(c, q(0, order))
            if not value.is_zero():
                combo[c] = value
        rows.append(combo)
    return rows


def _reference_rank(rows, ncols, order):
    # dense column-by-column elimination, independent of `eliminate`
    work = [[row.get(c, q(0, order)) for c in range(ncols)] for row in rows]
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(work)) if not work[i][col].is_zero()), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = work[r][col].inverse()
        for i in range(r + 1, len(work)):
            factor = work[i][col] * inv
            work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
        r += 1
    return r


@pytest.mark.parametrize("order, seed", [(3, 11), (3, 12), (4, 21), (4, 22)])
def test_eliminate_is_canonical(order, seed):
    rng = random.Random(seed)
    for _ in range(15):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
        rows = _random_sparse_rows(rng, nrows, ncols, order)
        pivots = eliminate(rows)
        for _ in range(3):
            shuffled = [dict(row) for row in rows]
            rng.shuffle(shuffled)
            again = eliminate(shuffled)
            assert again == pivots
            assert list(again) == list(pivots)
        for col, row in pivots.items():
            assert row[col] == q(1, order)
            assert all(other not in row for other in pivots if other != col)
            assert all(not v.is_zero() for v in row.values())
        assert len(pivots) == _reference_rank(rows, ncols, order)
        # every input row is the combination of pivot rows its pivot entries give
        for row in rows:
            rebuilt = {}
            for col, prow in pivots.items():
                if col in row:
                    for k, v in prow.items():
                        rebuilt[k] = rebuilt.get(k, q(0, order)) + row[col] * v
            assert {k: v for k, v in rebuilt.items() if not v.is_zero()} == row


def test_span_solver_with_dependent_spanning_set():
    v1 = (q(1, 3), q(0, 3), zeta_power(3, 1), q(2, 3))
    v2 = (q(0, 3), q(1, 3), q(1, 3), q(0, 3))
    spanning = [v1, v2, _combination([(q(1, 3), v1), (q(1, 3), v2)]), _combination([(q(2, 3), v1)])]
    solver = SpanSolver([sparsify(v) for v in spanning])
    c0, c1 = zeta_power(3, 2), q(-3, 3)
    v = _combination([(c0, v1), (c1, v2)])
    # coordinates live on the independent (pivot) vectors only
    assert solver.coords(sparsify(v)) == {0: c0, 1: c1}
    assert densify(solver.coords(sparsify(v)), 4, 3) == (c0, c1, q(0, 3), q(0, 3))
    assert not solver.contains({3: q(1, 3)})
    assert solver.coords({}) == {}


@pytest.mark.parametrize("order, seed", [(3, 41), (4, 42)])
def test_span_solver_membership_is_a_rank_test(order, seed):
    # v is in the span exactly when adding it keeps the rank, and the
    # coordinates rebuild v
    rng = random.Random(seed)
    for _ in range(15):
        spanning = _random_sparse_rows(rng, rng.randint(1, 4), 6, order)
        solver = SpanSolver(spanning)
        combo = {}
        for vec in spanning:
            c = q(rng.randint(-2, 2), order)
            for k, x in vec.items():
                combo[k] = combo.get(k, q(0, order)) + c * x
        for v in (_random_sparse_rows(rng, 1, 6, order)[0], combo):
            v = {k: x for k, x in v.items() if not x.is_zero()}
            coords = solver.coords(v)
            assert (coords is not None) == (rank([*spanning, v]) == rank(spanning))
            if coords is not None:
                rebuilt = {}
                for i, c in coords.items():
                    for k, x in spanning[i].items():
                        rebuilt[k] = rebuilt.get(k, q(0, order)) + c * x
                assert {k: x for k, x in rebuilt.items() if not x.is_zero()} == v


def test_mat_inverse_refuses_singular_matrix():
    mat = ((q(1, 4), zeta_power(4, 1)), (q(2, 4), zeta_power(4, 1) * 2))
    with pytest.raises(ValueError, match="singular"):
        mat_inverse(mat)


# -- integer rank and determinant --------------------------------------------------


def _int_matrices(seed):
    """Square matrices of sizes 1-9 with entries in -3..3: random ones, ones
    with a row that is a sum of two others, and ones with a zero column."""
    rng = random.Random(seed)
    for n in range(1, 10):
        for _ in range(6):
            yield [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if n >= 3:
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            i, j, k = rng.sample(range(n), 3)
            a[k] = [x + y for x, y in zip(a[i], a[j])]
            yield a
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        col = rng.randrange(n)
        for row in a:
            row[col] = 0
        yield a


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_int_rank_det_matches_fraction_elimination(seed):
    for a in _int_matrices(seed):
        rank_, det = int_rank_det(a)
        assert type(det) is int
        assert (rank_, det) == fraction_rank_det(a), a


def test_int_rank_det_fixtures():
    assert int_rank_det([]) == (0, 1)
    assert int_rank_det([[0]]) == (0, 0)
    assert int_rank_det([[0, 1], [1, 0]]) == (2, -1)
    # the A1^(1) and E8 Cartan matrices: corank 1, and determinant 1
    assert int_rank_det([[2, -2], [-2, 2]]) == (1, 0)
    e8 = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
    for u, v in [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]:
        e8[u][v] = e8[v][u] = -1
    assert int_rank_det(e8) == (8, 1)


def test_echelon_grows_the_reduced_form_of_eliminate():
    rng = random.Random(7)
    rows = [{j: x for j, x in enumerate(row) if not x.is_zero()} for row in _random_matrix(rng, 6, 5, 3)]
    echelon = Echelon()
    added = [echelon.add(row) for row in rows]
    assert sum(added) == len(echelon) == rank(rows)
    assert dict(sorted(echelon.pivots.items())) == eliminate(rows)
    for row in rows:
        assert echelon.reduce(row) == {}
        assert echelon.add(row) is False
