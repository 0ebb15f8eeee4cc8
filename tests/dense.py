"""Dense matrix helpers, the dense automorphism check and the ordered-triple
table validation, kept as test oracles.

The package stores automorphisms as monomials (images, scalars) and never
multiplies dense matrices.  These helpers work on the dense view
`FiniteOrderAutomorphism.matrix` (column j is the image of basis element j),
so the tests can compare every monomial result with the plain matrix
computation it replaces.  `twist_fixture` builds the twists those
differential tests run on.  `ordered_triple_validation` evaluates the Lie or
associative law on all n^3 ordered basis triples through `product_sparse`,
the reference for the reduced certificate of `validate_algebra`.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from typing import Sequence

from loopforms.acceptance import _grading_fixtures
from loopforms.algebra import (
    KIND_LIE,
    AutomorphismError,
    FiniteOrderAutomorphism,
    MultTableAlgebra,
    Sparse,
    ValidationReport,
    Violation,
)
from loopforms.chevalley import DiagramPermutation, ToralCharge, algebra_over, compose_pi_toral
from loopforms.cyclo import CycloNum
from loopforms.descent import build_matrix_algebra
from loopforms.linalg import Matrix, Vector, eliminate, rank, vec_add


def identity_matrix(n: int, order: int) -> Matrix:
    one = CycloNum.one(order)
    zero = CycloNum.zero(order)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_vec(mat: Sequence[Sequence[CycloNum]], v: Sequence[CycloNum]) -> Vector:
    out = []
    for row in mat:
        acc = None
        for a, x in zip(row, v):
            if a.is_zero() or x.is_zero():
                continue
            term = a * x
            acc = term if acc is None else acc + term
        if acc is None:
            acc = CycloNum.zero(row[0].order if row else v[0].order)
        out.append(acc)
    return tuple(out)


def mat_mul(a: Sequence[Sequence[CycloNum]], b: Sequence[Sequence[CycloNum]]) -> Matrix:
    bt = list(zip(*b))
    rows = []
    for arow in a:
        row = []
        for bcol in bt:
            acc = None
            for x, y in zip(arow, bcol):
                if x.is_zero() or y.is_zero():
                    continue
                term = x * y
                acc = term if acc is None else acc + term
            row.append(acc if acc is not None else CycloNum.zero(arow[0].order))
        rows.append(tuple(row))
    return tuple(rows)


def mat_pow(mat: Matrix, k: int) -> Matrix:
    if k < 0:
        raise ValueError("negative matrix power not supported here")
    n = len(mat)
    order = mat[0][0].order
    result = identity_matrix(n, order)
    for _ in range(k):
        result = mat_mul(result, mat)
    return result


def is_identity(mat: Sequence[Sequence[CycloNum]]) -> bool:
    for i, row in enumerate(mat):
        for j, entry in enumerate(row):
            if i == j:
                if not (entry - 1).is_zero():
                    return False
            elif not entry.is_zero():
                return False
    return True


def mat_inverse(mat: Matrix) -> Matrix:
    n = len(mat)
    order = mat[0][0].order
    one = CycloNum.one(order)
    augmented = []
    for i, row in enumerate(mat):
        srow = {j: x for j, x in enumerate(row) if not x.is_zero()}
        srow[n + i] = one
        augmented.append(srow)
    pivots, _ = eliminate(augmented, pivot_limit=n)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    zero = CycloNum.zero(order)
    return tuple(tuple(pivots[i].get(n + j, zero) for j in range(n)) for i in range(n))


def dense_check_automorphism(alg: MultTableAlgebra, matrix: Matrix, period: int) -> None:
    """Invertibility by rank, multiplicativity on all basis pairs by dense
    products, and matrix^period = 1 by repeated multiplication."""
    n = alg.dim
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise AutomorphismError(f"matrix must be {n}x{n}")
    if rank(matrix) != n:
        raise AutomorphismError("matrix is not invertible")
    columns = [tuple(matrix[i][j] for i in range(n)) for j in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = alg.zero_vec()
            for k, c in alg.basis_product(i, j):
                lhs = vec_add(lhs, tuple(c * x for x in columns[k]))
            if lhs != alg.product(columns[i], columns[j]):
                raise AutomorphismError(
                    f"multiplicativity fails on basis pair "
                    f"({alg.basis_labels[i]}, {alg.basis_labels[j]})"
                )
    if not is_identity(mat_pow(matrix, period)):
        raise AutomorphismError(f"matrix^{period} is not the identity")


def _sparse_sum(terms: Sequence[Sparse]) -> Sparse:
    out: Sparse = {}
    for t in terms:
        for k, v in t.items():
            prev = out.get(k)
            out[k] = v if prev is None else prev + v
    return out


def _sparse_is_zero(s: Sparse) -> bool:
    return all(v.is_zero() for v in s.values())


def ordered_triple_validation(alg: MultTableAlgebra) -> ValidationReport:
    """Alternation and antisymmetry on every pair, then the Jacobi identity
    (or associativity) on every ordered basis triple, each triple product
    formed by `product_sparse` against one-entry basis vectors."""
    n = alg.dim
    labels = alg.basis_labels
    violations: list[Violation] = []
    basis = [{i: CycloNum.one(alg.scalar_order)} for i in range(n)]

    def entry_sparse(i: int, j: int) -> Sparse:
        return dict(alg.basis_product(i, j))

    triples = 0
    if alg.kind == KIND_LIE:
        for i in range(n):
            if not _sparse_is_zero(entry_sparse(i, i)):
                violations.append(Violation("alternating", (i,), (labels[i],)))
        for i in range(n):
            for j in range(i + 1, n):
                anti = _sparse_sum([entry_sparse(i, j), entry_sparse(j, i)])
                if not _sparse_is_zero(anti):
                    violations.append(Violation("antisymmetry", (i, j), (labels[i], labels[j])))
        for i in range(n):
            for j in range(n):
                ij = entry_sparse(i, j)
                for k in range(n):
                    triples += 1
                    total = _sparse_sum(
                        [
                            alg.product_sparse(ij, basis[k]),
                            alg.product_sparse(entry_sparse(j, k), basis[i]),
                            alg.product_sparse(entry_sparse(k, i), basis[j]),
                        ]
                    )
                    if not _sparse_is_zero(total):
                        violations.append(
                            Violation("jacobi", (i, j, k), (labels[i], labels[j], labels[k]))
                        )
    else:
        for i in range(n):
            for j in range(n):
                ij = entry_sparse(i, j)
                for k in range(n):
                    triples += 1
                    left = alg.product_sparse(ij, basis[k])
                    right = alg.product_sparse(basis[i], entry_sparse(j, k))
                    diff = _sparse_sum([left, {m: -c for m, c in right.items()}])
                    if not _sparse_is_zero(diff):
                        violations.append(
                            Violation("associativity", (i, j, k), (labels[i], labels[j], labels[k]))
                        )
    return ValidationReport(alg.kind, n, triples, tuple(violations))


# -- differential fixtures -------------------------------------------------------

_CRITERION_2 = (
    "A1 toral s=(1) m=2",
    "A2 diagram flip",
    "D4 diagram triality",
    "A2 flip * toral s=(1,1) m=2",
    "M3 conjugation (0,1,2) m=3",
)

# twists of the benchmark's `twist` pool: (type, one-based pi or None, s, m)
_TYPE_TWISTS = {
    "A2 flip * toral s=(1,1) m=3": ("A2", (2, 1), (1, 1), 3),
    "A2 toral s=(1,1) m=6": ("A2", None, (1, 1), 6),
    "A3 flip": ("A3", (3, 2, 1), (0, 0, 0), 1),
    "A3 flip * toral s=(1,0,1) m=2": ("A3", (3, 2, 1), (1, 0, 1), 2),
    "B3 toral s=(1,0,0) m=3": ("B3", None, (1, 0, 0), 3),
    "C3 toral s=(0,1,0) m=4": ("C3", None, (0, 1, 0), 4),
    "D4 triality (4,2,1,3)": ("D4", (4, 2, 1, 3), (0, 0, 0, 0), 1),
    "D4 triality * toral s=(0,1,0,0) m=3": ("D4", (3, 2, 4, 1), (0, 1, 0, 0), 3),
    "D4 toral s=(1,0,0,0) m=3": ("D4", None, (1, 0, 0, 0), 3),
    "G2 toral s=(1,0) m=6": ("G2", None, (1, 0), 6),
}

# Ad(diag(zeta^a)) on M_n: (n, exponents, m)
_MATRIX_TWISTS = {
    "M2 (0,1) m=3": (2, (0, 1), 3),
    "M4 (0,1,2,3) m=4": (4, (0, 1, 2, 3), 4),
    "M4 (0,1,2,3) m=6": (4, (0, 1, 2, 3), 6),
}

TWIST_FIXTURES = _CRITERION_2 + tuple(_TYPE_TWISTS) + tuple(_MATRIX_TWISTS)


@lru_cache(maxsize=None)
def _criterion_2() -> dict:
    return {name: (alg, sigma) for name, alg, sigma, _ in _grading_fixtures()}


@lru_cache(maxsize=None)
def twist_fixture(name: str) -> tuple[MultTableAlgebra, FiniteOrderAutomorphism]:
    """The algebra and checked monomial automorphism of one named fixture."""
    if name in _CRITERION_2:
        return _criterion_2()[name]
    if name in _MATRIX_TWISTS:
        return build_matrix_algebra(*_MATRIX_TWISTS[name])
    label, pi, s, m = _TYPE_TWISTS[name]
    perm = (
        DiagramPermutation.identity(len(s)) if pi is None else DiagramPermutation.from_one_based(pi)
    )
    rs, alg = algebra_over(label, lcm(perm.order(), m))
    return alg, compose_pi_toral(alg, rs, perm, ToralCharge(s=s, modulus=m))
