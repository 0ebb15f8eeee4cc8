"""Deterministic exact linear algebra over cyclotomic scalars.

Every elimination goes through one sparse Gauss-Jordan routine, `eliminate`.
Its output does not depend on the order of the input rows or of the work
inside, because the reduced row-echelon form of a matrix is unique.  The
pivot columns are the columns at which the rank of the leading columns goes
up, which the row space alone fixes, and the row space has exactly one basis
whose rows are 1 at their own pivot and 0 at every other pivot.  So the same
input gives the same kernel basis, membership coordinates and centroid basis
bit for bit, however the rows arrive.  Kernel bases are additionally
re-reduced so the returned vectors are themselves in reduced row-echelon
form.

Integer matrices (Cartan matrices and generalized Cartan matrices) have their
own small helper, `int_rank_det`, because their certificates need the
determinant, which a reduced row-echelon form does not keep.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .cyclo import CycloNum

Vector = tuple[CycloNum, ...]
Matrix = tuple[Vector, ...]
SparseRow = dict[int, CycloNum]

__all__ = [
    "Matrix",
    "SpanSolver",
    "Vector",
    "eliminate",
    "int_rank_det",
    "nullspace",
    "rank",
    "vec_add",
    "vec_scale",
    "zero_vector",
]


def zero_vector(n: int, order: int) -> Vector:
    z = CycloNum.zero(order)
    return (z,) * n


def vec_add(a: Sequence[CycloNum], b: Sequence[CycloNum]) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vec_scale(c: CycloNum, a: Sequence[CycloNum]) -> Vector:
    return tuple(c * x for x in a)


def _axpy(target: SparseRow, factor: CycloNum, source: Mapping[int, CycloNum], skip: int) -> None:
    """target -= factor * source in place, ignoring column `skip`; zeros are dropped."""
    neg = -factor
    for k, v in source.items():
        if k == skip:
            continue
        old = target.get(k)
        if old is None:
            target[k] = neg * v
            continue
        new = old + neg * v
        if new.is_zero():
            del target[k]
        else:
            target[k] = new


def eliminate(
    rows: Iterable[Mapping[int, CycloNum]], pivot_limit: Optional[int] = None
) -> tuple[dict[int, SparseRow], list[SparseRow]]:
    """Sparse Gauss-Jordan elimination of rows given as {column: scalar}.

    Returns the pivot rows keyed by pivot column, in increasing column order,
    and the leftover rows.  A pivot row is 1 at its pivot and has no entry at
    any other pivot column.  Pivots are only taken in columns below
    `pivot_limit`; a row that reduces to entries at or past the limit only is
    a leftover row.  Rows that reduce to zero are dropped.  With no limit
    there are no leftover rows and the pivot rows are the reduced row-echelon
    form, which does not depend on the order of the input rows.
    """
    pivots: dict[int, SparseRow] = {}
    leftover: list[SparseRow] = []
    for source in rows:
        row = {k: v for k, v in source.items() if not v.is_zero()}
        # pivot rows vanish at every other pivot column, so one pass suffices
        for col in [c for c in row if c in pivots]:
            _axpy(row, row.pop(col), pivots[col], col)
        leads = [c for c in row if pivot_limit is None or c < pivot_limit]
        if not leads:
            if row:
                leftover.append(row)
            continue
        lead = min(leads)
        inv = row.pop(lead).inverse()
        new = {k: inv * v for k, v in row.items()}
        new[lead] = CycloNum.one(inv.order)
        for prow in pivots.values():
            factor = prow.pop(lead, None)
            if factor is not None:
                _axpy(prow, factor, new, lead)
        pivots[lead] = new
    return dict(sorted(pivots.items())), leftover


def _sparse(row: Union[Sequence[CycloNum], Mapping[int, CycloNum]]) -> SparseRow:
    items = row.items() if isinstance(row, Mapping) else enumerate(row)
    return {j: x for j, x in items if not x.is_zero()}


def _dot(a: Mapping[int, CycloNum], b: Mapping[int, CycloNum], zero: CycloNum) -> CycloNum:
    if len(b) < len(a):
        a, b = b, a
    acc = None
    for k, x in a.items():
        y = b.get(k)
        if y is not None:
            term = x * y
            acc = term if acc is None else acc + term
    return zero if acc is None else acc


def rank(rows: Iterable[Sequence[CycloNum]]) -> int:
    pivots, _ = eliminate(_sparse(row) for row in rows)
    return len(pivots)


def nullspace(
    rows: Iterable[Union[Sequence[CycloNum], Mapping[int, CycloNum]]], ncols: int, order: int
) -> list[Vector]:
    """Canonical kernel basis of the linear map given by `rows` (ncols unknowns),
    each row dense or a sparse {column: scalar} mapping."""
    pivots, _ = eliminate(_sparse(row) for row in rows)
    one = CycloNum.one(order)
    kernel = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = {f: one}
        for pc, prow in pivots.items():
            entry = prow.get(f)
            if entry is not None:
                vec[pc] = -entry
        kernel.append(vec)
    basis, _ = eliminate(kernel)
    zero = CycloNum.zero(order)
    return [tuple(row.get(j, zero) for j in range(ncols)) for row in basis.values()]


def int_rank_det(rows: Sequence[Sequence[int]]) -> tuple[int, Fraction]:
    """Rank and determinant of a square integer matrix, by Fraction elimination."""
    n = len(rows)
    work = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    rank = 0
    for col in range(n):
        pivot = None
        for r in range(rank, n):
            if work[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            work[rank], work[pivot] = work[pivot], work[rank]
            det = -det
        det *= work[rank][col]
        inv = 1 / work[rank][col]
        for r in range(rank + 1, n):
            factor = work[r][col] * inv
            if factor:
                for c in range(col, n):
                    work[r][c] -= factor * work[rank][c]
        rank += 1
    return rank, det


class SpanSolver:
    """Express vectors exactly in the span of a fixed list of vectors.

    Precomputes one factorization so repeated membership queries against the
    same span are cheap.
    """

    def __init__(self, vectors: Sequence[Sequence[CycloNum]], ambient_dim: int, order: int):
        self.ambient_dim = ambient_dim
        self.order = order
        self.count = len(vectors)
        # columns of B are the spanning vectors; reduce [B | I] with pivots
        # restricted to the B part.  The I part of a pivot row gives one
        # coordinate, and that of a leftover row is a consistency functional
        # for membership queries.
        one = CycloNum.one(order)
        rows = []
        for i in range(ambient_dim):
            row = {k: vec[i] for k, vec in enumerate(vectors) if not vec[i].is_zero()}
            row[self.count + i] = one
            rows.append(row)
        pivots, leftover = eliminate(rows, pivot_limit=self.count)
        self._solve_rows = {pc: self._functional(row) for pc, row in pivots.items()}
        self._check_rows = [self._functional(row) for row in leftover]

    def _functional(self, row: SparseRow) -> SparseRow:
        return {k - self.count: v for k, v in row.items() if k >= self.count}

    def coords(self, v: Sequence[CycloNum]) -> Optional[list[CycloNum]]:
        """Coefficients expressing v in the spanning vectors, or None."""
        zero = CycloNum.zero(self.order)
        entries = _sparse(v)
        for crow in self._check_rows:
            if not _dot(crow, entries, zero).is_zero():
                return None
        out = [zero] * self.count
        for pc, srow in self._solve_rows.items():
            out[pc] = _dot(srow, entries, zero)
        return out

    def contains(self, v: Sequence[CycloNum]) -> bool:
        return self.coords(v) is not None
