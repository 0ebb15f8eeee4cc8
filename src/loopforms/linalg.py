"""Deterministic exact linear algebra over cyclotomic scalars.

A vector is sparse: a mapping {index: CycloNum} that holds no zero entry, so
its support is its key set.  Dense tuples appear only where a report is
serialized.  `nullspace` and `rank` also accept dense rows; only the
benchmark's `perfbench/micro.py` and the tests' dense oracles pass them.

Every elimination goes through one sparse Gauss-Jordan routine: `Echelon`,
the reduced row-echelon form grown one row at a time, and `eliminate`, which
feeds it a list of rows.  Its output does not depend on the order of the input rows or of the work
inside, because the reduced row-echelon form of a matrix is unique.  The
pivot columns are the columns at which the rank of the leading columns goes
up, which the row space alone fixes, and the row space has exactly one basis
whose rows are 1 at their own pivot and 0 at every other pivot.  So the same
input gives the same rank, kernel basis and centroid basis bit for bit,
however the rows arrive.  Kernel bases are additionally re-reduced so the
returned vectors are themselves in reduced row-echelon form.

The package tests span membership without a general solver: the spans it
asks about are written down in closed form (the grading components and the
fixed Cartan, whose coordinates `grading.ComponentSolver` reads and
confirms), or are independent families, where membership is a rank test.
The one span that grows, the subalgebra generated by a set of homogeneous
basis vectors (the centroid's generating set), is an `Echelon` whose `reduce`
answers membership.  `SpanSolver`, membership by elimination, has no caller in the package; it is
the reference the tests compare `ComponentSolver` with, and the benchmark's
`perfbench/tracer.py` wraps it by name.

Integer matrices (Cartan matrices and generalized Cartan matrices) have their
own small helper, `int_rank_det`, because their certificates need the
determinant, which a reduced row-echelon form does not keep.  It is Bareiss's
fraction-free elimination over the integers: every division in it is exact,
and no rational number is formed.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence, Union

from .cyclo import CycloNum

Sparse = dict[int, CycloNum]
Row = Union[Sequence[CycloNum], Mapping[int, CycloNum]]

__all__ = [
    "Echelon",
    "SpanSolver",
    "Sparse",
    "eliminate",
    "int_rank_det",
    "nullspace",
    "rank",
    "sparse_add",
]


def sparse_add(acc: Sparse, v: Mapping[int, CycloNum], scale: Optional[CycloNum] = None) -> None:
    """acc += scale * v in place (scale 1 when omitted); entries that cancel
    are dropped."""
    for k, x in v.items():
        if scale is not None:
            x = scale * x
        old = acc.get(k)
        if old is None:
            acc[k] = x
            continue
        new = old + x
        if new.is_zero():
            del acc[k]
        else:
            acc[k] = new


def _axpy(target: Sparse, factor: CycloNum, source: Mapping[int, CycloNum], skip: int) -> None:
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


class Echelon:
    """The reduced row-echelon form of a growing list of sparse rows.

    `pivots` maps each pivot column to its row, which is 1 at its pivot and
    has no entry at any other pivot column.  Rows may be added at any time;
    the form after the last one is the same whatever their order.
    """

    def __init__(self) -> None:
        self.pivots: dict[int, Sparse] = {}

    def __len__(self) -> int:
        return len(self.pivots)

    def reduce(self, source: Mapping[int, CycloNum]) -> Sparse:
        """source less its combination of pivot rows: empty exactly when
        source lies in their span."""
        row = {k: v for k, v in source.items() if not v.is_zero()}
        # pivot rows vanish at every other pivot column, so one pass suffices
        for col in [c for c in row if c in self.pivots]:
            _axpy(row, row.pop(col), self.pivots[col], col)
        return row

    def add(self, source: Mapping[int, CycloNum]) -> bool:
        """Add a row; False, and no change, when it is in the span already."""
        row = self.reduce(source)
        if not row:
            return False
        lead = min(row)
        inv = row.pop(lead).inverse()
        new = {k: inv * v for k, v in row.items()}
        new[lead] = CycloNum.one(inv.order)
        for prow in self.pivots.values():
            factor = prow.pop(lead, None)
            if factor is not None:
                _axpy(prow, factor, new, lead)
        self.pivots[lead] = new
        return True


def eliminate(rows: Iterable[Mapping[int, CycloNum]]) -> dict[int, Sparse]:
    """Sparse Gauss-Jordan elimination of rows given as {column: scalar}.

    Returns the pivot rows keyed by pivot column, in increasing column order:
    the reduced row-echelon form, which does not depend on the order of the
    input rows.  A pivot row is 1 at its pivot and has no entry at any other
    pivot column.  Rows that reduce to zero are dropped.
    """
    echelon = Echelon()
    for source in rows:
        echelon.add(source)
    return dict(sorted(echelon.pivots.items()))


def _sparse(row: Row) -> Sparse:
    items = row.items() if isinstance(row, Mapping) else enumerate(row)
    return {j: x for j, x in items if not x.is_zero()}


def _dot(a: Mapping[int, CycloNum], b: Mapping[int, CycloNum]) -> Optional[CycloNum]:
    """Sum of a[k] * b[k], or None when the supports do not meet."""
    if len(b) < len(a):
        a, b = b, a
    acc = None
    for k, x in a.items():
        y = b.get(k)
        if y is not None:
            term = x * y
            acc = term if acc is None else acc + term
    return acc


def rank(rows: Iterable[Row]) -> int:
    """Rank of the rows, each dense or a sparse {column: scalar} mapping."""
    return len(eliminate(_sparse(row) for row in rows))


def nullspace(rows: Iterable[Row], ncols: int, order: int) -> list[Sparse]:
    """Canonical kernel basis of the linear map given by `rows` (ncols unknowns),
    each row dense or a sparse {column: scalar} mapping.  The basis vectors
    are sparse and in reduced row-echelon form."""
    pivots = eliminate(_sparse(row) for row in rows)
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
    return list(eliminate(kernel).values())


def int_rank_det(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Rank and determinant of a square integer matrix, by fraction-free
    (Bareiss) elimination over the integers.

    A column with no pivot left is skipped, and rows are exchanged to bring a
    pivot up, which flips the sign.  After k pivots every remaining entry is
    a (k+1)-minor, so each division by the previous pivot is exact (Sylvester's
    identity) and is taken with //.  For full rank the last pivot is the
    determinant up to that sign.
    """
    work = [list(row) for row in rows]
    n = len(work)
    sign, prev, rank = 1, 1, 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if work[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            work[rank], work[pivot] = work[pivot], work[rank]
            sign = -sign
        top = work[rank]
        p = top[col]
        for r in range(rank + 1, n):
            row = work[r]
            factor = row[col]
            for c in range(col + 1, n):
                row[c] = (p * row[c] - factor * top[c]) // prev
            row[col] = 0
        prev = p
        rank += 1
    return rank, (sign * prev if rank == n else 0)


class SpanSolver:
    """Express sparse vectors exactly in the span of a fixed list of them.

    The columns of B are the spanning vectors.  [B | I], one row per index of
    their joint support, is brought to its reduced row-echelon form
    E [B | I] = [R | E].  For v = B c, E v = R c: a pivot row whose pivot is
    in the B part gives the coordinate at that pivot as its E part applied
    to v, and a pivot row whose pivot is in the I part is zero on B, so its
    E part must vanish on v.  The spanning vectors may be dependent;
    coordinates then live on the pivot vectors only.
    """

    def __init__(self, vectors: Sequence[Mapping[int, CycloNum]]):
        self.count = len(vectors)
        rows: dict[int, Sparse] = {}
        for k, vec in enumerate(vectors):
            for i, x in vec.items():
                if not x.is_zero():
                    rows.setdefault(i, {})[k] = x
        self._support = frozenset(rows)
        for i, row in rows.items():
            row[self.count + i] = CycloNum.one(next(iter(row.values())).order)
        pivots = eliminate(rows[i] for i in sorted(rows))
        self._solve_rows = {
            pc: self._functional(row) for pc, row in pivots.items() if pc < self.count
        }
        self._check_rows = [
            self._functional(row) for pc, row in pivots.items() if pc >= self.count
        ]

    def _functional(self, row: Sparse) -> Sparse:
        return {k - self.count: v for k, v in row.items() if k >= self.count}

    def coords(self, v: Mapping[int, CycloNum]) -> Optional[Sparse]:
        """Coefficients {spanning index: scalar} expressing v, or None."""
        entries = _sparse(v)
        if not entries.keys() <= self._support:
            return None
        for crow in self._check_rows:
            value = _dot(crow, entries)
            if value is not None and not value.is_zero():
                return None
        out: Sparse = {}
        for pc, srow in self._solve_rows.items():
            value = _dot(srow, entries)
            if value is not None and not value.is_zero():
                out[pc] = value
        return out

    def contains(self, v: Mapping[int, CycloNum]) -> bool:
        return self.coords(v) is not None
