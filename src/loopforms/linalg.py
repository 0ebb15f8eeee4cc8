"""The elimination kernel over cyclotomic scalars; `centroid` is the one
module of the package that imports it.  Vectors are `cyclo.Sparse`;
`nullspace` also accepts dense rows, which only the benchmark's
`perfbench/micro.py` and the tests' dense oracles pass.

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

The package tests span membership without a general solver: its spans are
written down in closed form (read by `grading.ComponentSolver`), are cut out
by pivot rows already eliminated (the identity in the centroid), or grow as
the centroid's generating set does (`Echelon.reduce`).  `SpanSolver`,
membership by elimination, has no caller in the package; the tests' dense
oracles use it, and the benchmark's `perfbench/tracer.py` wraps it by name.
The rank of a list of rows is the number of pivot rows `eliminate` returns.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence, Union

from .cyclo import CycloNum, Sparse, sparse_add

Row = Union[Sequence[CycloNum], Mapping[int, CycloNum]]

__all__ = [
    "Echelon",
    "SpanSolver",
    "eliminate",
    "nullspace",
]


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
        # pivot rows vanish at every other pivot column, so one pass suffices;
        # a pivot row is 1 at its pivot, so the entry at col cancels and goes
        for col in [c for c in row if c in self.pivots]:
            sparse_add(row, self.pivots[col], -row[col])
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
            factor = prow.get(lead)
            if factor is not None:
                sparse_add(prow, new, -factor)
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
