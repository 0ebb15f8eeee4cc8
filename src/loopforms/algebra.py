"""Finite-dimensional algebras by structure constants, and their validation.

An algebra is a multiplication table over some Q(zeta_M): sparse structure
constants on a fixed basis, tagged `lie` or `associative`.  Its elements are
sparse vectors {index: scalar} with no zero entry, multiplied by
`MultTableAlgebra.product_sparse`; dense tuples appear only in serialized
reports.  `validate_algebra` certifies the laws of the declared kind on every
ordered basis triple, evaluating them only where a term has a path through
the table's nonzero products (`_left_paths`), and the table keeps that
certificate (`MultTableAlgebra.validation`), so it is computed once per table.
A type label's table carries its construction's certificate instead.

This module is the table layer only.  Automorphisms and gradings are in
`grading`, the graded centroid in `centroid`, and descent data in `descent`,
so a request that only builds or validates a table compiles none of them.

All verification here is exact and total over the stated ranges; nothing is
sampled.
"""

from __future__ import annotations

from functools import cached_property
from itertools import permutations
from math import lcm
from typing import Iterable, Iterator, Sequence

from .cyclo import CycloNum, Sparse, _json_int, sparse_add
from .record import Record

__all__ = [
    "AlgebraError",
    "MultTableAlgebra",
    "ValidationReport",
    "Violation",
    "embed_algebra",
    "make_table",
    "validate_algebra",
]

KIND_LIE = "lie"
KIND_ASSOCIATIVE = "associative"


class AlgebraError(ValueError):
    pass


TableEntry = tuple[tuple[int, CycloNum], ...]


class MultTableAlgebra(Record):
    """Algebra given by structure constants on basis e_0, ..., e_{dim-1}.

    `constants` holds, for each basis pair (i, j) with nonzero product, the
    sparse expansion of e_i * e_j; omitted pairs multiply to zero, and a pair
    listed twice is refused rather than read one way.  Elements
    are sparse vectors {index: scalar} with no zero entry.  The lookup behind
    `basis_product` sums repeated targets of an entry and drops zero terms,
    so each of its entries is a sparse vector too.
    """

    dim: int
    scalar_order: int
    kind: str
    constants: tuple[tuple[int, int, TableEntry], ...]
    basis_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise AlgebraError("dimension must be positive")
        if self.scalar_order < 1:
            raise AlgebraError("scalar order must be a positive integer")
        if self.kind not in (KIND_LIE, KIND_ASSOCIATIVE):
            raise AlgebraError(f"unknown algebra kind {self.kind!r}")
        if len(self.basis_labels) != self.dim:
            raise AlgebraError("one label per basis element required")
        table: dict[tuple[int, int], TableEntry] = {}
        for i, j, entry in self.constants:
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise AlgebraError(f"structure constant index ({i},{j}) out of range")
            if (i, j) in table:
                raise AlgebraError(
                    f"basis pair ({self.basis_labels[i]}, {self.basis_labels[j]}) is listed twice"
                )
            merged: Sparse = {}
            for k, c in entry:
                if not 0 <= k < self.dim:
                    raise AlgebraError(f"structure constant target {k} out of range")
                if c.order != self.scalar_order:
                    raise AlgebraError("structure constants must use the declared scalar order")
                # zero constants are kept in `constants` but not in the lookup
                # table, so a product of nonzero entries has no zero term
                if not c.is_zero():
                    sparse_add(merged, {k: c})
            table[(i, j)] = tuple(merged.items())
        # the product lookup is derived from `constants`, so it is not a field
        self.__dict__["_table"] = table

    # -- products --------------------------------------------------------

    def basis_product(self, i: int, j: int) -> TableEntry:
        return self._table.get((i, j), ())

    def product_sparse(self, x: Sparse, y: Sparse) -> Sparse:
        """x * y for sparse x and y; the result holds no zero entry.

        Only a target that receives two or more terms can cancel: a single
        term is a product of nonzero scalars, which is nonzero in a field.
        """
        out: Sparse = {}
        summed: list[int] = []
        table = self._table
        for i, xi in x.items():
            for j, yj in y.items():
                entry = table.get((i, j))
                if not entry:
                    continue
                scale = xi * yj
                for k, c in entry:
                    prev = out.get(k)
                    if prev is None:
                        out[k] = scale * c
                    else:
                        out[k] = prev + scale * c
                        summed.append(k)
        for k in set(summed):
            if out[k].is_zero():
                del out[k]
        return out

    @cached_property
    def validation(self) -> "ValidationReport":
        """The certificate of this table's laws, computed once: the one its
        constructor stored (`chevalley.chevalley_algebra`), else
        `validate_algebra`'s."""
        return validate_algebra(self)

    # -- serialization -----------------------------------------------------

    def to_obj(self) -> dict:
        return {
            "dim": self.dim,
            "scalar_order": self.scalar_order,
            "kind": self.kind,
            "labels": list(self.basis_labels),
            "constants": [
                [i, j, [[k, c.to_obj()] for k, c in entry]]
                for i, j, entry in self.constants
            ],
        }

    @staticmethod
    def from_obj(obj: dict) -> "MultTableAlgebra":
        """Read `to_obj` output: a JSON object with the fields dim,
        scalar_order, kind, labels and constants.  The dimension, the scalar
        order and every index must be JSON integers, the labels a list of
        strings and every scalar a `CycloNum.from_obj` object; nothing is
        coerced."""
        if type(obj) is not dict:
            raise TypeError("a serialized algebra must be a JSON object")
        for field in ("dim", "scalar_order", "kind", "labels", "constants"):
            if field not in obj:
                raise ValueError(f"a serialized algebra lacks the field {field!r}")
        labels = obj["labels"]
        if type(labels) is not list or not all(type(label) is str for label in labels):
            raise TypeError("labels must be a list of strings")
        constants = tuple(
            (
                _json_int(i),
                _json_int(j),
                tuple((_json_int(k), CycloNum.from_obj(c)) for k, c in entry),
            )
            for i, j, entry in obj["constants"]
        )
        return MultTableAlgebra(
            dim=_json_int(obj["dim"]),
            scalar_order=_json_int(obj["scalar_order"]),
            kind=obj["kind"],
            constants=constants,
            basis_labels=tuple(labels),
        )


def make_table(entries: dict[tuple[int, int], Sparse]) -> tuple[tuple[int, int, TableEntry], ...]:
    """Normalize a dict-of-sparse-products into the canonical constants tuple."""
    out = []
    for (i, j) in sorted(entries):
        sparse = {k: v for k, v in entries[(i, j)].items() if not v.is_zero()}
        if sparse:
            out.append((i, j, tuple(sorted(sparse.items()))))
    return tuple(out)


# -- validation ------------------------------------------------------------


class Violation(Record):
    law: str
    indices: tuple[int, ...]
    labels: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.law} fails on ({', '.join(self.labels)})"


class ValidationReport(Record):
    kind: str
    dim: int
    triples_checked: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_obj(self) -> dict:
        return {
            "kind": self.kind,
            "dim": self.dim,
            "triples_checked": self.triples_checked,
            "ok": self.ok,
            "violations": [
                {"law": v.law, "indices": list(v.indices), "labels": list(v.labels)}
                for v in self.violations
            ],
        }


def _power_basis_table(alg: MultTableAlgebra) -> dict:
    """The nonzero products, each scalar as its nonzero power-basis terms.

    Entry (i, j) is a tuple of (target, ((power, coefficient), ...)).  Every
    scalar is scaled by the least common multiple of the table's
    denominators, so each coefficient is an int.  A law is a signed sum of
    products of two table scalars, so scaling multiplies it by the square of
    that multiple and leaves its vanishing unchanged.  Zero scalars and
    products that are entirely zero are dropped.
    """
    scale = lcm(*(c.den for entry in alg._table.values() for _, c in entry))
    out = {}
    for key, entry in alg._table.items():
        terms = []
        for k, c in entry:
            factor = scale // c.den
            poly = tuple((p, a * factor) for p, a in enumerate(c.num) if a)
            if poly:
                terms.append((k, poly))
        if terms:
            out[key] = tuple(terms)
    return out


def _combination_vanishes(table: dict, order: int, terms: Iterable[tuple]) -> bool:
    """Whether a signed sum of triple products of basis elements is zero.

    Each term (sign, a, b, c, left) is sign * (e_a e_b) e_c when `left`, else
    sign * e_c (e_a e_b); it is expanded by table lookups, as
    sum_l c^{ab}_l * table[(l, c)].  The products are accumulated as
    unreduced polynomials in zeta per basis target, and reduced modulo the
    cyclotomic polynomial only when a nonzero coefficient is left.
    """
    acc: dict[tuple[int, int], object] = {}
    for sign, a, b, c, left in terms:
        outer = table.get((a, b))
        if outer is None:
            continue
        for l, xs in outer:
            inner = table.get((l, c) if left else (c, l))
            if inner is None:
                continue
            for m, ys in inner:
                for p, x in xs:
                    for r, y in ys:
                        key = (m, p + r)
                        acc[key] = acc.get(key, 0) + sign * x * y
    if not any(acc.values()):
        return True
    polys: dict[int, dict[int, object]] = {}
    for (m, power), value in acc.items():
        polys.setdefault(m, {})[power] = value
    return all(
        CycloNum.from_poly(order, [poly.get(e, 0) for e in range(max(poly) + 1)]).is_zero()
        for poly in polys.values()
    )


def _left_paths(table: dict, n: int) -> Iterator[tuple[int, int, int]]:
    """The ordered triples (a, b, c) where (e_a e_b) e_c has a term: some
    target l of e_a e_b has (l, c) as a key of `table`.  On every other
    triple the left-nested product is zero term by term."""
    right: list[list[int]] = [[] for _ in range(n)]
    for l, c in table:
        right[l].append(c)
    for (a, b), entry in table.items():
        for c in {c for l, _ in entry for c in right[l]}:
            yield a, b, c


def validate_algebra(alg: MultTableAlgebra) -> ValidationReport:
    """Certify the axioms of the declared kind on every ordered basis triple.

    A law is a signed sum of triple products, each zero term by term unless
    it has a path (`_left_paths`), so on any table a law is evaluated only on
    the triples where one of its terms has a path.  Lie tables are first
    checked for alternation (e_i e_i = 0) and antisymmetry on every basis
    pair, read off the nonzero products: a pair with none satisfies both.
    When both hold, the Jacobiator J is an alternating trilinear form
    on all of A, so it is evaluated once per set {a, b, c} of distinct
    indices with a path, the paths from keys a < b finding each set since
    (a, b) and (b, a) have one support; a failing set stands for all six of
    its orderings.  Otherwise a path (a, b, c) is a term of J(a, b, c),
    J(b, c, a) and J(c, a, b), and those are evaluated.  Associative tables
    evaluate the associator on the paths and on the reversed paths (c, b, a)
    of the opposite table, where e_a (e_b e_c) has a term.

    `triples_checked` is n^3 either way: the number of ordered triples the
    certificate covers.  The report lists each violated law with the
    offending basis indices, alternation and antisymmetry first, then the
    triples in lexicographic order, so a corrupted table names the exact
    triple that broke.  A type label's table is certified by its
    construction (`chevalley.chevalley_algebra`), so this sweep serves
    `--algebra` tables and the tests' oracles.
    """
    n = alg.dim
    labels = alg.basis_labels
    violations: list[Violation] = []
    table = _power_basis_table(alg)
    order = alg.scalar_order

    if alg.kind == KIND_LIE:
        law = "jacobi"
        # `table` holds exactly the nonzero products
        for i in sorted(i for i, j in table if i == j):
            violations.append(Violation("alternating", (i,), (labels[i],)))
        for i, j in sorted({(min(key), max(key)) for key in table if key[0] != key[1]}):
            anti = dict(alg.basis_product(i, j))
            sparse_add(anti, dict(alg.basis_product(j, i)))
            if anti:
                violations.append(Violation("antisymmetry", (i, j), (labels[i], labels[j])))

        def holds(i: int, j: int, k: int) -> bool:
            return _combination_vanishes(
                table, order, ((1, i, j, k, True), (1, j, k, i, True), (1, k, i, j, True))
            )

        if violations:  # J need not be alternating: evaluate every rotation of a path
            live = {
                t for a, b, c in _left_paths(table, n) for t in ((a, b, c), (b, c, a), (c, a, b))
            }
            failing = [t for t in sorted(live) if not holds(*t)]
        else:
            live = {
                (c, a, b) if c < a else (a, c, b) if c < b else (a, b, c)
                for a, b, c in _left_paths(table, n)
                if a < b and c != a and c != b
            }
            failing = sorted({p for t in live if not holds(*t) for p in permutations(t)})
    else:
        law = "associativity"

        def holds(i: int, j: int, k: int) -> bool:
            return _combination_vanishes(table, order, ((1, i, j, k, True), (-1, j, k, i, False)))

        opposite = {(b, a): entry for (a, b), entry in table.items()}
        live = set(_left_paths(table, n))
        live.update((c, b, a) for a, b, c in _left_paths(opposite, n))
        failing = [t for t in sorted(live) if not holds(*t)]
    violations.extend(Violation(law, t, tuple(labels[x] for x in t)) for t in failing)
    return ValidationReport(alg.kind, n, n**3, tuple(violations))


# -- permutations ------------------------------------------------------------


def _cycles(images: Sequence[int]) -> list[list[int]]:
    """Cycles of a permutation, each from its smallest index, by that index.

    Diagram symmetries (`chevalley.DiagramPermutation.orbits`) and monomial
    automorphisms (`grading`) both read their cycles here."""
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if seen[start]:
            continue
        cycle, k = [], start
        while not seen[k]:
            seen[k] = True
            cycle.append(k)
            k = images[k]
        out.append(cycle)
    return out


# -- change of scalar order --------------------------------------------------


def embed_algebra(alg: MultTableAlgebra, n: int) -> MultTableAlgebra:
    if n == alg.scalar_order:
        return alg
    constants = tuple(
        (i, j, tuple((k, c.embed(n)) for k, c in entry)) for i, j, entry in alg.constants
    )
    out = MultTableAlgebra(
        dim=alg.dim,
        scalar_order=n,
        kind=alg.kind,
        constants=constants,
        basis_labels=alg.basis_labels,
    )
    if "validation" in alg.__dict__:
        # the embedding of scalar fields is an injective ring map, so a law
        # holds on a basis triple after it exactly when it held before
        out.__dict__["validation"] = alg.validation
    return out
