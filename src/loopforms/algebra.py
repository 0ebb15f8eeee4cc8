"""Finite-dimensional algebras by structure constants, and their validation.

An algebra is a multiplication table over some Q(zeta_M): sparse structure
constants on a fixed basis, tagged `lie` or `associative`.  Its elements are
sparse vectors {index: scalar} with no zero entry, multiplied by
`MultTableAlgebra.product_sparse`; dense tuples appear only in serialized
reports.  `validate_algebra` certifies the laws of the declared kind on every
ordered basis triple, and the table keeps that certificate
(`MultTableAlgebra.validation`), so it is computed once per table.

This module is the table layer only.  Automorphisms and gradings are in
`grading`, the graded centroid in `centroid`, and loop elements in `descent`,
so a request that only builds or validates a table compiles none of them.

All verification here is exact and total over the stated ranges; nothing is
sampled.
"""

from __future__ import annotations

from functools import cached_property
from itertools import permutations, product
from math import lcm
from typing import Iterable, Iterator, Sequence

from .cyclo import CycloNum, _json_int
from .linalg import Sparse, sparse_add
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
        """The `validate_algebra` certificate of this table, computed once."""
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
                raise ValueError(f"missing field {field!r}")
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


def _increasing_triples(table: dict, n: int) -> Iterator[tuple[int, int, int]]:
    """The triples i < j < k, less those where e_i e_j, e_j e_k and e_k e_i
    are all zero; the Jacobiator vanishes on those.  The table must be
    antisymmetric, so that (i, j) is a key exactly when (j, i) is."""
    near: list[set[int]] = [set() for _ in range(n)]
    for i, j in table:
        near[i].add(j)
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in table:
                ks: Iterable[int] = range(j + 1, n)
            else:
                ks = sorted(k for k in near[i] | near[j] if k > j)
            for k in ks:
                yield i, j, k


def _live_triples(table: dict, n: int) -> Iterator[tuple[int, int, int]]:
    """The ordered triples (i, j, k) in lexicographic order, less those where
    e_i e_j and e_j e_k are both zero; the associator vanishes on those."""
    right: list[list[int]] = [[] for _ in range(n)]
    for j, k in sorted(table):
        right[j].append(k)
    every = range(n)
    for i in range(n):
        for j in range(n):
            for k in every if (i, j) in table else right[j]:
                yield i, j, k


def validate_algebra(alg: MultTableAlgebra) -> ValidationReport:
    """Certify the axioms of the declared kind on every ordered basis triple.

    Lie tables are first checked for alternation (e_i e_i = 0) and
    antisymmetry on every basis pair.  When both hold, the bracket is
    alternating on all of A, so the Jacobiator J(x, y, z) is an alternating
    trilinear form: swapping two arguments flips its sign and a repeated
    argument gives 0.  J then vanishes on all n^3 ordered triples exactly
    when it vanishes on the C(n, 3) increasing ones, and only those are
    evaluated, skipping the ones where e_i e_j, e_j e_k and e_k e_i are all
    zero (J is then 0).  A failing triple stands for all six of its
    orderings.  When alternation or antisymmetry fails, J is evaluated on
    every ordered triple.  Associative tables evaluate the associator on every
    ordered triple, skipping those where e_i e_j and e_j e_k are both zero.

    `triples_checked` is n^3 either way: the number of ordered triples the
    certificate covers.  The report lists each violated law with the
    offending basis indices, alternation and antisymmetry first, then the
    triples in lexicographic order, so a corrupted table names the exact
    triple that broke.
    """
    n = alg.dim
    labels = alg.basis_labels
    violations: list[Violation] = []
    table = _power_basis_table(alg)
    order = alg.scalar_order

    if alg.kind == KIND_LIE:
        law = "jacobi"
        for i in range(n):
            if alg.basis_product(i, i):
                violations.append(Violation("alternating", (i,), (labels[i],)))
        for i in range(n):
            for j in range(i + 1, n):
                anti = dict(alg.basis_product(i, j))
                sparse_add(anti, dict(alg.basis_product(j, i)))
                if anti:
                    violations.append(Violation("antisymmetry", (i, j), (labels[i], labels[j])))

        def holds(i: int, j: int, k: int) -> bool:
            return _combination_vanishes(
                table, order, ((1, i, j, k, True), (1, j, k, i, True), (1, k, i, j, True))
            )

        if violations:  # J need not be alternating: evaluate every ordered triple
            failing = [t for t in product(range(n), repeat=3) if not holds(*t)]
        else:
            failing = sorted(
                {p for t in _increasing_triples(table, n) if not holds(*t) for p in permutations(t)}
            )
    else:
        law = "associativity"

        def holds(i: int, j: int, k: int) -> bool:
            return _combination_vanishes(table, order, ((1, i, j, k, True), (-1, j, k, i, False)))

        failing = [t for t in _live_triples(table, n) if not holds(*t)]
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
