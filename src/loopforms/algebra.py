"""Finite-dimensional algebras by structure constants, and their validation.

An algebra is a multiplication table over some Q(zeta_M): sparse structure
constants on a fixed basis, tagged `lie` or `associative`.  Its elements are
sparse vectors {index: scalar} with no zero entry (`cyclo.Sparse`), as is
each stored product of two basis elements (`MultTableAlgebra.products`),
and `MultTableAlgebra.product_sparse` multiplies them; dense tuples appear
only in serialized reports.  `validate_algebra` certifies the laws of the
declared kind on every ordered basis triple, evaluating them only where a
term has a path through the table's nonzero products (`_left_paths`), and
the table keeps that certificate (`MultTableAlgebra.validation`), so it is
computed once per table.  A table the library builds carries its
builder's proof instead (`certified_table`).

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
from typing import Iterable, Iterator, Optional, Sequence

from .cyclo import CycloNum, Sparse, sparse_add
from .record import MAX_DIM, Record, RequestError, is_int

__all__ = [
    "AlgebraError",
    "MultTableAlgebra",
    "ValidationReport",
    "Violation",
    "certified_table",
    "validate_algebra",
]

KIND_LIE = "lie"
KIND_ASSOCIATIVE = "associative"


class AlgebraError(ValueError):
    """A table fails the laws of its declared kind."""


class MultTableAlgebra(Record):
    """Algebra given by structure constants on basis e_0, ..., e_{dim-1}.

    `products` maps each basis pair (i, j) with nonzero product to e_i * e_j,
    a sparse vector {index: scalar}; an omitted pair multiplies to zero.  The
    constructor stores its own copy, without a zero scalar or a product left
    empty by one.  A table of the wrong shape (dimension, scalar order, kind,
    labels, an index or target out of range, a scalar of another order) is a
    malformed input and raises `record.RequestError`.  The field is a dict,
    so a table is unhashable.  `weights` grade the basis, one integer vector
    per element: root coordinates on a type's table, eps_i - eps_k on E_ik
    of M_n, none on a table read from a file.  The constructor refuses
    weights of the wrong shape, a count other than dim or vectors of
    different lengths, with `record.RequestError`; `grading.twist`
    certifies the exponents `pairing` reads off them.
    """

    dim: int
    scalar_order: int
    kind: str
    products: dict[tuple[int, int], Sparse]
    basis_labels: tuple[str, ...]
    weights: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise RequestError("dimension must be positive")
        if self.scalar_order < 1:
            raise RequestError("scalar order must be a positive integer")
        if self.kind not in (KIND_LIE, KIND_ASSOCIATIVE):
            raise RequestError(f"unknown algebra kind {self.kind!r}")
        if len(self.basis_labels) != self.dim:
            raise RequestError("one label per basis element required")
        dim, order = self.dim, self.scalar_order
        if self.weights is not None:
            if len(self.weights) != dim:
                raise RequestError(
                    f"one weight per basis element required, {dim} in all, got {len(self.weights)}"
                )
            if len({len(weight) for weight in self.weights}) > 1:
                raise RequestError("the weights must all have the same length")
        products: dict[tuple[int, int], Sparse] = {}
        for (i, j), entry in self.products.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise RequestError(f"structure constant index ({i},{j}) out of range")
            nonzero = {}
            for k, c in entry.items():
                if not 0 <= k < dim:
                    raise RequestError(f"structure constant target {k} out of range")
                if c.order != order:
                    raise RequestError("structure constants must use the declared scalar order")
                if not c.is_zero():
                    nonzero[k] = c
            if nonzero:
                products[(i, j)] = nonzero
        self.__dict__["products"] = products

    # -- products --------------------------------------------------------

    def basis_product(self, i: int, j: int) -> Sparse:
        """e_i * e_j: the stored product, for reading only, or {}."""
        return self.products.get((i, j), {})

    def product_sparse(self, x: Sparse, y: Sparse) -> Sparse:
        """x * y for sparse x and y; the result holds no zero entry.

        Only a target that receives two or more terms can cancel: a single
        term is a product of nonzero scalars, which is nonzero in a field.
        """
        out: Sparse = {}
        summed: list[int] = []
        products = self.products
        for i, xi in x.items():
            for j, yj in y.items():
                entry = products.get((i, j))
                if entry is None:
                    continue
                scale = xi * yj
                for k, c in entry.items():
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

    def pairing(self, h: Sequence[int]) -> tuple[int, ...]:
        """<weights[k], h> for every k: the exponents, as `grading.twist`
        takes them, of the diagonal twist that the coweight h names.  A
        table without weights, or an h of another length than its weights,
        is refused with `record.RequestError`."""
        if self.weights is None:
            raise RequestError(f"the table carries no weights to pair with h = {list(h)}")
        if len(h) != len(self.weights[0]):
            raise RequestError(
                f"the coweight h = {list(h)} has length {len(h)},"
                f" but the weights have length {len(self.weights[0])}"
            )
        return tuple(sum(w * c for w, c in zip(weight, h)) for weight in self.weights)

    @cached_property
    def validation(self) -> "ValidationReport":
        """The certificate of this table's laws, computed once: the one its
        builder proved, which `certified_table` stores, else
        `validate_algebra`'s."""
        return validate_algebra(self)

    # -- serialization -----------------------------------------------------

    def to_obj(self) -> dict:
        """The JSON object `from_obj` reads, pairs and targets in order."""
        return {
            "dim": self.dim,
            "scalar_order": self.scalar_order,
            "kind": self.kind,
            "labels": list(self.basis_labels),
            "constants": [
                [i, j, [[k, c.to_obj()] for k, c in sorted(entry.items())]]
                for (i, j), entry in sorted(self.products.items())
            ],
        }

    @staticmethod
    def from_obj(obj: dict) -> "MultTableAlgebra":
        """Read `to_obj` output: a JSON object with the fields dim,
        scalar_order, kind, labels and constants.  The dimension, the scalar
        order and every index must be JSON integers, the labels a list of
        strings, each entry of constants a list [i, j, [[k, scalar], ...]]
        and every scalar a `CycloNum.from_obj` object; nothing is coerced,
        and any other shape raises RequestError, as the constructor's own
        refusals do.  A dimension above `record.MAX_DIM` is refused as soon
        as it is read, before any label or constant.  A target repeated in
        an entry has its scalars summed, and a basis pair listed twice is
        refused rather than read one way."""
        if type(obj) is not dict:
            raise RequestError("a serialized algebra must be a JSON object")
        for field in ("dim", "scalar_order", "kind", "labels", "constants"):
            if field not in obj:
                raise RequestError(f"a serialized algebra lacks the field {field!r}")
        dim, order = obj["dim"], obj["scalar_order"]
        if not is_int(dim):
            raise RequestError(f"the dimension must be an integer, not {dim!r}")
        if dim > MAX_DIM:
            raise RequestError(f"a table of dimension {dim} exceeds the size limit {MAX_DIM}")
        if not is_int(order):
            raise RequestError(f"the scalar order must be an integer, not {order!r}")
        labels = obj["labels"]
        if type(labels) is not list or not all(type(label) is str for label in labels):
            raise RequestError("labels must be a list of strings")
        entries = obj["constants"]
        if type(entries) is not list or not all(
            type(item) is list
            and len(item) == 3
            and is_int(item[0])
            and is_int(item[1])
            and type(item[2]) is list
            and all(type(term) is list and len(term) == 2 and is_int(term[0]) for term in item[2])
            for item in entries
        ):
            raise RequestError("constants must be a list of entries [i, j, [[k, scalar], ...]]")
        products: dict[tuple[int, int], Sparse] = {}
        twice = []
        for i, j, terms in entries:
            key = (i, j)
            if key in products:
                twice.append(key)
            entry = products.setdefault(key, {})
            for k, c in terms:
                c = CycloNum.from_obj(c)
                prev = entry.get(k)
                if prev is not None and prev.order == c.order:
                    c = prev + c
                elif prev is not None and prev.order != order:
                    continue  # keep the scalar of another order for the constructor to refuse
                entry[k] = c
        alg = MultTableAlgebra(
            dim=dim,
            scalar_order=order,
            kind=obj["kind"],
            products=products,
            basis_labels=tuple(labels),
        )
        if twice:
            i, j = twice[0]
            raise RequestError(
                f"basis pair ({alg.basis_labels[i]}, {alg.basis_labels[j]}) is listed twice"
            )
        return alg


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
    violations: tuple[Violation, ...]

    @property
    def triples_checked(self) -> int:
        """The ordered triples the certificate covers: all dim^3 of them."""
        return self.dim**3

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


def certified_table(
    kind: str,
    labels: Sequence[str],
    weights: tuple[tuple[int, ...], ...],
    products: dict[tuple[int, int], dict[int, int]],
    order: int,
) -> MultTableAlgebra:
    """The integer structure constants `products` written over
    Q(zeta_order), each handed to the constructor as it is, and the report
    of no violation that the caller proved by construction:
    `chevalley.algebra_over` for a type's fold, `descent.matrix_twist_factors` for M_n."""
    # a handful of integers recur, so each is made a scalar once
    values = {c for entry in products.values() for c in entry.values()}
    scalar = {c: CycloNum.rational(order, c) for c in values}
    alg = MultTableAlgebra(
        dim=len(labels),
        scalar_order=order,
        kind=kind,
        products={key: {k: scalar[c] for k, c in entry.items()} for key, entry in products.items()},
        basis_labels=tuple(labels),
        weights=weights,
    )
    alg.__dict__["validation"] = ValidationReport(kind, alg.dim, ())
    return alg


def _power_basis_table(alg: MultTableAlgebra) -> dict:
    """The nonzero products, each scalar as its nonzero power-basis terms.

    Entry (i, j) is a tuple of (target, ((power, coefficient), ...)).  Every
    scalar is scaled by the least common multiple of the table's
    denominators, so each coefficient is an int.  A law is a signed sum of
    products of two table scalars, so scaling multiplies it by the square of
    that multiple and leaves its vanishing unchanged.  The table stores no
    zero scalar, so every scalar keeps a term and every product an entry.
    """
    scale = lcm(*(c.den for entry in alg.products.values() for c in entry.values()))
    return {
        key: tuple(
            (k, tuple((p, a * (scale // c.den)) for p, a in enumerate(c.num) if a))
            for k, c in entry.items()
        )
        for key, entry in alg.products.items()
    }


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
    triple that broke.  A table the library builds is certified by its
    construction (`certified_table`), so this sweep serves `--algebra`
    tables and the tests' oracles.
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
            sparse_add(anti, alg.basis_product(j, i))
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
    return ValidationReport(alg.kind, n, tuple(violations))


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

