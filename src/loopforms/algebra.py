"""Finite-dimensional algebras by structure constants, and their gradings.

An algebra is a multiplication table over some Q(zeta_M): sparse structure
constants on a fixed basis, tagged `lie` or `associative`.  Its elements are
sparse vectors {index: scalar} with no zero entry, multiplied by
`MultTableAlgebra.product_sparse`; dense tuples appear only in serialized
reports.  Automorphisms are monomial, e_j -> c_j e_p(j), which every twist
built in this package is; they are checked in one pass over the basis pairs
(a diagonal one by the additivity of its exponents), with the period read off
the cycles of p.  Every twist, of a Lie algebra or of M_n, is one composition
`twist(alg, outer, p, m)` = outer o diag(zeta_m^p) of a certified outer map
(a diagram symmetry, or the identity) with a diagonal one, certified there
and nowhere else.  A certified finite-order automorphism with period m
dividing that scalar order splits the algebra into eigenspace components A_i
for the eigenvalues zeta_m^i, written down in closed form cycle by cycle;
that decomposition is a Z/m grading, by the automorphism's certificate, and
is the combinatorial heart of everything downstream: loop elements ({degree:
sparse vector}) live on it, and the centroid computation detects when two
loop algebras cannot be isomorphic over the Laurent base ring.  Like the
grading, the centroid is indexed by residue: `centroid_graded` certifies
one generating set and solves every shift residue with it in one call.

Each closed-form component vector is an orbit sum over one cycle: it is 1 at
its smallest index and the vectors of a component have disjoint supports.
So coordinates in a component need no elimination: `ComponentSolver` reads
them at those pivot indices and confirms them by rebuilding the vector
exactly.

All verification here is exact and total over the stated ranges; nothing is
sampled.
"""

from __future__ import annotations

from functools import cached_property
from itertools import permutations, product
from math import lcm
from typing import Iterable, Iterator, Optional, Sequence

from .cyclo import CycloNum, _json_int, zeta_power
from .linalg import Echelon, Sparse, eliminate, rank, sparse_add
from .record import Record

__all__ = [
    "AlgebraError",
    "AutomorphismError",
    "CentroidReport",
    "ComponentSolver",
    "FiniteOrderAutomorphism",
    "GradedDecomposition",
    "GradingError",
    "LoopElement",
    "MultTableAlgebra",
    "ValidationReport",
    "Violation",
    "centroid_graded",
    "check_automorphism",
    "check_diagonal_automorphism",
    "check_loop_element",
    "embed_algebra",
    "eigengrading",
    "loop_bracket",
    "loop_element",
    "ts_product",
    "twist",
    "validate_algebra",
]

KIND_LIE = "lie"
KIND_ASSOCIATIVE = "associative"


class AlgebraError(ValueError):
    pass


class AutomorphismError(ValueError):
    pass


class GradingError(ValueError):
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
        """Read `to_obj` output.  The dimension, the scalar order and every
        index must be JSON integers and the labels a list of strings; nothing
        is coerced."""
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


# -- automorphisms -----------------------------------------------------------


class FiniteOrderAutomorphism(Record):
    """Monomial automorphism e_j -> scalars[j] * e_{images[j]} of finite period.

    Every twist built here is monomial in its basis: diagram symmetries are
    signed permutations of the Chevalley basis, toral twists and Ad(diag) on
    M_n are diagonal, and commuting compositions of these stay monomial.
    `images` is a permutation of the basis indices and no scalar is zero.
    The period m need not be the exact order: sigma^m = 1 is all that is
    required, which is what lets automorphisms of different orders share a
    period.

    Building one from its fields certifies nothing.  The `check_*`
    functions below return it with the table they certified it on, and
    `eigengrading` accepts it only on that table.
    """

    images: tuple[int, ...]
    scalars: tuple[CycloNum, ...]
    period: int

    @property
    def dim(self) -> int:
        return len(self.images)

    @property
    def scalar_order(self) -> int:
        return self.scalars[0].order

    def apply(self, v: Sparse) -> Sparse:
        return {self.images[j]: self.scalars[j] * x for j, x in v.items()}

    def compose(self, other: "FiniteOrderAutomorphism") -> "FiniteOrderAutomorphism":
        """self o other (other acts first), with period lcm of the two periods;
        that period holds when the factors commute, which callers check.  The
        result carries no certificate (`twist` gives one)."""
        return FiniteOrderAutomorphism(
            images=tuple(self.images[k] for k in other.images),
            scalars=tuple(c * self.scalars[k] for k, c in zip(other.images, other.scalars)),
            period=lcm(self.period, other.period),
        )

    def with_period(self, period: int) -> "FiniteOrderAutomorphism":
        """The same map with a multiple of its period, keeping its certificate:
        sigma^m = 1 gives sigma^(mt) = 1, and the map itself is unchanged."""
        if period < 1 or period % self.period != 0:
            raise AutomorphismError(f"period {period} is not a multiple of {self.period}")
        out = FiniteOrderAutomorphism(self.images, self.scalars, period)
        if "_certified_table" in self.__dict__:
            out.__dict__["_certified_table"] = self._certified_table
        return out

    def certified_on(self, alg: MultTableAlgebra) -> bool:
        """Whether a `check_*` function certified this map on the table alg."""
        return self.__dict__.get("_certified_table") is alg

    @cached_property
    def matrix(self) -> tuple[tuple[CycloNum, ...], ...]:
        """Dense read-only view: column j is the coordinate vector of sigma(e_j).

        No code in the package reads it; it is kept for the benchmark's
        nullspace microbenchmark and the tests' dense oracles."""
        zero = CycloNum.zero(self.scalar_order)
        rows = [[zero] * self.dim for _ in range(self.dim)]
        for j, (k, c) in enumerate(zip(self.images, self.scalars)):
            rows[k][j] = c
        return tuple(tuple(row) for row in rows)


def _certified(
    alg: MultTableAlgebra, images: tuple[int, ...], scalars: tuple[CycloNum, ...], period: int
) -> FiniteOrderAutomorphism:
    """The automorphism, marked as certified on alg; only the checks call it."""
    out = FiniteOrderAutomorphism(images=images, scalars=scalars, period=period)
    out.__dict__["_certified_table"] = alg
    return out


def _cycles(images: Sequence[int]) -> list[list[int]]:
    """Cycles of a permutation, each from its smallest index, by that index."""
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


def _check_period(
    alg: MultTableAlgebra, images: Sequence[int], scalars: Sequence[CycloNum], period: int
) -> None:
    """sigma^period = 1, cycle by cycle: a cycle of length k with scalar
    product P returns each of its vectors scaled by P after k steps."""
    if period < 1:
        raise AutomorphismError("period must be positive")
    one = CycloNum.one(alg.scalar_order)
    for cycle in _cycles(images):
        product = one
        for k in cycle:
            product = product * scalars[k]
        if period % len(cycle) != 0 or product ** (period // len(cycle)) != one:
            raise AutomorphismError(
                f"sigma^{period} is not the identity on the cycle of "
                f"{alg.basis_labels[cycle[0]]}"
            )


def check_automorphism(
    alg: MultTableAlgebra, images: Sequence[int], scalars: Sequence[CycloNum], period: int
) -> FiniteOrderAutomorphism:
    """Verify invertibility, multiplicativity on all basis pairs, and period
    of the monomial map e_j -> scalars[j] * e_{images[j]}."""
    n = alg.dim
    images, scalars = tuple(images), tuple(scalars)
    if len(images) != n or len(scalars) != n:
        raise AutomorphismError(f"need {n} images and {n} scalars")
    if any(c.order != alg.scalar_order for c in scalars):
        raise AutomorphismError("scalars must use the algebra scalar order")
    if period < 1:
        raise AutomorphismError("period must be positive")
    if sorted(images) != list(range(n)):
        raise AutomorphismError("images are not a permutation of the basis")
    if any(c.is_zero() for c in scalars):
        raise AutomorphismError("a basis element maps to zero; the map is not invertible")
    for i in range(n):
        for j in range(n):
            entry, image_entry = alg.basis_product(i, j), alg.basis_product(images[i], images[j])
            if not entry and not image_entry:
                continue
            # sigma(e_i e_j) against sigma(e_i) sigma(e_j) = s_i s_j e_p(i) e_p(j);
            # entries have distinct targets and no zero term, and images is a
            # permutation, so both sides are sparse vectors as built
            scale = scalars[i] * scalars[j]
            lhs = {images[k]: c * scalars[k] for k, c in entry}
            rhs = {k: scale * c for k, c in image_entry}
            if lhs != rhs:
                raise AutomorphismError(
                    f"multiplicativity fails on basis pair "
                    f"({alg.basis_labels[i]}, {alg.basis_labels[j]})"
                )
    _check_period(alg, images, scalars, period)
    return _certified(alg, images, scalars, period)


def check_diagonal_automorphism(
    alg: MultTableAlgebra, exponents: Sequence[int], m: int
) -> FiniteOrderAutomorphism:
    """Verify the diagonal map e_j -> zeta_m^(p_j) e_j by integer additivity.

    sigma(e_i e_j) = sum_k c_ij^k zeta^(p_k) e_k and sigma(e_i) sigma(e_j) =
    zeta^(p_i + p_j) sum_k c_ij^k e_k agree exactly when p_k = p_i + p_j
    mod m for every nonzero c_ij^k, because zeta_m is a primitive m-th root
    of unity.  So one pass of integer comparisons over the table's nonzero
    products certifies multiplicativity, with no scalar multiplied.  The map
    is invertible and sigma^m = 1 holds term by term.
    """
    n = alg.dim
    exponents = tuple(exponents)
    if len(exponents) != n:
        raise AutomorphismError(f"need {n} exponents")
    if m < 1:
        raise AutomorphismError("period must be positive")
    order = alg.scalar_order
    if order % m != 0:
        raise AutomorphismError(f"scalar order {order} lacks the {m}-th roots of unity")
    residues = [p % m for p in exponents]
    labels = alg.basis_labels
    for (i, j), entry in alg._table.items():
        target = (residues[i] + residues[j]) % m
        for k, _ in entry:
            if residues[k] != target:
                raise AutomorphismError(
                    f"multiplicativity fails on basis pair ({labels[i]}, {labels[j]}): "
                    f"exponent {exponents[k]} of {labels[k]} is not "
                    f"{exponents[i]} + {exponents[j]} mod {m}"
                )
    step = order // m
    scalars = tuple(zeta_power(order, step * p) for p in exponents)
    return _certified(alg, tuple(range(n)), scalars, m)


def twist(
    alg: MultTableAlgebra, outer: FiniteOrderAutomorphism, exponents: Sequence[int], m: int
) -> FiniteOrderAutomorphism:
    """outer o diag(zeta_m^p), the one composition of an outer map with a
    diagonal one, from an `outer` certified on alg.

    Every twist here has this form: pi o tau_s on a Lie algebra is the
    diagram symmetry pi (the identity for a purely toral twist) after
    diag(zeta_m^<s, .>), and Ad(diag(zeta^a)) on M_n is the identity after
    diag(zeta_m^(a_i - a_k)).  The identity outer map is
    `check_diagonal_automorphism(alg, (0,) * alg.dim, 1)`.  The diagonal
    factor is certified by `check_diagonal_automorphism`; a composition of
    automorphisms is one, so multiplicativity is not checked again.  When
    every p_j is 0 mod m the diagonal factor is the identity and the twist
    is outer itself, with its period lifted to lcm(|outer|, m)
    (`with_period`).  Otherwise the factors are composed both ways, since
    the period lcm(|outer|, m) rests on their commuting, and the period is
    checked cycle by cycle, as `check_automorphism` checks it.
    """
    if not outer.certified_on(alg):
        raise AutomorphismError("the outer factor of the twist is not certified on this table")
    diagonal = check_diagonal_automorphism(alg, exponents, m)
    period = lcm(outer.period, m)
    if all(p % m == 0 for p in exponents):
        return outer.with_period(period)
    composed = outer.compose(diagonal)
    if composed != diagonal.compose(outer):
        raise AutomorphismError("factors fail to commute despite an invariant charge")
    _check_period(alg, composed.images, composed.scalars, period)
    return _certified(alg, composed.images, composed.scalars, period)


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


# -- eigenspace grading -------------------------------------------------------


class ComponentSolver:
    """Coordinates in the span of closed-form component vectors, read and
    confirmed.

    Each vector must be 1 at its smallest index, its pivot, and the vectors
    must have pairwise disjoint supports; otherwise construction raises
    GradingError.  The coordinate of v on vector k is then v's entry at the
    pivot of k, and nothing else can be: every other vector vanishes there.
    `coords` reads those entries, rebuilds sum_k c_k b_k and returns the
    coordinates only when the rebuilt vector is v exactly, so it answers
    None exactly when v is outside the span, as an elimination would.

    Two kinds of span have this shape: the grading components
    (`GradedDecomposition.component_solver`), and the fixed Cartan h0, whose
    basis vectors are orbit sums of the h_i (`affine.extract_gcm` reads the
    coroot coordinates of [e, f] on it).
    """

    def __init__(self, vectors: Sequence[Sparse]):
        self.vectors = tuple(vectors)
        self._owner: dict[int, int] = {}
        pivots = []
        for k, vec in enumerate(self.vectors):
            if not vec:
                raise GradingError(f"component vector {k} is zero")
            pivot = min(vec)
            pivots.append(pivot)
            lead = vec[pivot]
            if lead != CycloNum.one(lead.order):
                raise GradingError(f"component vector {k} is {lead} at its pivot {pivot}, not 1")
            for idx, x in vec.items():
                if idx in self._owner:
                    raise GradingError(
                        f"component vectors {self._owner[idx]} and {k} share index {idx}"
                    )
                if x.is_zero():
                    raise GradingError(f"component vector {k} stores a zero at index {idx}")
                self._owner[idx] = k
        self.pivots = tuple(pivots)

    def coords(self, v: Sparse) -> Optional[Sparse]:
        """Coefficients {vector index: scalar} expressing v, or None."""
        out: Sparse = {}
        for k, pivot in enumerate(self.pivots):
            c = v.get(pivot)
            if c is not None and not c.is_zero():
                out[k] = c
        # confirm: v equals sum_k out[k] * vectors[k] entry by entry; each
        # entry of v lies in one vector's support, and the counts match
        size = 0
        for idx, x in v.items():
            k = self._owner.get(idx)
            c = None if k is None else out.get(k)
            if c is None:
                if x.is_zero():
                    continue
                return None
            if c * self.vectors[k][idx] != x:
                return None
            size += 1
        if size != sum(len(self.vectors[k]) for k in out):
            return None
        return out

    def contains(self, v: Sparse) -> bool:
        return self.coords(v) is not None


class GradedDecomposition(Record):
    """Z/period grading by eigenspaces; component i belongs to zeta^i.

    Component vectors are sparse, 1 at their smallest index, with disjoint
    supports within a component, which `component_solver` relies on.
    """

    period: int
    scalar_order: int
    dim: int
    component_bases: tuple[tuple[Sparse, ...], ...]

    def __post_init__(self) -> None:
        # component solvers by residue: a cache of work derived from the
        # fields, not a field itself
        self.__dict__["_solvers"] = {}

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.component_bases)

    def component_solver(self, i: int) -> ComponentSolver:
        i %= self.period
        solver = self._solvers.get(i)
        if solver is None:
            solver = ComponentSolver(self.component_bases[i])
            self._solvers[i] = solver
        return solver

    def residue_zeta(self, i: int) -> CycloNum:
        step = self.scalar_order // self.period
        return zeta_power(self.scalar_order, step * (i % self.period))


def eigengrading(alg: MultTableAlgebra, sigma: FiniteOrderAutomorphism) -> GradedDecomposition:
    """Split the algebra into the eigenspaces of sigma, in closed form.

    Requires the scalar order to contain the needed roots of unity, i.e.
    sigma.period | alg.scalar_order, and sigma certified on this table by
    `check_automorphism`, `check_diagonal_automorphism` or `twist`, or
    lifted from one of those by `with_period`; any other sigma raises
    GradingError.  A cycle
    e_0 -> ... -> e_{k-1} -> e_0 of sigma with scalar product P carries one
    eigenvector for each root lambda = zeta^i of x^k = P, namely the sum over
    t < k of lambda^-t sigma^t(e_0), taken from the cycle's smallest index,
    where it is 1.  Supports are disjoint, so each component, ordered by that
    index, is its reduced row-echelon basis.  Verifies that the components
    exhaust the algebra, that they are independent (the vectors of one cycle
    span a block of coordinates no other cycle touches, so this is one small
    rank per cycle), and that every vector is scaled by its eigenvalue.

    The product rule A_i A_j in A_{i+j} is then a theorem, not a check: the
    n independent eigenvectors make A_i the whole zeta^i-eigenspace, and for
    x in A_i, y in A_j, sigma(xy) = sigma(x) sigma(y) = zeta^(i+j) xy.
    """
    m = sigma.period
    if alg.scalar_order % m != 0:
        raise GradingError(
            f"scalar order {alg.scalar_order} lacks the {m}-th roots of unity; embed first"
        )
    if sigma.scalar_order != alg.scalar_order:
        raise GradingError("automorphism and algebra must share a scalar order")
    if not sigma.certified_on(alg):
        raise GradingError("the automorphism is not certified on this table; check it first")
    n = alg.dim
    order = alg.scalar_order
    step = order // m
    cycles = _cycles(sigma.images)
    components: list[list[Sparse]] = [[] for _ in range(m)]
    for cycle in cycles:
        k = len(cycle)
        # sigma^t(e_start) = orbit[t] * e_cycle[t]; orbit[k] is the cycle product
        orbit = [CycloNum.one(order)]
        for idx in cycle:
            orbit.append(orbit[-1] * sigma.scalars[idx])
        for i in range(m):
            if zeta_power(order, step * i * k) != orbit[k]:
                continue
            components[i].append(
                {idx: zeta_power(order, -step * i * t) * orbit[t] for t, idx in enumerate(cycle)}
            )
    grading = GradedDecomposition(
        period=m,
        scalar_order=order,
        dim=n,
        component_bases=tuple(tuple(comp) for comp in components),
    )
    if sum(grading.dims) != n:
        raise GradingError(f"component dimensions {grading.dims} do not sum to {n}")
    # independence, block by block: each vector must lie in the coordinates
    # of one cycle, and the vectors of each cycle must be independent
    cycle_of = {idx: c for c, cycle in enumerate(cycles) for idx in cycle}
    blocks: list[list[Sparse]] = [[] for _ in cycles]
    for comp in components:
        for v in comp:
            owners = {cycle_of[idx] for idx in v}
            if len(owners) != 1:
                raise GradingError("a component vector spans several cycles of the automorphism")
            blocks[owners.pop()].append(v)
    if any(rank(block) != len(block) for block in blocks):
        raise GradingError("components are not independent")
    # reassembly: every component vector must really be scaled by its eigenvalue
    for i, comp in enumerate(components):
        zeta = grading.residue_zeta(i)
        for v in comp:
            if sigma.apply(v) != {k: zeta * c for k, c in v.items()}:
                raise GradingError(f"component {i} is not an eigenspace of the automorphism")
    return grading


# -- loop elements -------------------------------------------------------------


class LoopElement(Record):
    """Finite sum of homogeneous terms a * z^degree: `terms` maps each degree
    to a nonzero sparse vector, degrees in increasing order."""

    terms: dict[int, Sparse]

    def is_zero(self) -> bool:
        return not self.terms


def loop_element(terms: Iterable[tuple[int, Sparse]]) -> LoopElement:
    """Normalize: merge equal degrees, drop zero vectors, sort by degree."""
    acc: dict[int, Sparse] = {}
    for d, v in terms:
        sparse_add(acc.setdefault(d, {}), v)
    return LoopElement({d: acc[d] for d in sorted(acc) if acc[d]})


def check_loop_element(grading: GradedDecomposition, x: LoopElement) -> None:
    """Each term of a loop element must lie in the component of its residue."""
    for d, v in x.terms.items():
        if not grading.component_solver(d % grading.period).contains(v):
            raise GradingError(f"term at degree {d} is not in component {d % grading.period}")


def ts_product(alg: MultTableAlgebra, x: LoopElement, y: LoopElement) -> LoopElement:
    """Product in A tensor k[z, 1/z]: multiply coefficients, add degrees."""
    return loop_element(
        (d1 + d2, alg.product_sparse(v1, v2))
        for d1, v1 in x.terms.items()
        for d2, v2 in y.terms.items()
    )


def loop_bracket(
    alg: MultTableAlgebra, grading: GradedDecomposition, x: LoopElement, y: LoopElement
) -> LoopElement:
    """Multiply two elements of the twisted loop algebra, checking the grading.

    Inputs must be supported on the grading (term at degree d inside component
    d mod m); the result is verified to be as well before it is returned.
    """
    check_loop_element(grading, x)
    check_loop_element(grading, y)
    result = ts_product(alg, x, y)
    check_loop_element(grading, result)
    return result


# -- graded centroid -------------------------------------------------------------


class CentroidReport(Record):
    """Solution space of maps commuting with all multiplications, by residue.

    A family assigns to each residue i a matrix A_i -> A_{i+shift} written in
    component coordinates; the family is constant across the integer degrees
    of a residue class, which is exactly a degree-homogeneous centroid
    transformation of the twisted loop algebra.  Each family is stored as one
    sparse vector over the entries of all its matrices, residue by residue
    and row-major within a matrix (`entry_index`); `dims` are the component
    dimensions that shape the matrices.
    """

    shift_residue: int
    period: int
    dims: tuple[int, ...]
    solution_dim: int
    basis: tuple[Sparse, ...]

    def entry_index(self, res: int, row: int, col: int) -> int:
        """Position of entry (row, col) of the residue-res matrix in a family."""
        m, d = self.period, self.shift_residue
        offset = sum(self.dims[(k + d) % m] * self.dims[k] for k in range(res))
        return offset + row * self.dims[res] + col

    def contains_identity(self) -> bool:
        if self.shift_residue % self.period != 0:
            return False
        return _identity_in_span(self)


def _identity_in_span(report: CentroidReport) -> bool:
    if not report.basis:
        return False
    if not all(report.basis):
        raise AlgebraError("centroid basis has no entries to test against")
    order = next(iter(report.basis[0].values())).order
    one = CycloNum.one(order)
    ident = {
        report.entry_index(res, r, r): one
        for res in range(report.period)
        for r in range(report.dims[res])
    }
    # the families are independent: each is 1 at its own free index, where
    # every other family is 0
    return rank([*report.basis, ident]) == len(report.basis)


class _Generators:
    """A generating set G of a graded algebra, certified by closure, and the
    multiplications by it; `centroid_graded` builds one and solves every
    shift with it.

    A homogeneous basis vector is named (residue, index in its component),
    and a homogeneous vector is kept in component coordinates.  The scan,
    over `scan` when given and otherwise over every homogeneous basis vector
    in residue order, keeps a vector only when it lies outside the
    subalgebra generated by the vectors kept so far.  That subalgebra is the closure of span(G)
    under L_g for g in G: right-nested brackets [g_1, [g_2, ... g_k]] for a
    Lie table, words g_1 g_2 ... g_k for an associative one.  Its span is an
    `Echelon` in flat coordinates, grown one product at a time: each g has a
    pointer into the list of vectors added to the closure, and a product
    L_g w is formed once for each pair.  A closure short of the whole
    algebra raises AlgebraError, and so does a table that fails its own
    laws, on which the closure need not be the generated subalgebra.

    `left[g]` holds the coordinates of g * e for every homogeneous basis
    vector e, in the order of `hom`, and `right[g]` those of e * g for an
    associative table.
    """

    def __init__(
        self,
        alg: MultTableAlgebra,
        grading: GradedDecomposition,
        scan: Optional[Sequence[tuple[int, int]]] = None,
    ):
        report = alg.validation
        if not report.ok:
            raise AlgebraError(f"the table fails its {alg.kind} laws: {report.violations[0]}")
        self.alg = alg
        self.grading = grading
        m = grading.period
        dims = grading.dims
        self.hom = [(res, t) for res in range(m) for t in range(dims[res])]
        self.offsets = [sum(dims[:res]) for res in range(m)]
        self.left: dict[tuple[int, int], list[Sparse]] = {}
        self.right: dict[tuple[int, int], list[Sparse]] = {}
        one = CycloNum.one(alg.scalar_order)
        closure = Echelon()
        spanning: list[tuple[int, Sparse]] = []  # (residue, coordinates)
        applied: list[int] = []
        gens: list[tuple[int, int]] = []
        for x in self.hom if scan is None else scan:
            if len(closure) == grading.dim:
                break
            if not closure.add({self.offsets[x[0]] + x[1]: one}):
                continue
            gens.append(x)
            self.left[x] = [self.product(x, y) for y in self.hom]
            spanning.append((x[0], {x[1]: one}))
            applied.append(0)
            grown = True
            while grown and len(closure) < grading.dim:
                grown = False
                for k, g in enumerate(gens):
                    while applied[k] < len(spanning):
                        res, w = spanning[applied[k]]
                        applied[k] += 1
                        v = self.apply(self.left[g], res, w)
                        tgt = (res + g[0]) % m
                        if closure.add({self.offsets[tgt] + t: c for t, c in v.items()}):
                            spanning.append((tgt, v))
                            grown = True
        if len(closure) != grading.dim:
            raise AlgebraError(
                f"the generating set spans a subalgebra of dimension {len(closure)}, "
                f"not {grading.dim}"
            )
        self.gens = tuple(gens)
        if alg.kind == KIND_ASSOCIATIVE:
            for g in gens:
                self.right[g] = [self.product(y, g) for y in self.hom]

    def product(self, x: tuple[int, int], y: tuple[int, int]) -> Sparse:
        """Coordinates of the product of two homogeneous basis vectors."""
        comps = self.grading.component_bases
        vec = self.alg.product_sparse(comps[x[0]][x[1]], comps[y[0]][y[1]])
        coords = self.grading.component_solver(x[0] + y[0]).coords(vec)
        if coords is None:
            raise GradingError("product rule violated while building centroid system")
        return coords

    def apply(self, products: list[Sparse], res: int, w: Sparse) -> Sparse:
        """The multiplication whose products with the basis are `products`,
        applied to the vector of component res with coordinates w."""
        out: Sparse = {}
        for t, c in w.items():
            sparse_add(out, products[self.offsets[res] + t], c)
        return out

    def signatures(self) -> list[list[tuple]]:
        """For each homogeneous basis vector, its eigenvalues under the
        degree-zero basis vectors that multiply diagonally.

        A multiplier z is diagonal when z * e (and e * z for an associative
        table) is a multiple of e for every homogeneous basis vector e; its
        products are formed one at a time and the first one off the diagonal
        ends the test.  For a Lie table e * z = -(z * e), so the right
        side adds nothing.  A centroid transformation commutes with L_z, so
        its entry from e_s to e_r is zero unless the two signatures agree.
        """
        zero = CycloNum.zero(self.alg.scalar_order)
        sides = [(self.left, False)]
        if self.alg.kind == KIND_ASSOCIATIVE:
            sides.append((self.right, True))
        tables: list[list[CycloNum]] = []
        for t in range(self.grading.dims[0]):
            z = (0, t)
            for known, on_right in sides:
                products = known.get(z)
                lams = []
                for k, e in enumerate(self.hom):
                    if products is not None:
                        coords = products[k]
                    else:
                        coords = self.product(e, z) if on_right else self.product(z, e)
                    if any(key != e[1] for key in coords):
                        break
                    lams.append(coords.get(e[1], zero))
                else:
                    tables.append(lams)
        flat = list(zip(*tables)) if tables else [()] * len(self.hom)
        return [
            flat[self.offsets[res]:self.offsets[res] + dim]
            for res, dim in enumerate(self.grading.dims)
        ]


def centroid_graded(
    alg: MultTableAlgebra, grading: GradedDecomposition
) -> tuple[CentroidReport, ...]:
    """For every shift residue d, solve for residue-level families
    c_i: A_i -> A_{i+d} with c(xy) = (cx)y = x(cy) for all x and y; index d
    of the result is the report of shift residue d.

    It is enough to impose c(g y) = g (c y) for g in a generating set G and
    every homogeneous basis vector y, and for an associative table also
    c(y g) = (c y) g (Benkart and Neher, The centroid of extended affine and
    root graded Lie algebras, JPAA 205 (2006)): the g whose L_g (and R_g)
    commute with c form a subalgebra, because L_[x,y] = [L_x, L_y] by
    Jacobi and L_xy = L_x L_y, R_xy = R_y R_x by associativity, and for a
    Lie table R_g = -L_g and (cx)y = -c(yx) = c(xy).  So the table must pass
    its validation first, or AlgebraError is raised.  G, its closure, its
    products (`_Generators`) and the signatures below are built once per
    call and serve every shift.

    The system is cut down first by every degree-zero basis element that
    multiplies diagonally (Cartan-type elements), which pins most unknowns to
    zero; each surviving equation is built by walking the sparse coordinates
    of the products, and the equations are eliminated exactly.  The solution
    space is the centroid whatever equations cut it out, and its reduced
    row-echelon basis is unique, so the reports do not depend on G.
    """
    gens = _Generators(alg, grading)
    m = grading.period
    order = alg.scalar_order
    dims = grading.dims
    sides = [gens.left] + ([gens.right] if alg.kind == KIND_ASSOCIATIVE else [])
    sigs = gens.signatures()
    rows_of: list[dict[tuple, list[int]]] = []
    for res in range(m):
        groups: dict[tuple, list[int]] = {}
        for r, sig in enumerate(sigs[res]):
            groups.setdefault(sig, []).append(r)
        rows_of.append(groups)

    reports = []
    for d in range(m):
        # unknown u(res, r, s) = entry of c_res in row r (target coord), col s,
        # numbered as CentroidReport.entry_index does
        base = [0] * m
        for res in range(1, m):
            base[res] = base[res - 1] + dims[(res - 1 + d) % m] * dims[res - 1]

        # phase 1: u(res, r, s) survives when e_r and e_s share their signature
        alive_rows = [
            [rows_of[(res + d) % m].get(sig, []) for sig in sigs[res]] for res in range(m)
        ]

        # phase 2: c(g y) - g (c y), and c(y g) - (c y) g, row by row
        rows: set[tuple[tuple[int, CycloNum], ...]] = set()
        for g in gens.gens:
            for products in (side[g] for side in sides):
                for k, (ires, s) in enumerate(gens.hom):
                    tgt = (ires + g[0]) % m
                    src = (ires + d) % m
                    out: dict[int, Sparse] = {}
                    for sig, wc in products[k].items():
                        for rho in alive_rows[tgt][sig]:
                            out.setdefault(rho, {})[base[tgt] + rho * dims[tgt] + sig] = wc
                    for r in alive_rows[ires][s]:
                        col = base[ires] + r * dims[ires] + s
                        for rho, coeff in products[gens.offsets[src] + r].items():
                            sparse_add(out.setdefault(rho, {}), {col: -coeff})
                    for entries in out.values():
                        if entries:
                            lead = min(entries)
                            inv = entries[lead].inverse()
                            rows.add(tuple(sorted((c, inv * v) for c, v in entries.items())))

        pivots = eliminate(dict(row_t) for row_t in rows)
        alive = sorted(
            base[res] + r * dims[res] + s
            for res in range(m)
            for s, targets in enumerate(alive_rows[res])
            for r in targets
        )
        free = [i for i in alive if i not in pivots]
        families = []
        for f in free:
            sol = {f: CycloNum.one(order)}
            for lead, prow in pivots.items():
                coeff = prow.get(f)
                if coeff is not None:
                    sol[lead] = -coeff
            families.append({k: sol[k] for k in sorted(sol)})
        reports.append(
            CentroidReport(
                shift_residue=d,
                period=m,
                dims=tuple(dims),
                solution_dim=len(free),
                basis=tuple(families),
            )
        )
    return tuple(reports)
