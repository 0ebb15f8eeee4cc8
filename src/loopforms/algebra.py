"""Finite-dimensional algebras by structure constants, and their gradings.

An algebra is a multiplication table over some Q(zeta_M): sparse structure
constants on a fixed basis, tagged `lie` or `associative`.  Its elements are
sparse vectors {index: scalar} with no zero entry, multiplied by
`MultTableAlgebra.product_sparse`; dense tuples appear only in serialized
reports.  Automorphisms are monomial, e_j -> c_j e_p(j), which every twist
built in this package is; they are checked in one pass over the basis pairs,
with the period read off the cycles of p.  A finite-order automorphism with
period m dividing that scalar order splits the algebra into eigenspace
components A_i for the eigenvalues zeta_m^i, written down in closed form
cycle by cycle; that decomposition is a Z/m grading and is the combinatorial
heart of everything downstream: loop elements ({degree: sparse vector}) live
on it, and the centroid computation detects when two loop algebras cannot be
isomorphic over the Laurent base ring.

Each closed-form component vector is an orbit sum over one cycle: it is 1 at
its smallest index and the vectors of a component have disjoint supports.
So coordinates in a component need no elimination: `ComponentSolver` reads
them at those pivot indices and confirms them by rebuilding the vector
exactly.

All verification here is exact and total over the stated ranges; nothing is
sampled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations, product
from math import lcm
from typing import Iterable, Iterator, Optional, Sequence

from .cyclo import CycloNum, zeta_power
from .linalg import Sparse, eliminate, rank, sparse_add

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
    "check_loop_element",
    "embed_algebra",
    "eigengrading",
    "loop_bracket",
    "loop_element",
    "ts_product",
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


@dataclass(frozen=True)
class MultTableAlgebra:
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
    _table: dict = field(default_factory=dict, compare=False, repr=False)

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
        self._table.update(table)

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
        constants = tuple(
            (
                int(i),
                int(j),
                tuple((int(k), CycloNum.from_obj(c)) for k, c in entry),
            )
            for i, j, entry in obj["constants"]
        )
        return MultTableAlgebra(
            dim=int(obj["dim"]),
            scalar_order=int(obj["scalar_order"]),
            kind=obj["kind"],
            constants=constants,
            basis_labels=tuple(obj["labels"]),
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


@dataclass(frozen=True)
class Violation:
    law: str
    indices: tuple[int, ...]
    labels: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.law} fails on ({', '.join(self.labels)})"


@dataclass(frozen=True)
class ValidationReport:
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

        failing = [t for t in product(range(n), repeat=3) if not holds(*t)]
    violations.extend(Violation(law, t, tuple(labels[x] for x in t)) for t in failing)
    return ValidationReport(alg.kind, n, n**3, tuple(violations))


# -- automorphisms -----------------------------------------------------------


@dataclass(frozen=True)
class FiniteOrderAutomorphism:
    """Monomial automorphism e_j -> scalars[j] * e_{images[j]} of finite period.

    Every twist built here is monomial in its basis: diagram symmetries are
    signed permutations of the Chevalley basis, toral twists and Ad(diag) on
    M_n are diagonal, and commuting compositions of these stay monomial.
    `images` is a permutation of the basis indices and no scalar is zero.
    The period m need not be the exact order: sigma^m = 1 is all that is
    required, which is what lets automorphisms of different orders share a
    period.
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
        that period holds when the factors commute, which callers check."""
        return FiniteOrderAutomorphism(
            images=tuple(self.images[k] for k in other.images),
            scalars=tuple(c * self.scalars[k] for k, c in zip(other.images, other.scalars)),
            period=lcm(self.period, other.period),
        )

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
    return FiniteOrderAutomorphism(images=images, scalars=scalars, period=period)


# -- change of scalar order --------------------------------------------------


def embed_algebra(alg: MultTableAlgebra, n: int) -> MultTableAlgebra:
    if n == alg.scalar_order:
        return alg
    constants = tuple(
        (i, j, tuple((k, c.embed(n)) for k, c in entry)) for i, j, entry in alg.constants
    )
    return MultTableAlgebra(
        dim=alg.dim,
        scalar_order=n,
        kind=alg.kind,
        constants=constants,
        basis_labels=alg.basis_labels,
    )


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


@dataclass(frozen=True)
class GradedDecomposition:
    """Z/period grading by eigenspaces; component i belongs to zeta^i.

    Component vectors are sparse, 1 at their smallest index, with disjoint
    supports within a component, which `component_solver` relies on.
    """

    period: int
    scalar_order: int
    dim: int
    component_bases: tuple[tuple[Sparse, ...], ...]
    _solvers: dict = field(default_factory=dict, compare=False, repr=False)

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
    sigma.period | alg.scalar_order.  A cycle e_0 -> ... -> e_{k-1} -> e_0 of
    sigma with scalar product P carries one eigenvector for each root
    lambda = zeta^i of x^k = P, namely the sum over t < k of
    lambda^-t sigma^t(e_0), taken from the cycle's smallest index, where it is
    1.  Supports are disjoint, so each component, ordered by that index, is
    its reduced row-echelon basis.  Verifies that the components exhaust the
    algebra, that they are independent (the vectors of one cycle span a block
    of coordinates no other cycle touches, so this is one small rank per
    cycle), that every vector is scaled by its eigenvalue, and that
    multiplication respects residues, the last through `component_solver`.
    """
    m = sigma.period
    if alg.scalar_order % m != 0:
        raise GradingError(
            f"scalar order {alg.scalar_order} lacks the {m}-th roots of unity; embed first"
        )
    if sigma.scalar_order != alg.scalar_order:
        raise GradingError("automorphism and algebra must share a scalar order")
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
    # product rule A_i * A_j inside A_{i+j}
    for i in range(m):
        for j in range(m):
            solver = grading.component_solver((i + j) % m)
            for x in components[i]:
                for y in components[j]:
                    if not solver.contains(alg.product_sparse(x, y)):
                        raise GradingError(
                            f"product of components {i} and {j} leaves component {(i + j) % m}"
                        )
    return grading


# -- loop elements -------------------------------------------------------------


@dataclass(frozen=True)
class LoopElement:
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


@dataclass(frozen=True)
class CentroidReport:
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

    def matrices(self, family: Sparse) -> tuple[tuple[tuple[CycloNum, ...], ...], ...]:
        """The dense matrices of one family, residue by residue."""
        m, d = self.period, self.shift_residue
        zero = CycloNum.zero(next(iter(family.values())).order)
        return tuple(
            tuple(
                tuple(family.get(self.entry_index(res, r, s), zero) for s in range(self.dims[res]))
                for r in range(self.dims[(res + d) % m])
            )
            for res in range(m)
        )

    def to_obj(self) -> dict:
        return {
            "shift_residue": self.shift_residue,
            "period": self.period,
            "solution_dim": self.solution_dim,
            "basis": [
                [[[c.to_obj() for c in row] for row in mat] for mat in self.matrices(family)]
                for family in self.basis
            ],
        }


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


def centroid_graded(
    alg: MultTableAlgebra, grading: GradedDecomposition, shift_residue: int
) -> CentroidReport:
    """Solve for residue-level families c_i: A_i -> A_{i+shift} with
    c(xy) = (cx)y = x(cy) on all homogeneous basis pairs.

    The system is cut down first by every degree-zero basis element that
    multiplies diagonally (Cartan-type elements), which pins most unknowns to
    zero; the surviving sparse equations are then eliminated exactly.
    """
    m = grading.period
    d = shift_residue % m
    order = alg.scalar_order
    comps = grading.component_bases
    dims = [len(c) for c in comps]
    solvers = [grading.component_solver(i) for i in range(m)]

    # unknown u[(res, r, s)] = entry of c_res in row r (target coord), col s
    index_of: dict[tuple[int, int, int], int] = {}
    unknowns: list[tuple[int, int, int]] = []
    for res in range(m):
        for r in range(dims[(res + d) % m]):
            for s in range(dims[res]):
                index_of[(res, r, s)] = len(unknowns)
                unknowns.append((res, r, s))
    total = len(unknowns)

    # sparse coordinates of products of homogeneous basis vectors
    hom = [(res, t) for res in range(m) for t in range(dims[res])]
    prod_coords: dict[tuple[int, int, int, int], Sparse] = {}
    for (ri, ti) in hom:
        for (rj, tj) in hom:
            vec = alg.product_sparse(comps[ri][ti], comps[rj][tj])
            coords = solvers[(ri + rj) % m].coords(vec)
            if coords is None:
                raise GradingError("product rule violated while building centroid system")
            prod_coords[(ri, ti, rj, tj)] = coords

    # phase 1: diagonal degree-zero multipliers kill unknowns coordinate-wise
    alive = [True] * total
    zero = CycloNum.zero(order)

    def diagonal_eigenvalues(zres: int, zt: int, side: str) -> Optional[list[list[CycloNum]]]:
        eigen: list[list[CycloNum]] = []
        for res in range(m):
            lams = []
            for s in range(dims[res]):
                key = (zres, zt, res, s) if side == "left" else (res, s, zres, zt)
                coords = prod_coords[key]
                if any(k != s for k in coords):
                    return None
                lams.append(coords.get(s, zero))
            eigen.append(lams)
        return eigen

    for zt in range(dims[0]):
        for side in ("left", "right"):
            eigen = diagonal_eigenvalues(0, zt, side)
            if eigen is None:
                continue
            for res in range(m):
                tgt = (res + d) % m
                for r in range(dims[tgt]):
                    for s in range(dims[res]):
                        idx = index_of[(res, r, s)]
                        if alive[idx] and eigen[res][s] != eigen[tgt][r]:
                            alive[idx] = False

    # phase 2: all remaining equations, sparse exact elimination
    rows: set[tuple[tuple[int, CycloNum], ...]] = set()

    def add_row(entries: Sparse) -> None:
        entries = {k: v for k, v in entries.items() if alive[k]}
        if not entries:
            return
        lead = min(entries)
        inv = entries[lead].inverse()
        rows.add(tuple(sorted((k, inv * v) for k, v in entries.items())))

    for (jres, t) in hom:  # x runs over homogeneous basis vectors
        for (ires, s) in hom:  # y likewise
            w = prod_coords[(jres, t, ires, s)]  # coords of x*y in comp (i+j)
            tgt_res = (ires + jres) % m
            out_dim = dims[(tgt_res + d) % m]
            # condition A: c(x*y) = x * (c y)
            for rho in range(out_dim):
                entries: Sparse = {index_of[(tgt_res, rho, sig)]: wc for sig, wc in w.items()}
                for r in range(dims[(ires + d) % m]):
                    coeff = prod_coords[(jres, t, (ires + d) % m, r)].get(rho)
                    if coeff is not None:
                        sparse_add(entries, {index_of[(ires, r, s)]: -coeff})
                add_row(entries)
            # condition B: c(x*y) = (c x) * y
            for rho in range(out_dim):
                entries = {index_of[(tgt_res, rho, sig)]: wc for sig, wc in w.items()}
                for r in range(dims[(jres + d) % m]):
                    coeff = prod_coords[((jres + d) % m, r, ires, s)].get(rho)
                    if coeff is not None:
                        sparse_add(entries, {index_of[(jres, r, t)]: -coeff})
                add_row(entries)

    pivots = eliminate(dict(row_t) for row_t in rows)
    free = [i for i in range(total) if alive[i] and i not in pivots]
    families = []
    for f in free:
        sol = {f: CycloNum.one(order)}
        for lead, prow in pivots.items():
            coeff = prow.get(f)
            if coeff is not None:
                sol[lead] = -coeff
        families.append({k: sol[k] for k in sorted(sol)})
    return CentroidReport(
        shift_residue=d,
        period=m,
        dims=tuple(dims),
        solution_dim=len(free),
        basis=tuple(families),
    )
