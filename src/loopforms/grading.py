"""Automorphisms of a multiplication table, and the gradings they define.

Automorphisms are monomial, e_j -> c_j e_p(j), which every twist built in
this package is; they are checked in one pass over the table's nonzero
products, which covers every basis pair (a diagonal one by the additivity of
its exponents), with the period read off the cycles of p.  Every twist, of a
Lie algebra or of M_n, is one composition `twist(alg, outer, p, m)` = outer
o diag(zeta_m^p) of a certified outer map (a diagram symmetry, or the
identity) with a diagonal one, certified there and nowhere else.  A
certified finite-order automorphism with period m dividing that scalar order
splits the algebra into eigenspace components A_i for the eigenvalues
zeta_m^i, written down in closed form cycle by cycle; that decomposition is
a Z/m grading, by the automorphism's certificate, and is the combinatorial
heart of everything downstream: the twisted fixed points (`descent`) are
its components, and the centroid (`centroid`) is solved on it.

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
from math import lcm
from typing import Optional, Sequence

from .algebra import MultTableAlgebra, _cycles
from .cyclo import CycloNum, Sparse, zeta_power
from .record import Record

__all__ = [
    "AutomorphismError",
    "ComponentSolver",
    "FiniteOrderAutomorphism",
    "GradedDecomposition",
    "GradingError",
    "check_automorphism",
    "check_diagonal_automorphism",
    "eigengrading",
    "twist",
]


class AutomorphismError(ValueError):
    pass


class GradingError(ValueError):
    pass


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
    """Verify invertibility, multiplicativity on all basis pairs (compared on
    the nonzero products), and period of e_j -> scalars[j] * e_{images[j]}.

    A period below 1 is refused by `_check_period`, after the pair check."""
    n = alg.dim
    images, scalars = tuple(images), tuple(scalars)
    if len(images) != n or len(scalars) != n:
        raise AutomorphismError(f"images and scalars must both have length dim = {n}")
    if any(c.order != alg.scalar_order for c in scalars):
        raise AutomorphismError("scalars must use the algebra scalar order")
    if sorted(images) != list(range(n)):
        raise AutomorphismError("images are not a permutation of the basis")
    if any(c.is_zero() for c in scalars):
        raise AutomorphismError("a basis element maps to zero; the map is not invertible")
    # If every nonzero product e_i e_j maps onto sigma(e_i) sigma(e_j), then
    # (i, j) -> (p(i), p(j)) is injective and sends the finite set of nonzero
    # pairs into itself, so onto it: a zero product maps onto a zero one.
    for (i, j), entry in alg._table.items():
        # sigma(e_i e_j) against sigma(e_i) sigma(e_j) = s_i s_j e_p(i) e_p(j);
        # entries have distinct targets and no zero term, and images is a
        # permutation, so both sides are sparse vectors as built
        scale = scalars[i] * scalars[j]
        lhs = {images[k]: c * scalars[k] for k, c in entry}
        rhs = {k: scale * c for k, c in alg.basis_product(images[i], images[j])}
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
        raise AutomorphismError(
            f"the diagonal map needs one exponent per basis element, {n} in all"
        )
    if m < 1:
        raise AutomorphismError("the diagonal period m must be positive")
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
                    f"exponent additivity fails on basis pair ({labels[i]}, {labels[j]}): "
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
    automorphisms is one, so multiplicativity is not checked again.  The
    factors are composed both ways, since the period lcm(|outer|, m) rests
    on their commuting, and the period is checked cycle by cycle, as
    `check_automorphism` checks it.  When every p_j is 0 mod m the diagonal
    factor is the identity, and the twist is outer with its period lifted to
    lcm(|outer|, m); `twist(alg, outer, (0,) * alg.dim, m)` lifts a period.
    """
    if not outer.certified_on(alg):
        raise AutomorphismError("the outer factor of the twist is not certified on this table")
    diagonal = check_diagonal_automorphism(alg, exponents, m)
    period = lcm(outer.period, m)
    composed = outer.compose(diagonal)
    if composed != diagonal.compose(outer):
        raise AutomorphismError("factors fail to commute despite an invariant charge")
    _check_period(alg, composed.images, composed.scalars, period)
    return _certified(alg, composed.images, composed.scalars, period)


# -- eigenspace grading -------------------------------------------------------


class ComponentSolver:
    """Coordinates in the span of closed-form component vectors, read and
    confirmed.

    Each vector must be 1 at its smallest index, its pivot, and the vectors
    must have pairwise disjoint supports; otherwise construction raises
    GradingError.  Every vector is nonzero and stores no zero: the vectors
    are sparse, and the two kinds of span below build them from nonzero
    scalars.  The coordinate of v on vector k is then v's entry at the
    pivot of k, and nothing else can be: every other vector vanishes there.
    `coords` reads those entries, rebuilds sum_k c_k b_k and returns the
    coordinates only when the rebuilt vector is v exactly, so it answers
    None exactly when v is outside the span, as an elimination would.

    Two kinds of span have this shape: the grading components
    (`GradedDecomposition.component_solver`), and the fixed Cartan h0, whose
    basis vectors are orbit sums of the h_i with coefficient 1
    (`affine.extract_gcm` reads the coroot coordinates of [e, f] on it).  An
    eigenvector's entries are products of sigma's scalars and roots of
    unity, which a certified sigma keeps nonzero.
    """

    def __init__(self, vectors: Sequence[Sparse]):
        self.vectors = tuple(vectors)
        self._owner: dict[int, int] = {}
        pivots = []
        for k, vec in enumerate(self.vectors):
            pivot = min(vec)
            pivots.append(pivot)
            lead = vec[pivot]
            if lead != CycloNum.one(lead.order):
                raise GradingError(f"component vector {k} is {lead} at its pivot {pivot}, not 1")
            for idx in vec:
                if idx in self._owner:
                    raise GradingError(
                        f"component vectors {self._owner[idx]} and {k} share index {idx}"
                    )
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


def eigengrading(alg: MultTableAlgebra, sigma: FiniteOrderAutomorphism) -> GradedDecomposition:
    """Split the algebra into the eigenspaces of sigma, in closed form.

    Requires sigma certified on this table by `check_automorphism`,
    `check_diagonal_automorphism` or `twist`, and the period m = sigma.period
    to divide alg.scalar_order; any other sigma raises GradingError.  Each
    certificate gives sigma scalars of the table's order: `check_automorphism`
    checks it, and the other two build them at that order.  A cycle
    e_0 -> ... -> e_{k-1} -> e_0 of sigma with scalar product P carries one
    eigenvector v for each root lambda = zeta_m^i of x^k = P, the sum over
    t < k of lambda^-t sigma^t(e_0), taken from the cycle's smallest index,
    where it is 1.  Supports are disjoint, so each
    component, ordered by that index, is its reduced row-echelon basis.

    Every certificate gives nonzero scalars and sigma^m = 1, which on a
    cycle is k | m and P^(m/k) = 1.  So these are theorems, not checks:

    * Exhaustion.  P = zeta_m^(k c) for some c, and zeta_m^(i k) = P for
      exactly the k residues i = c mod m/k: the components hold dim A vectors.
    * One cycle per vector: v lies on the cycle it is read from.
    * Independence.  With sigma^t(e_0) = c_t e_t, the k vectors of a cycle
      are diag(c_t) times the Vandermonde matrix of the distinct lambda^-1.
    * Reassembly.  The last term of sigma v is lambda^(1-k) P e_0 =
      lambda e_0, as lambda^k = P, so sigma v = lambda v.
    * The product rule A_i A_j in A_{i+j}: the dim A independent
      eigenvectors make A_i the whole zeta^i-eigenspace, and for x in A_i,
      y in A_j, sigma(xy) = sigma(x) sigma(y) = zeta^(i+j) xy.
    """
    m = sigma.period
    if not sigma.certified_on(alg):
        raise GradingError("the automorphism is not certified on this table; check it first")
    if alg.scalar_order % m != 0:
        raise GradingError(
            f"scalar order {alg.scalar_order} lacks the {m}-th roots of unity; embed first"
        )
    order = alg.scalar_order
    step = order // m
    components: list[list[Sparse]] = [[] for _ in range(m)]
    for cycle in _cycles(sigma.images):
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
    return GradedDecomposition(
        period=m,
        scalar_order=order,
        dim=alg.dim,
        component_bases=tuple(tuple(comp) for comp in components),
    )
