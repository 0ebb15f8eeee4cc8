"""Automorphisms of a multiplication table, and the gradings they define.

Automorphisms are monomial, e_j -> c_j e_pi(j), which every twist built in
this package is.  Every twist, of a Lie algebra or of M_n, is one
composition `twist(alg, outer, p, m)` = outer o diag(zeta_m^p) of a plain
outer map (a diagram symmetry, or the identity) with a diagonal one, and is
certified there and nowhere else, in one pass over the table's nonzero
products, which covers every basis pair: the outer map is multiplicative
(the identity is on every table, so no product is read for it), the
integer exponents p are invariant under it and additive on the table, and
the outer map's period is read off its cycles.  That makes the twist an
automorphism and certifies the map that untwists it
(`descent.untwist_iso`).  A certified
finite-order automorphism with period m dividing that scalar order splits
the algebra into eigenspace components A_i for the eigenvalues zeta_m^i,
written down in closed form cycle by cycle; that decomposition is
a Z/m grading, by the automorphism's certificate, and is the combinatorial
heart of everything downstream: the twisted fixed points (`descent`) are
its components, and the centroid (`centroid`) is solved on it.

Each closed-form component vector is an orbit sum over one cycle: it is 1 at
its smallest index and the vectors of a component have disjoint supports.
So coordinates in a component need no elimination: `ComponentSolver` reads
a vector in one pass over its entries, finding each entry's owner and that
owner's coefficient at its pivot.

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

    Building one from its fields certifies nothing: the outer factor that
    `twist` takes is such a plain value.  `twist` returns the composition
    with the table it certified it on, and `eigengrading` accepts it only on
    that table.
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

    def certified_on(self, alg: MultTableAlgebra) -> bool:
        """Whether `twist` certified this map on the table alg."""
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


def twist(
    alg: MultTableAlgebra, outer: FiniteOrderAutomorphism, exponents: Sequence[int], m: int
) -> FiniteOrderAutomorphism:
    """outer o diag(zeta_m^p), the one composition of an outer map with a
    diagonal one, and the one certifier of an automorphism.  Of a plain
    outer(e_k) = c_k e_pi(k) and integer exponents p it checks, in one pass
    over the table's nonzero products: pi permutes the basis and every c_k
    is a nonzero scalar of the table's order; invariance, p_pi(k) = p_k;
    additivity, p_k = p_i + p_j on every term e_k of a product e_i e_j, and
    the multiplicativity of outer on that product, skipped for the identity
    map (pi the identity and every c_k 1), which reads no product; and
    outer^|outer| = 1, cycle by cycle.

    Mod m, additivity makes diag(zeta_m^p) multiplicative term by term, and
    invariance makes it commute with outer, as both compositions send e_k to
    zeta_m^(p_k) c_k e_pi(k).  Commuting, they give sigma^N = outer^N o
    diag^N = 1 for N = lcm(|outer|, m): the period of the composition is a
    theorem.  `twist(alg, outer, (0,) * alg.dim, 1)` certifies outer alone.
    As integers, the clauses certify the untwisting map e_k z^j ->
    e_k z^(j - (M/m) p_k) onto L(outer), M = lcm(|outer|, m): invariance
    makes it land and additivity makes it preserve products
    (`descent.untwist_iso`).

    No twist is lost by asking for integers.  pi o tau_s on a Lie algebra
    is the diagram symmetry after p = <weight, s>, a root's coordinates
    paired with the coweight s, invariant since s is constant on the orbits
    of pi (`check_twist`); Ad(diag(zeta^a)) on M_n is the identity after
    p = <eps_i - eps_k, a> = a_i - a_k on E_ik (`MultTableAlgebra.pairing`).
    Every diagonal automorphism lifts so: on a Chevalley table it fixes the
    Cartan and p mod m is a homomorphism from the root lattice Q to Z/m,
    which lifts to Hom(Q, Z) as Q is free, with s_i = p(alpha_i) lifted
    constant on the orbits of pi; on M_n, p_ik = p_i1 - p_k1 mod m lifts
    through a_i = p_i1.
    """
    n = alg.dim
    images, scalars = tuple(outer.images), tuple(outer.scalars)
    if len(images) != n or len(scalars) != n:
        raise AutomorphismError(f"images and scalars must both have length dim = {n}")
    order = alg.scalar_order
    if any(c.order != order for c in scalars):
        raise AutomorphismError("scalars must use the algebra scalar order")
    if sorted(images) != list(range(n)):
        raise AutomorphismError("images are not a permutation of the basis")
    if any(c.is_zero() for c in scalars):
        raise AutomorphismError("a basis element maps to zero; the map is not invertible")
    exponents = tuple(exponents)
    if len(exponents) != n:
        raise AutomorphismError(
            f"the diagonal map needs one exponent per basis element, {n} in all"
        )
    if m < 1:
        raise AutomorphismError("the diagonal period m must be positive")
    if order % m != 0:
        raise AutomorphismError(f"scalar order {order} lacks the {m}-th roots of unity")
    labels = alg.basis_labels
    for k, image in enumerate(images):
        if exponents[image] != exponents[k]:
            raise AutomorphismError(
                f"exponent invariance fails on {labels[k]}: its exponent {exponents[k]} is not"
                f" {exponents[image]}, the exponent of its image {labels[image]}"
            )
    one = CycloNum.one(order)
    identity = images == tuple(range(n)) and all(c == one for c in scalars)
    for (i, j), entry in alg.products.items():
        target = exponents[i] + exponents[j]
        for k in entry:
            if exponents[k] != target:
                raise AutomorphismError(
                    f"exponent additivity fails on basis pair ({labels[i]}, {labels[j]}): "
                    f"exponent {exponents[k]} of {labels[k]} is not "
                    f"{exponents[i]} + {exponents[j]}"
                )
        if identity:
            continue
        # outer(e_i e_j) against outer(e_i) outer(e_j) = c_i c_j e_pi(i) e_pi(j).
        # If every nonzero product maps so, then (i, j) -> (pi(i), pi(j)) is
        # injective and sends the finite set of nonzero pairs into itself,
        # so onto it: a zero product maps onto a zero one.
        scale = scalars[i] * scalars[j]
        lhs = {images[k]: c * scalars[k] for k, c in entry.items()}
        rhs = {k: scale * c for k, c in alg.basis_product(images[i], images[j]).items()}
        if lhs != rhs:
            raise AutomorphismError(
                f"multiplicativity fails on basis pair ({labels[i]}, {labels[j]})"
            )
    # every period of the identity map holds: only its sign is read
    _check_period(alg, () if identity else images, scalars, outer.period)
    step = order // m
    sigma = FiniteOrderAutomorphism(
        images=images,
        scalars=tuple(zeta_power(order, step * p) * c for p, c in zip(exponents, scalars)),
        period=lcm(outer.period, m),
    )
    sigma.__dict__["_certified_table"] = alg
    return sigma


# -- eigenspace grading -------------------------------------------------------


class ComponentSolver:
    """Coordinates in the span of closed-form component vectors, read in one
    pass over the vector.

    Each vector must be 1 at its smallest index, its pivot, and the vectors
    must have pairwise disjoint supports; otherwise construction raises
    GradingError.  Every vector is nonzero and stores no zero: the vectors
    are sparse, and the two kinds of span below build them from nonzero
    scalars.  So each index has one owner at most, and v's coordinate on
    vector k can only be its entry at k's pivot.  `coords` reads v, a
    `cyclo.Sparse` with no zero entry, in one pass: each entry needs an
    owner k and must be c_k, v's entry at k's pivot, times k's entry there,
    and the owners' sizes must sum to |v|, so v is sum_k c_k b_k.  A v in
    the span passes, its support being that of the b_k with c_k nonzero:
    `coords` answers None exactly when v is outside the span, as
    elimination would.

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
        for idx, x in v.items():
            k = self._owner.get(idx)
            c = None if k is None else v.get(self.pivots[k])
            if c is None or c * self.vectors[k][idx] != x:
                return None
            out[k] = c
        if sum(len(self.vectors[k]) for k in out) != len(v):
            return None
        return out

    def contains(self, v: Sparse) -> bool:
        return self.coords(v) is not None


class GradedDecomposition(Record):
    """Z/period grading by eigenspaces; component i belongs to zeta^i.

    Component vectors are sparse, 1 at their smallest index, with disjoint
    supports within a component, which `component_solver` relies on.  The
    components are the one field: one per residue, so the period is their
    number, and together they span the algebra, so its dimension is the sum
    of theirs.
    """

    component_bases: tuple[tuple[Sparse, ...], ...]

    def __post_init__(self) -> None:
        # component solvers by residue: a cache of work derived from the
        # fields, not a field itself
        self.__dict__["_solvers"] = {}

    @property
    def period(self) -> int:
        return len(self.component_bases)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.component_bases)

    @property
    def dim(self) -> int:
        return sum(map(len, self.component_bases))

    def component_solver(self, i: int) -> ComponentSolver:
        i %= self.period
        solver = self._solvers.get(i)
        if solver is None:
            solver = ComponentSolver(self.component_bases[i])
            self._solvers[i] = solver
        return solver


def eigengrading(alg: MultTableAlgebra, sigma: FiniteOrderAutomorphism) -> GradedDecomposition:
    """Split the algebra into the eigenspaces of sigma, in closed form.

    Requires sigma certified on this table by `twist`, and the period
    m = sigma.period to divide alg.scalar_order; any other sigma raises
    GradingError.  The certificate gives sigma scalars of the table's order:
    `twist` checks the outer factor's and builds the diagonal factor's at
    that order.  A cycle
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
            f"scalar order {alg.scalar_order} lacks the {m}-th roots of unity;"
            f" build the table over Q(zeta_n) for a multiple n of {m}"
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
    return GradedDecomposition(tuple(tuple(comp) for comp in components))
