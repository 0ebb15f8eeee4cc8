"""Galois-descent data for loop algebras over the punctured line.

The covering k[z,z^-1] / k[t,t^-1], t = z^m, is cyclic of degree m; the
generator acts by z -> zeta_m z.  One twist serves every table: a Lie
algebra twisted by pi o tau_s and M_n twisted by Ad(diag(zeta^a)) are both
`grading.twist(alg, outer, p, m)` = outer o diag(zeta_m^p), with outer the
diagram automorphism of pi or the identity, so `untwist_iso` and
`coboundary_witness` take (alg, outer, p, m) and (alg, p, m) from either and
never read a root system.  A period-m automorphism sigma of A yields the
cocycle u(n mod m) = sigma^{-n} with values in Aut(A tensor S), and the
twisted fixed points of u recover the loop algebra L(sigma) degree by degree.
Every check here holds in all degrees, not on a degree window.  The untwisting
map is a degree shift, which is an algebra map exactly when the shift is
additive on the multiplication table, so bracket preservation is one pass over
the table's nonzero products; it lands in the right components exactly when
the twist is outer o diag(zeta^shift) with the shift constant on the orbits
of outer, one pass over the basis.  Every other identity depends on the
degree j only through j mod the period, so one period of residues covers all
degrees, and no function here takes a degree window.  The `window` a report shows is
read off the period it already has (two periods on the untwist and
twisted-fixed-point checks, 2m on the coboundary identity, one period on the
cocycle identity) and bounds nothing that is checked.

Conventions, pinned by the checks in this module:

* gamma acts on automorphisms by gamma(f) = gamma o f o gamma^-1,
* the coboundary direction is u(gamma) = a^-1 o gamma(a),
* the untwisting map lowers degrees, e_alpha z^j -> e_alpha z^(j - d(alpha)).

With a diagonal twist diag(zeta_m^p) these three together make a = b^-1
(b the raising shift) a coboundary witness, matching the vanishing of H^1
for the inner part of the automorphism group.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .algebra import MultTableAlgebra, make_table
from .cyclo import CycloNum, zeta_power
from .grading import (
    FiniteOrderAutomorphism,
    GradedDecomposition,
    check_diagonal_automorphism,
    twist,
)
from .linalg import Sparse, nullspace
from .record import Record

__all__ = [
    "CheckReport",
    "DescentError",
    "LoopCocycle",
    "UntwistIso",
    "build_cocycle",
    "build_matrix_algebra",
    "coboundary_witness",
    "fixed_point_report",
    "matrix_twist_factors",
    "matrix_unit_shifts",
    "twisted_fixed_points",
    "untwist_iso",
]


class DescentError(ValueError):
    pass


# -- cocycles ------------------------------------------------------------------


class CheckReport(Record):
    check: str
    window: int
    status: str

    def to_obj(self) -> dict:
        return {"check": self.check, "window": self.window, "status": self.status}


class LoopCocycle(Record):
    """u(n mod m) = sigma^(-n), one constant automorphism of A per residue."""

    values: tuple[FiniteOrderAutomorphism, ...]

    @property
    def period(self) -> int:
        return len(self.values)

    def value(self, n: int) -> FiniteOrderAutomorphism:
        return self.values[n % self.period]


def build_cocycle(sigma: FiniteOrderAutomorphism) -> LoopCocycle:
    """Store all m values of n -> sigma^(-n) and check the cocycle identity.

    The values are constant in z, so the gamma-twist in the cocycle identity
    acts trivially and the identity is exactly the homomorphism property,
    checked over all m^2 residue pairs.  sigma^(-n) is stored as the monomial
    sigma^(m - n), and each identity is one O(dim) composition.
    """
    m = sigma.period
    one = CycloNum.one(sigma.scalar_order)
    powers = [FiniteOrderAutomorphism(tuple(range(sigma.dim)), (one,) * sigma.dim, m)]
    for _ in range(1, m):
        powers.append(sigma.compose(powers[-1]))
    values = tuple(powers[(m - n) % m] for n in range(m))
    for n1 in range(m):
        for n2 in range(m):
            if values[n1].compose(values[n2]) != values[(n1 + n2) % m]:
                raise DescentError(f"cocycle identity fails at ({n1}, {n2})")
    return LoopCocycle(values=values)


def twisted_fixed_points(
    cocycle: LoopCocycle, grading: GradedDecomposition
) -> tuple[tuple[Sparse, ...], ...]:
    """Fixed spaces of x -> u(1)(gamma(x)) per residue; must equal the grading.

    On the slice A z^j the twisted action is the constant map
    zeta^j sigma^(-1), so the fixed space is the kernel of
    (zeta^j sigma^(-1) - id).  zeta^j depends only on j mod m, so the m
    kernels, one per residue, cover every degree; each is computed by
    elimination, apart from the closed-form grading, on sparse rows:
    sigma^(-1) is monomial, so each row has at most two entries.  The descent
    claim is that the kernel for residue r coincides with the eigenspace
    component r: equal dimensions, and every kernel vector in the component's
    span; any mismatch raises.  The result is the m kernels, kernel r being
    the fixed space of every degree j = r mod m.
    """
    m = cocycle.period
    if grading.period != m:
        raise DescentError("cocycle and grading periods differ")
    order = grading.scalar_order
    n = grading.dim
    u1 = cocycle.value(1)
    kernels = []
    for r in range(m):
        zeta = zeta_power(order, (order // m) * r)
        # u1 sends e_c to scalars[c] e_images[c]: column c holds that entry and -1
        rows = [{i: CycloNum.rational(order, -1)} for i in range(n)]
        for c, (i, scalar) in enumerate(zip(u1.images, u1.scalars)):
            rows[i][c] = rows[i].get(c, CycloNum.zero(order)) + zeta * scalar
        kernel = nullspace(rows, n, order)
        component = grading.component_bases[r]
        if len(kernel) != len(component):
            raise DescentError(
                f"residue {r}: fixed space dim {len(kernel)} != component dim {len(component)}"
            )
        solver = grading.component_solver(r)
        for v in kernel:
            if not solver.contains(v):
                raise DescentError(f"residue {r}: fixed vector escapes the grading component")
        kernels.append(tuple(kernel))
    return tuple(kernels)


def fixed_point_report(
    cocycle: LoopCocycle, grading: GradedDecomposition
) -> tuple[tuple[CheckReport, ...], dict[str, int]]:
    """The reports of the cocycle identity and the twisted fixed points, and
    the fixed dimension of every degree |j| <= 2m, as descent reports list them.

    `build_cocycle` checked the identity on all m^2 residue pairs and
    `twisted_fixed_points` certifies the m kernels, so every degree is
    covered; the listing repeats kernel j mod m over two periods either side
    of 0.
    """
    kernels = twisted_fixed_points(cocycle, grading)
    m = len(kernels)
    checks = (
        CheckReport(check="cocycle-identity", window=m, status="pass"),
        CheckReport(check="twisted-fixed-points", window=2 * m, status="pass"),
    )
    return checks, {str(j): len(kernels[j % m]) for j in range(-2 * m, 2 * m + 1)}


# -- matrix-unit fixtures ------------------------------------------------------


def build_matrix_algebra(
    n: int, exponents: Sequence[int], m: int
) -> tuple[MultTableAlgebra, FiniteOrderAutomorphism]:
    """M_n with its matrix-unit table and the diagonal conjugation twist.

    sigma = Ad(diag(zeta^a_1 .. zeta^a_n)) sends E_ik to zeta^(a_i - a_k) E_ik
    and has period m (not necessarily exact order).
    """
    alg, identity, shifts = matrix_twist_factors(n, exponents, m)
    return alg, twist(alg, identity, shifts, m)


def matrix_twist_factors(
    n: int, exponents: Sequence[int], m: int
) -> tuple[MultTableAlgebra, FiniteOrderAutomorphism, tuple[int, ...]]:
    """M_n over Q(zeta_m) on the matrix units, and the factors of
    Ad(diag(zeta^a)) as `twist` takes them: the identity outer map and the
    shifts a_i - a_k on E_ik.

    E_ik E_kj = E_ij and (a_i - a_k) + (a_k - a_j) = a_i - a_j: the shifts
    are additive, which is the certificate of the twist.
    """
    if n < 1:
        raise DescentError("n must be >= 1")
    if len(exponents) != n:
        raise DescentError("need one exponent per row")
    if m < 1:
        raise DescentError("period must be >= 1")
    idx = lambda i, k: i * n + k  # noqa: E731
    one = CycloNum.one(m)
    entries = {
        (idx(i, k), idx(k, j)): {idx(i, j): one}
        for i in range(n)
        for k in range(n)
        for j in range(n)
    }
    alg = MultTableAlgebra(
        dim=n * n,
        scalar_order=m,
        kind="associative",
        constants=make_table(entries),
        basis_labels=tuple(f"E{i + 1}{k + 1}" for i in range(n) for k in range(n)),
    )
    identity = check_diagonal_automorphism(alg, (0,) * alg.dim, 1)
    return alg, identity, matrix_unit_shifts(n, exponents)


def matrix_unit_shifts(n: int, exponents: Sequence[int]) -> tuple[int, ...]:
    """Degree shift a_i - a_k on the matrix unit E_ik."""
    return tuple(exponents[r // n] - exponents[r % n] for r in range(n * n))


# -- untwisting ----------------------------------------------------------------


class UntwistIso(Record):
    """Degree-shifting isomorphism from L(outer o diag(zeta_m^p)) onto L(outer).

    Both sides are graded with the common period M = lcm(|outer|, m); the
    target then occupies only the degrees divisible by M/|outer|, which is
    the usual relabeling t = z^M.  `shifts` holds the per-basis-vector degree
    drop, e_k z^j -> e_k z^(j - shifts[k]).  The report shows a window of
    two periods, as its checks do.
    """

    period: int
    toral_modulus: int
    shifts: tuple[int, ...]
    checks: tuple[CheckReport, ...]

    def to_obj(self) -> dict:
        return {
            "period": self.period,
            "toral_modulus": self.toral_modulus,
            "shifts": list(self.shifts),
            "window": 2 * self.period,
            "checks": [c.to_obj() for c in self.checks],
        }


_UNTWIST_CHECKS = ("lands-in-target", "lands-in-source", "bracket-preservation", "t-intertwine")


def _off_factor(
    sigma: FiniteOrderAutomorphism, outer: FiniteOrderAutomorphism, shifts: Sequence[int]
) -> Optional[int]:
    """The first basis index k at which sigma is not outer o diag(zeta_M^shifts),
    M = sigma.period, or None: sigma must send e_k to
    outer.scalars[k] zeta_M^shifts[k] e_(outer.images[k])."""
    order = sigma.scalar_order
    step = order // sigma.period
    for k, (image, scalar) in enumerate(zip(sigma.images, sigma.scalars)):
        diagonal = zeta_power(order, step * shifts[k])
        if image != outer.images[k] or scalar != outer.scalars[k] * diagonal:
            return k
    return None


def _verify_untwist(
    alg: MultTableAlgebra,
    sigma: FiniteOrderAutomorphism,
    outer: FiniteOrderAutomorphism,
    shifts: Sequence[int],
) -> tuple[CheckReport, ...]:
    """Certify phi: e_k z^j -> e_k z^(j - shifts[k]) from L(sigma) onto
    L(outer), both graded mod M = sigma.period, in every degree.

    Landing rests on two clauses on the basis, both reported as
    lands-in-target: sigma = outer o diag(zeta^shifts) with zeta = zeta_M
    (the factor clause), and shifts[outer.images[k]] = shifts[k] as integers
    (the invariance clause).  Split v = sum_s v^(s) by shift class.  Outer
    preserves each class, and diag acts on class s as zeta^s, so sigma
    preserves each class too and sigma v = zeta^r v gives, class by class,
    outer v^(s) = zeta^(r - s) v^(s).  So the piece of phi(v z^r) at degree
    r - s, which is v^(s), lies in outer's component r - s: phi lands in
    the target.  Conversely outer w = zeta^r w gives sigma w^(s) =
    zeta^(r + s) w^(s), so phi^-1(w z^r) lands in the source.  An outer
    eigenvector is supported on whole orbits, so a shift that agrees on an
    orbit only mod M splits it across degrees: agreement mod M is not enough.

    phi(e_a z^i . e_b z^j) and phi(e_a z^i) phi(e_b z^j) have the same
    terms, at degrees i + j - shifts[c] and i + j - shifts[a] - shifts[b],
    so phi preserves products in all degrees exactly when the shift is
    additive on every nonzero product of the table.  phi moves each basis
    vector by one integer, so it commutes with multiplication by t = z^M by
    its form (t-intertwine).  Each check raises on failure; the reports show
    a window of two periods.
    """
    labels = alg.basis_labels
    k = _off_factor(sigma, outer, shifts)
    if k is not None:
        raise DescentError(
            f"lands-in-target: the twist on {labels[k]} is not outer o zeta^{shifts[k]}"
        )
    for k, image in enumerate(outer.images):
        if shifts[image] != shifts[k]:
            raise DescentError(
                f"lands-in-target: shift {shifts[image]} of {labels[image]} is not "
                f"the shift {shifts[k]} of {labels[k]} on its orbit"
            )
    for a, b, _ in alg.constants:
        for c, _ in alg.basis_product(a, b):
            if shifts[c] != shifts[a] + shifts[b]:
                raise DescentError(
                    f"bracket preservation fails on the pair ({labels[a]}, {labels[b]}): "
                    f"shift {shifts[c]} of {labels[c]} is not {shifts[a]} + {shifts[b]}"
                )
    window = 2 * sigma.period
    return tuple(CheckReport(check=name, window=window, status="pass") for name in _UNTWIST_CHECKS)


def untwist_iso(
    alg: MultTableAlgebra,
    outer: FiniteOrderAutomorphism,
    exponents: Sequence[int],
    m: int,
) -> UntwistIso:
    """Explicit isomorphism L(outer o diag(zeta_m^p)) -> L(outer), verified in
    every degree from the two factors, with no grading computed.

    The twist is `grading.twist(alg, outer, exponents, m)`: for a type label
    outer is the diagram automorphism of pi and p_j = <s, weight of e_j>, for
    M_n it is the identity and p = a_i - a_k on E_ik.  e_j drops degree by
    (M/m) p_j, M = lcm(|outer|, m) the common period; the factor M/m (1
    whenever |outer| divides m) keeps the shift aligned with the
    common-period grading.
    """
    sigma = twist(alg, outer, exponents, m)
    shifts = tuple((sigma.period // m) * p for p in exponents)
    checks = _verify_untwist(alg, sigma, outer, shifts)
    return UntwistIso(period=sigma.period, toral_modulus=m, shifts=shifts, checks=checks)


# -- coboundary witnesses --------------------------------------------------------


def _verify_coboundary(
    sigma: FiniteOrderAutomorphism,
    shifts: Sequence[int],
) -> tuple[CheckReport, ...]:
    """Check u(n) = a^-1 o gamma^n(a) on every weight line, in every degree.

    a is the degree-lowering shift (the inverse of the raising map b), and
    sigma is diagonal on the basis, so both sides act on e_idx z^j by a scalar
    and no net degree move: u(n) by diag^(-n), and a^-1 gamma^n a gamma^-n by
    zeta^(-step n j) zeta^(step n (j - s)), in which j cancels.  So the
    identity is diag[idx]^(-n) = zeta^(-step n s) for each residue n and
    basis index idx.  Both sides are the n-th powers of their values at
    n = 1, so residue 1 covers every residue, and there the identity is the
    factor clause of `_verify_untwist` with the identity as outer map:
    sigma = diag(zeta^shifts).  The report shows a window of 2m.
    """
    one = CycloNum.one(sigma.scalar_order)
    identity = FiniteOrderAutomorphism(tuple(range(sigma.dim)), (one,) * sigma.dim, 1)
    k = _off_factor(sigma, identity, shifts)
    if k is not None:
        raise DescentError(f"coboundary identity fails at residue 1, basis {k}")
    return (CheckReport(check="coboundary-identity", window=2 * sigma.period, status="pass"),)


def coboundary_witness(
    alg: MultTableAlgebra,
    exponents: Sequence[int],
    m: int,
) -> tuple[tuple[int, ...], tuple[CheckReport, ...]]:
    """Witness trivializing the cocycle of the diagonal twist diag(zeta_m^p).

    The twist is tau_s of a type label (p_j = <s, weight of e_j>) or
    Ad(diag(zeta^a)) on M_n (p = a_i - a_k on E_ik).  Returns the degree
    shifts p defining a = b^-1 (b raises e_j z^i to e_j z^(i + p_j))
    together with the verification report for u(n) = a^-1 o gamma^n(a) over
    all residues, which covers every degree.
    """
    shifts = tuple(exponents)
    sigma = check_diagonal_automorphism(alg, shifts, m)
    return shifts, _verify_coboundary(sigma, shifts)
