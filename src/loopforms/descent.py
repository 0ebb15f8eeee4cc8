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
the table's nonzero products.  Every other identity depends on the degree j
only through j mod the period, so one period of residues covers all degrees,
and no function here takes a degree window.  The `window` a report shows is
read off the period it already has (two periods on the untwist and
twisted-fixed-point checks, 2m on the coboundary identity, one period on the
cocycle identity) and bounds nothing that is checked.

Elements of the loop algebra live here too: a `LoopElement` is a finite sum
of homogeneous terms, {degree: sparse vector}; `ts_product` multiplies two in
A tensor k[z, 1/z], and `loop_bracket` also checks that both factors and the
product lie on the grading.  The untwisting map moves them degree by degree.

Conventions, pinned by the checks in this module:

* gamma acts on automorphisms by gamma(f) = gamma o f o gamma^-1,
* the coboundary direction is u(gamma) = a^-1 o gamma(a),
* the untwisting map lowers degrees, e_alpha z^j -> e_alpha z^(j - d(alpha)).

With a diagonal twist diag(zeta_m^p) these three together make a = b^-1
(b the raising shift) a coboundary witness, matching the vanishing of H^1
for the inner part of the automorphism group.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .algebra import MultTableAlgebra, make_table
from .cyclo import CycloNum, zeta_power
from .grading import (
    FiniteOrderAutomorphism,
    GradedDecomposition,
    GradingError,
    check_diagonal_automorphism,
    eigengrading,
    twist,
)
from .linalg import Sparse, nullspace, sparse_add
from .record import Record

__all__ = [
    "CheckReport",
    "DescentError",
    "LoopCocycle",
    "LoopElement",
    "UntwistIso",
    "build_cocycle",
    "build_matrix_algebra",
    "check_loop_element",
    "coboundary_witness",
    "fixed_point_report",
    "loop_bracket",
    "loop_element",
    "matrix_twist_factors",
    "matrix_unit_shifts",
    "ts_product",
    "twisted_fixed_points",
    "untwist_iso",
]


class DescentError(ValueError):
    pass


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


def _shift_element(x: LoopElement, shifts: Sequence[int], direction: int) -> LoopElement:
    """Move each weight component of x down (direction=+1) or up by its shift.

    Each basis index has one shift, so two degrees of x never send the same
    index to the same degree: entries are moved, never added.
    """
    moved: dict[int, Sparse] = {}
    for j, v in x.terms.items():
        for idx, c in v.items():
            moved.setdefault(j - direction * shifts[idx], {})[idx] = c
    return LoopElement({d: moved[d] for d in sorted(moved)})


class UntwistIso(Record):
    """Degree-shifting isomorphism from L(outer o diag(zeta_m^p)) onto L(outer).

    Both sides are graded with the common period M = lcm(|outer|, m); the
    target then occupies only the degrees divisible by M/|outer|, which is
    the usual relabeling t = z^M.  `shifts` holds the per-basis-vector degree drop.
    The report shows a window of two periods, as its checks do.
    """

    period: int
    toral_modulus: int
    shifts: tuple[int, ...]
    checks: tuple[CheckReport, ...]

    def apply(self, x: LoopElement) -> LoopElement:
        return _shift_element(x, self.shifts, +1)

    def to_obj(self) -> dict:
        return {
            "period": self.period,
            "toral_modulus": self.toral_modulus,
            "shifts": list(self.shifts),
            "window": 2 * self.period,
            "checks": [c.to_obj() for c in self.checks],
        }


def _verify_untwist(
    alg: MultTableAlgebra,
    source_grading: GradedDecomposition,
    target_grading: GradedDecomposition,
    shifts: Sequence[int],
) -> tuple[CheckReport, ...]:
    """Certify phi: e_k z^j -> e_k z^(j - shifts[k]) in every degree.

    phi commutes with multiplication by z^M (M the common period), and the
    components are indexed by degree mod M, so landing and t-intertwining
    are checked on each component vector at the one degree 0 <= r < M of
    its residue.  phi(e_a z^i . e_b z^j) and phi(e_a z^i) phi(e_b z^j) have
    the same terms, at degrees i + j - shifts[c] and i + j - shifts[a] -
    shifts[b], so phi preserves products in all degrees exactly when the
    shift is additive on every nonzero product of the table.  Each check
    raises on failure; the reports of those that passed show a window of two
    periods.
    """
    m = source_grading.period
    passed = []

    def land(grading_from: GradedDecomposition, grading_to: GradedDecomposition, direction: int, name: str) -> None:
        for r in range(m):
            for v in grading_from.component_bases[r]:
                image = _shift_element(LoopElement({r: v}), shifts, direction)
                for d, piece in image.terms.items():
                    if not grading_to.component_solver(d % m).contains(piece):
                        raise DescentError(
                            f"{name}: degree {r} image piece at degree {d} "
                            "escapes the expected component"
                        )
        passed.append(name)

    land(source_grading, target_grading, +1, "lands-in-target")
    land(target_grading, source_grading, -1, "lands-in-source")

    labels = alg.basis_labels
    for a, b, _ in alg.constants:
        for c, _ in alg.basis_product(a, b):
            if shifts[c] != shifts[a] + shifts[b]:
                raise DescentError(
                    f"bracket preservation fails on the pair ({labels[a]}, {labels[b]}): "
                    f"shift {shifts[c]} of {labels[c]} is not {shifts[a]} + {shifts[b]}"
                )
    passed.append("bracket-preservation")

    for r in range(m):
        for v in source_grading.component_bases[r]:
            lhs = _shift_element(LoopElement({r + m: v}), shifts, +1)
            image = _shift_element(LoopElement({r: v}), shifts, +1)
            if lhs.terms != {d + m: piece for d, piece in image.terms.items()}:
                raise DescentError(f"t-action intertwining fails at degree {r}")
    passed.append("t-intertwine")
    return tuple(CheckReport(check=name, window=2 * m, status="pass") for name in passed)


def untwist_iso(
    alg: MultTableAlgebra,
    outer: FiniteOrderAutomorphism,
    exponents: Sequence[int],
    m: int,
) -> UntwistIso:
    """Explicit isomorphism L(outer o diag(zeta_m^p)) -> L(outer), verified in
    every degree.

    The twist is `grading.twist(alg, outer, exponents, m)`: for a type label
    outer is the diagram automorphism of pi and p_j = <s, weight of e_j>, for
    M_n it is the identity and p = a_i - a_k on E_ik.  e_j drops degree by
    (M/m) p_j, M = lcm(|outer|, m) the common period; the factor M/m (1
    whenever |outer| divides m) keeps the shift aligned with the
    common-period grading.
    """
    sigma = twist(alg, outer, exponents, m)
    period = sigma.period
    step = period // m
    shifts = tuple(step * p for p in exponents)
    source_grading = eigengrading(alg, sigma)
    target_grading = eigengrading(alg, outer.with_period(period))
    checks = _verify_untwist(alg, source_grading, target_grading, shifts)
    return UntwistIso(period=period, toral_modulus=m, shifts=shifts, checks=checks)


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
    basis index idx; the report shows a window of 2m.
    """
    m = sigma.period
    order = sigma.scalar_order
    dim = sigma.dim
    if sigma.images != tuple(range(dim)):
        raise DescentError("witness construction needs a diagonal (toral) twist")
    diag = sigma.scalars
    step = order // m
    for n in range(m):
        for idx in range(dim):
            # u(n): scalar diag^(-n); a^-1 gamma^n a gamma^-n: zeta^(-step n s)
            lhs_scalar = diag[idx].inverse() ** n if n else CycloNum.one(order)
            if lhs_scalar != zeta_power(order, -step * n * shifts[idx]):
                raise DescentError(f"coboundary identity fails at residue {n}, basis {idx}")
    return (CheckReport(check="coboundary-identity", window=2 * m, status="pass"),)


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
