"""Galois-descent data for loop algebras over the punctured line.

The covering k[z,z^-1] / k[t,t^-1], t = z^m, is cyclic of degree m; the
generator acts by z -> zeta_m z.  A period-m automorphism sigma of A yields
the cocycle u(n mod m) = sigma^{-n} with values in Aut(A tensor S), and the
twisted fixed points of u recover the loop algebra L(sigma) degree by degree.
Everything here is verified on an explicit degree window: identities are
degree-wise and periodic, so a window past one full period exercises every
residue interaction (default window = 2 * period).

Conventions, pinned by the checks in this module:

* gamma acts on automorphisms by gamma(f) = gamma o f o gamma^-1,
* the coboundary direction is u(gamma) = a^-1 o gamma(a),
* the untwisting map lowers degrees, e_alpha z^j -> e_alpha z^(j - d(alpha)).

With a toral twist tau_s these three together make a = b^-1 (b the raising
shift) a coboundary witness, matching the vanishing of H^1 for the inner
part of the automorphism group.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Optional, Sequence

from .algebra import (
    GradedDecomposition,
    LoopElement,
    MultTableAlgebra,
    FiniteOrderAutomorphism,
    check_automorphism,
    eigengrading,
    loop_element,
    make_table,
    ts_product,
)
from .chevalley import (
    DiagramPermutation,
    RootSystem,
    ToralCharge,
    charge_pairings,
    diagram_and_composition,
)
from .cyclo import CycloNum, zeta_power
from .linalg import Sparse, nullspace

__all__ = [
    "CheckReport",
    "DescentError",
    "LoopCocycle",
    "UntwistIso",
    "build_cocycle",
    "build_matrix_algebra",
    "coboundary_witness",
    "coboundary_witness_matrix",
    "matrix_unit_shifts",
    "twisted_fixed_points",
    "untwist_iso",
    "untwist_matrix_iso",
]


class DescentError(ValueError):
    pass


@dataclass(frozen=True)
class CheckReport:
    check: str
    window: int
    status: str
    witness: Optional[str] = None

    def to_obj(self) -> dict:
        obj: dict = {"check": self.check, "window": self.window, "status": self.status}
        if self.witness is not None:
            obj["witness"] = self.witness
        return obj


def _passed(check: str, window: int) -> CheckReport:
    return CheckReport(check=check, window=window, status="pass")


@dataclass(frozen=True)
class LoopCocycle:
    """u(n mod m) = sigma^(-n), one constant automorphism of A per residue."""

    sigma: FiniteOrderAutomorphism
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
    return LoopCocycle(sigma=sigma, values=values)


def twisted_fixed_points(
    cocycle: LoopCocycle, grading: GradedDecomposition, window: int
) -> dict[int, tuple[Sparse, ...]]:
    """Fixed spaces of x -> u(1)(gamma(x)) per degree; must equal the grading.

    On the slice A z^j the twisted action is the constant map
    zeta^j sigma^(-1), so the fixed space is the kernel of
    (zeta^j sigma^(-1) - id).  That kernel is computed by elimination, apart
    from the closed-form grading, on sparse rows: sigma^(-1) is monomial, so
    each row has at most two entries.  The descent claim, at window scale, is
    that this kernel coincides with the eigenspace component for residue j:
    equal dimensions, and every kernel vector in the component's span; any
    mismatch raises.
    """
    if window < 1:
        raise DescentError("window must be >= 1")
    m = cocycle.period
    if grading.period != m:
        raise DescentError("cocycle and grading periods differ")
    order = grading.scalar_order
    n = grading.dim
    u1 = cocycle.value(1)
    out: dict[int, tuple[Sparse, ...]] = {}
    for j in range(-window, window + 1):
        zeta = zeta_power(order, (order // m) * j)
        # u1 sends e_c to scalars[c] e_images[c]: column c holds that entry and -1
        rows = [{r: CycloNum.rational(order, -1)} for r in range(n)]
        for c, (r, scalar) in enumerate(zip(u1.images, u1.scalars)):
            rows[r][c] = rows[r].get(c, CycloNum.zero(order)) + zeta * scalar
        kernel = nullspace(rows, n, order)
        component = grading.component_bases[j % m]
        if len(kernel) != len(component):
            raise DescentError(
                f"degree {j}: fixed space dim {len(kernel)} != component dim {len(component)}"
            )
        solver = grading.component_solver(j % m)
        for v in kernel:
            if not solver.contains(v):
                raise DescentError(f"degree {j}: fixed vector escapes the grading component")
        out[j] = tuple(kernel)
    return out


# -- matrix-unit fixtures ------------------------------------------------------


def build_matrix_algebra(
    n: int, exponents: Sequence[int], m: int
) -> tuple[MultTableAlgebra, FiniteOrderAutomorphism]:
    """M_n with its matrix-unit table and the diagonal conjugation twist.

    sigma = Ad(diag(zeta^a_1 .. zeta^a_n)) sends E_ik to zeta^(a_i - a_k) E_ik
    and has period m (not necessarily exact order).
    """
    if n < 1:
        raise DescentError("n must be >= 1")
    if len(exponents) != n:
        raise DescentError("need one exponent per row")
    if m < 1:
        raise DescentError("period must be >= 1")
    dim = n * n
    idx = lambda i, k: i * n + k  # noqa: E731
    labels = tuple(f"E{i + 1}{k + 1}" for i in range(n) for k in range(n))
    one = CycloNum.one(m)
    entries = {}
    for i in range(n):
        for k in range(n):
            for l in range(n):
                for j in range(n):
                    if k == l:
                        entries[(idx(i, k), idx(l, j))] = {idx(i, j): one}
    alg = MultTableAlgebra(
        dim=dim,
        scalar_order=m,
        kind="associative",
        constants=make_table(entries),
        basis_labels=labels,
    )
    scalars = [zeta_power(m, shift) for shift in matrix_unit_shifts(n, exponents)]
    sigma = check_automorphism(alg, range(dim), scalars, m)
    return alg, sigma


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


@dataclass(frozen=True)
class UntwistIso:
    """Degree-shifting isomorphism from L(pi o tau_s) onto L(pi).

    Both sides are graded with the common period M = lcm(|pi|, m); the target
    then occupies only the degrees divisible by M/|pi|, which is the usual
    relabeling t = z^M.  `shifts` holds the per-basis-vector degree drop.
    """

    period: int
    toral_modulus: int
    shifts: tuple[int, ...]
    window: int
    checks: tuple[CheckReport, ...]

    def apply(self, x: LoopElement) -> LoopElement:
        return _shift_element(x, self.shifts, +1)

    def apply_inverse(self, x: LoopElement) -> LoopElement:
        return _shift_element(x, self.shifts, -1)

    def to_obj(self) -> dict:
        return {
            "period": self.period,
            "toral_modulus": self.toral_modulus,
            "shifts": list(self.shifts),
            "window": self.window,
            "checks": [c.to_obj() for c in self.checks],
        }


def _window_slices(
    grading: GradedDecomposition, window: int
) -> list[tuple[int, Sparse]]:
    slices = []
    for j in range(-window, window + 1):
        for v in grading.component_bases[j % grading.period]:
            slices.append((j, v))
    return slices


def _verify_untwist(
    alg: MultTableAlgebra,
    source_grading: GradedDecomposition,
    target_grading: GradedDecomposition,
    shifts: Sequence[int],
    window: int,
) -> tuple[CheckReport, ...]:
    m = source_grading.period
    checks = []

    def land(grading_from: GradedDecomposition, grading_to: GradedDecomposition, direction: int, name: str) -> None:
        for j, v in _window_slices(grading_from, window):
            image = _shift_element(loop_element([(j, v)]), shifts, direction)
            for d, piece in image.terms.items():
                if not grading_to.component_solver(d % m).contains(piece):
                    raise DescentError(
                        f"{name}: degree {j} image piece at degree {d} "
                        "escapes the expected component"
                    )
        checks.append(_passed(name, window))

    land(source_grading, target_grading, +1, "lands-in-target")
    land(target_grading, source_grading, -1, "lands-in-source")

    source_slices = _window_slices(source_grading, window)
    pairs = 0
    for i, v in source_slices:
        for j, w in source_slices:
            if abs(i + j) > window:
                continue
            x = loop_element([(i, v)])
            y = loop_element([(j, w)])
            lhs = _shift_element(ts_product(alg, x, y), shifts, +1)
            rhs = ts_product(alg, _shift_element(x, shifts, +1), _shift_element(y, shifts, +1))
            if lhs != rhs:
                raise DescentError(
                    f"bracket preservation fails on slice pair ({i}, {j})"
                )
            pairs += 1
    if not source_slices:
        raise DescentError("empty window")
    checks.append(_passed("bracket-preservation", window))

    for j, v in source_slices:
        x = loop_element([(j, v)])
        lhs = _shift_element(x.shift(m), shifts, +1)
        rhs = _shift_element(x, shifts, +1).shift(m)
        if lhs != rhs:
            raise DescentError(f"t-action intertwining fails at degree {j}")
    checks.append(_passed("t-intertwine", window))
    return tuple(checks)


def untwist_iso(
    alg: MultTableAlgebra,
    rs: RootSystem,
    perm: DiagramPermutation,
    charge: ToralCharge,
    window: Optional[int] = None,
) -> UntwistIso:
    """Explicit isomorphism L(pi o tau_s) -> L(pi), verified on a window.

    Root vectors drop degree by (M/m) * <s, alpha>; Cartan directions are
    unshifted.  The factor M/m (trivial whenever the order of pi divides m)
    keeps the shift aligned with the common-period grading.
    """
    pi_auto, sigma = diagram_and_composition(alg, rs, perm, charge)
    period = sigma.period
    if window is None:
        window = 2 * period
    pairings = charge_pairings(rs, charge)
    step = period // charge.modulus
    shifts = tuple(step * p for p in pairings)
    pi_common = check_automorphism(alg, pi_auto.images, pi_auto.scalars, period)
    source_grading = eigengrading(alg, sigma)
    target_grading = eigengrading(alg, pi_common)
    checks = _verify_untwist(alg, source_grading, target_grading, shifts, window)
    return UntwistIso(
        period=period,
        toral_modulus=charge.modulus,
        shifts=shifts,
        window=window,
        checks=checks,
    )


def untwist_matrix_iso(
    n: int,
    exponents: Sequence[int],
    m: int,
    window: Optional[int] = None,
) -> UntwistIso:
    """Trivialization of the M_n covering algebra twisted by Ad(diag)."""
    alg, sigma = build_matrix_algebra(n, exponents, m)
    if window is None:
        window = 2 * m
    shifts = matrix_unit_shifts(n, exponents)
    identity = check_automorphism(alg, range(alg.dim), [CycloNum.one(m)] * alg.dim, m)
    source_grading = eigengrading(alg, sigma)
    target_grading = eigengrading(alg, identity)
    checks = _verify_untwist(alg, source_grading, target_grading, shifts, window)
    return UntwistIso(
        period=m,
        toral_modulus=m,
        shifts=shifts,
        window=window,
        checks=checks,
    )


# -- coboundary witnesses --------------------------------------------------------


def _verify_coboundary(
    sigma: FiniteOrderAutomorphism,
    shifts: Sequence[int],
    window: int,
) -> tuple[CheckReport, ...]:
    """Check u(n) = a^-1 o gamma^n(a) on every weight line in the window.

    a is the degree-lowering shift (the inverse of the raising map b), and
    sigma is diagonal on the basis, so both sides act on e_idx z^j by a scalar
    and a degree move; the comparison is exact and term-by-term.
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
            for j in range(-window, window + 1):
                # u(n): scalar diag^(-n), degree kept
                lhs_scalar = diag[idx].inverse() ** n if n else CycloNum.one(order)
                # a^-1 gamma^n a gamma^-n: degrees j -> j -> j - s -> j - s -> j
                s = shifts[idx]
                rhs_scalar = (
                    zeta_power(order, step * (-n) * j)
                    * zeta_power(order, step * n * (j - s))
                )
                if not (lhs_scalar - rhs_scalar).is_zero():
                    raise DescentError(
                        f"coboundary identity fails at residue {n}, basis {idx}, degree {j}"
                    )
    return (_passed("coboundary-identity", window),)


def coboundary_witness(
    alg: MultTableAlgebra,
    rs: RootSystem,
    charge: ToralCharge,
    window: Optional[int] = None,
) -> tuple[tuple[int, ...], tuple[CheckReport, ...]]:
    """Witness trivializing the cocycle of a toral twist tau_s.

    Returns the degree shifts defining a = b^-1 (b raises e_alpha z^j to
    e_alpha z^(j + <s, alpha>)) together with the verification report for
    u(n) = a^-1 o gamma^n(a) over all residues and window degrees.
    """
    from .chevalley import toral_automorphism

    m = charge.modulus
    if window is None:
        window = 2 * m
    if alg.scalar_order % m != 0:
        raise DescentError(f"scalar order {alg.scalar_order} lacks the {m}-th roots of unity")
    sigma = toral_automorphism(alg, rs, charge)
    shifts = charge_pairings(rs, charge)
    checks = _verify_coboundary(sigma, shifts, window)
    return shifts, checks


def coboundary_witness_matrix(
    n: int,
    exponents: Sequence[int],
    m: int,
    window: Optional[int] = None,
) -> tuple[tuple[int, ...], tuple[CheckReport, ...]]:
    """Matrix-unit variant: shift a_i - a_k on E_ik trivializes Ad(diag)."""
    if window is None:
        window = 2 * m
    _, sigma = build_matrix_algebra(n, exponents, m)
    shifts = matrix_unit_shifts(n, exponents)
    checks = _verify_coboundary(sigma, shifts, window)
    return shifts, checks
