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

Every identity is read off a certificate the twist already has, and holds
in all degrees: `fixed_point_report` reads the cocycle identity off
sigma^m = 1 and the fixed points off the eigengrading, `coboundary_witness`
reads its identity off the diagonal certificate, and `untwist_iso`
certifies its degree shift on the table (additivity, for bracket
preservation) and on the basis (the twist is outer o diag(zeta^shift) with
the shift constant on the orbits of outer, for landing).  Nothing here
eliminates or takes a degree window; the `window` a report shows is read
off the period and bounds nothing that is checked.

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
    check_diagonal_automorphism,
    eigengrading,
    twist,
)
from .record import Record

__all__ = [
    "CheckReport",
    "DescentError",
    "UntwistIso",
    "build_matrix_algebra",
    "coboundary_witness",
    "fixed_point_report",
    "matrix_twist_factors",
    "matrix_unit_shifts",
    "untwist_iso",
]


class DescentError(ValueError):
    pass


# -- cocycles ------------------------------------------------------------------


class CheckReport(Record):
    """A certified identity; every check raises on failure, so it has passed."""

    check: str
    window: int

    def to_obj(self) -> dict:
        return {"check": self.check, "window": self.window, "status": "pass"}


def fixed_point_report(
    alg: MultTableAlgebra, sigma: FiniteOrderAutomorphism
) -> tuple[tuple[CheckReport, ...], dict[str, int]]:
    """The reports of the cocycle identity and the twisted fixed points of
    u(n) = sigma^(-n), and the fixed dimension of every degree |j| <= 2m,
    m = sigma.period, read off the certificate of sigma on alg.

    `eigengrading(alg, sigma)` refuses a sigma that no check certified on
    alg, so sigma is multiplicative on alg and sigma^m = 1.  Both identities
    are then theorems, for every degree:

    * Cocycle identity.  The values sigma^(-n) are constant in z, so gamma
      acts on them trivially and the identity u(n1 + n2) = u(n1) o
      gamma^n1(u(n2)) is sigma^(-n1 - n2) = sigma^(-n1) o sigma^(-n2).  u is
      well defined on residues because sigma^m = 1, so the identity holds on
      all m^2 residue pairs, hence in every degree.
    * Twisted fixed points.  On the slice A z^j the twisted action
      x z^j -> u(1)(gamma(x z^j)) is the constant map zeta^j sigma^(-1), so
      the fixed space of degree j is the kernel of zeta^j sigma^(-1) - 1, the
      zeta^j-eigenspace of sigma.  The eigengrading certifies dim A
      independent eigenvectors, component i scaled by zeta^i; eigenvectors
      of distinct eigenvalues are independent, so the zeta^j-eigenspace is
      component j mod m exactly, and its dimension is that component's.

    The listing repeats component j mod m over two periods either side of 0.
    """
    grading = eigengrading(alg, sigma)
    m = grading.period
    checks = (
        CheckReport(check="cocycle-identity", window=m),
        CheckReport(check="twisted-fixed-points", window=2 * m),
    )
    return checks, {str(j): grading.dims[j % m] for j in range(-2 * m, 2 * m + 1)}


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
    return tuple(CheckReport(check=name, window=window) for name in _UNTWIST_CHECKS)


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


def coboundary_witness(
    alg: MultTableAlgebra,
    exponents: Sequence[int],
    m: int,
) -> tuple[tuple[int, ...], tuple[CheckReport, ...]]:
    """Witness trivializing the cocycle of the diagonal twist diag(zeta_m^p).

    The twist is tau_s of a type label (p_j = <s, weight of e_j>) or
    Ad(diag(zeta^a)) on M_n (p = a_i - a_k on E_ik).  Returns the degree
    shifts p defining a = b^-1 (b raises e_j z^i to e_j z^(i + p_j))
    together with the report of u(n) = a^-1 o gamma^n(a) over all residues,
    which covers every degree.

    The certificate is `check_diagonal_automorphism`'s additivity pass, which
    makes sigma = diag(zeta_m^p) an automorphism of period m; the identity is
    then a theorem.  sigma is diagonal on the basis, so both sides act on
    e_k z^j by a scalar and no net degree move: u(n) = sigma^(-n) by
    zeta^(-n p_k), and a^-1 gamma^n a gamma^-n by zeta^(-n j) zeta^(n (j - p_k)),
    in which j cancels.  The two agree for every residue n, basis index k and
    degree j.  A shift moved by a multiple of m names the same sigma, so it
    passes too.  That a is an algebra map of A tensor S needs p additive as
    integers, which this certificate does not check; `untwist_iso(alg,
    identity, p, m)`, whose map is a, does.  The report shows a window of 2m.
    """
    shifts = tuple(exponents)
    check_diagonal_automorphism(alg, shifts, m)
    return shifts, (CheckReport(check="coboundary-identity", window=2 * m),)
