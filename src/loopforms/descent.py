"""Galois-descent data for loop algebras over the punctured line.

The covering k[z,z^-1] / k[t,t^-1], t = z^m, is cyclic of degree m; the
generator acts by z -> zeta_m z.  One twist serves every table: a Lie
algebra twisted by pi o tau_s and M_n twisted by Ad(diag(zeta^a)) are both
`grading.twist(alg, outer, p, m)` = outer o diag(zeta_m^p), with outer the
diagram automorphism of pi or the identity, so `untwist_iso` takes
(alg, outer, p, m) from either and never reads a root system.  A period-m
automorphism sigma of A yields the cocycle u(n mod m) = sigma^{-n} with
values in Aut(A tensor S), and the twisted fixed points of u recover the
loop algebra L(sigma) degree by degree.

Every identity is read off a certificate the twist already has, and holds
in all degrees.  `fixed_point_report` reads the cocycle identity off
sigma^m = 1 and the fixed points off the eigengrading.  `untwist_iso` is the
one descent certificate, an explicit isomorphism L(sigma) -> L(outer): it
certifies its degree shift on the basis (constant on the orbits of outer,
for landing) and on the table (additive as integers, for bracket
preservation).  For an inner twist, outer the identity, the coboundary
identity is a corollary of that isomorphism (`UntwistIso.witness_checks`).
Nothing here eliminates or takes a degree window; the `window` a report row
shows is read off the period and bounds nothing that is checked.

Conventions, pinned by the checks in this module:

* gamma acts on automorphisms by gamma(f) = gamma o f o gamma^-1,
* the coboundary direction is u(gamma) = a^-1 o gamma(a),
* the untwisting map lowers degrees, e_alpha z^j -> e_alpha z^(j - d(alpha)).

With a diagonal twist diag(zeta_m^p) these three together make a = b^-1
(b the raising shift) a coboundary witness, matching the vanishing of H^1
for the inner part of the automorphism group.
"""

from __future__ import annotations

from typing import Sequence

from .algebra import MultTableAlgebra, make_table
from .cyclo import CycloNum
from .grading import (
    FiniteOrderAutomorphism,
    check_diagonal_automorphism,
    eigengrading,
    twist,
)
from .record import Record

__all__ = [
    "DescentError",
    "UntwistIso",
    "build_matrix_algebra",
    "check_matrix_twist",
    "fixed_point_report",
    "matrix_twist_factors",
    "matrix_unit_shifts",
    "untwist_iso",
]


class DescentError(ValueError):
    pass


def _passed(check: str, window: int) -> dict:
    """The report row of a check; every check raises on failure, so it has
    passed."""
    return {"check": check, "window": window, "status": "pass"}


# -- cocycles ------------------------------------------------------------------


def fixed_point_report(
    alg: MultTableAlgebra, sigma: FiniteOrderAutomorphism
) -> tuple[list[dict], dict[str, int]]:
    """The report rows of the cocycle identity and the twisted fixed points of
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
      zeta^j-eigenspace of sigma.  The eigengrading writes down dim A
      independent eigenvectors, component i scaled by zeta^i; eigenvectors
      of distinct eigenvalues are independent, so the zeta^j-eigenspace is
      component j mod m exactly, and its dimension is that component's.

    The listing repeats component j mod m over two periods either side of 0.
    """
    grading = eigengrading(alg, sigma)
    m = grading.period
    checks = [_passed("cocycle-identity", m), _passed("twisted-fixed-points", 2 * m)]
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
    check_matrix_twist(n, exponents, m)
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


def check_matrix_twist(n: int, exponents: Sequence[int], m: int, error=DescentError) -> None:
    """Raise `error` before anything is built unless n >= 1, exponents has n entries and m >= 1."""
    if n < 1:
        raise error(f"M_n needs n >= 1, got n = {n}")
    if len(exponents) != n:
        raise error(f"M_{n} needs one exponent per row, got {len(exponents)}")
    if m < 1:
        raise error(f"the period m must be >= 1, got m = {m}")


def matrix_unit_shifts(n: int, exponents: Sequence[int]) -> tuple[int, ...]:
    """Degree shift a_i - a_k on the matrix unit E_ik."""
    return tuple(exponents[r // n] - exponents[r % n] for r in range(n * n))


# -- untwisting ----------------------------------------------------------------


class UntwistIso(Record):
    """Degree-shifting isomorphism from L(outer o diag(zeta_m^p)) onto L(outer).

    Both sides are graded with the common period M = lcm(|outer|, m); the
    target then occupies only the degrees divisible by M/|outer|, which is
    the usual relabeling t = z^M.  `shifts` holds the per-basis-vector degree
    drop, e_k z^j -> e_k z^(j - shifts[k]).  `untwist_iso` returns one only
    after every check has passed, so its rows are the names of those checks,
    each with a window of two periods.
    """

    period: int
    toral_modulus: int
    shifts: tuple[int, ...]

    @property
    def checks(self) -> list[dict]:
        return [_passed(name, 2 * self.period) for name in _UNTWIST_CHECKS]

    @property
    def witness_checks(self) -> list[dict]:
        """The untwist rows and the coboundary-identity row of sigma =
        diag(zeta_m^p), m = toral_modulus, window 2m.  Its callers untwist
        onto the identity outer map, so this map is the witness a = b^-1.

        The additivity clause makes p additive as integers on the table, so
        mod m too: sigma is an automorphism, and a an algebra map of
        A tensor S.  u(n) = sigma^(-n) and a^-1 gamma^n(a) = a^-1 gamma^n a
        gamma^-n both scale e_k z^j by zeta^(-n p_k), the second as
        zeta^(-n j) zeta^(n (j - p_k)), for every residue n, index k and
        degree j.  A shift moved by a multiple of m names the same sigma but
        another a, which additivity refuses where it breaks a product.
        """
        return self.checks + [_passed("coboundary-identity", 2 * self.toral_modulus)]

    def to_obj(self) -> dict:
        return {
            "period": self.period,
            "toral_modulus": self.toral_modulus,
            "shifts": list(self.shifts),
            "window": 2 * self.period,
            "checks": self.checks,
        }


_UNTWIST_CHECKS = ("lands-in-target", "lands-in-source", "bracket-preservation", "t-intertwine")


def _verify_untwist(
    alg: MultTableAlgebra, outer: FiniteOrderAutomorphism, shifts: Sequence[int]
) -> None:
    """Certify phi: e_k z^j -> e_k z^(j - shifts[k]) from L(sigma) onto
    L(outer), sigma = outer o diag(zeta^shifts) with zeta = zeta_M, both
    graded mod the common period M, in every degree.

    sigma has that form by construction: `untwist_iso` takes it from
    `grading.twist`, which composes outer with diag(zeta_m^p), and
    zeta_m^p = zeta_M^((M/m) p) is zeta^shifts.  Landing then rests on one
    clause on the basis, reported as lands-in-target: shifts[outer.images[k]]
    = shifts[k] as integers (the invariance clause).  Split v = sum_s v^(s)
    by shift class.  Outer preserves each class, and diag acts on class s as
    zeta^s, so sigma preserves each class too and sigma v = zeta^r v gives,
    class by class, outer v^(s) = zeta^(r - s) v^(s).  So the piece of
    phi(v z^r) at degree r - s, which is v^(s), lies in outer's component
    r - s: phi lands in the target.  Conversely outer w = zeta^r w gives
    sigma w^(s) = zeta^(r + s) w^(s), so phi^-1(w z^r) lands in the source.
    An outer eigenvector is supported on whole orbits, so a shift that
    agrees on an orbit only mod M splits it across degrees: agreement mod M
    is not enough.

    phi(e_a z^i . e_b z^j) and phi(e_a z^i) phi(e_b z^j) have the same
    terms, at degrees i + j - shifts[c] and i + j - shifts[a] - shifts[b],
    so phi preserves products in all degrees exactly when the shift is
    additive on every nonzero product of the table (the additivity clause).
    phi moves each basis vector by one integer, so it commutes with
    multiplication by t = z^M by its form (t-intertwine).  Each check raises
    on failure.
    """
    labels = alg.basis_labels
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


def untwist_iso(
    alg: MultTableAlgebra,
    outer: FiniteOrderAutomorphism,
    exponents: Sequence[int],
    m: int,
) -> UntwistIso:
    """Explicit isomorphism L(outer o diag(zeta_m^p)) -> L(outer), verified in
    every degree from the two factors, with no grading computed: the one
    descent certificate.

    The twist is `grading.twist(alg, outer, exponents, m)`: for a type label
    outer is the diagram automorphism of pi and p_j = <s, weight of e_j>, for
    M_n it is the identity and p = a_i - a_k on E_ik.  e_j drops degree by
    (M/m) p_j, M = lcm(|outer|, m) the common period; the factor M/m (1
    whenever |outer| divides m) keeps the shift aligned with the
    common-period grading.  With outer the identity the isomorphism also
    witnesses that the twist is a coboundary (`UntwistIso.witness_checks`).
    """
    sigma = twist(alg, outer, exponents, m)
    shifts = tuple((sigma.period // m) * p for p in exponents)
    _verify_untwist(alg, outer, shifts)
    return UntwistIso(period=sigma.period, toral_modulus=m, shifts=shifts)
