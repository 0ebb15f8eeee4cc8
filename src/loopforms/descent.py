"""Galois-descent data for loop algebras over the punctured line.

The covering k[z,z^-1] / k[t,t^-1], t = z^m, is cyclic of degree m; the
generator acts by z -> zeta_m z.  One twist serves every table: a Lie
algebra twisted by pi o tau_s and M_n twisted by Ad(diag(zeta^a)) are both
`grading.twist(alg, outer, p, m)` = outer o diag(zeta_m^p), with outer the
diagram automorphism of pi or the identity and p = `alg.pairing(h)` for a
coweight h (s, or a), so `untwist_iso` takes (alg, outer, p, m) from either
and never reads a root system.
`matrix_twist_factors` alone decides that (n, a, m) names a twist of M_n,
and raises `record.RequestError` when it does not, as `chevalley.check_twist`
does for a type label, and writes M_n's table with the matrix units'
certificate.  A period-m automorphism sigma of A yields the
cocycle u(n mod m) = sigma^{-n} with values in Aut(A tensor S), and the
twisted fixed points of u recover the loop algebra L(sigma) degree by
degree.

Every identity is read off a certificate the twist already has, and holds
in all degrees.  `fixed_point_report` reads the cocycle identity off
sigma^m = 1 and the fixed points off the eigengrading.  `untwist_iso` is the
one descent certificate, an explicit isomorphism L(sigma) -> L(outer): its
degree shift is p scaled to the common period, and `grading.twist` has
already certified it on the basis (invariant under outer, for landing) and
on the table (additive as integers, for bracket preservation).  For an
inner twist, outer the identity, the coboundary identity is a corollary of
that isomorphism (`UntwistIso.witness_checks`).
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

from typing import Optional, Sequence

from .algebra import KIND_ASSOCIATIVE, MultTableAlgebra, certified_table
from .cyclo import CycloNum
from .grading import FiniteOrderAutomorphism, eigengrading, twist
from .record import MAX_DIM, MAX_PERIOD, Record, RequestError

__all__ = [
    "UntwistIso",
    "build_matrix_algebra",
    "fixed_point_report",
    "matrix_twist_factors",
    "untwist_iso",
]


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

    `eigengrading(alg, sigma)` refuses a sigma that `twist` did not certify on
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
    alg, *factors = matrix_twist_factors(n, exponents, m)
    return alg, twist(alg, *factors)


def matrix_twist_factors(
    n: int, exponents: Optional[Sequence[int]], m: int
) -> tuple[MultTableAlgebra, FiniteOrderAutomorphism, tuple[int, ...], int]:
    """M_n over Q(zeta_m) on the matrix units, and the factors of
    Ad(diag(zeta^a)) as `twist` takes them: the identity outer map, a plain
    value that `twist` certifies with no table pass, the exponents
    `alg.pairing(a)` and m.  exponents None is a = 0.

    E_ik has the weight eps_i - eps_k, so a_i - a_k, and E_ik E_kj = E_ij:
    the weights add, which is the certificate of the twist.  The table's
    certificate, which `algebra.certified_table` stores, is associativity:
    E_ab E_cd = delta_bc E_ad, so (E_ab E_cd) E_ef = delta_bc delta_de E_af
    = E_ab (E_cd E_ef), and the table holds exactly these products.  Before
    anything is built, `RequestError` refuses n < 1, a dimension n^2 above
    `record.MAX_DIM`, a count of exponents other than n, m < 1 and m above
    `record.MAX_PERIOD`.
    """
    if n < 1:
        raise RequestError(f"M_n needs n >= 1, got n = {n}")
    if n * n > MAX_DIM:
        raise RequestError(f"M_n needs n^2 <= {MAX_DIM}, the size limit, got n = {n}")
    exponents = (0,) * n if exponents is None else exponents
    if len(exponents) != n:
        raise RequestError(f"M_{n} needs one exponent per row, got {len(exponents)}")
    if m < 1:
        raise RequestError(f"the period m must be >= 1, got m = {m}")
    if m > MAX_PERIOD:
        raise RequestError(f"m = {m} exceeds the period limit {MAX_PERIOD}")
    rows = range(n)
    alg = certified_table(
        KIND_ASSOCIATIVE,
        [f"E{i + 1}{k + 1}" for i in rows for k in rows],
        tuple(tuple((r == i) - (r == k) for r in rows) for i in rows for k in rows),
        {(i * n + k, k * n + j): {i * n + j: 1} for i in rows for k in rows for j in rows},
        m,
    )
    identity = FiniteOrderAutomorphism(tuple(range(n * n)), (CycloNum.one(m),) * (n * n), 1)
    return alg, identity, alg.pairing(exponents), m


# -- untwisting ----------------------------------------------------------------


class UntwistIso(Record):
    """Degree-shifting isomorphism from L(outer o diag(zeta_m^p)) onto L(outer).

    Both sides are graded with the common period M = lcm(|outer|, m); the
    target then occupies only the degrees divisible by M/|outer|, which is
    the usual relabeling t = z^M.  `shifts` holds the per-basis-vector degree
    drop, e_k z^j -> e_k z^(j - shifts[k]).  `untwist_iso` returns one only
    after `grading.twist` has certified the clauses its rows name, each row
    with a window of two periods.
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

        `grading.twist` makes p additive as integers on the table, so
        mod m too: sigma is an automorphism, and a an algebra map of
        A tensor S.  u(n) = sigma^(-n) and a^-1 gamma^n(a) = a^-1 gamma^n a
        gamma^-n both scale e_k z^j by zeta^(-n p_k), the second as
        zeta^(-n j) zeta^(n (j - p_k)), for every residue n, index k and
        degree j.  A shift moved by a multiple of m names the same sigma but
        another a, which `twist` refuses where it breaks a product.
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


def untwist_iso(
    alg: MultTableAlgebra,
    outer: FiniteOrderAutomorphism,
    exponents: Sequence[int],
    m: int,
) -> UntwistIso:
    """Explicit isomorphism L(outer o diag(zeta_m^p)) -> L(outer), certified
    in every degree by `grading.twist(alg, outer, exponents, m)` alone, with
    no grading computed: the one descent certificate.

    Both sides are graded mod M = lcm(|outer|, m), the period of the twist,
    and phi: e_k z^j -> e_k z^(j - shifts[k]) with shifts = (M/m) p, so
    sigma = outer o diag(zeta^shifts), zeta = zeta_M.  Each row follows from
    a clause of `twist`, which holds for shifts as for p:

    * lands-in-target, from invariance.  Split v = sum_s v^(s) by shift
      class.  Outer preserves each class and diag acts on class s as zeta^s,
      so sigma v = zeta^r v gives outer v^(s) = zeta^(r - s) v^(s): the
      piece of phi(v z^r) at degree r - s lies in outer's component r - s.
      An outer eigenvector is supported on whole orbits, so a shift that
      agrees on an orbit only mod M would split it across degrees.
    * lands-in-source, from invariance: outer w = zeta^r w gives
      sigma w^(s) = zeta^(r + s) w^(s), so phi^-1(w z^r) lands in the source.
    * bracket-preservation, from additivity: phi(e_a z^i . e_b z^j) and
      phi(e_a z^i) phi(e_b z^j) have the same terms, at degrees
      i + j - shifts[c] and i + j - shifts[a] - shifts[b].
    * t-intertwine, from the form of phi, which moves each basis vector by
      one integer and so commutes with multiplication by t = z^M.

    With outer the identity the isomorphism also witnesses that the twist
    is a coboundary (`UntwistIso.witness_checks`).
    """
    sigma = twist(alg, outer, exponents, m)
    shifts = tuple((sigma.period // m) * p for p in exponents)
    return UntwistIso(period=sigma.period, toral_modulus=m, shifts=shifts)
