"""Split simple Lie algebras from Cartan matrices, with exact brackets.

The construction is the classical one: generate the root system by closing
the simple roots under simple reflections, then realize the algebra on the
basis h_1..h_l, e_alpha (positives), e_-alpha with structure constants
N_{alpha,beta} = +-(p+1).  Signs are fixed by choosing +(p+1) on extraspecial
pairs (the minimal decomposition of each positive root in the height-then-lex
order) and propagating every other constant through the Jacobi identity.  Two
layers of assertions back the construction: every derived constant must have
the predicted magnitude p+1, and the finished table must pass the full
antisymmetry/Jacobi validation.

Automorphisms come in three flavours here:

* diagram automorphisms induced by a symmetry of the Cartan matrix,
* toral (diagonal) automorphisms e_alpha -> zeta^<s,alpha> e_alpha,
* commuting compositions of the two.

All three are monomial in the Chevalley basis, e_j -> c_j e_p(j): a diagram
symmetry is a signed permutation of the basis, a toral twist is diagonal.
Each is returned as a checked `FiniteOrderAutomorphism`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Optional, Sequence

from .algebra import (
    FiniteOrderAutomorphism,
    MultTableAlgebra,
    Sparse,
    check_automorphism,
    embed_algebra,
    make_table,
)
from .cyclo import CycloNum, zeta_power
from .linalg import int_rank_det

__all__ = [
    "DiagramPermutation",
    "FiniteCartanMatrix",
    "LieConstructError",
    "RootSystem",
    "ToralCharge",
    "algebra_over",
    "cartan_matrix",
    "charge_pairings",
    "chevalley_algebra",
    "compose_pi_toral",
    "diagram_and_composition",
    "diagram_automorphism",
    "root_system",
    "standard_algebra",
    "toral_automorphism",
]

TYPE_LABELS = (
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
    "B2", "B3", "B4", "B5", "B6", "B7", "B8",
    "C3", "C4", "C5", "C6", "C7", "C8",
    "D4", "D5", "D6", "D7", "D8",
    "E6", "E7", "E8", "F4", "G2",
)


class LieConstructError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteCartanMatrix:
    rank: int
    entries: tuple[tuple[int, ...], ...]
    type_label: str

    def __post_init__(self) -> None:
        a = self.entries
        if len(a) != self.rank or any(len(row) != self.rank for row in a):
            raise LieConstructError("Cartan matrix must be rank x rank")
        for i in range(self.rank):
            if a[i][i] != 2:
                raise LieConstructError("Cartan matrix diagonal must be 2")
            for j in range(self.rank):
                if i != j:
                    if a[i][j] > 0:
                        raise LieConstructError("off-diagonal entries must be <= 0")
                    if (a[i][j] == 0) != (a[j][i] == 0):
                        raise LieConstructError("zero pattern must be symmetric")
        # finite type: every leading principal minor positive
        for k in range(1, self.rank + 1):
            if int_rank_det([row[:k] for row in a[:k]])[1] <= 0:
                raise LieConstructError("matrix is not of finite type")


def _chain(l: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(l)] for i in range(l)]
    for i in range(l - 1):
        a[i][i + 1] = -1
        a[i + 1][i] = -1
    return a


@lru_cache(maxsize=None)
def cartan_matrix(label: str) -> FiniteCartanMatrix:
    """Cartan matrix for A1..E8, F4, G2, in Bourbaki's node numbering.

    B_l and C_l are transposed against Bourbaki: the -2 of "B<l>" sits where
    Bourbaki's C_l has it, so read with a_ij = <alpha_i^vee, alpha_j>, as
    `root_system` does, "B3" has the highest root (2, 2, 1) of C3.  This
    stands until the two labels are exchanged (ROADMAP item 4).
    """
    if len(label) < 2 or label[0] not in "ABCDEFG" or not label[1:].isdigit():
        raise LieConstructError(f"unknown type label {label!r}")
    family, l = label[0], int(label[1:])
    valid = {
        "A": l >= 1,
        "B": l >= 2,
        "C": l >= 3,
        "D": l >= 4,
        "E": l in (6, 7, 8),
        "F": l == 4,
        "G": l == 2,
    }[family]
    if not valid:
        raise LieConstructError(f"unsupported type label {label!r}")
    if family == "A":
        a = _chain(l)
    elif family == "B":
        a = _chain(l)
        a[l - 2][l - 1] = -2  # short last simple root
    elif family == "C":
        a = _chain(l)
        a[l - 1][l - 2] = -2  # long last simple root
    elif family == "D":
        a = _chain(l - 1)
        for row in a:
            row.append(0)
        a.append([0] * l)
        a[l - 1][l - 1] = 2
        a[l - 3][l - 1] = -1
        a[l - 1][l - 3] = -1
    elif family == "E":
        a = [[2 if i == j else 0 for j in range(l)] for i in range(l)]
        # chain 1-3-4-5-...-l with node 2 hanging off node 4
        chain = [0] + list(range(2, l))
        for u, v in zip(chain, chain[1:]):
            a[u][v] = a[v][u] = -1
        a[1][3] = a[3][1] = -1
    elif family == "F":
        a = _chain(4)
        a[1][2] = -2
        a[2][1] = -1
    else:  # G2
        a = [[2, -1], [-3, 2]]
    return FiniteCartanMatrix(rank=l, entries=tuple(tuple(row) for row in a), type_label=label)


# -- root systems -------------------------------------------------------------

Root = tuple[int, ...]

_CLOSURE_BOUND = 500


@dataclass(frozen=True)
class RootSystem:
    """All roots in simple-root coordinates; positives sorted by height, lex."""

    cartan: FiniteCartanMatrix
    positives: tuple[Root, ...]

    @property
    def rank(self) -> int:
        return self.cartan.rank

    @property
    def roots(self) -> tuple[Root, ...]:
        return self.positives + tuple(_neg(r) for r in self.positives)

    def root_set(self) -> frozenset[Root]:
        return frozenset(self.roots)

    def height(self, alpha: Root) -> int:
        return sum(alpha)

    def pairing(self, alpha: Root, i: int) -> int:
        """<alpha, alpha_i^vee> = sum_j A[i][j] alpha_j."""
        return sum(self.cartan.entries[i][j] * alpha[j] for j in range(self.rank))


def _neg(alpha: Root) -> Root:
    return tuple(-c for c in alpha)


def root_system(cartan: FiniteCartanMatrix) -> RootSystem:
    """Close the simple roots under the simple reflections."""
    l = cartan.rank
    simples = [tuple(1 if j == i else 0 for j in range(l)) for i in range(l)]
    seen: set[Root] = set(simples)
    frontier = list(simples)
    while frontier:
        if len(seen) > _CLOSURE_BOUND:
            raise LieConstructError("reflection closure did not terminate; not finite type?")
        alpha = frontier.pop()
        for i in range(l):
            pairing = sum(cartan.entries[i][j] * alpha[j] for j in range(l))
            image = list(alpha)
            image[i] -= pairing
            im = tuple(image)
            if im not in seen:
                seen.add(im)
                frontier.append(im)
    positives = sorted(
        (r for r in seen if sum(r) > 0),
        key=lambda r: (sum(r), r),
    )
    negatives = {_neg(r) for r in positives}
    if negatives | set(positives) != seen:
        raise LieConstructError("root set is not symmetric; input is not a Cartan matrix")
    return RootSystem(cartan=cartan, positives=tuple(positives))


def _symmetrizers(cartan: FiniteCartanMatrix) -> tuple[Fraction, ...]:
    """d_i with d_i A_ij = d_j A_ji, normalized to d_min = 1 per component."""
    l = cartan.rank
    d: list[Optional[Fraction]] = [None] * l
    for start in range(l):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(l):
                if i != j and cartan.entries[i][j] != 0 and d[j] is None:
                    d[j] = d[i] * Fraction(cartan.entries[i][j], cartan.entries[j][i])
                    stack.append(j)
    if any(x is None for x in d):
        raise LieConstructError("symmetrizer left a node without a value")
    return tuple(x for x in d)  # type: ignore[misc]


# -- structure constants --------------------------------------------------------


def _integral(num: int, den: int, what: str) -> int:
    """num / den, which must be an integer."""
    quo, rem = divmod(num, den)
    if rem:
        raise LieConstructError(f"{what} is not integral")
    return quo


class _Constants:
    """Chevalley structure constants N_{alpha,beta} for one root system.

    The constants are integers, and the norms enter only through ratios, so
    the symmetrizers are scaled to integers and everything here is integral.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.root_set = rs.root_set()
        cartan = rs.cartan
        d = _symmetrizers(cartan)
        scale = lcm(*(x.denominator for x in d))
        self._d = [int(x * scale) for x in d]
        bil = [[self._d[i] * cartan.entries[i][j] for j in range(rs.rank)] for i in range(rs.rank)]
        self._bil = bil
        self._norm_cache: dict[Root, int] = {}
        self.n: dict[tuple[Root, Root], int] = {}
        self._build_positive_pairs()
        self._extend_to_all_pairs()
        for (a, b), value in self.n.items():
            expected = self.p(a, b) + 1
            if abs(value) != expected:
                raise LieConstructError(
                    "sign propagation produced an inconsistent structure constant"
                )

    def norm(self, alpha: Root) -> int:
        cached = self._norm_cache.get(alpha)
        if cached is None:
            cached = sum(
                alpha[i] * alpha[j] * self._bil[i][j]
                for i in range(self.rs.rank)
                for j in range(self.rs.rank)
            )
            self._norm_cache[alpha] = cached
        return cached

    def p(self, alpha: Root, beta: Root) -> int:
        """Largest k with beta - k*alpha a root."""
        k = 0
        current = tuple(b - a for a, b in zip(alpha, beta))
        while current in self.root_set:
            k += 1
            current = tuple(c - a for a, c in zip(alpha, current))
        return k

    def coroot_coeffs(self, alpha: Root) -> tuple[int, ...]:
        """h_alpha in the basis h_1..h_l: coefficients 2 d_j alpha_j / (alpha,alpha)."""
        norm = self.norm(alpha)
        return tuple(
            _integral(2 * self._d[j] * alpha[j], norm, "coroot") for j in range(self.rs.rank)
        )

    def _build_positive_pairs(self) -> None:
        rs = self.rs
        order_index = {r: k for k, r in enumerate(rs.positives)}
        pos_set = set(rs.positives)

        def n_pos(a: Root, b: Root) -> int:
            return self.n[(a, b)]

        def n_mixed_down(x: Root, xi: Root) -> int:
            # N_{x, -xi} for positive x, xi with x - xi a positive root
            rho = tuple(c - d for c, d in zip(x, xi))
            return _integral(-n_pos(xi, rho) * self.norm(rho), self.norm(x), "structure constant")

        for gamma in rs.positives:
            if sum(gamma) < 2:
                continue
            decomps = []
            for alpha in rs.positives:
                beta = tuple(g - a for g, a in zip(gamma, alpha))
                if beta in pos_set and order_index[alpha] < order_index[beta]:
                    decomps.append((alpha, beta))
            decomps.sort(key=lambda ab: order_index[ab[0]])
            if not decomps:
                raise LieConstructError("positive non-simple root with no two-term decomposition")
            xi, eta = decomps[0]  # extraspecial pair
            value = self.p(xi, eta) + 1
            self.n[(xi, eta)] = value
            self.n[(eta, xi)] = -value
            for alpha, beta in decomps[1:]:
                acc = 0
                bx = tuple(b - x for b, x in zip(beta, xi))
                if bx in pos_set:
                    acc += n_mixed_down(beta, xi) * n_pos(alpha, bx)
                ax = tuple(a - x for a, x in zip(alpha, xi))
                if ax in pos_set:
                    acc -= n_mixed_down(alpha, xi) * n_pos(beta, ax)
                denom = n_mixed_down(gamma, xi)
                if denom == 0:
                    raise LieConstructError("extraspecial pair gives a zero denominator")
                value = _integral(acc, denom, "structure constant")
                if value == 0:
                    raise LieConstructError("special pair resolved to zero; sign propagation broke")
                self.n[(alpha, beta)] = value
                self.n[(beta, alpha)] = -value

    def _extend_to_all_pairs(self) -> None:
        rs = self.rs
        pos_set = set(rs.positives)
        pos_pairs = dict(self.n)
        for (a, b), v in pos_pairs.items():
            self.n[(_neg(a), _neg(b))] = -v
        for a in rs.positives:
            for b in rs.positives:
                if a == b:
                    continue
                diff = tuple(x - y for x, y in zip(a, b))
                if diff not in self.root_set:
                    continue
                if diff in pos_set:
                    value = _integral(
                        -pos_pairs[(b, diff)] * self.norm(diff), self.norm(a), "structure constant"
                    )
                else:
                    # N_{a,-b} = N_{b,-a} when b - a is positive
                    rho = _neg(diff)
                    value = _integral(
                        -pos_pairs[(a, rho)] * self.norm(rho), self.norm(b), "structure constant"
                    )
                self.n[(a, _neg(b))] = value
                self.n[(_neg(b), a)] = -value


def _basis_layout(rs: RootSystem) -> tuple[list[str], dict[Root, int]]:
    l = rs.rank
    labels = [f"h{i + 1}" for i in range(l)]
    root_index: dict[Root, int] = {}
    for k, alpha in enumerate(rs.positives):
        root_index[alpha] = l + k
        labels.append("e[" + ",".join(str(c) for c in alpha) + "]")
    npos = len(rs.positives)
    for k, alpha in enumerate(rs.positives):
        root_index[_neg(alpha)] = l + npos + k
        labels.append("f[" + ",".join(str(c) for c in alpha) + "]")
    return labels, root_index


@lru_cache(maxsize=None)
def _chevalley_cached(label: str) -> tuple[RootSystem, MultTableAlgebra]:
    rs = root_system(cartan_matrix(label))
    return rs, chevalley_algebra(rs)


def standard_algebra(label: str) -> tuple[RootSystem, MultTableAlgebra]:
    """Cached split simple Lie algebra of the given type, over Q."""
    return _chevalley_cached(label)


def chevalley_algebra(rs: RootSystem) -> MultTableAlgebra:
    """Lie multiplication table on h_1..h_l, e_alpha, f_alpha over Q.

    Dimension is #roots + rank.  The finished table is validated in full: a
    sign inconsistency in the constant propagation is therefore impossible to
    ship.  Alternation and antisymmetry are checked on every basis pair; once
    they hold, the Jacobiator is an alternating trilinear form, so Jacobi is
    evaluated on the C(n, 3) increasing triples only.  The certificate still
    covers all n^3 ordered triples, which is what its `triples_checked`
    counts.  The report
    is kept on the algebra (`MultTableAlgebra.validation`), so later callers
    read it instead of validating the same table again.
    """
    l = rs.rank
    consts = _Constants(rs)
    labels, root_index = _basis_layout(rs)
    dim = l + len(rs.roots)

    def q(x: int) -> CycloNum:
        return CycloNum.rational(1, x)

    entries: dict[tuple[int, int], Sparse] = {}

    def put(i: int, j: int, sparse: Sparse) -> None:
        sparse = {k: v for k, v in sparse.items() if not v.is_zero()}
        if sparse:
            entries[(i, j)] = sparse

    for i in range(l):
        for alpha in rs.roots:
            coeff = rs.pairing(alpha, i)
            if coeff:
                idx = root_index[alpha]
                put(i, idx, {idx: q(coeff)})
                put(idx, i, {idx: q(-coeff)})
    for alpha in rs.positives:
        ia, ina = root_index[alpha], root_index[_neg(alpha)]
        halpha = {j: q(c) for j, c in enumerate(consts.coroot_coeffs(alpha)) if c}
        put(ia, ina, dict(halpha))
        put(ina, ia, {j: -v for j, v in halpha.items()})
    for (a, b), value in consts.n.items():
        target = tuple(x + y for x, y in zip(a, b))
        put(root_index[a], root_index[b], {root_index[target]: q(value)})

    alg = MultTableAlgebra(
        dim=dim,
        scalar_order=1,
        kind="lie",
        constants=make_table(entries),
        basis_labels=tuple(labels),
    )
    report = alg.validation
    if not report.ok:
        raise LieConstructError(f"construction failed validation: {report.violations[0]}")
    return alg


# -- automorphisms ---------------------------------------------------------------


@dataclass(frozen=True)
class DiagramPermutation:
    """Permutation of the simple roots preserving the Cartan matrix (0-based images)."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(len(self.images))):
            raise LieConstructError("not a permutation")

    def __call__(self, i: int) -> int:
        return self.images[i]

    def order(self) -> int:
        result = 1
        current = self
        while current.images != tuple(range(len(self.images))):
            current = current.compose(self)
            result += 1
        return result

    def compose(self, other: "DiagramPermutation") -> "DiagramPermutation":
        return DiagramPermutation(tuple(self.images[other.images[i]] for i in range(len(self.images))))

    def inverse(self) -> "DiagramPermutation":
        out = [0] * len(self.images)
        for i, image in enumerate(self.images):
            out[image] = i
        return DiagramPermutation(tuple(out))

    def to_one_based(self) -> list[int]:
        return [i + 1 for i in self.images]

    @staticmethod
    def from_one_based(images: Sequence[int]) -> "DiagramPermutation":
        return DiagramPermutation(tuple(i - 1 for i in images))

    @staticmethod
    def identity(rank: int) -> "DiagramPermutation":
        return DiagramPermutation(tuple(range(rank)))

    def preserves(self, cartan: FiniteCartanMatrix) -> bool:
        a = cartan.entries
        p = self.images
        return all(
            a[p[i]][p[j]] == a[i][j] for i in range(cartan.rank) for j in range(cartan.rank)
        )


@dataclass(frozen=True)
class ToralCharge:
    """Integer weights s_i defining e_alpha -> zeta_m^<s,alpha> e_alpha."""

    s: tuple[int, ...]
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise LieConstructError("modulus must be positive")

    def pairing(self, alpha: Root) -> int:
        return sum(si * ai for si, ai in zip(self.s, alpha))


def diagram_automorphism(
    alg: MultTableAlgebra, rs: RootSystem, perm: DiagramPermutation
) -> FiniteOrderAutomorphism:
    """Extend a diagram symmetry to the whole algebra by bracket propagation.

    Generators map by e_i -> e_{pi(i)}, f_i -> f_{pi(i)}, h_i -> h_{pi(i)};
    the image of every other root vector is derived from its minimal
    decomposition.  Every alternative decomposition is then recomputed and
    must give the same image: a failed cross-check is a hard error, not a
    report entry.  Each image is a single signed basis element, which gives
    the monomial (images, scalars) form; an image with more terms is an error.
    """
    if len(perm.images) != rs.rank:
        raise LieConstructError("permutation rank mismatch")
    if not perm.preserves(rs.cartan):
        raise LieConstructError("permutation does not preserve the Cartan matrix")
    l = rs.rank
    consts = _Constants(rs)
    _, root_index = _basis_layout(rs)
    order = alg.scalar_order
    one = CycloNum.one(order)

    def perm_root(alpha: Root) -> Root:
        out = [0] * l
        for i, c in enumerate(alpha):
            out[perm(i)] = c
        return tuple(out)

    images: dict[int, Sparse] = {}
    for i in range(l):
        images[i] = {perm(i): one}
    for alpha in rs.positives:
        if sum(alpha) == 1:
            i = alpha.index(1)
            images[root_index[alpha]] = {root_index[perm_root(alpha)]: one}
            neg = _neg(alpha)
            images[root_index[neg]] = {root_index[perm_root(neg)]: one}
    for alpha in rs.positives:
        if sum(alpha) < 2:
            continue
        found = None
        for xi in rs.positives:
            eta = tuple(a - x for a, x in zip(alpha, xi))
            if eta in consts.root_set and sum(eta) > 0:
                found = (xi, eta)
                break
        if found is None:
            raise LieConstructError(f"root {alpha} has no decomposition into two roots")
        xi, eta = found
        for sign_pair in ((xi, eta), (_neg(xi), _neg(eta))):
            u, v = sign_pair
            coeff = CycloNum.rational(order, Fraction(1, consts.n[(u, v)]))
            prod = alg.product_sparse(images[root_index[u]], images[root_index[v]])
            target = tuple(x + y for x, y in zip(u, v))
            images[root_index[target]] = {k: coeff * w for k, w in prod.items()}

    # consistency: every decomposition of every root must reproduce the image
    for a in rs.roots:
        for b in rs.roots:
            target = tuple(x + y for x, y in zip(a, b))
            if target not in consts.root_set:
                continue
            lhs = alg.product_sparse(images[root_index[a]], images[root_index[b]])
            coeff = CycloNum.rational(order, consts.n[(a, b)])
            rhs = {k: coeff * v for k, v in images[root_index[target]].items()}
            keys = set(lhs) | set(rhs)
            for k in keys:
                va = lhs.get(k, CycloNum.zero(order))
                vb = rhs.get(k, CycloNum.zero(order))
                if not (va - vb).is_zero():
                    raise LieConstructError(
                        f"propagation paths disagree on root {target} via {a} + {b}"
                    )

    terms = []
    for j in range(alg.dim):
        if len(images[j]) != 1:
            raise LieConstructError(
                f"image of {alg.basis_labels[j]} has {len(images[j])} terms; not monomial"
            )
        (term,) = images[j].items()
        terms.append(term)
    targets, scalars = zip(*terms)
    return check_automorphism(alg, targets, scalars, perm.order())


def toral_automorphism(
    alg: MultTableAlgebra, rs: RootSystem, charge: ToralCharge
) -> FiniteOrderAutomorphism:
    """Diagonal automorphism fixing the Cartan, scaling e_alpha by zeta^<s,alpha>."""
    if len(charge.s) != rs.rank:
        raise LieConstructError("charge rank mismatch")
    m = charge.modulus
    if alg.scalar_order % m != 0:
        raise LieConstructError(
            f"algebra scalar order {alg.scalar_order} lacks the {m}-th roots of unity"
        )
    order = alg.scalar_order
    scalars = [zeta_power(order, (order // m) * p) for p in charge_pairings(rs, charge)]
    return check_automorphism(alg, range(alg.dim), scalars, m)


def compose_pi_toral(
    alg: MultTableAlgebra,
    rs: RootSystem,
    perm: DiagramPermutation,
    charge: ToralCharge,
) -> FiniteOrderAutomorphism:
    """Compose a diagram and a toral automorphism; requires s invariant under pi.

    Invariance makes the two factors commute, which the construction checks by
    composing them both ways.
    """
    return diagram_and_composition(alg, rs, perm, charge)[1]


def diagram_and_composition(
    alg: MultTableAlgebra,
    rs: RootSystem,
    perm: DiagramPermutation,
    charge: ToralCharge,
) -> tuple[FiniteOrderAutomorphism, FiniteOrderAutomorphism]:
    """The diagram factor pi and the checked composition `compose_pi_toral`
    builds from it, for callers that need both."""
    for i in range(rs.rank):
        if charge.s[i] != charge.s[perm(i)]:
            raise LieConstructError("toral charge must be constant on permutation orbits")
    period = lcm(perm.order(), charge.modulus)
    if alg.scalar_order % period != 0:
        raise LieConstructError(
            f"algebra scalar order {alg.scalar_order} lacks the {period}-th roots of unity"
        )
    pi_auto = diagram_automorphism(alg, rs, perm)
    tau_auto = toral_automorphism(alg, rs, charge)
    composed = pi_auto.compose(tau_auto)
    if composed != tau_auto.compose(pi_auto):
        raise LieConstructError("factors fail to commute despite an invariant charge")
    return pi_auto, check_automorphism(alg, composed.images, composed.scalars, period)


def charge_pairings(rs: RootSystem, charge: ToralCharge) -> tuple[int, ...]:
    """<s, weight> for every basis index of the standard layout; 0 on the Cartan."""
    if len(charge.s) != rs.rank:
        raise LieConstructError("charge rank mismatch")
    _, root_index = _basis_layout(rs)
    out = [0] * (rs.rank + len(rs.roots))
    for alpha, idx in root_index.items():
        out[idx] = charge.pairing(alpha)
    return tuple(out)


def algebra_over(label: str, order: int) -> tuple[RootSystem, MultTableAlgebra]:
    """Cached type lookup with scalars embedded into Q(zeta_order)."""
    return _algebra_over_cached(label, order)


@lru_cache(maxsize=None)
def _algebra_over_cached(label: str, order: int) -> tuple[RootSystem, MultTableAlgebra]:
    rs, alg = standard_algebra(label)
    return rs, embed_algebra(alg, order)
