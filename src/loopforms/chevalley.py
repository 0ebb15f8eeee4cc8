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

Automorphisms of a type label are twists pi o tau_s: the toral (diagonal)
automorphism tau_s: e_alpha -> zeta_m^<s,alpha> e_alpha, then the diagram
automorphism pi induced by a symmetry of the Cartan matrix (a signed
permutation of the Chevalley basis, the identity map when the symmetry is
trivial).  `type_twist_factors` checks that s is constant on the orbits of
pi, builds the algebra over Q(zeta_M), M = lcm(|pi|, m), and returns the
two factors as `grading.twist` takes them, as `descent.matrix_twist_factors`
does for M_n; `grading.twist` certifies every twist, here and on M_n alike.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterator, Sequence

from .algebra import MultTableAlgebra, _cycles, embed_algebra, make_table
from .cyclo import CycloNum
from .linalg import Sparse, int_rank_det
from .record import Record

# the automorphism layer is imported by the functions that build
# automorphisms, so building a table compiles no grading code
if TYPE_CHECKING:
    from .grading import FiniteOrderAutomorphism

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
    "diagram_automorphism",
    "highest_root",
    "node_isomorphisms",
    "root_system",
    "standard_algebra",
    "type_twist_factors",
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


class FiniteCartanMatrix(Record):
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
    """Cartan matrix for A1..E8, F4, G2; A, D and E in Bourbaki's node
    numbering, B, C, F and G not.

    Read with a_ij = <alpha_i^vee, alpha_j>, as `root_system` does, B_l and
    C_l are transposed against Bourbaki: the -2 of "B<l>" sits where
    Bourbaki's C_l has it, so "B3" has the highest root (2, 2, 1) of C3 and
    "B2" has (2, 1), not (1, 2).  F4 and G2 are numbered in reverse: their
    highest roots come out as (2, 4, 3, 2) and (2, 3), where Bourbaki has
    (2, 3, 4, 2) and (3, 2).  This stands until ROADMAP item 1 renumbers
    them.
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


class RootSystem(Record):
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


def _symmetrizers(cartan: FiniteCartanMatrix) -> tuple[int, ...]:
    """The smallest positive integers d_i with d_i A_ij = d_j A_ji.

    (alpha_i, alpha_j) = d_i A_ij is then the invariant form, so d_i is half
    the squared length of alpha_i.  The values are propagated along the
    edges of each connected component, which is rescaled whenever a ratio
    does not divide, and then divided by its gcd.
    """
    a = cartan.entries
    l = cartan.rank
    d = [0] * l
    for start in range(l):
        if d[start]:
            continue
        d[start] = 1
        component = [start]
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(l):
                if i == j or not a[i][j] or d[j]:
                    continue
                num, den = d[i] * a[i][j], a[j][i]
                if num % den:
                    scale = abs(den) // gcd(num, den)
                    for k in component:
                        d[k] *= scale
                    num *= scale
                d[j] = num // den
                component.append(j)
                stack.append(j)
        common = gcd(*(d[k] for k in component))
        for k in component:
            d[k] //= common
    if any(d[i] * a[i][j] != d[j] * a[j][i] for i in range(l) for j in range(l)):
        raise LieConstructError("Cartan matrix is not symmetrizable")
    return tuple(d)


def highest_root(cartan: FiniteCartanMatrix) -> Root:
    """The highest root theta of an irreducible Cartan matrix, by reflection.

    Start at a long simple root (the first with the largest symmetrizer) and,
    while some <beta, alpha_j^vee> = sum_k A_jk beta_k is negative, replace
    beta by s_j(beta), which raises its height.  The walk stays in the Weyl
    orbit of the long roots and ends at a dominant root, and the only
    dominant long root is theta (Bourbaki, Lie VI, 1.8).
    """
    a = cartan.entries
    l = cartan.rank
    d = _symmetrizers(cartan)
    beta = [0] * l
    beta[d.index(max(d))] = 1
    while True:
        for j in range(l):
            pairing = sum(a[j][k] * beta[k] for k in range(l))
            if pairing < 0:
                beta[j] -= pairing
                break
        else:
            return tuple(beta)


# -- structure constants --------------------------------------------------------


def _integral(num: int, den: int, what: str) -> int:
    """num / den, which must be an integer."""
    quo, rem = divmod(num, den)
    if rem:
        raise LieConstructError(f"{what} is not integral")
    return quo


class _Constants:
    """Chevalley structure constants N_{alpha,beta} for one root system.

    The constants are integers, and so are the symmetrizers, so everything
    here is integral.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.root_set = rs.root_set()
        cartan = rs.cartan
        self._d = _symmetrizers(cartan)
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
    evaluated once per set of three distinct indices, and only on the sets
    where one of its terms has a path through the table's nonzero products
    (249596 of C(248, 3) on E8).  The certificate still covers all n^3
    ordered triples, which is what its `triples_checked` counts.  The report
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


class DiagramPermutation(Record):
    """Permutation of the simple roots preserving the Cartan matrix (0-based images)."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(len(self.images))):
            raise LieConstructError("not a permutation")

    def __call__(self, i: int) -> int:
        return self.images[i]

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """The orbits of the nodes, each sorted, ordered by their smallest node."""
        return tuple(tuple(sorted(cycle)) for cycle in _cycles(self.images))

    def order(self) -> int:
        return lcm(*(len(orbit) for orbit in self.orbits()))

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


def node_isomorphisms(
    a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]
) -> Iterator[tuple[int, ...]]:
    """Every permutation p with b[p(i)][p(j)] = a[i][j], in lexicographic order.

    a and b are square integer matrices.  The images are assigned node by
    node: an image must carry the same diagonal entry and the same sorted row
    as its node, and a partial assignment is dropped as soon as an entry
    between two assigned nodes is not preserved, so only the few permutations
    that survive every prefix are formed.  With b = a these are the
    symmetries of a Dynkin diagram; with two GCMs, the equivalences that
    catalog matching looks for.
    """
    n = len(a)
    if len(b) != n:
        return
    rows = [sorted(row) for row in b]
    allowed = [
        [c for c in range(n) if b[c][c] == a[i][i] and rows[c] == sorted(a[i])]
        for i in range(n)
    ]
    images: list[int] = []

    def extend(i: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(images)
            return
        for c in allowed[i]:
            if c in images or any(
                b[c][p] != a[i][j] or b[p][c] != a[j][i] for j, p in enumerate(images)
            ):
                continue
            images.append(c)
            yield from extend(i + 1)
            images.pop()

    yield from extend(0)


class ToralCharge(Record):
    """Integer weights s_i defining e_alpha -> zeta_m^<s,alpha> e_alpha."""

    s: tuple[int, ...]
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise LieConstructError("modulus must be positive")

    def pairing(self, alpha: Root) -> int:
        return sum(si * ai for si, ai in zip(self.s, alpha))

    @staticmethod
    def trivial(rank: int) -> "ToralCharge":
        """s = 0 modulo 1: tau_s is the identity."""
        return ToralCharge(s=(0,) * rank, modulus=1)


def diagram_automorphism(
    alg: MultTableAlgebra, rs: RootSystem, perm: DiagramPermutation
) -> FiniteOrderAutomorphism:
    """Extend a diagram symmetry to the whole algebra by bracket propagation.

    The identity symmetry is the identity map, certified as the diagonal map
    with every exponent 0 (`check_diagonal_automorphism`), with no
    propagation and no pair check.  Any other symmetry maps the generators by
    e_i -> e_{pi(i)}, f_i -> f_{pi(i)}, h_i -> h_{pi(i)}, and `_propagate`
    derives the image of every other root vector from its minimal
    decomposition.  The propagated map is then certified by
    `check_automorphism` on every basis pair, which is where a propagation
    that another decomposition would contradict fails: a multiplicative map
    is consistent on every decomposition, so no separate pass re-multiplies
    the pairs of roots.
    """
    from .grading import check_automorphism, check_diagonal_automorphism

    if len(perm.images) != rs.rank:
        raise LieConstructError("permutation rank mismatch")
    if not perm.preserves(rs.cartan):
        raise LieConstructError("permutation does not preserve the Cartan matrix")
    if perm.images == tuple(range(rs.rank)):
        return check_diagonal_automorphism(alg, (0,) * alg.dim, 1)
    targets, scalars = _propagate(alg, rs, perm)
    return check_automorphism(alg, targets, scalars, perm.order())


def _propagate(
    alg: MultTableAlgebra, rs: RootSystem, perm: DiagramPermutation
) -> tuple[tuple[int, ...], tuple[CycloNum, ...]]:
    """The monomial (images, scalars) form of the map that extends perm.

    A root alpha = xi + eta of height >= 2 maps to
    N_{xi,eta}^-1 [pi(e_xi), pi(e_eta)], and N_{xi,eta} is read off the
    table's own product [e_xi, e_eta] = N_{xi,eta} e_alpha.  Each image is a
    single signed basis element; an image with more terms is an error.
    Nothing here is certified.
    """
    l = rs.rank
    roots = rs.root_set()
    _, root_index = _basis_layout(rs)
    one = CycloNum.one(alg.scalar_order)

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
            images[root_index[alpha]] = {root_index[perm_root(alpha)]: one}
            neg = _neg(alpha)
            images[root_index[neg]] = {root_index[perm_root(neg)]: one}
    for alpha in rs.positives:
        if sum(alpha) < 2:
            continue
        found = None
        for xi in rs.positives:
            eta = tuple(a - x for a, x in zip(alpha, xi))
            if eta in roots and sum(eta) > 0:
                found = (xi, eta)
                break
        if found is None:
            raise LieConstructError(f"root {alpha} has no decomposition into two roots")
        xi, eta = found
        for u, v in ((xi, eta), (_neg(xi), _neg(eta))):
            ((target, n_uv),) = alg.basis_product(root_index[u], root_index[v])
            coeff = n_uv.inverse()
            prod = alg.product_sparse(images[root_index[u]], images[root_index[v]])
            images[target] = {k: coeff * w for k, w in prod.items()}

    terms = []
    for j in range(alg.dim):
        if len(images[j]) != 1:
            raise LieConstructError(
                f"image of {alg.basis_labels[j]} has {len(images[j])} terms; not monomial"
            )
        (term,) = images[j].items()
        terms.append(term)
    targets, scalars = zip(*terms)
    return targets, scalars


def type_twist_factors(
    label: str, perm: DiagramPermutation, charge: ToralCharge
) -> tuple[RootSystem, MultTableAlgebra, FiniteOrderAutomorphism, tuple[int, ...], int]:
    """The type-label counterpart of `descent.matrix_twist_factors`: the
    algebra of type `label` over Q(zeta_M), M = lcm(|pi|, m), and the
    factors of pi o tau_s as `grading.twist` takes them, the certified
    diagram automorphism of pi and the pairings <s, .> modulo m.

    s must be constant on the orbits of pi; `grading.twist` certifies the
    composition.
    """
    rank = cartan_matrix(label).rank
    if len(charge.s) != rank:
        raise LieConstructError("charge rank mismatch")
    if len(perm.images) != rank:
        raise LieConstructError("permutation rank mismatch")
    if any(charge.s[i] != charge.s[perm(i)] for i in range(rank)):
        raise LieConstructError("toral charge must be constant on permutation orbits")
    rs, alg = algebra_over(label, lcm(perm.order(), charge.modulus))
    outer = diagram_automorphism(alg, rs, perm)
    return rs, alg, outer, charge_pairings(rs, charge), charge.modulus


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
