"""Split simple Lie algebras from Cartan matrices, with exact brackets.

The root system is generated by closing the simple roots under simple
reflections, and the algebra is realized on the basis h_1..h_l, e_alpha
(positives), f_alpha.  Its table comes from one sign function, as in Kac,
Infinite-Dimensional Lie Algebras, 7.8-7.9: the Cartan matrix is unfolded
to a simply-laced cover (`_cover`), the cover's table is Frenkel and Kac's,
built from a bimultiplicative sign (`_sign_form`), and the table is folded
back by orbit sums (`_fold`), whose integer constants `algebra_over`
writes straight over Q(zeta_m), the field a twist of period m needs.  A, D
and E are their own cover.  The fold certifies the table with checks linear
in its nonzero products, argued in `algebra_over`;
`algebra.validate_algebra`'s sweep is for tables read from a file.

Automorphisms of a type label are twists pi o tau_s: the toral (diagonal)
automorphism tau_s: e_alpha -> zeta_m^<s,alpha> e_alpha, then the diagram
automorphism pi induced by a symmetry of the Cartan matrix (a signed
permutation of the Chevalley basis, the identity map when the symmetry is
trivial).  A twist is given as plain values (pi, s, m), as M_n's is, and
`check_twist(cartan, pi, s, m)` alone decides that pi o tau_s is a twist
of the type, and raises `record.RequestError` when it is not; each public
entry that takes pi calls it once (`type_twist_factors`,
`diagram_automorphism`, which passes s = 0 and m = 1).  A table carries
its weights, root coordinates with 0 on the h_i, so s is a coweight:
`type_twist_factors(label, pi, s, m)` builds the algebra over Q(zeta_M),
M = lcm(|pi|, m), and returns (alg, outer, alg.pairing(s), m) as
`grading.twist` takes them, as `descent.matrix_twist_factors` does for M_n;
`grading.twist` certifies every twist, here and on M_n alike, and `affine`
takes that certified twist, not pi.  `affine.GCM` shares `_cartan_axioms`
and `int_rank_det` with `FiniteCartanMatrix`.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import TYPE_CHECKING, Iterator, Sequence

from .algebra import KIND_LIE, MultTableAlgebra, _cycles, certified_table
from .cyclo import CycloNum
from .record import MAX_DIM, MAX_PERIOD, Record, RequestError, read_int

# the automorphism layer is imported by the functions that build
# automorphisms, so building a table compiles no grading code
if TYPE_CHECKING:
    from .grading import FiniteOrderAutomorphism

__all__ = [
    "DiagramPermutation",
    "FiniteCartanMatrix",
    "LieConstructError",
    "RootSystem",
    "TYPE_LABELS",
    "algebra_over",
    "cartan_matrix",
    "check_twist",
    "diagram_automorphism",
    "highest_root",
    "node_isomorphisms",
    "root_system",
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


def _cartan_axioms(entries: Sequence[Sequence[int]], error: type[ValueError]) -> None:
    """Raise `error` unless entries is square with 2 on the diagonal,
    nonpositive entries off it and a symmetric zero pattern: the axioms that
    a finite Cartan matrix and an affine GCM (`affine.GCM`) share."""
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise error("matrix must be square")
    for i, row in enumerate(entries):
        if row[i] != 2:
            raise error(f"diagonal entry {i} is {row[i]}, not 2")
        for j, a_ij in enumerate(row):
            if i != j:
                if a_ij > 0:
                    raise error(f"positive off-diagonal entry at ({i},{j})")
                if (a_ij == 0) != (entries[j][i] == 0):
                    raise error(f"zero pattern asymmetric at ({i},{j})")


def int_rank_det(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Rank and determinant of a square integer matrix, by fraction-free
    (Bareiss) elimination: no rational number is formed.

    A column with no pivot left is skipped, and rows are exchanged to bring a
    pivot up, which flips the sign.  After k pivots every remaining entry is
    a (k+1)-minor, so each division by the previous pivot is exact (Sylvester's
    identity) and is taken with //.  For full rank the last pivot is the
    determinant up to that sign.
    """
    work = [list(row) for row in rows]
    n = len(work)
    sign, prev, rank = 1, 1, 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if work[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            work[rank], work[pivot] = work[pivot], work[rank]
            sign = -sign
        top = work[rank]
        p = top[col]
        for r in range(rank + 1, n):
            row = work[r]
            factor = row[col]
            for c in range(col + 1, n):
                row[c] = (p * row[c] - factor * top[c]) // prev
            row[col] = 0
        prev = p
        rank += 1
    return rank, (sign * prev if rank == n else 0)


class FiniteCartanMatrix(Record):
    entries: tuple[tuple[int, ...], ...]
    type_label: str

    @property
    def rank(self) -> int:
        return len(self.entries)

    def __post_init__(self) -> None:
        a = self.entries
        _cartan_axioms(a, LieConstructError)
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
    """Cartan matrix for A1.., B2.., C3.., D4.., E6..E8, F4, G2; A, D and E
    in Bourbaki's node numbering, B, C, F and G not.

    Read with a_ij = <alpha_i^vee, alpha_j>, as `root_system` does, B_l and
    C_l are transposed against Bourbaki: the -2 of "B<l>" sits where
    Bourbaki's C_l has it, so "B3" has the highest root (2, 2, 1) of C3 and
    "B2" has (2, 1), not (1, 2).  F4 and G2 are numbered in reverse: their
    highest roots come out as (2, 4, 3, 2) and (2, 3), where Bourbaki has
    (2, 3, 4, 2) and (3, 2).  This stands until ROADMAP item 1 renumbers
    them.  A label other than a family letter and a rank in ASCII digits
    without a leading zero (read by `record.read_int`), a rank its family
    lacks, or a type whose algebra has dimension above `record.MAX_DIM` is
    a malformed input: it raises RequestError, before any matrix is built.
    The dimension is rank + #roots, in closed form.
    """
    family, rank = label[:1], label[1:]
    l = read_int(rank) if family and family in "ABCDEFG" else None
    # str(l) == rank refuses a leading zero, and l >= 0 a minus sign
    if l is None or l < 0 or str(l) != rank:
        raise RequestError(f"unknown type label {label!r}")
    # the dimension of each family's algebra, falsy for a rank it lacks
    dim = {
        "A": l >= 1 and l * (l + 2),
        "B": l >= 2 and l * (2 * l + 1),
        "C": l >= 3 and l * (2 * l + 1),
        "D": l >= 4 and l * (2 * l - 1),
        "E": {6: 78, 7: 133, 8: 248}.get(l),
        "F": l == 4 and 52,
        "G": l == 2 and 14,
    }[family]
    if not dim:
        raise RequestError(f"unsupported type label {label!r}")
    if dim > MAX_DIM:
        raise RequestError(f"{label} has dimension {dim}, which exceeds the size limit {MAX_DIM}")
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
    return FiniteCartanMatrix(entries=tuple(tuple(row) for row in a), type_label=label)


# -- root systems -------------------------------------------------------------

Root = tuple[int, ...]


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

    def pairing(self, alpha: Root, i: int) -> int:
        """<alpha, alpha_i^vee> = sum_j A[i][j] alpha_j."""
        return sum(self.cartan.entries[i][j] * alpha[j] for j in range(self.rank))


def _neg(alpha: Root) -> Root:
    return tuple(-c for c in alpha)


def root_system(cartan: FiniteCartanMatrix) -> RootSystem:
    """Close the simple roots under the simple reflections.

    `FiniteCartanMatrix` admits a matrix only when its leading principal
    minors are positive, which for a matrix with nonpositive off-diagonal
    entries makes it a nonsingular M-matrix (Berman and Plemmons,
    Nonnegative Matrices in the Mathematical Sciences, 6.2.3), so of finite
    type (Kac, Infinite-Dimensional Lie Algebras, Ch. 4).  The closure is then
    the finite set of real roots, and it is symmetric, since
    -w(alpha_i) = w s_i (alpha_i), with every root positive or negative.
    """
    l = cartan.rank
    simples = [tuple(1 if j == i else 0 for j in range(l)) for i in range(l)]
    seen: set[Root] = set(simples)
    frontier = list(simples)
    while frontier:
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
    return RootSystem(cartan=cartan, positives=tuple(positives))


def _symmetrizers(cartan: FiniteCartanMatrix) -> tuple[int, ...]:
    """The smallest positive integers d_i with d_i A_ij = d_j A_ji.

    (alpha_i, alpha_j) = d_i A_ij is then the invariant form, so d_i is half
    the squared length of alpha_i.  The values are propagated along the
    edges of each connected component, which is rescaled whenever a ratio
    does not divide, and then divided by its gcd.  A matrix of finite type
    (`root_system`) has a forest for its diagram, since every principal
    submatrix is of finite type too (Kac, Ch. 4) and a cycle is not, so the
    propagation meets every edge as it sets d and the identity holds.
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


def _cover(cartan: FiniteCartanMatrix) -> tuple[FiniteCartanMatrix, tuple[int, ...]]:
    """The simply-laced cover of a Cartan matrix, and the node each cover
    node copies: with d = `_symmetrizers(cartan)`, node i becomes
    max(d) / d_i copies, listed together, and copies of adjacent nodes are
    joined when their copy indices agree or one node has a single copy, so
    rotating copies is a symmetry.  A, D and E are their own cover; "B<l>"
    unfolds to A_{2l-1}, "C<l>" to D_{l+1}, F4 to E6 and G2 to D4."""
    a = cartan.entries
    d = _symmetrizers(cartan)
    copies = [max(d) // di for di in d]
    nodes = [(i, c) for i in range(cartan.rank) for c in range(copies[i])]
    entries = tuple(
        tuple(
            2 if p == q
            else -1 if i != j and a[i][j] and (c == k or 1 in (copies[i], copies[j]))
            else 0
            for q, (j, k) in enumerate(nodes)
        )
        for p, (i, c) in enumerate(nodes)
    )
    cover = FiniteCartanMatrix(entries, f"cover of {cartan.type_label}")
    return cover, tuple(i for i, _ in nodes)


def _sign_form(cover: FiniteCartanMatrix) -> tuple[tuple[int, ...], ...]:
    """The form B of the sign eps(alpha, beta) = (-1)^(alpha B beta) on the
    root lattice of a simply-laced cover: 1 on the diagonal and on each edge
    p < q, 0 elsewhere, so eps(alpha_p, alpha_p) = -1 and
    eps(alpha_p, alpha_q) eps(alpha_q, alpha_p) = (-1)^(a_pq).  The copies of
    one node are listed together, so rotating them keeps the orientation of
    every edge."""
    a = cover.entries
    n = cover.rank
    return tuple(tuple(int(p == q or p < q and a[p][q] != 0) for q in range(n)) for p in range(n))


# the nonzero integer products {(i, j): {k: c}} of a folded table
Fold = dict[tuple[int, int], dict[int, int]]


def _fold(rs: RootSystem) -> Fold:
    """The nonzero integer products of the table of rs, in the layout of
    `_basis_layout`, folded from the Frenkel-Kac table of its cover.

    The cover's table is [E_a, E_b] = eps(a, b) E_(a+b) when a + b is a
    root, [E_a, E_-a] = -a and [h_p, E_a] = <a, alpha_p^vee> E_a, with eps
    from `_sign_form`.  h_i is the sum of the h_p over the copies p of node
    i, and e_alpha the sum of the e_b = E_b (f_alpha of the f_b = -E_-b)
    over the cover roots b that restrict to alpha, summing b's coefficients
    over the copies of each node.  The products are accumulated in one pass
    over the cover's nonzero products and read at each target's orbit.
    LieConstructError is raised when an orbit is met in part or with two
    coefficients ("not closed"), when the restriction is not a bijection
    onto the roots of rs, and when a folded [h_i, e_(alpha_j)] is not
    A_ij e_(alpha_j).
    """
    labels, root_index = _basis_layout(rs)
    cover, node_of = _cover(rs.cartan)
    # every symmetrizer equal (A, D and E): the cover is rs's own matrix,
    # whose roots rs holds already
    cover_rs = rs if cover.rank == rs.rank else root_system(cover)
    n = cover.rank
    form = _sign_form(cover)
    # the cover's basis is h_1..h_n, then roots[x] at n + x, positives first:
    # e_a = E_a and f_a = -E_-a, so E_(roots[x]) is sign[x] times its element
    roots = cover_rs.roots
    sign = [1 if x < len(cover_rs.positives) else -1 for x in range(len(roots))]

    # the folded basis element whose orbit sum has each cover basis element
    fold_of = list(node_of)
    for beta in roots:
        alpha = [0] * rs.rank
        for p, c in enumerate(beta):
            alpha[node_of[p]] += c
        target = root_index.get(tuple(alpha))
        if target is None:
            raise LieConstructError(f"cover root {beta} restricts to no root")
        fold_of.append(target)
    if len(set(fold_of[n:])) != len(rs.roots):
        raise LieConstructError("the restriction of the cover roots misses a root")
    orbit_size = [fold_of.count(k) for k in range(len(labels))]

    products: dict[tuple[int, int], dict[int, int]] = {}

    def put(u: int, v: int, target: int, c: int) -> None:
        acc = products.setdefault((fold_of[u], fold_of[v]), {})
        acc[target] = acc.get(target, 0) + c

    # keys are linear in the coefficients, which are at most 6 in size (the
    # highest root of E8), so key(a) + key(b) is the key of a + b, and two
    # sums of two roots have the same key only when they are equal
    keys = [sum(c << 5 * p for p, c in enumerate(a)) for a in roots]
    position = {key: x for x, key in enumerate(keys)}
    for x, a in enumerate(roots):
        for p in range(n):
            c = cover_rs.pairing(a, p)
            if c:
                put(p, n + x, n + x, c)
                put(n + x, p, n + x, -c)
        left = [sum(a[p] * form[p][q] for p in range(n)) for q in range(n)]
        for y, key in enumerate(keys):
            z = position.get(keys[x] + key)
            if z is not None:
                eps = -1 if sum(map(mul, left, roots[y])) % 2 else 1
                put(n + x, n + y, n + z, eps * sign[x] * sign[y] * sign[z])
            elif keys[x] + key == 0:  # sign[x] sign[y] (-a) = a in the Cartan subalgebra
                for p, c in enumerate(a):
                    if c:
                        put(n + x, n + y, p, c)

    folded: dict[tuple[int, int], dict[int, int]] = {}
    for (i, j), acc in products.items():
        orbits: dict[int, list[int]] = {}
        for target, c in acc.items():
            if c:
                orbits.setdefault(fold_of[target], []).append(c)
        for k, cs in orbits.items():
            if len(cs) != orbit_size[k] or len(set(cs)) != 1:
                raise LieConstructError(f"orbit sums are not closed at [{labels[i]}, {labels[j]}]")
        if orbits:
            folded[(i, j)] = {k: cs[0] for k, cs in orbits.items()}

    a = rs.cartan.entries
    simples = [root_index[tuple(int(j == i) for j in range(rs.rank))] for i in range(rs.rank)]
    for i in range(rs.rank):
        for j, e_j in enumerate(simples):
            if folded.get((i, e_j), {}).get(e_j, 0) != a[i][j]:
                raise LieConstructError("the folded Cartan matrix differs from the Cartan matrix")
    return folded


def _basis_layout(rs: RootSystem) -> tuple[list[str], dict[Root, int]]:
    """The labels h1..hl, e[alpha], f[alpha] (alpha positive), and the index
    of each root: rs.roots, positives first, follow the h_i in order."""
    coords = [",".join(map(str, alpha)) for alpha in rs.positives]
    labels = [f"h{i + 1}" for i in range(rs.rank)] + [f"{x}[{c}]" for x in "ef" for c in coords]
    return labels, {alpha: rs.rank + x for x, alpha in enumerate(rs.roots)}


def algebra_over(label: str, order: int) -> tuple[RootSystem, MultTableAlgebra]:
    """The root system of a type label and its Lie multiplication table on
    h_1..h_l, e_alpha, f_alpha over Q(zeta_order), of dimension
    #roots + rank: the integer constants folded from the simply-laced cover
    (`_fold`), written as scalars of that order.  A table of its own on every
    call, from one fold per type.

    Its certificate is linear in the nonzero products and has three parts:

    1. The cover is simply laced and of finite type (`FiniteCartanMatrix`),
       and the sign is bimultiplicative with eps(alpha_p, alpha_p) = -1 and
       eps(alpha_p, alpha_q) eps(alpha_q, alpha_p) = (-1)^(a_pq), so the
       cover's table is Lie, by Frenkel and Kac (Kac, Infinite-Dimensional
       Lie Algebras, 7.8).
    2. The orbit sums have disjoint supports and `_fold` checks that they
       close under the product, so they span a subalgebra, which is Lie.
    3. `_fold` checks that the folded [h_i, e_(alpha_j)] is A_ij e_(alpha_j)
       for the label's Cartan matrix A, and that the restriction is a
       bijection onto the label's roots.

    A failed part raises LieConstructError.  `algebra.certified_table`
    writes the fold's integers over this order with the report of these
    parts, which covers all n^3 ordered triples, as `triples_checked`
    counts, and is kept on the algebra (`MultTableAlgebra.validation`), so
    no table built here is swept by `validate_algebra`.
    """
    rs, folded = _type_fold(label)
    weights = ((0,) * rs.rank,) * rs.rank + rs.roots
    return rs, certified_table(KIND_LIE, _basis_layout(rs)[0], weights, folded, order)


@lru_cache(maxsize=None)
def _type_fold(label: str) -> tuple[RootSystem, Fold]:
    """A type's root system and integer fold, made once per process, so
    `classify --type D4` folds D4 once for its three twists; never a table."""
    rs = root_system(cartan_matrix(label))
    return rs, _fold(rs)


# -- automorphisms ---------------------------------------------------------------


class DiagramPermutation(Record):
    """Permutation of the simple roots preserving the Cartan matrix (0-based images)."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise RequestError(f"pi = {self.to_one_based()} is not a permutation of 1..{n}")

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

    def preserves(self, cartan: FiniteCartanMatrix) -> bool:
        """True when this permutes the nodes of cartan, so has its rank, and
        a_(pi i, pi j) = a_ij for every pair of nodes."""
        a = cartan.entries
        p = self.images
        return len(p) == cartan.rank and all(
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


def diagram_automorphism(
    alg: MultTableAlgebra, rs: RootSystem, perm: DiagramPermutation
) -> FiniteOrderAutomorphism:
    """The automorphism h_i -> h_{pi(i)}, e_alpha -> c(alpha) e_{pi alpha},
    f_alpha -> c(alpha) f_{pi alpha} that a diagram symmetry pi induces, with
    the sign c read off the sign form in closed form.

    A pi that does not preserve the Cartan matrix of rs is refused first,
    by `check_twist`, with `record.RequestError`.  The identity symmetry
    gives the identity map, which `grading.twist` certifies with no table
    pass.
    Every other symmetry of a Cartan matrix is a symmetry of A, D or E6,
    which are their own cover, so the table is Frenkel and Kac's (`_fold`):
    e_a = E_a, f_a = -E_-a and [E_a, E_b] = eps(a, b) E_(a+b), with
    eps(a, b) = (-1)^(a F b) and F = `_sign_form(rs.cartan)`.  With
    p = perm.images, let D_ij = F_(p_i, p_j) + F_ij mod 2.  pi preserves the
    diagram and F + F^T is its adjacency matrix plus 2I, so D is symmetric
    with a zero diagonal, and eps(pi a, pi b) / eps(a, b) = (-1)^(a D b).  Put
    c(a) = (-1)^(sum_{i<j} D_ij a_i a_j).  Then c(alpha_i) = 1, c(-a) = c(a)
    and c(a + b) = c(a) c(b) (-1)^(a D b), so E_a -> c(a) E_(pi a) carries
    [E_a, E_b] = eps(a, b) E_(a+b) to [c(a) E_(pi a), c(b) E_(pi b)], and
    [E_a, E_-a] = -a to -pi a.  It is therefore the one automorphism that
    sends e_i to e_{pi(i)} and f_i to f_{pi(i)}, since these generate.  No
    structure constant is read; the map is certified by
    `grading.twist(alg, map, (0,) * alg.dim, 1)` on every basis pair, which
    is where a wrong sign fails.
    """
    from .grading import twist

    check_twist(rs.cartan, perm, (0,) * rs.rank, 1)
    return twist(alg, _diagram_map(alg, rs, perm), (0,) * alg.dim, 1)


def _diagram_map(
    alg: MultTableAlgebra, rs: RootSystem, perm: DiagramPermutation
) -> FiniteOrderAutomorphism:
    """The signed permutation of `diagram_automorphism`, of a pi that
    `check_twist` has accepted, as a plain map: nothing is certified."""
    from .grading import FiniteOrderAutomorphism

    l = rs.rank
    p, q = perm.images, perm.inverse().images
    form = _sign_form(rs.cartan)
    flips = [(i, j) for i in range(l) for j in range(i + 1, l) if (form[p[i]][p[j]] + form[i][j]) % 2]
    index = {alpha: k for k, alpha in enumerate(alg.weights)}
    one = CycloNum.one(alg.scalar_order)
    targets, scalars = list(p), [one] * l
    for alpha in alg.weights[l:]:
        targets.append(index[tuple(alpha[i] for i in q)])
        scalars.append(-one if sum(alpha[i] * alpha[j] for i, j in flips) % 2 else one)
    return FiniteOrderAutomorphism(tuple(targets), tuple(scalars), perm.order())


def check_twist(cartan: FiniteCartanMatrix, perm: DiagramPermutation, s: Sequence[int], m: int) -> None:
    """Raise `RequestError`, before anything is built, unless pi o tau_s is
    a twist of the type of `cartan`: the modulus m is >= 1 (checked first,
    since lcm(1, 0) = 0 and lcm(1, -3) = 3), pi preserves the Cartan matrix
    (so has its rank), the coweight s has its rank, the period lcm(|pi|, m)
    is <= MAX_PERIOD (after the ranks, so a pi or s of the wrong rank is
    blamed for itself, not for its period), and s is constant on the orbits
    of pi."""
    if m < 1:
        raise RequestError(f"the modulus of a toral charge must be >= 1, got m = {m}")
    label, s = cartan.type_label, list(s)
    if not perm.preserves(cartan):
        raise RequestError(
            "unsupported automorphism: permutation does not preserve the Cartan matrix"
            f" of {label}: pi = {perm.to_one_based()}"
        )
    if len(s) != cartan.rank:
        raise RequestError(f"charge rank mismatch: {label} has rank {cartan.rank}, but s = {s}")
    period = lcm(perm.order(), m)
    if period > MAX_PERIOD:
        raise RequestError(
            f"the twist period lcm({perm.order()}, {m}) = {period}"
            f" exceeds the limit {MAX_PERIOD}"
        )
    bad = [[i + 1 for i in orbit] for orbit in perm.orbits() if len({s[i] for i in orbit}) > 1]
    if bad:
        raise RequestError(
            f"s must be constant on the orbits of pi: s = {s} varies on the orbit {bad[0]}"
        )


def type_twist_factors(
    label: str, perm: DiagramPermutation, s: Sequence[int], m: int
) -> tuple[MultTableAlgebra, FiniteOrderAutomorphism, tuple[int, ...], int]:
    """The type-label counterpart of `descent.matrix_twist_factors`: the
    algebra of type `label` over Q(zeta_M), M = lcm(|pi|, m), and the
    factors of pi o tau_s as `grading.twist` takes them, the diagram map
    of pi (a plain signed permutation, which `twist` certifies), the
    exponents `alg.pairing(s)` of the coweight s and the modulus m.

    `check_twist` refuses a malformed twist once, before anything is built.
    """
    check_twist(cartan_matrix(label), perm, s, m)
    rs, alg = algebra_over(label, lcm(perm.order(), m))
    return alg, _diagram_map(alg, rs, perm), alg.pairing(s), m
