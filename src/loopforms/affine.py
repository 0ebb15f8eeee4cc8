"""Affine type certificates for twisted loop algebras.

Given L(sigma) for sigma = pi o tau_s, the root data of the loop algebra
determines a generalized Cartan matrix: read the weight under the pi-fixed
Cartan h0 off every vector of the closed-form grading, order the resulting
affine roots by (degree, then lexicographic weight), pick the
indecomposable positives in degrees 0 through deg delta (delta the least
positive imaginary root, deg delta <= period) as a base, normalize coroots
through exact sl2-triples, and read off the matrix A_ij = weight_j(h_i).
Degree j of the loop algebra is the grading component j mod period, so the
root data is stored once per residue and a degree reads its residue.

The positivity order is a group order, so the selected base is a genuine
base of the affine system even though it need not be the textbook one; the
matrix is recovered up to simultaneous permutation, which is how catalog
matching operates.  The catalog is data: Kac's Tables Aff 1-3 generated from
the finite Cartan matrices (untwisted types bordered by -theta, twisted ones
as transposes, A_{2l}^(2) written out), with one entry per advertised type
and diagram-class order.  The extractor stays the certificate: every label
is attached to a matrix it extracted, and the tests and acceptance
criterion 7 extract loop algebras to check the catalog against it.

Matching is `chevalley.node_isomorphisms`, the node-permutation search that
also finds the Dynkin symmetries: a row matches when the search yields a
permutation carrying the extracted matrix onto it, and the rows are scanned
in order, with no index.  A request for one type matches its extracted
matrix against that type's own rows, built alone (`match_own_type`), and is
refused when none of them matches.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

from .algebra import MultTableAlgebra
from .chevalley import (
    DiagramPermutation,
    RootSystem,
    TYPE_LABELS,
    ToralCharge,
    _cartan_axioms,
    _symmetrizers,
    cartan_matrix,
    check_twist,
    highest_root,
    int_rank_det,
    node_isomorphisms,
    type_twist_factors,
)
from .cyclo import CycloNum, Sparse
from .grading import ComponentSolver, GradedDecomposition, eigengrading, twist
from .record import Record

__all__ = [
    "AffineExtractError",
    "AffineLabel",
    "AffineRoot",
    "AffineRootData",
    "CatalogEntry",
    "ExtractionReport",
    "FixedCartan",
    "GCM",
    "affine_catalog",
    "affine_certificate",
    "affine_roots",
    "bordered_untwisted",
    "extract_gcm",
    "fixed_cartan",
    "gcm_equivalent",
    "graded_twist",
    "match_own_type",
    "own_type_forms",
    "simple_affine_roots",
]


class AffineExtractError(ValueError):
    pass


Weight = tuple[int, ...]


class FixedCartan(Record):
    """Basis of h0 = h^pi: the orbit sums of the h_i, one per pi-orbit."""

    basis: tuple[Sparse, ...]
    orbits: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.basis)


def fixed_cartan(alg: MultTableAlgebra, rs: RootSystem, perm: DiagramPermutation) -> FixedCartan:
    """Orbit sums b_O = sum_{i in O} h_i, abelian because the h_i commute:
    the table of a type label is its fold (`chevalley._fold`), which writes
    no product of two Cartan elements.

    Each b_O is 1 at its smallest index and the orbits are disjoint, so
    `ComponentSolver` reads coordinates on h0.  For a root alpha, ad b_O
    acts on e_alpha by the integer sum_{i in O} <alpha, alpha_i^vee>, the
    same for every root of a pi-orbit, which is what lets `affine_roots` read
    the weights off the closed-form grading.  perm must preserve the Cartan
    matrix of rs, as `chevalley.check_twist` decides.
    """
    check_twist(rs.cartan, perm, ToralCharge.trivial(rs.rank), AffineExtractError)
    orbits = perm.orbits()
    one = CycloNum.one(alg.scalar_order)
    basis = [{i: one for i in orbit} for orbit in orbits]
    return FixedCartan(basis=tuple(basis), orbits=orbits)


class AffineRoot(Record):
    weight: Weight
    degree: int

    def to_obj(self) -> dict:
        return {"weight": list(self.weight), "degree": self.degree}


class AffineRootData(Record):
    """Root data by residue: `spaces[r]` maps each h0-weight of component r
    to its vectors there, in component order, with the weights in sorted
    order.  Degree j of the loop algebra is component j mod period, so the
    space of a weight in any degree is read off its residue (`space`)."""

    h0: FixedCartan
    period: int
    spaces: tuple[dict[Weight, tuple[Sparse, ...]], ...]

    def space(self, weight: Weight, degree: int) -> tuple[Sparse, ...]:
        return self.spaces[degree % self.period].get(weight, ())


def affine_roots(
    alg: MultTableAlgebra,
    grading: GradedDecomposition,
    h0: FixedCartan,
) -> AffineRootData:
    """Ad-h0 weight decomposition of every grading component, read off the
    closed-form grading.

    Each component vector is an orbit sum of root vectors, or of Cartan
    vectors, over one pi-orbit, and every root of a pi-orbit has the same
    h0-weight, so each vector is an h0-eigenvector.  The vector is 1 at its
    smallest index, so its weight on h0_k is the entry of h0_k * v there;
    that h0_k * v is exactly the weight times v, and that the weight is a
    rational integer, are both checked.  The space of a weight in a
    component is the tuple of its vectors of that weight, in component order.

    Real roots (nonzero weight) must be one-dimensional in every residue;
    the zero-weight space of residue 0 must be exactly h0 (anything bigger
    means the chosen Cartan does not control the twist).  The zero-weight
    spaces of the other residues are the imaginary layer.
    """
    m = grading.period
    zero = (0,) * h0.rank
    spaces = []
    for res in range(m):
        groups: dict[Weight, list[Sparse]] = {}
        for v in grading.component_bases[res]:
            pivot = min(v)
            weight = []
            for h in h0.basis:
                p = alg.product_sparse(h, v)
                w = p.get(pivot)
                if p != ({} if w is None else {k: w * x for k, x in v.items()}):
                    raise AffineExtractError(
                        f"a vector of component {res} is not diagonal under the fixed Cartan"
                    )
                if w is not None and not (w.is_rational() and w.den == 1):
                    raise AffineExtractError(
                        f"a vector of component {res} has weight {w}, not a rational integer"
                    )
                weight.append(0 if w is None else w.num[0])
            groups.setdefault(tuple(weight), []).append(v)
        space = {w: tuple(vs) for w, vs in sorted(groups.items())}
        for w, vectors in space.items():
            if any(w) and len(vectors) != 1:
                raise AffineExtractError(
                    f"real root {w} in residue {res} has multiplicity {len(vectors)}"
                )
        if res == 0 and len(space.get(zero, ())) != h0.rank:
            raise AffineExtractError(
                "zero-weight space in residue 0 exceeds the fixed Cartan; "
                "unsupported twist shape"
            )
        spaces.append(space)
    return AffineRootData(h0=h0, period=m, spaces=tuple(spaces))


def _is_positive(weight: Weight, degree: int) -> bool:
    if degree != 0:
        return degree > 0
    return weight > tuple(0 for _ in weight)


def simple_affine_roots(data: AffineRootData) -> tuple[AffineRoot, ...]:
    """Indecomposable positive roots in degrees 0 through deg delta, sorted
    by (degree, weight).

    Positivity is the group order (degree, then lex weight) > 0.  Sums may
    use the imaginary layer: a real positive like alpha + delta decomposes
    as (alpha, 0) + (delta, deg delta) even though delta is not a real root,
    and dropping those decompositions would inflate the base.

    delta, the least positive imaginary root, is a positive sum of the
    simple roots, so every simple root has degree at most deg delta, the
    least j in 1..period whose residue has a zero-weight space.  With a
    toral charge a simple root can sit at any of those degrees (Kac's
    labels s_i are its degrees).  A decomposition of a root of degree j into
    positives has both degrees in 0..j, so only the positives of degrees
    0..deg delta are listed.
    """
    m = data.period
    zero = (0,) * data.h0.rank
    # residue 0 holds h0 (`affine_roots` checks it), so j = period qualifies
    top = next(j for j in range(1, m + 1) if zero in data.spaces[j % m])
    # in (degree, weight) order: each residue lists its weights sorted
    positives = [
        (w, j) for j in range(top + 1) for w in data.spaces[j % m] if _is_positive(w, j)
    ]
    known = set(positives)
    base = tuple(
        AffineRoot(weight=w, degree=j)
        for w, j in positives
        if any(w)
        and not any(
            (tuple(a - b for a, b in zip(w, w1)), j - j1) in known for w1, j1 in positives
        )
    )
    expected = data.h0.rank + 1
    if len(base) != expected:
        raise AffineExtractError(
            f"base has {len(base)} roots, expected {expected}; "
            "unsupported twist"
        )
    return base


class GCM(Record):
    """Generalized Cartan matrix of affine type, checked on build: the axioms
    it shares with a finite Cartan matrix (`chevalley._cartan_axioms`), then
    determinant 0, corank 1 and indecomposability."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        a = self.entries
        n = len(a)
        _cartan_axioms(a, AffineExtractError)
        rank, det = int_rank_det(a)
        if det != 0:
            raise AffineExtractError(f"determinant {det} is not 0")
        if rank != n - 1:
            raise AffineExtractError(f"corank {n - rank} is not 1")
        reached = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for j in range(n):
                if j not in reached and a[i][j] != 0:
                    reached.add(j)
                    frontier.append(j)
        if len(reached) != n:
            raise AffineExtractError("matrix is decomposable")

    def to_obj(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


class GCMCertificate(Record):
    gcm: GCM
    base: tuple[AffineRoot, ...]

    def to_obj(self) -> dict:
        return {
            "gcm": self.gcm.to_obj(),
            "base": [r.to_obj() for r in self.base],
            "det": "0",
            "corank": 1,
        }


def extract_gcm(
    alg: MultTableAlgebra,
    base: Sequence[AffineRoot],
    data: AffineRootData,
) -> GCMCertificate:
    """Coroot normalization and the matrix A_ij = weight_j(h_i).

    For each base root, e_i spans its (one-dimensional) space and f_i is the
    spanning vector of the opposite space rescaled so that the triple
    satisfies weight_i([e_i, f_i]) = 2 exactly.  [e_i, f_i] must land inside
    h0; entries must come out integral; the assembled matrix must pass every
    affine GCM axiom.  Any failure raises rather than rounding.
    """
    order = alg.scalar_order
    h0 = data.h0
    solver = ComponentSolver(h0.basis)
    zero = CycloNum.zero(order)
    coroots: list[tuple[CycloNum, ...]] = []
    for root in base:
        e_space = data.space(root.weight, root.degree)
        f_space = data.space(tuple(-c for c in root.weight), -root.degree)
        if not e_space or not f_space:
            raise AffineExtractError(f"missing root space for base root {root.weight}")
        if len(e_space) != 1 or len(f_space) != 1:
            raise AffineExtractError("base root space is not one-dimensional")
        coords = solver.coords(alg.product_sparse(e_space[0], f_space[0]))
        if coords is None:
            raise AffineExtractError("[e, f] leaves the fixed Cartan")
        pairing = sum((c * root.weight[k] for k, c in coords.items()), zero)
        if pairing.is_zero():
            raise AffineExtractError(f"degenerate pairing for base root {root.weight}")
        scale = CycloNum.rational(order, 2) / pairing
        coroot = tuple(scale * coords.get(k, zero) for k in range(h0.rank))
        if not all(c.is_rational() for c in coroot):
            raise AffineExtractError(f"coroot of base root {root.weight} is not rational")
        coroots.append(coroot)
    n = len(base)
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            value = sum((c * w for c, w in zip(coroots[i], base[j].weight)), zero)
            if value.den != 1:
                raise AffineExtractError(f"entry ({i},{j}) = {value} is not an integer")
            row.append(value.num[0])
        entries.append(tuple(row))
    gcm = GCM(entries=tuple(entries))
    return GCMCertificate(gcm=gcm, base=tuple(base))


# -- catalog and matching ------------------------------------------------------


class AffineLabel(Record):
    base_type: str
    twist_order: int

    def __str__(self) -> str:
        return f"{self.base_type}^({self.twist_order})"


class CatalogEntry(Record):
    label: AffineLabel
    gcm: GCM


def gcm_equivalent(a: GCM, b: GCM) -> Optional[tuple[int, ...]]:
    """The first permutation p with b[p(i)][p(j)] = a[i][j], or None."""
    return next(node_isomorphisms(a.entries, b.entries), None)


def bordered_untwisted(type_label: str) -> GCM:
    """The GCM of X^(1): the Cartan matrix of X with the node delta - theta first.

    theta is the highest root (`chevalley.highest_root`).  With the integer
    symmetrizer d (d_i A_ij = d_j A_ji), (theta, alpha_j) is
    N_j = sum_i theta_i d_i A_ij and (theta, theta) is sum_k theta_k N_k.
    Row 0 is then (2, -2 N_j / (theta, theta)), which is
    -<alpha_j, theta^vee>, and column 0 is -<theta, alpha_i^vee>
    = -sum_k A_ik theta_k (Kac, Infinite-Dimensional Lie Algebras, Ch. 4 and
    Table Aff 1).  Everything is an integer: -2 N_j / (theta, theta) is
    -<alpha_j, theta^vee>, an integer because theta is a root.
    """
    cartan = cartan_matrix(type_label)
    a = cartan.entries
    n = cartan.rank
    d = _symmetrizers(cartan)
    theta = highest_root(cartan)
    pairings = [sum(theta[i] * d[i] * a[i][j] for i in range(n)) for j in range(n)]
    norm = sum(t * p for t, p in zip(theta, pairings))
    top = [2] + [-2 * p // norm for p in pairings]
    rows = [tuple(top)] + [
        (-sum(a[i][k] * theta[k] for k in range(n)),) + a[i] for i in range(n)
    ]
    return GCM(entries=tuple(rows))


def _a_even_twisted(l: int) -> GCM:
    """A_{2l}^(2): a chain of l + 1 nodes whose two end bonds are double and
    point the same way, so the roots have three lengths (Kac, Table Aff 2);
    for l = 1 the single bond has weight 4."""
    if l == 1:
        return GCM(entries=((2, -4), (-1, 2)))
    a = [[2 if i == j else 0 for j in range(l + 1)] for i in range(l + 1)]
    for i in range(l):
        a[i][i + 1] = a[i + 1][i] = -1
    a[0][1] = a[l - 1][l] = -2
    return GCM(entries=tuple(tuple(row) for row in a))


def _transpose(gcm: GCM) -> GCM:
    return GCM(entries=tuple(zip(*gcm.entries)))


def _twisted_entries(type_label: str) -> tuple[tuple[int, GCM], ...]:
    """(r, GCM of X^(r)) for every nontrivial diagram-class order r of X.

    Kac, Tables Aff 2-3: A_{2l-1}^(2), D_{l+1}^(2), E6^(2) and D4^(3) are the
    transposes of B_l^(1), C_l^(1), F4^(1) and G2^(1); A_{2l}^(2) has its own
    shape.  Kac's B_l and C_l trade places here: root_system reads
    cartan_matrix("B<l>") with a_ij = <alpha_i^vee, alpha_j>, as Kac does, and
    that matrix is Kac's C_l (its highest root is 2a_1 + ... + 2a_{l-1} + a_l).
    So Kac's B_l^(1) is the C_l entry below, and the reverse; B2 stands in for
    C2, which coincides with it.  Types without diagram symmetries have none.
    """
    family, l = type_label[0], int(type_label[1:])
    if family == "A" and l >= 2:
        if l % 2 == 0:
            return ((2, _a_even_twisted(l // 2)),)
        rank = (l + 1) // 2
        return ((2, _transpose(bordered_untwisted(f"C{rank}" if rank > 2 else "B2"))),)
    if family == "D":
        order_2 = (2, _transpose(bordered_untwisted(f"B{l - 1}")))
        if l == 4:
            return (order_2, (3, _transpose(bordered_untwisted("G2"))))
        return (order_2,)
    if type_label == "E6":
        return ((2, _transpose(bordered_untwisted("F4"))),)
    return ()


@lru_cache(maxsize=1)
def affine_catalog() -> tuple[CatalogEntry, ...]:
    """One entry per type in TYPE_LABELS and per twist order of its diagram
    classes, from Kac's tables; entries pairwise non-equivalent.

    Everything is integer arithmetic on the Cartan matrices: no root system
    is built (`bordered_untwisted` finds theta by reflection) and no
    rational number is formed, so the whole catalog costs about 0.01 s,
    and the distinctness check scans all pairs.
    The data is not trusted on its own: every GCM passes the affine axioms
    here, and the extractor certifies entries against loop algebras in the
    tests and in acceptance criterion 7.
    """
    entries = tuple(entry for label in TYPE_LABELS for entry in own_type_forms(label))
    for k, entry in enumerate(entries):
        for other in entries[:k]:
            if gcm_equivalent(entry.gcm, other.gcm) is not None:
                raise AffineExtractError(f"catalog entries {other.label} and {entry.label} coincide")
    return entries


def own_type_forms(type_label: str) -> tuple[CatalogEntry, ...]:
    """The catalog rows of one type: X^(1) and its twisted forms X^(r),
    built from one or two bordered matrices; `affine_catalog` is these rows
    for every type."""
    forms = ((1, bordered_untwisted(type_label)),) + _twisted_entries(type_label)
    return tuple(
        CatalogEntry(label=AffineLabel(base_type=type_label, twist_order=order), gcm=gcm)
        for order, gcm in forms
    )


def match_own_type(gcm: GCM, type_label: str) -> Optional[AffineLabel]:
    """The label of the row of `type_label` equivalent to gcm, or None.

    The catalog's rows are pairwise non-equivalent (`affine_catalog` checks
    it), so a row of the requested type that matches is the one catalog
    entry equivalent to gcm, and no other row is read.
    """
    for entry in own_type_forms(type_label):
        if gcm_equivalent(gcm, entry.gcm) is not None:
            return entry.label
    return None


# -- end-to-end pipeline -------------------------------------------------------


class ExtractionReport(Record):
    type_label: str
    perm: DiagramPermutation
    charge: ToralCharge
    period: int
    grading_dims: tuple[int, ...]
    certificate: GCMCertificate
    label: AffineLabel

    @property
    def gcm(self) -> GCM:
        return self.certificate.gcm

    def to_obj(self) -> dict:
        obj = self.certificate.to_obj()
        obj["label"] = str(self.label)
        return obj


@lru_cache(maxsize=None)
def graded_twist(
    type_label: str, perm: DiagramPermutation, charge: ToralCharge
) -> tuple[RootSystem, MultTableAlgebra, GradedDecomposition]:
    """L(pi o tau_s): the algebra of `chevalley.type_twist_factors` and the
    eigengrading of the certified twist, built once per process.

    Extraction and the centroid check of `classify.classify_type` share it.
    """
    rs, alg, *factors = type_twist_factors(type_label, perm, charge)
    return rs, alg, eigengrading(alg, twist(alg, *factors))


@lru_cache(maxsize=None)
def _extract_inner(
    type_label: str,
    perm: DiagramPermutation,
    charge: ToralCharge,
) -> tuple[int, tuple[int, ...], GCMCertificate]:
    rs, alg, grading = graded_twist(type_label, perm, charge)
    data = affine_roots(alg, grading, fixed_cartan(alg, rs, perm))
    cert = extract_gcm(alg, simple_affine_roots(data), data)
    return grading.period, grading.dims, cert


def affine_certificate(
    type_label: str,
    perm: Optional[DiagramPermutation] = None,
    charge: Optional[ToralCharge] = None,
) -> ExtractionReport:
    """Full pipeline: build L(pi o tau_s), extract its GCM, match the label.

    The GCM is matched against the requested type's own rows alone
    (`match_own_type`); when none matches, the request is refused.
    """
    rank = cartan_matrix(type_label).rank
    if perm is None:
        perm = DiagramPermutation.identity(rank)
    if charge is None:
        charge = ToralCharge.trivial(rank)
    period, dims, cert = _extract_inner(type_label, perm, charge)
    label = match_own_type(cert.gcm, type_label)
    if label is None:
        raise AffineExtractError(f"the extracted matrix matches no form of {type_label}")
    return ExtractionReport(
        type_label=type_label,
        perm=perm,
        charge=charge,
        period=period,
        grading_dims=dims,
        certificate=cert,
        label=label,
    )
