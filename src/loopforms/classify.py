"""Isomorphism classes of loop algebras over the punctured line.

Everything reduces to finite group theory on the diagram symmetry group:
R-isomorphism classes of loop algebras correspond to conjugacy classes of
Out, which in turn realize the nonabelian H^1 of the base (the fundamental
group of the punctured line is procyclic, so a class is pinned by the image
of the topological generator).  Passing from R-algebras to k-algebras merges
each class with the class of the inverse; over diagram symmetry groups the
merge does nothing because every element is conjugate to its inverse, and
the centroid pins the base ring, which is why the two counts agree.  Both
hypotheses are checked, not assumed: the inverse-conjugacy search is
exhaustive and the centroid dimensions are recomputed per class.

`classify_type` is the one entry point: it builds Out and its class table
once and returns one `Classification`, whose rows carry each class's affine
label, grading dims and centroid dims, and whose k-count merges inverse
classes on that same table (`k_class_count`).
"""

from __future__ import annotations

from typing import Optional

from .affine import AffineLabel, affine_certificate, graded_twist
from .centroid import centroid_graded
from .chevalley import (
    DiagramPermutation,
    FiniteCartanMatrix,
    ToralCharge,
    cartan_matrix,
    node_isomorphisms,
)
from .record import Record

__all__ = [
    "Classification",
    "ClassificationRow",
    "ClassifyError",
    "ConjClassTable",
    "InverseConjugacyReport",
    "OutGroup",
    "classify_type",
    "conjugacy_classes",
    "dynkin_automorphism_group",
    "inverse_conjugacy_check",
    "k_class_count",
]


class ClassifyError(ValueError):
    pass


class OutGroup(Record):
    """Finite permutation group; diagram symmetries when cartan is set.

    Abstract groups (cartan=None) are allowed so that the hypotheses below
    can be exercised on inputs where they fail, e.g. a cyclic group of order
    3, which is not a diagram symmetry group of any irreducible type.
    """

    elements: tuple[DiagramPermutation, ...]
    cartan: Optional[FiniteCartanMatrix] = None

    def __post_init__(self) -> None:
        if not self.elements:
            raise ClassifyError("group must be nonempty")
        seen = {g.images for g in self.elements}
        if len(seen) != len(self.elements):
            raise ClassifyError("duplicate elements")
        rank = len(self.elements[0].images)
        if tuple(range(rank)) not in seen:
            raise ClassifyError("missing identity")
        for g in self.elements:
            if g.inverse().images not in seen:
                raise ClassifyError("not closed under inversion")
            for h in self.elements:
                if g.compose(h).images not in seen:
                    raise ClassifyError("not closed under composition")
        if self.cartan is not None:
            for g in self.elements:
                if not g.preserves(self.cartan):
                    raise ClassifyError("element does not preserve the Cartan matrix")

    @property
    def order(self) -> int:
        return len(self.elements)


def dynkin_automorphism_group(cartan: FiniteCartanMatrix) -> OutGroup:
    """All permutations of the nodes preserving the Cartan matrix, in
    lexicographic order (`node_isomorphisms` of the matrix with itself).

    `OutGroup` checks each one against the whole matrix again.
    """
    if cartan.rank > 9:
        raise ClassifyError("rank above the brute-force budget")
    a = cartan.entries
    return OutGroup(
        elements=tuple(DiagramPermutation(p) for p in node_isomorphisms(a, a)), cartan=cartan
    )


class ConjClassTable(Record):
    classes: tuple[tuple[DiagramPermutation, int], ...]
    members: tuple[frozenset, ...]

    def class_of(self, g: DiagramPermutation) -> int:
        for index, orbit in enumerate(self.members):
            if g.images in orbit:
                return index
        raise ClassifyError("element not in the group")


def conjugacy_classes(group: OutGroup) -> ConjClassTable:
    """Brute-force conjugation orbits; representative = smallest member.

    `OutGroup` checked that the group is closed under composition and
    inversion, so every conjugate h g h^-1 is an element, and the orbits
    partition the group: each is still whole in `remaining` when met, and
    the class sizes sum to the group order."""
    remaining = {g.images: g for g in group.elements}
    rows = []
    while remaining:
        start = remaining[min(remaining)]
        orbit = {h.compose(start).compose(h.inverse()).images for h in group.elements}
        for im in orbit:
            del remaining[im]
        rows.append(((DiagramPermutation(min(orbit)), len(orbit)), frozenset(orbit)))
    rows.sort(key=lambda cm: cm[0][0].images)
    return ConjClassTable(classes=tuple(c for c, _ in rows), members=tuple(m for _, m in rows))


class InverseConjugacyReport(Record):
    ok: bool
    witnesses: tuple[tuple[DiagramPermutation, Optional[DiagramPermutation]], ...]


def inverse_conjugacy_check(group: OutGroup) -> InverseConjugacyReport:
    """Search h with h g h^-1 = g^-1 for every g (within the group)."""
    witnesses = []
    ok = True
    for g in group.elements:
        target = g.inverse().images
        found = None
        for h in group.elements:
            if h.compose(g).compose(h.inverse()).images == target:
                found = h
                break
        if found is None:
            ok = False
        witnesses.append((g, found))
    return InverseConjugacyReport(ok=ok, witnesses=tuple(witnesses))


class ClassificationRow(Record):
    """One conjugacy class of Out: its twist L(pi), the affine label
    extracted from it, and the centroid dims of that same grading."""

    class_rep: DiagramPermutation
    class_size: int
    twist_order: int
    affine_label: AffineLabel
    grading_dims: tuple[int, ...]
    centroid_dims: tuple[int, ...]

    @property
    def centroid_ok(self) -> bool:
        """One-dimensional in shift 0 and zero in every other shift (one
        grading component per shift residue)."""
        return self.centroid_dims == (1,) + (0,) * (len(self.grading_dims) - 1)

    def to_obj(self) -> dict:
        return {
            "class_rep": self.class_rep.to_one_based(),
            "class_size": self.class_size,
            "twist_order": self.twist_order,
            "affine_label": str(self.affine_label),
            "grading_dims": list(self.grading_dims),
        }


class Classification(Record):
    """The R-forms of one type, one row per class, and the k-count."""

    rows: tuple[ClassificationRow, ...]
    k_classes: int
    inverse_conjugacy_ok: bool

    @property
    def r_classes(self) -> int:
        return len(self.rows)

    @property
    def centroid_ok(self) -> bool:
        return all(row.centroid_ok for row in self.rows)

    @property
    def hypotheses_hold(self) -> bool:
        return self.inverse_conjugacy_ok and self.centroid_ok


def k_class_count(table: ConjClassTable) -> int:
    """The classes of table after merging each class with the class of the
    inverses: the k-classes, where the table's own classes are the R-classes."""
    pairs = {frozenset((i, table.class_of(rep.inverse()))) for i, (rep, _) in enumerate(table.classes)}
    return len(pairs)


def classify_type(type_label: str) -> Classification:
    """Classify the loop algebras of one type and verify both hypotheses.

    Out and its class table are built once.  Each class representative pi
    gives one row: L(pi) is built and graded once (`affine.graded_twist`),
    and that grading yields both its affine label and its centroid dims.

    The k-relation merges sigma with sigma^-1 (swapping the two ends of the
    punctured line).  When every element is conjugate to its inverse and the
    centroid of each L(pi) is one-dimensional in shift 0 and zero in every
    other shift (so k-isomorphisms descend to R up to that swap), the two
    counts must agree.  That, and distinct labels for distinct classes, are
    enforced here rather than reported.
    """
    cartan = cartan_matrix(type_label)
    group = dynkin_automorphism_group(cartan)
    table = conjugacy_classes(group)
    untwisted = ToralCharge.trivial(cartan.rank)
    rows = []
    for rep, size in table.classes:
        report = affine_certificate(type_label, perm=rep)
        _, alg, grading = graded_twist(type_label, rep, untwisted)
        rows.append(
            ClassificationRow(
                class_rep=rep,
                class_size=size,
                twist_order=rep.order(),
                affine_label=report.label,
                grading_dims=report.grading_dims,
                centroid_dims=tuple(c.solution_dim for c in centroid_graded(alg, grading)),
            )
        )
    labels = [str(r.affine_label) for r in rows]
    if len(set(labels)) != len(labels):
        raise ClassifyError(f"classes share an affine label: {labels}")
    result = Classification(
        rows=tuple(rows),
        k_classes=k_class_count(table),
        inverse_conjugacy_ok=inverse_conjugacy_check(group).ok,
    )
    if result.hypotheses_hold and result.r_classes != result.k_classes:
        raise ClassifyError(
            f"hypotheses hold but counts differ: {result.r_classes} vs {result.k_classes}"
        )
    return result
