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
"""

from __future__ import annotations

from typing import Optional

from .affine import AffineLabel, affine_certificate, graded_twist
from .algebra import centroid_graded
from .chevalley import (
    DiagramPermutation,
    FiniteCartanMatrix,
    ToralCharge,
    cartan_matrix,
    node_isomorphisms,
)
from .record import Record

__all__ = [
    "ClassificationRow",
    "ClassifyError",
    "ConjClassTable",
    "InverseConjugacyReport",
    "KvsRReport",
    "OutGroup",
    "classification_table",
    "conjugacy_classes",
    "dynkin_automorphism_group",
    "inverse_conjugacy_check",
    "k_vs_r_classes",
    "k_vs_r_counts",
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
    """Brute-force conjugation orbits; representative = smallest member."""
    remaining = {g.images: g for g in group.elements}
    rows = []
    while remaining:
        start = remaining[min(remaining)]
        orbit = {h.compose(start).compose(h.inverse()).images for h in group.elements}
        for im in orbit:
            if im not in remaining:
                raise ClassifyError("conjugation left the group")
            del remaining[im]
        rows.append(((DiagramPermutation(min(orbit)), len(orbit)), frozenset(orbit)))
    rows.sort(key=lambda cm: cm[0][0].images)
    table = ConjClassTable(
        classes=tuple(c for c, _ in rows), members=tuple(m for _, m in rows)
    )
    if sum(size for _, size in table.classes) != group.order:
        raise ClassifyError("class sizes do not sum to the group order")
    return table


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
    class_rep: DiagramPermutation
    class_size: int
    twist_order: int
    affine_label: AffineLabel
    grading_dims: tuple[int, ...]

    def to_obj(self) -> dict:
        return {
            "class_rep": self.class_rep.to_one_based(),
            "class_size": self.class_size,
            "twist_order": self.twist_order,
            "affine_label": str(self.affine_label),
            "grading_dims": list(self.grading_dims),
        }


def classification_table(type_label: str) -> tuple[ClassificationRow, ...]:
    """One row per diagram class: build L(pi), grade it, extract its label.

    Distinct classes must carry distinct labels; that is enforced here
    rather than reported.
    """
    cartan = cartan_matrix(type_label)
    table = conjugacy_classes(dynkin_automorphism_group(cartan))
    rows = []
    for rep, size in table.classes:
        report = affine_certificate(type_label, perm=rep)
        rows.append(
            ClassificationRow(
                class_rep=rep,
                class_size=size,
                twist_order=rep.order(),
                affine_label=report.label,
                grading_dims=report.grading_dims,
            )
        )
    labels = [str(r.affine_label) for r in rows]
    if len(set(labels)) != len(labels):
        raise ClassifyError(f"classes share an affine label: {labels}")
    return tuple(rows)


def k_vs_r_counts(group: OutGroup) -> tuple[int, int]:
    """(R-classes, k-classes): conjugacy classes before and after merging
    each class with the class of the inverses."""
    table = conjugacy_classes(group)
    r_count = len(table.classes)
    merged = []
    seen: set[int] = set()
    for index, (rep, _) in enumerate(table.classes):
        if index in seen:
            continue
        partner = table.class_of(rep.inverse())
        seen.add(index)
        seen.add(partner)
        merged.append({index, partner})
    return r_count, len(merged)


class KvsRReport(Record):
    type_label: str
    r_class_count: int
    k_class_count: int
    inverse_conjugacy_ok: bool
    centroid_ok: bool
    centroid_dims: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @property
    def hypotheses_hold(self) -> bool:
        return self.inverse_conjugacy_ok and self.centroid_ok


def k_vs_r_classes(type_label: str) -> KvsRReport:
    """Compare R- and k-isomorphism class counts and verify both hypotheses.

    The k-relation merges sigma with sigma^-1 (swapping the two ends of the
    punctured line).  When every element is conjugate to its inverse and the
    centroid of each fixture L(pi) is one-dimensional in shift 0 and zero in
    every other shift (so k-isomorphisms descend to R up to that swap), the
    two counts must agree, and we assert that they do.
    """
    cartan = cartan_matrix(type_label)
    group = dynkin_automorphism_group(cartan)
    r_count, k_count = k_vs_r_counts(group)
    inverse_ok = inverse_conjugacy_check(group).ok
    centroid_dims = []
    centroid_ok = True
    table = conjugacy_classes(group)
    untwisted = ToralCharge.trivial(cartan.rank)
    for rep, _ in table.classes:
        # the grading of L(pi) that classification_table extracts from
        _, alg, grading = graded_twist(type_label, rep, untwisted)
        dims = tuple(report.solution_dim for report in centroid_graded(alg, grading))
        centroid_dims.append((rep.images, dims))
        expected = (1,) + (0,) * (grading.period - 1)
        if dims != expected:
            centroid_ok = False
    if inverse_ok and centroid_ok:
        if r_count != k_count:
            raise ClassifyError(
                f"hypotheses hold but counts differ: {r_count} vs {k_count}"
            )
    return KvsRReport(
        type_label=type_label,
        r_class_count=r_count,
        k_class_count=k_count,
        inverse_conjugacy_ok=inverse_ok,
        centroid_ok=centroid_ok,
        centroid_dims=tuple(centroid_dims),
    )
