"""Isomorphism classes of loop algebras over the punctured line.

Everything reduces to finite group theory on the diagram symmetry group:
R-isomorphism classes of loop algebras correspond to conjugacy classes of
Out, which in turn realize the nonabelian H^1 of the base (the fundamental
group of the punctured line is procyclic, so a class is pinned by the image
of the topological generator).  Passing from R-algebras to k-algebras merges
each class with the class of the inverse; over diagram symmetry groups the
merge does nothing because every element is conjugate to its inverse, and
the centroid pins the base ring, which is why the two counts agree.  Both
hypotheses are checked, not assumed: the class table records the inverse
class of every class, and the centroid dimensions are recomputed per class.

`classify_type` is the one entry point: it builds Out and its class table
once and returns one `Classification`, whose rows carry each class's affine
label, grading dims and centroid dims, and whose k-count and
inverse-conjugacy are read off that same table (`ConjClassTable`).
"""

from __future__ import annotations

from typing import Optional

from .affine import AffineLabel, affine_certificate
from .centroid import centroid_graded
from .chevalley import (
    DiagramPermutation,
    FiniteCartanMatrix,
    cartan_matrix,
    node_isomorphisms,
    type_twist_factors,
)
from .grading import twist
from .record import Record

__all__ = [
    "Classification",
    "ClassificationRow",
    "ClassifyError",
    "ConjClassTable",
    "OutGroup",
    "classify_type",
    "conjugacy_classes",
    "dynkin_automorphism_group",
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
        # compose indexes by the receiver's length, so the closure loops
        # below need one length throughout
        rank = len(self.elements[0].images)
        if any(len(g.images) != rank for g in self.elements):
            raise ClassifyError("elements permute different numbers of nodes")
        seen = {g.images for g in self.elements}
        if len(seen) != len(self.elements):
            raise ClassifyError("duplicate elements")
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
    a = cartan.entries
    return OutGroup(
        elements=tuple(DiagramPermutation(p) for p in node_isomorphisms(a, a)), cartan=cartan
    )


class ConjClassTable(Record):
    """The conjugacy classes of a group, as (representative, size) with
    their members, and for each class the index of the class that holds the
    inverses of its members (`inverses`); the k-count and inverse-conjugacy
    are read off that column."""

    classes: tuple[tuple[DiagramPermutation, int], ...]
    members: tuple[frozenset, ...]
    inverses: tuple[int, ...]

    @property
    def inverse_conjugacy(self) -> bool:
        """Every element is conjugate to its inverse: each class is its own
        inverse class."""
        return all(i == j for i, j in enumerate(self.inverses))

    @property
    def k_classes(self) -> int:
        """The classes after merging each with its inverse class: the
        k-classes, where the table's own classes are the R-classes."""
        return len({frozenset(pair) for pair in enumerate(self.inverses)})


def conjugacy_classes(group: OutGroup) -> ConjClassTable:
    """Brute-force conjugation orbits; representative = smallest member.

    `OutGroup` checked that the group is closed under composition and
    inversion, so every conjugate h g h^-1 is an element, and the orbits
    partition the group: each is still whole in `remaining` when met, and
    it is met at its smallest member, so the classes come in the order of
    their representatives.  The inverses of a class's members form one
    class, since (h g h^-1)^-1 = h g^-1 h^-1, so the class of the
    representative's inverse is the inverse class."""
    remaining = {g.images: g for g in group.elements}
    rows = []
    while remaining:
        rep = remaining[min(remaining)]
        orbit = frozenset(h.compose(rep).compose(h.inverse()).images for h in group.elements)
        for im in orbit:
            del remaining[im]
        rows.append((rep, orbit))
    index_of = {im: index for index, (_, orbit) in enumerate(rows) for im in orbit}
    return ConjClassTable(
        classes=tuple((rep, len(orbit)) for rep, orbit in rows),
        members=tuple(orbit for _, orbit in rows),
        inverses=tuple(index_of[rep.inverse().images] for rep, _ in rows),
    )


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


def classify_type(type_label: str) -> Classification:
    """Classify the loop algebras of one type and verify both hypotheses.

    Out and its class table are built once.  Each class representative pi
    gives one row: its twist is built by `type_twist_factors` and `twist`,
    as the CLI's twist commands build theirs, L(pi) is graded once, by
    `affine_certificate`, and its centroid is solved on that algebra and
    the grading the report carries.

    The k-relation merges sigma with sigma^-1 (swapping the two ends of the
    punctured line).  When every element is conjugate to its inverse and the
    centroid of each L(pi) is one-dimensional in shift 0 and zero in every
    other shift (so k-isomorphisms descend to R up to that swap), the two
    counts agree, and no check is needed for it: both are read off one
    table, and when every class is its own inverse class the merge joins no
    two classes, so `k_classes` is the number of classes, one row each.
    Distinct labels for distinct classes are enforced here rather than
    reported.
    """
    cartan = cartan_matrix(type_label)
    table = conjugacy_classes(dynkin_automorphism_group(cartan))
    rows = []
    for rep, size in table.classes:
        alg, *factors = type_twist_factors(type_label, rep, (0,) * cartan.rank, 1)
        report = affine_certificate(type_label, alg, twist(alg, *factors))
        centroid = centroid_graded(alg, report.grading)
        rows.append(
            ClassificationRow(
                class_rep=rep,
                class_size=size,
                twist_order=rep.order(),
                affine_label=report.label,
                grading_dims=report.grading.dims,
                centroid_dims=tuple(c.solution_dim for c in centroid),
            )
        )
    labels = [str(r.affine_label) for r in rows]
    if len(set(labels)) != len(labels):
        raise ClassifyError(f"classes share an affine label: {labels}")
    return Classification(
        rows=tuple(rows),
        k_classes=table.k_classes,
        inverse_conjugacy_ok=table.inverse_conjugacy,
    )
