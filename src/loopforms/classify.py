"""Isomorphism classes of loop algebras over the punctured line.

Everything reduces to finite group theory on the diagram symmetry group:
R-isomorphism classes of loop algebras correspond to conjugacy classes of
Out, which in turn realize the nonabelian H^1 of the base (the fundamental
group of the punctured line is procyclic, so a class is pinned by the image
of the topological generator).  Passing from R-algebras to k-algebras merges
each class with the class of the inverse; over diagram symmetry groups the
merge does nothing because every element is conjugate to its inverse, and
the centroid pins the base ring, which is why the two counts agree.  Both
hypotheses are checked, not assumed: Out records the inverse class of
every class, and the centroid dimensions are recomputed per class.

Out is one record, `OutGroup`: the symmetries of a Cartan matrix, checked
to be a group, with its class table.  `classify_type` is the one entry
point: it builds Out once and returns one `Classification`, whose rows
carry each class's affine label, grading dims and centroid dims, and whose
k-count and inverse-conjugacy are read off that same table
(`OutGroup.inverses`).
"""

from __future__ import annotations

from functools import cached_property

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
    "OutGroup",
    "classify_type",
    "dynkin_automorphism_group",
]


class ClassifyError(ValueError):
    pass


class OutGroup(Record):
    """The diagram symmetries of a Cartan matrix, checked to be a group, and
    their conjugacy classes, read once on first use: `members`, `classes`
    and each class's inverse class (`inverses`), which the k-count and
    inverse-conjugacy are read off."""

    elements: tuple[DiagramPermutation, ...]
    cartan: FiniteCartanMatrix

    def __post_init__(self) -> None:
        # preserves refuses a permutation of another rank, so the closure
        # loops below compose permutations of one length
        for g in self.elements:
            if not g.preserves(self.cartan):
                raise ClassifyError("element does not preserve the Cartan matrix")
        seen = {g.images for g in self.elements}
        if len(seen) != len(self.elements):
            raise ClassifyError("duplicate elements")
        if tuple(range(self.cartan.rank)) not in seen:
            raise ClassifyError("missing identity")
        for g in self.elements:
            if g.inverse().images not in seen:
                raise ClassifyError("not closed under inversion")
            for h in self.elements:
                if g.compose(h).images not in seen:
                    raise ClassifyError("not closed under composition")

    @cached_property
    def members(self) -> tuple[frozenset, ...]:
        """The conjugation orbits, by brute force, in the order of their
        smallest members.

        The closure checks above make every conjugate h g h^-1 an element,
        so the orbits partition the group: each is still whole in
        `remaining` when met, and it is met at its smallest member."""
        remaining = {g.images: g for g in self.elements}
        orbits = []
        while remaining:
            rep = remaining[min(remaining)]
            orbit = frozenset(h.compose(rep).compose(h.inverse()).images for h in self.elements)
            for images in orbit:
                del remaining[images]
            orbits.append(orbit)
        return tuple(orbits)

    @cached_property
    def classes(self) -> tuple[tuple[DiagramPermutation, int], ...]:
        """(representative, size) of each class; the representative is the
        smallest member."""
        return tuple((DiagramPermutation(min(orbit)), len(orbit)) for orbit in self.members)

    @cached_property
    def inverses(self) -> tuple[int, ...]:
        """The index of the class that holds the inverses of each class's
        members: (h g h^-1)^-1 = h g^-1 h^-1, so it is the class of the
        representative's inverse."""
        index_of = {images: index for index, orbit in enumerate(self.members) for images in orbit}
        return tuple(index_of[rep.inverse().images] for rep, _ in self.classes)

    @cached_property
    def inverse_conjugacy(self) -> bool:
        """Every element is conjugate to its inverse: each class is its own
        inverse class."""
        return all(i == j for i, j in enumerate(self.inverses))

    @cached_property
    def k_classes(self) -> int:
        """The classes after merging each with its inverse class: the
        k-classes, where the group's own classes are the R-classes."""
        return len({frozenset(pair) for pair in enumerate(self.inverses)})


def dynkin_automorphism_group(cartan: FiniteCartanMatrix) -> OutGroup:
    """All permutations of the nodes preserving the Cartan matrix, in
    lexicographic order (`node_isomorphisms` of the matrix with itself).

    `OutGroup` checks each one against the whole matrix again.
    """
    a = cartan.entries
    return OutGroup(
        elements=tuple(DiagramPermutation(p) for p in node_isomorphisms(a, a)), cartan=cartan
    )


class ClassificationRow(Record):
    """One conjugacy class of Out: its twist L(pi), the affine label
    extracted from it, and the centroid dims of that same grading."""

    class_rep: DiagramPermutation
    class_size: int
    affine_label: AffineLabel
    grading_dims: tuple[int, ...]
    centroid_dims: tuple[int, ...]

    @property
    def twist_order(self) -> int:
        return self.class_rep.order()

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
    group = dynkin_automorphism_group(cartan)
    rows = []
    for rep, size in group.classes:
        alg, *factors = type_twist_factors(type_label, rep, (0,) * cartan.rank, 1)
        report = affine_certificate(type_label, alg, twist(alg, *factors))
        centroid = centroid_graded(alg, report.grading)
        rows.append(
            ClassificationRow(
                class_rep=rep,
                class_size=size,
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
        k_classes=group.k_classes,
        inverse_conjugacy_ok=group.inverse_conjugacy,
    )
