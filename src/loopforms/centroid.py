"""The graded centroid of a twisted loop algebra, by residue.

A centroid transformation of degree d commutes with every multiplication;
on a loop algebra graded by Z/m it is a family of maps A_i -> A_{i+d}, one
per residue i, constant across the integer degrees of a residue class.
`centroid_graded` certifies one generating set of the algebra and solves
every shift residue with it in one call.  The centroid detects when two
loop algebras cannot be isomorphic over the Laurent base ring.

All verification here is exact and total over the stated ranges; nothing is
sampled.
"""

from __future__ import annotations

from .algebra import KIND_ASSOCIATIVE, AlgebraError, MultTableAlgebra
from .cyclo import CycloNum, Sparse, sparse_add
from .grading import GradedDecomposition, GradingError
from .linalg import Echelon, eliminate
from .record import Record

__all__ = ["CentroidReport", "centroid_graded"]


class CentroidReport(Record):
    """Solution space of maps commuting with all multiplications, at one shift.

    The shift is the report's index in `centroid_graded`'s result.  A family
    assigns to each residue i a matrix A_i -> A_{i+shift} written in
    component coordinates; the family is constant across the integer degrees
    of a residue class, which is exactly a degree-homogeneous centroid
    transformation of the twisted loop algebra.  Each family is stored as one
    sparse vector over the entries of all its matrices, numbered residue by
    residue and row-major within a matrix, as `centroid_graded` numbers its
    unknowns.  `contains_identity` is whether the identity map, a family of
    shift 0, lies in their span.
    """

    contains_identity: bool
    basis: tuple[Sparse, ...]

    @property
    def solution_dim(self) -> int:
        return len(self.basis)


class _Generators:
    """A generating set G of a graded algebra, certified by closure, and the
    multiplications by it; `centroid_graded` builds one and solves every
    shift with it.

    A homogeneous basis vector is named (residue, index in its component),
    and a homogeneous vector is kept in component coordinates.  The scan,
    over every homogeneous basis vector in residue order, keeps a vector
    only when it lies outside the subalgebra generated by the vectors kept
    so far.  That subalgebra is the closure of span(G) under L_g for g in G:
    right-nested brackets [g_1, [g_2, ... g_k]] for a Lie table, words
    g_1 g_2 ... g_k for an associative one.  Its span is an `Echelon` in
    flat coordinates, grown one product at a time: each g has a pointer into
    the list of vectors added to the closure, and a product L_g w is formed
    once for each pair.  Every basis vector the scan meets is kept or lies
    in the closure already, so the closure reaches the whole algebra and G
    generates it.  A table whose certificate (`MultTableAlgebra.validation`,
    its builder's, or the sweep's for a file's table) reports a failed law
    raises AlgebraError, since the centroid system below assumes the laws.

    `left[g]` holds the coordinates of g * e for every homogeneous basis
    vector e, in the order of `hom`, and `right[g]` those of e * g for an
    associative table.
    """

    def __init__(self, alg: MultTableAlgebra, grading: GradedDecomposition):
        report = alg.validation
        if not report.ok:
            raise AlgebraError(f"the table fails its {alg.kind} laws: {report.violations[0]}")
        self.alg = alg
        self.grading = grading
        m = grading.period
        dims = grading.dims
        self.hom = [(res, t) for res in range(m) for t in range(dims[res])]
        self.offsets = [sum(dims[:res]) for res in range(m)]
        self.left: dict[tuple[int, int], list[Sparse]] = {}
        self.right: dict[tuple[int, int], list[Sparse]] = {}
        one = CycloNum.one(alg.scalar_order)
        closure = Echelon()
        spanning: list[tuple[int, Sparse]] = []  # (residue, coordinates)
        applied: list[int] = []
        gens: list[tuple[int, int]] = []
        for x in self.hom:
            if len(closure) == len(self.hom):
                break
            if not closure.add({self.offsets[x[0]] + x[1]: one}):
                continue
            gens.append(x)
            self.left[x] = [self.product(x, y) for y in self.hom]
            spanning.append((x[0], {x[1]: one}))
            applied.append(0)
            grown = True
            while grown and len(closure) < len(self.hom):
                grown = False
                for k, g in enumerate(gens):
                    while applied[k] < len(spanning):
                        res, w = spanning[applied[k]]
                        applied[k] += 1
                        v = self.apply(self.left[g], res, w)
                        tgt = (res + g[0]) % m
                        if closure.add({self.offsets[tgt] + t: c for t, c in v.items()}):
                            spanning.append((tgt, v))
                            grown = True
        self.gens = tuple(gens)
        if alg.kind == KIND_ASSOCIATIVE:
            for g in gens:
                self.right[g] = [self.product(y, g) for y in self.hom]

    def product(self, x: tuple[int, int], y: tuple[int, int]) -> Sparse:
        """Coordinates of the product of two homogeneous basis vectors."""
        comps = self.grading.component_bases
        vec = self.alg.product_sparse(comps[x[0]][x[1]], comps[y[0]][y[1]])
        coords = self.grading.component_solver(x[0] + y[0]).coords(vec)
        if coords is None:
            raise GradingError("product rule violated while building centroid system")
        return coords

    def apply(self, products: list[Sparse], res: int, w: Sparse) -> Sparse:
        """The multiplication whose products with the basis are `products`,
        applied to the vector of component res with coordinates w."""
        out: Sparse = {}
        for t, c in w.items():
            sparse_add(out, products[self.offsets[res] + t], c)
        return out

    def signatures(self) -> list[list[tuple]]:
        """For each homogeneous basis vector, its eigenvalues under the
        degree-zero basis vectors that multiply diagonally.

        A multiplier z is diagonal when z * e (and e * z for an associative
        table) is a multiple of e for every homogeneous basis vector e; its
        products are formed one at a time and the first one off the diagonal
        ends the test.  For a Lie table e * z = -(z * e), so the right
        side adds nothing.  A centroid transformation commutes with L_z, so
        its entry from e_s to e_r is zero unless the two signatures agree.
        """
        zero = CycloNum.zero(self.alg.scalar_order)
        sides = [(self.left, False)]
        if self.alg.kind == KIND_ASSOCIATIVE:
            sides.append((self.right, True))
        tables: list[list[CycloNum]] = []
        for t in range(self.grading.dims[0]):
            z = (0, t)
            for known, on_right in sides:
                products = known.get(z)
                lams = []
                for k, e in enumerate(self.hom):
                    if products is not None:
                        coords = products[k]
                    else:
                        coords = self.product(e, z) if on_right else self.product(z, e)
                    if any(key != e[1] for key in coords):
                        break
                    lams.append(coords.get(e[1], zero))
                else:
                    tables.append(lams)
        flat = list(zip(*tables)) if tables else [()] * len(self.hom)
        return [
            flat[self.offsets[res]:self.offsets[res] + dim]
            for res, dim in enumerate(self.grading.dims)
        ]


def centroid_graded(
    alg: MultTableAlgebra, grading: GradedDecomposition
) -> tuple[CentroidReport, ...]:
    """For every shift residue d, solve for residue-level families
    c_i: A_i -> A_{i+d} with c(xy) = (cx)y = x(cy) for all x and y; index d
    of the result is the report of shift residue d.

    It is enough to impose c(g y) = g (c y) for g in a generating set G and
    every homogeneous basis vector y, and for an associative table also
    c(y g) = (c y) g (Benkart and Neher, The centroid of extended affine and
    root graded Lie algebras, JPAA 205 (2006)): the g whose L_g (and R_g)
    commute with c form a subalgebra, because L_[x,y] = [L_x, L_y] by
    Jacobi and L_xy = L_x L_y, R_xy = R_y R_x by associativity, and for a
    Lie table R_g = -L_g and (cx)y = -c(yx) = c(xy).  So the table must pass
    its validation first, or AlgebraError is raised.  G, its closure, its
    products (`_Generators`) and the signatures below are built once per
    call and serve every shift.

    The system is cut down first by every degree-zero basis element that
    multiplies diagonally (Cartan-type elements), which pins most unknowns to
    zero; each surviving equation is built by walking the sparse coordinates
    of the products, and the equations are eliminated exactly.  The solution
    space is the centroid whatever equations cut it out, and its reduced
    row-echelon basis is unique, so the reports do not depend on G.
    """
    gens = _Generators(alg, grading)
    m = grading.period
    order = alg.scalar_order
    zero = CycloNum.zero(order)
    dims = grading.dims
    sides = [gens.left] + ([gens.right] if alg.kind == KIND_ASSOCIATIVE else [])
    sigs = gens.signatures()
    rows_of: list[dict[tuple, list[int]]] = []
    for res in range(m):
        groups: dict[tuple, list[int]] = {}
        for r, sig in enumerate(sigs[res]):
            groups.setdefault(sig, []).append(r)
        rows_of.append(groups)

    reports = []
    for d in range(m):
        # unknown u(res, r, s) = entry of c_res in row r (target coord), col s,
        # numbered residue by residue and row-major within a matrix
        base = [0] * m
        for res in range(1, m):
            base[res] = base[res - 1] + dims[(res - 1 + d) % m] * dims[res - 1]

        # phase 1: u(res, r, s) survives when e_r and e_s share their signature
        alive_rows = [
            [rows_of[(res + d) % m].get(sig, []) for sig in sigs[res]] for res in range(m)
        ]

        # phase 2: c(g y) - g (c y), and c(y g) - (c y) g, row by row
        rows: set[tuple[tuple[int, CycloNum], ...]] = set()
        for g in gens.gens:
            for products in (side[g] for side in sides):
                for k, (ires, s) in enumerate(gens.hom):
                    tgt = (ires + g[0]) % m
                    src = (ires + d) % m
                    out: dict[int, Sparse] = {}
                    for sig, wc in products[k].items():
                        for rho in alive_rows[tgt][sig]:
                            out.setdefault(rho, {})[base[tgt] + rho * dims[tgt] + sig] = wc
                    for r in alive_rows[ires][s]:
                        col = base[ires] + r * dims[ires] + s
                        for rho, coeff in products[gens.offsets[src] + r].items():
                            sparse_add(out.setdefault(rho, {}), {col: -coeff})
                    for entries in out.values():
                        if entries:
                            lead = min(entries)
                            inv = entries[lead].inverse()
                            rows.add(tuple(sorted((c, inv * v) for c, v in entries.items())))

        pivots = eliminate(dict(row_t) for row_t in rows)
        # at shift 0 the identity, 1 at each diagonal unknown, is a solution
        # exactly when every pivot row vanishes on it: the families span the
        # kernel of the pivot rows on the surviving unknowns, and the
        # diagonal unknowns survive
        contains_identity = False
        if d == 0:
            diagonal = {base[res] + r * dims[res] + r for res in range(m) for r in range(dims[res])}
            contains_identity = all(
                sum((c for k, c in prow.items() if k in diagonal), zero).is_zero()
                for prow in pivots.values()
            )
        alive = sorted(
            base[res] + r * dims[res] + s
            for res in range(m)
            for s, targets in enumerate(alive_rows[res])
            for r in targets
        )
        free = [i for i in alive if i not in pivots]
        families = []
        for f in free:
            sol = {f: CycloNum.one(order)}
            for lead, prow in pivots.items():
                coeff = prow.get(f)
                if coeff is not None:
                    sol[lead] = -coeff
            families.append({k: sol[k] for k in sorted(sol)})
        reports.append(CentroidReport(contains_identity, tuple(families)))
    return tuple(reports)
