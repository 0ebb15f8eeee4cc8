"""Dense vectors and matrices, the dense automorphism check and the
ordered-triple table validation, kept as test oracles.

The package stores vectors as sparse {index: scalar} mappings and
automorphisms as monomials (images, scalars), and never multiplies dense
matrices.  These helpers work on dense tuples and on the dense view
`FiniteOrderAutomorphism.matrix` (column j is the image of basis element j),
so the tests can compare every sparse or monomial result with the plain
dense computation it replaces.  `densify` is the one way a test turns a
sparse vector into a dense tuple, and `span_probes` gives the vectors that
leave a span of disjoint supports each way a coordinate read can refuse
them.  `twist_fixture` builds the twists those differential tests run on,
from the factors `twist_factors` names.
`ordered_triple_validation` evaluates the Lie or associative law on all n^3
ordered basis triples through `product_sparse`, the reference for the
reduced certificate of `validate_algebra`.
`windowed_untwist_check` moves every component slice of a degree window
between the two gradings and brackets every pair of slices, on
{degree: sparse vector} loop elements, the reference for the invariance
and additivity clauses of `_verify_untwist`, and `base_change_check`
checks a grading degree by degree in a window.  `FractionCyclo` is Q(zeta_m)
on Fraction coefficients, the reference for the integer numerators and one denominator of `CycloNum`.
`rank` counts the pivot rows `linalg.eliminate` keeps, `embed` moves a
scalar into Q(zeta_n) through `CycloNum.from_poly`, and `rational_value`
reads a rational scalar as a Fraction off `num` and `den`: what the oracles
need of rank, change of field and Fraction views, which `src` does not do.
`kernel_affine_roots` decomposes each grading component by one nullspace per
candidate weight, the reference for the weights `affine.affine_roots` reads
off the closed-form grading, and `orbit_sum_cartan` builds h0 from pi, the
reference for the h0 that `affine.fixed_cartan` reads off component 0.
`fraction_rank_det` is elimination over Fraction, the reference for the
integer Bareiss `chevalley.int_rank_det`, and `all_pairs_centroid` imposes
the centroid conditions on every pair of
homogeneous basis vectors, the reference for `centroid.centroid_graded`, which
imposes them on a generating set only; it tests the identity by the rank of
the families with and without it, where `centroid_graded` reads it off its
pivot rows.  `three_pass_composition` builds and
checks pi, tau_s and their composition for every charge, the reference for
`grading.twist`, which certifies pi by its multiplicativity, and tau_s and
the commuting by the additivity and invariance of p, in one pass.
`check_automorphism` is the separate monomial pair check, and `compose`
the monomial composition, that certified the outer factor and composed it
with the diagonal one before `twist` did both; `identity_map` is the plain
identity that `twist` takes as the outer factor of an inner twist.
`build_cocycle` composes the m^2 residue pairs of the cocycle
u(n) = sigma^(-n) and `twisted_fixed_points` eliminates one kernel per
residue, the references for the identities `descent.fixed_point_report`
reads off the twist's certificate.
`diagram_and_composition`, `untwist_matrix_iso` and
`coboundary_witness_matrix` are the separate type-label and matrix-unit
twist paths that `grading.twist`, `descent.untwist_iso` and
`UntwistIso.witness_checks` replaced, kept as references for them.
`charge_pairings` writes <s, alpha> on the root layout and
`matrix_unit_shifts` a_i - a_k on E_ik, the two private rules that
`MultTableAlgebra.pairing` of a table's weights replaced;
`layout_exponents` gives them for a named fixture.
`check_diagonal_automorphism` certifies diag(zeta_m^p) by additivity mod m
and `_verify_untwist` an untwisting shift by invariance and additivity as
integers, the two passes that `grading.twist`'s integer clauses replaced.
`product_rule_check` forms all n^2 products of component vectors, the
reference for the product rule that `eigengrading` draws from its certified
automorphism.  `propagated_diagram_map` extends a diagram symmetry from the
generators by bracket propagation, reading each N_ab off the table, the
reference for the closed-form signs of `chevalley.diagram_automorphism`,
and `propagation_consistency` re-multiplies every pair of roots, the
reference for the multiplicativity clause of `grading.twist` that
certifies it.  `root_string_algebra` derives every N_ab = +-(p+1)
from root strings and propagates the signs through the Jacobi identity, the
table that `chevalley.algebra_over` built before it folded the Frenkel-Kac table
of the simply-laced cover, kept as its reference up to basis signs.
`embed_algebra` embeds every constant of a table into Q(zeta_n) and keeps
its weights and certificate, the reference for `chevalley.algebra_over`, which writes
the fold straight over Q(zeta_n).
`inverse_witnesses` searches every element for a conjugation onto its
inverse, the reference for the inverse classes that
`classify.OutGroup.inverses` records.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Mapping, Optional, Sequence, Union

from loopforms.affine import AffineExtractError, AffineRootData
from loopforms.algebra import KIND_LIE, MultTableAlgebra, ValidationReport, Violation
from loopforms.centroid import CentroidReport
from loopforms.chevalley import (
    DiagramPermutation,
    LieConstructError,
    RootSystem,
    _basis_layout,
    _neg,
    _symmetrizers,
    cartan_matrix,
    diagram_automorphism,
    root_system,
    type_twist_factors,
)
from loopforms.classify import OutGroup
from loopforms.cyclo import CycloNum, Sparse, cyclotomic_polynomial, euler_phi, sparse_add, zeta_power
from loopforms.descent import (
    UntwistIso,
    build_matrix_algebra,
    matrix_twist_factors,
)
from loopforms.grading import (
    AutomorphismError,
    FiniteOrderAutomorphism,
    GradedDecomposition,
    GradingError,
    _check_period,
    twist,
)
from loopforms.linalg import SpanSolver, eliminate, nullspace

Vector = tuple[CycloNum, ...]
Matrix = tuple[Vector, ...]


def densify(v: Mapping[int, CycloNum], dim: int, order: int) -> Vector:
    """The dense tuple of a sparse vector of length dim over Q(zeta_order)."""
    zero = CycloNum.zero(order)
    return tuple(v.get(i, zero) for i in range(dim))


def sparsify(v: Sequence[CycloNum]) -> Sparse:
    """The sparse vector of a dense tuple: its nonzero entries by index."""
    return {i: x for i, x in enumerate(v) if not x.is_zero()}


def rank(rows: Sequence[Union[Sequence[CycloNum], Mapping[int, CycloNum]]]) -> int:
    """The rank of rows, each dense or a sparse {column: scalar} mapping:
    the number of pivot rows `linalg.eliminate` keeps."""
    return len(eliminate(row if isinstance(row, Mapping) else sparsify(row) for row in rows))


def embed(x: CycloNum, n: int) -> CycloNum:
    """x rewritten in Q(zeta_n) by zeta_m = zeta_n^(n/m), for a multiple n
    of its order m: z^i goes to z^(i n/m), and `CycloNum.from_poly` reduces."""
    if n % x.order != 0:
        raise ValueError(f"cannot embed order {x.order} into order {n}: not a divisor")
    step = n // x.order
    out = [Fraction(0)] * ((len(x.num) - 1) * step + 1)
    for i, c in enumerate(x.num):
        out[i * step] = Fraction(c, x.den)
    return CycloNum.from_poly(n, out)


def rational_value(x: CycloNum) -> Fraction:
    """A rational x as a Fraction, read off `num` and `den`."""
    if not x.is_rational():
        raise ValueError(f"{x} is not rational")
    return Fraction(x.num[0], x.den)


def span_probes(vectors: Sequence[Sparse], dim: int, order: int) -> list[Sparse]:
    """Vectors outside the span of `vectors` (each 1 at its smallest index,
    with disjoint supports), then {}.  For the first vector b of two entries
    or more: b with its largest entry moved to an index below dim + 1 that
    no vector owns, b with that entry dropped, b with it doubled, b with its
    pivot dropped, and b's pivot entry alone.  With no such b: the first
    vector, if any, plus that unowned index."""
    covered = {idx for vec in vectors for idx in vec}
    outside = min(set(range(dim + 1)) - covered)
    b = next((vec for vec in vectors if len(vec) >= 2), None)
    if b is None:
        return [{**(vectors[0] if vectors else {}), outside: CycloNum.one(order)}, {}]
    pivot, last = min(b), max(b)
    dropped = {idx: x for idx, x in b.items() if idx != last}
    return [
        {**dropped, outside: b[last]},
        dropped,
        {**b, last: b[last] + b[last]},
        {idx: x for idx, x in b.items() if idx != pivot},
        {pivot: b[pivot]},
        {},
    ]


def basis_vector(alg: MultTableAlgebra, i: int) -> Sparse:
    return {i: CycloNum.one(alg.scalar_order)}


def dense_product(alg: MultTableAlgebra, x: Sequence[CycloNum], y: Sequence[CycloNum]) -> Vector:
    """x * y for dense x and y, through the sparse product."""
    return densify(alg.product_sparse(sparsify(x), sparsify(y)), alg.dim, alg.scalar_order)


def identity_matrix(n: int, order: int) -> Matrix:
    one = CycloNum.one(order)
    zero = CycloNum.zero(order)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_vec(mat: Sequence[Sequence[CycloNum]], v: Sequence[CycloNum]) -> Vector:
    out = []
    for row in mat:
        acc = None
        for a, x in zip(row, v):
            if a.is_zero() or x.is_zero():
                continue
            term = a * x
            acc = term if acc is None else acc + term
        if acc is None:
            acc = CycloNum.zero(row[0].order if row else v[0].order)
        out.append(acc)
    return tuple(out)


def mat_mul(a: Sequence[Sequence[CycloNum]], b: Sequence[Sequence[CycloNum]]) -> Matrix:
    bt = list(zip(*b))
    rows = []
    for arow in a:
        row = []
        for bcol in bt:
            acc = None
            for x, y in zip(arow, bcol):
                if x.is_zero() or y.is_zero():
                    continue
                term = x * y
                acc = term if acc is None else acc + term
            row.append(acc if acc is not None else CycloNum.zero(arow[0].order))
        rows.append(tuple(row))
    return tuple(rows)


def mat_pow(mat: Matrix, k: int) -> Matrix:
    if k < 0:
        raise ValueError("negative matrix power not supported here")
    n = len(mat)
    order = mat[0][0].order
    result = identity_matrix(n, order)
    for _ in range(k):
        result = mat_mul(result, mat)
    return result


def is_identity(mat: Sequence[Sequence[CycloNum]]) -> bool:
    for i, row in enumerate(mat):
        for j, entry in enumerate(row):
            if i == j:
                if not (entry - 1).is_zero():
                    return False
            elif not entry.is_zero():
                return False
    return True


def mat_inverse(mat: Matrix) -> Matrix:
    n = len(mat)
    order = mat[0][0].order
    one = CycloNum.one(order)
    augmented = []
    for i, row in enumerate(mat):
        srow = {j: x for j, x in enumerate(row) if not x.is_zero()}
        srow[n + i] = one
        augmented.append(srow)
    # the reduced row-echelon form of [M | I] is [I | M^-1] exactly when its
    # pivots are the columns 0..n-1
    pivots = eliminate(augmented)
    if list(pivots) != list(range(n)):
        raise ValueError("matrix is singular")
    zero = CycloNum.zero(order)
    return tuple(tuple(pivots[i].get(n + j, zero) for j in range(n)) for i in range(n))


def dense_check_automorphism(alg: MultTableAlgebra, matrix: Matrix, period: int) -> None:
    """Invertibility by rank, multiplicativity on all basis pairs by dense
    products, and matrix^period = 1 by repeated multiplication."""
    n = alg.dim
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise AutomorphismError(f"matrix must be {n}x{n}")
    if rank(matrix) != n:
        raise AutomorphismError("matrix is not invertible")
    columns = [tuple(matrix[i][j] for i in range(n)) for j in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = (CycloNum.zero(alg.scalar_order),) * n
            for k, c in alg.basis_product(i, j).items():
                lhs = tuple(a + c * x for a, x in zip(lhs, columns[k]))
            if lhs != dense_product(alg, columns[i], columns[j]):
                raise AutomorphismError(
                    f"multiplicativity fails on basis pair "
                    f"({alg.basis_labels[i]}, {alg.basis_labels[j]})"
                )
    if not is_identity(mat_pow(matrix, period)):
        raise AutomorphismError(f"matrix^{period} is not the identity")


def identity_map(alg: MultTableAlgebra) -> FiniteOrderAutomorphism:
    """The identity map of alg with period 1, uncertified, as `twist` takes
    it for the outer factor of an inner twist."""
    return FiniteOrderAutomorphism(tuple(range(alg.dim)), (CycloNum.one(alg.scalar_order),) * alg.dim, 1)


def compose(outer: FiniteOrderAutomorphism, inner: FiniteOrderAutomorphism) -> FiniteOrderAutomorphism:
    """outer o inner (inner acts first), with period lcm of the two periods;
    that period holds when the factors commute, which callers check.  The
    result carries no certificate."""
    return FiniteOrderAutomorphism(
        images=tuple(outer.images[k] for k in inner.images),
        scalars=tuple(c * outer.scalars[k] for k, c in zip(inner.images, inner.scalars)),
        period=lcm(outer.period, inner.period),
    )


def check_automorphism(
    alg: MultTableAlgebra, images: Sequence[int], scalars: Sequence[CycloNum], period: int
) -> FiniteOrderAutomorphism:
    """Invertibility, multiplicativity on all basis pairs (compared on the
    nonzero products) and period of e_j -> scalars[j] * e_{images[j]}, as
    the separate pair check that `grading.twist` replaced checked them; the
    map is returned uncertified.  A period below 1 is refused by
    `_check_period`, after the pair check."""
    n = alg.dim
    images, scalars = tuple(images), tuple(scalars)
    if len(images) != n or len(scalars) != n:
        raise AutomorphismError(f"images and scalars must both have length dim = {n}")
    if any(c.order != alg.scalar_order for c in scalars):
        raise AutomorphismError("scalars must use the algebra scalar order")
    if sorted(images) != list(range(n)):
        raise AutomorphismError("images are not a permutation of the basis")
    if any(c.is_zero() for c in scalars):
        raise AutomorphismError("a basis element maps to zero; the map is not invertible")
    for (i, j), entry in alg.products.items():
        scale = scalars[i] * scalars[j]
        lhs = {images[k]: c * scalars[k] for k, c in entry.items()}
        rhs = {k: scale * c for k, c in alg.basis_product(images[i], images[j]).items()}
        if lhs != rhs:
            raise AutomorphismError(
                f"multiplicativity fails on basis pair "
                f"({alg.basis_labels[i]}, {alg.basis_labels[j]})"
            )
    _check_period(alg, images, scalars, period)
    return FiniteOrderAutomorphism(images, scalars, period)


def product_rule_check(alg: MultTableAlgebra, grading: GradedDecomposition) -> None:
    """A_i A_j inside A_{i+j}, product by product: all n^2 products of
    component vectors, each read with `component_solver`.  The reference for
    the product rule `eigengrading` takes as a theorem of its certified
    automorphism."""
    m = grading.period
    comps = grading.component_bases
    for i in range(m):
        for j in range(m):
            solver = grading.component_solver(i + j)
            for x in comps[i]:
                for y in comps[j]:
                    if solver.coords(alg.product_sparse(x, y)) is None:
                        raise GradingError(
                            f"product of components {i} and {j} leaves component {(i + j) % m}"
                        )


def propagated_diagram_map(
    alg: MultTableAlgebra, rs: RootSystem, perm: DiagramPermutation
) -> tuple[tuple[int, ...], tuple[CycloNum, ...]]:
    """The monomial (images, scalars) form of the map that extends perm by
    bracket propagation, the reference for the closed-form sign of
    `chevalley.diagram_automorphism`.

    e_i -> e_{pi(i)}, f_i -> f_{pi(i)} and h_i -> h_{pi(i)}; a root
    alpha = xi + eta of height >= 2 maps to N_{xi,eta}^-1 [pi(e_xi), pi(e_eta)],
    with N_{xi,eta} read off the table's own product
    [e_xi, e_eta] = N_{xi,eta} e_alpha.  Each image is a single signed basis
    element; an image with more terms is an error.  Nothing here is
    certified.
    """
    l = rs.rank
    roots = frozenset(rs.roots)
    _, root_index = _basis_layout(rs)
    one = CycloNum.one(alg.scalar_order)

    def perm_root(alpha: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * l
        for i, c in enumerate(alpha):
            out[perm.images[i]] = c
        return tuple(out)

    images: dict[int, Sparse] = {}
    for i in range(l):
        images[i] = {perm.images[i]: one}
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
            ((target, n_uv),) = alg.basis_product(root_index[u], root_index[v]).items()
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


def propagation_consistency(
    alg: MultTableAlgebra, rs: RootSystem, sigma: FiniteOrderAutomorphism
) -> None:
    """sigma(e_a) sigma(e_b) = N_ab sigma(e_(a+b)) for every pair of roots
    whose sum is a root: every decomposition of every root reproduces the
    image of sigma.  The reference for the `grading.twist` that closes
    `chevalley.diagram_automorphism`, which certifies the same map on every
    basis pair."""
    roots = frozenset(rs.roots)
    _, root_index = _basis_layout(rs)

    def image(root: tuple[int, ...]) -> Sparse:
        j = root_index[root]
        return {sigma.images[j]: sigma.scalars[j]}

    for a in rs.roots:
        for b in rs.roots:
            target = tuple(x + y for x, y in zip(a, b))
            if target not in roots:
                continue
            lhs = alg.product_sparse(image(a), image(b))
            # [e_a, e_b] = N_ab e_(a+b), read off the table itself
            ((_, coeff),) = alg.basis_product(root_index[a], root_index[b]).items()
            if lhs != {k: coeff * v for k, v in image(target).items()}:
                raise LieConstructError(f"propagation paths disagree on root {target} via {a} + {b}")


def _sparse_sum(terms: Sequence[Sparse]) -> Sparse:
    out: Sparse = {}
    for t in terms:
        for k, v in t.items():
            prev = out.get(k)
            out[k] = v if prev is None else prev + v
    return out


def _sparse_is_zero(s: Sparse) -> bool:
    return all(v.is_zero() for v in s.values())


def ordered_triple_validation(alg: MultTableAlgebra) -> ValidationReport:
    """Alternation and antisymmetry on every pair, then the Jacobi identity
    (or associativity) on every ordered basis triple, each triple product
    formed by `product_sparse` against one-entry basis vectors.  The loop
    counts the triples it visits, and must have visited all n^3."""
    n = alg.dim
    labels = alg.basis_labels
    violations: list[Violation] = []
    basis = [{i: CycloNum.one(alg.scalar_order)} for i in range(n)]

    def entry_sparse(i: int, j: int) -> Sparse:
        return dict(alg.basis_product(i, j))

    triples = 0
    if alg.kind == KIND_LIE:
        for i in range(n):
            if not _sparse_is_zero(entry_sparse(i, i)):
                violations.append(Violation("alternating", (i,), (labels[i],)))
        for i in range(n):
            for j in range(i + 1, n):
                anti = _sparse_sum([entry_sparse(i, j), entry_sparse(j, i)])
                if not _sparse_is_zero(anti):
                    violations.append(Violation("antisymmetry", (i, j), (labels[i], labels[j])))
        for i in range(n):
            for j in range(n):
                ij = entry_sparse(i, j)
                for k in range(n):
                    triples += 1
                    total = _sparse_sum(
                        [
                            alg.product_sparse(ij, basis[k]),
                            alg.product_sparse(entry_sparse(j, k), basis[i]),
                            alg.product_sparse(entry_sparse(k, i), basis[j]),
                        ]
                    )
                    if not _sparse_is_zero(total):
                        violations.append(
                            Violation("jacobi", (i, j, k), (labels[i], labels[j], labels[k]))
                        )
    else:
        for i in range(n):
            for j in range(n):
                ij = entry_sparse(i, j)
                for k in range(n):
                    triples += 1
                    left = alg.product_sparse(ij, basis[k])
                    right = alg.product_sparse(basis[i], entry_sparse(j, k))
                    diff = _sparse_sum([left, {m: -c for m, c in right.items()}])
                    if not _sparse_is_zero(diff):
                        violations.append(
                            Violation("associativity", (i, j, k), (labels[i], labels[j], labels[k]))
                        )
    assert triples == n**3, f"visited {triples} triples of {n**3}"
    return ValidationReport(alg.kind, n, tuple(violations))


# -- integer rank and determinant over Fraction ------------------------------------


def fraction_rank_det(rows: Sequence[Sequence[int]]) -> tuple[int, Fraction]:
    """Rank and determinant of a square integer matrix, by Fraction elimination."""
    n = len(rows)
    work = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    rank = 0
    for col in range(n):
        pivot = None
        for r in range(rank, n):
            if work[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            work[rank], work[pivot] = work[pivot], work[rank]
            det = -det
        det *= work[rank][col]
        inv = 1 / work[rank][col]
        for r in range(rank + 1, n):
            factor = work[r][col] * inv
            if factor:
                for c in range(col, n):
                    work[r][c] -= factor * work[rank][c]
        rank += 1
    return rank, det


# -- the centroid on all basis pairs ---------------------------------------------


def all_pairs_centroid(
    alg: MultTableAlgebra, grading: GradedDecomposition, shift: int
) -> CentroidReport:
    """Solve for residue-level families c_i: A_i -> A_{i+shift} with
    c(xy) = (cx)y = x(cy) on all homogeneous basis pairs.

    The system is cut down first by every degree-zero basis element that
    multiplies diagonally (Cartan-type elements), which pins most unknowns to
    zero; the surviving sparse equations are then eliminated exactly.
    """
    m = grading.period
    d = shift % m
    order = alg.scalar_order
    comps = grading.component_bases
    dims = [len(c) for c in comps]
    solvers = [grading.component_solver(i) for i in range(m)]

    # unknown u[(res, r, s)] = entry of c_res in row r (target coord), col s
    index_of: dict[tuple[int, int, int], int] = {}
    unknowns: list[tuple[int, int, int]] = []
    for res in range(m):
        for r in range(dims[(res + d) % m]):
            for s in range(dims[res]):
                index_of[(res, r, s)] = len(unknowns)
                unknowns.append((res, r, s))
    total = len(unknowns)

    # sparse coordinates of products of homogeneous basis vectors
    hom = [(res, t) for res in range(m) for t in range(dims[res])]
    prod_coords: dict[tuple[int, int, int, int], Sparse] = {}
    for (ri, ti) in hom:
        for (rj, tj) in hom:
            vec = alg.product_sparse(comps[ri][ti], comps[rj][tj])
            coords = solvers[(ri + rj) % m].coords(vec)
            if coords is None:
                raise GradingError("product rule violated while building centroid system")
            prod_coords[(ri, ti, rj, tj)] = coords

    # phase 1: diagonal degree-zero multipliers kill unknowns coordinate-wise
    alive = [True] * total
    zero = CycloNum.zero(order)

    def diagonal_eigenvalues(zres: int, zt: int, side: str) -> Optional[list[list[CycloNum]]]:
        eigen: list[list[CycloNum]] = []
        for res in range(m):
            lams = []
            for s in range(dims[res]):
                key = (zres, zt, res, s) if side == "left" else (res, s, zres, zt)
                coords = prod_coords[key]
                if any(k != s for k in coords):
                    return None
                lams.append(coords.get(s, zero))
            eigen.append(lams)
        return eigen

    for zt in range(dims[0]):
        for side in ("left", "right"):
            eigen = diagonal_eigenvalues(0, zt, side)
            if eigen is None:
                continue
            for res in range(m):
                tgt = (res + d) % m
                for r in range(dims[tgt]):
                    for s in range(dims[res]):
                        idx = index_of[(res, r, s)]
                        if alive[idx] and eigen[res][s] != eigen[tgt][r]:
                            alive[idx] = False

    # phase 2: all remaining equations, sparse exact elimination
    rows: set[tuple[tuple[int, CycloNum], ...]] = set()

    def add_row(entries: Sparse) -> None:
        entries = {k: v for k, v in entries.items() if alive[k]}
        if not entries:
            return
        lead = min(entries)
        inv = entries[lead].inverse()
        rows.add(tuple(sorted((k, inv * v) for k, v in entries.items())))

    for (jres, t) in hom:  # x runs over homogeneous basis vectors
        for (ires, s) in hom:  # y likewise
            w = prod_coords[(jres, t, ires, s)]  # coords of x*y in comp (i+j)
            tgt_res = (ires + jres) % m
            out_dim = dims[(tgt_res + d) % m]
            # condition A: c(x*y) = x * (c y)
            for rho in range(out_dim):
                entries: Sparse = {index_of[(tgt_res, rho, sig)]: wc for sig, wc in w.items()}
                for r in range(dims[(ires + d) % m]):
                    coeff = prod_coords[(jres, t, (ires + d) % m, r)].get(rho)
                    if coeff is not None:
                        sparse_add(entries, {index_of[(ires, r, s)]: -coeff})
                add_row(entries)
            # condition B: c(x*y) = (c x) * y
            for rho in range(out_dim):
                entries = {index_of[(tgt_res, rho, sig)]: wc for sig, wc in w.items()}
                for r in range(dims[(jres + d) % m]):
                    coeff = prod_coords[((jres + d) % m, r, ires, s)].get(rho)
                    if coeff is not None:
                        sparse_add(entries, {index_of[(jres, r, t)]: -coeff})
                add_row(entries)

    pivots = eliminate(dict(row_t) for row_t in rows)
    free = [i for i in range(total) if alive[i] and i not in pivots]
    families = []
    for f in free:
        sol = {f: CycloNum.one(order)}
        for lead, prow in pivots.items():
            coeff = prow.get(f)
            if coeff is not None:
                sol[lead] = -coeff
        families.append({k: sol[k] for k in sorted(sol)})
    # the identity, numbered residue by residue and row-major like the
    # unknowns, is in the span when adding it leaves the rank unchanged
    contains_identity = False
    if d == 0:
        identity = {
            index_of[(res, r, r)]: CycloNum.one(order) for res in range(m) for r in range(dims[res])
        }
        contains_identity = rank([*families, identity]) == len(families)
    return CentroidReport(contains_identity=contains_identity, basis=tuple(families))


# -- affine weights by candidate kernels ------------------------------------------


def orbit_sum_cartan(alg: MultTableAlgebra, perm: DiagramPermutation) -> tuple[Sparse, ...]:
    """h0 = h^pi built from pi: b_O = sum_{i in O} h_i, one per orbit of pi,
    in the order of `perm.orbits()`."""
    one = CycloNum.one(alg.scalar_order)
    return tuple({i: one for i in orbit} for orbit in perm.orbits())


def kernel_affine_roots(
    alg: MultTableAlgebra,
    rs: RootSystem,
    grading: GradedDecomposition,
    h0: tuple[Sparse, ...],
) -> AffineRootData:
    """The ad-h0 weight decomposition by elimination: the ad-h0 matrices of
    every component, then one nullspace per candidate weight.

    The candidates are the values of ad h0 on the root vectors (for a root
    alpha, sum_{i in O} <alpha, alpha_i^vee> on the orbit sum b_O, the orbit
    O read off the support of b_O) and 0; the kernels must exhaust each
    component.
    """
    m = grading.period
    order = alg.scalar_order
    rank_h0 = len(h0)
    orbits = [sorted(b) for b in h0]
    candidates = {
        tuple(sum(rs.pairing(alpha, i) for i in orbit) for orbit in orbits) for alpha in rs.roots
    }
    candidates.add((0,) * rank_h0)
    spaces = []
    for res in range(m):
        component = grading.component_bases[res]
        if not component:
            spaces.append({})
            continue
        solver = SpanSolver(component)
        c = len(component)
        # ad_rows[k][i] is row i of ad(h0_k) on the component, {column: entry}
        ad_rows: list[list[Sparse]] = []
        for k in range(rank_h0):
            rows_k: list[Sparse] = [{} for _ in range(c)]
            for j, v in enumerate(component):
                coords = solver.coords(alg.product_sparse(h0[k], v))
                if coords is None:
                    raise AffineExtractError(f"component {res} is not stable under the fixed Cartan")
                for i, x in coords.items():
                    rows_k[i][j] = x
            ad_rows.append(rows_k)
        found = []
        total = 0
        for w in sorted(candidates):
            rows = []
            for k in range(rank_h0):
                for i in range(c):
                    row = dict(ad_rows[k][i])
                    if w[k]:
                        sparse_add(row, {i: CycloNum.rational(order, -w[k])})
                    rows.append(row)
            kernel = nullspace(rows, c, order)
            if not kernel:
                continue
            lifted = []
            for coeffs in kernel:
                vec: Sparse = {}
                for j, coeff in coeffs.items():
                    sparse_add(vec, component[j], coeff)
                lifted.append(vec)
            found.append((w, tuple(lifted)))
            total += len(kernel)
        if total != c:
            raise AffineExtractError(f"component {res} is not diagonalizable over the candidate weights")
        space = dict(found)
        for w, vectors in space.items():
            if any(w) and len(vectors) != 1:
                raise AffineExtractError(f"real root {w} in residue {res} has multiplicity {len(vectors)}")
        if res == 0 and len(space.get((0,) * rank_h0, ())) != rank_h0:
            raise AffineExtractError("zero-weight space in residue 0 exceeds the fixed Cartan")
        spaces.append(space)
    return AffineRootData(h0=h0, spaces=tuple(spaces))


# -- windowed untwist oracle -------------------------------------------------------


class DescentError(ValueError):
    """A descent identity or untwisting clause fails in an oracle below."""


# a loop element is a finite sum of terms a z^d, kept as {degree: sparse
# vector} with degrees increasing and no zero vector
LoopTerms = dict[int, Sparse]


def _loop_terms(terms) -> LoopTerms:
    """Merge equal degrees, drop zero vectors, sort by degree."""
    acc: LoopTerms = {}
    for d, v in terms:
        sparse_add(acc.setdefault(d, {}), v)
    return {d: acc[d] for d in sorted(acc) if acc[d]}


def _loop_product(alg: MultTableAlgebra, x: LoopTerms, y: LoopTerms) -> LoopTerms:
    """Product in A tensor k[z, 1/z]: multiply coefficients, add degrees."""
    return _loop_terms(
        (d1 + d2, alg.product_sparse(v1, v2)) for d1, v1 in x.items() for d2, v2 in y.items()
    )


def _shift_degrees(x: LoopTerms, offset: int) -> LoopTerms:
    return {d + offset: v for d, v in x.items()}


def _untwist_element(x: LoopTerms, shifts: Sequence[int], direction: int) -> LoopTerms:
    """e_k z^j -> e_k z^(j - direction * shifts[k]), term by term."""
    return _loop_terms(
        (j - direction * shifts[k], {k: c}) for j, v in x.items() for k, c in v.items()
    )


def windowed_untwist_check(
    alg: MultTableAlgebra,
    source_grading: GradedDecomposition,
    target_grading: GradedDecomposition,
    shifts: Sequence[int],
    window: int,
) -> None:
    """Landing, bracket preservation on every pair of slices whose degrees sum
    to at most `window`, and t-intertwining, all on the degrees |j| <= window.
    Raises DescentError on the first failure."""
    m = source_grading.period

    def slices(grading: GradedDecomposition) -> list[tuple[int, Sparse]]:
        return [
            (j, v)
            for j in range(-window, window + 1)
            for v in grading.component_bases[j % grading.period]
        ]

    for grading_from, grading_to, direction, name in (
        (source_grading, target_grading, +1, "lands-in-target"),
        (target_grading, source_grading, -1, "lands-in-source"),
    ):
        for j, v in slices(grading_from):
            image = _untwist_element({j: v}, shifts, direction)
            for d, piece in image.items():
                if grading_to.component_solver(d % m).coords(piece) is None:
                    raise DescentError(f"{name}: degree {j} image piece at degree {d}")
    source_slices = slices(source_grading)
    if not source_slices:
        raise DescentError("empty window")
    for i, v in source_slices:
        for j, w in source_slices:
            if abs(i + j) > window:
                continue
            x, y = {i: v}, {j: w}
            lhs = _untwist_element(_loop_product(alg, x, y), shifts, +1)
            rhs = _loop_product(alg, _untwist_element(x, shifts, +1), _untwist_element(y, shifts, +1))
            if lhs != rhs:
                raise DescentError(f"bracket preservation fails on slice pair ({i}, {j})")
    for j, v in source_slices:
        x = {j: v}
        lhs = _untwist_element(_shift_degrees(x, m), shifts, +1)
        rhs = _shift_degrees(_untwist_element(x, shifts, +1), m)
        if lhs != rhs:
            raise DescentError(f"t-action intertwining fails at degree {j}")


# -- base change over the covering ring -------------------------------------------


@dataclass(frozen=True)
class BaseChangeReport:
    window: int
    degree_dims: tuple[tuple[int, tuple[int, ...]], ...]
    pairs_checked: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def base_change_check(alg: MultTableAlgebra, grading: GradedDecomposition, window: int) -> BaseChangeReport:
    """Certify per degree that extending scalars to the covering ring
    flattens the twisted loop algebra onto the full algebra.

    At every total degree d with |d| <= window the residue components
    A_{(d-j) mod m}, j = 0..m-1, must be independent and jointly span A, and
    multiplication through the identification must agree with the table for
    all component basis pairs whose degree sums stay inside the window.
    """
    m = grading.period
    n = alg.dim
    failures: list[str] = []
    degree_dims = []
    for d in range(-window, window + 1):
        slices = [grading.component_bases[(d - j) % m] for j in range(m)]
        dims = tuple(len(s) for s in slices)
        stacked = [v for s in slices for v in s]
        if len(stacked) != n or rank(stacked) != n:
            failures.append(f"degree {d}: residue slices of dims {dims} do not span exactly")
        degree_dims.append((d, dims))
    pairs = 0
    for d1 in range(-window, window + 1):
        for d2 in range(-window, window + 1):
            if abs(d1 + d2) > window:
                continue
            solver = grading.component_solver((d1 + d2) % m)
            for x in grading.component_bases[d1 % m]:
                for y in grading.component_bases[d2 % m]:
                    pairs += 1
                    if solver.coords(alg.product_sparse(x, y)) is None:
                        failures.append(
                            f"degrees ({d1},{d2}): product leaves the degree {d1 + d2} slice"
                        )
    return BaseChangeReport(
        window=window,
        degree_dims=tuple(degree_dims),
        pairs_checked=pairs,
        failures=tuple(failures),
    )


# -- Fraction scalar oracle --------------------------------------------------------


def zeta_power_by_reduction(m: int, e: int) -> CycloNum:
    """zeta_m^e as the monomial z^(e mod m) reduced modulo Phi_m in one
    pass: the oracle of `cyclo.zeta_power`, which reads a table of powers
    built by stepping z."""
    return CycloNum.from_poly(m, [0] * (e % m) + [1])


def _reduce_fractions(order: int, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    """Reduce a coefficient list modulo Phi_order and pad to length phi(order)."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    rem = list(coeffs)
    while len(rem) > deg:
        lead = rem.pop()
        if lead == 0:
            continue
        shift = len(rem) - deg
        for i in range(deg):
            rem[shift + i] -= lead * phi[i]
    rem.extend([Fraction(0)] * (deg - len(rem)))
    return tuple(rem)


@dataclass(frozen=True)
class FractionCyclo:
    """An element of Q(zeta_order) as Fraction coefficients on the power
    basis: polynomial products reduced by long division, and the inverse by
    the extended Euclidean algorithm against Phi_order."""

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != euler_phi(self.order):
            raise ValueError("coefficient vector must have length phi(order)")

    @staticmethod
    def from_poly(order: int, coeffs) -> "FractionCyclo":
        return FractionCyclo(order, _reduce_fractions(order, [Fraction(c) for c in coeffs]))

    @staticmethod
    def of(x: CycloNum) -> "FractionCyclo":
        return FractionCyclo(x.order, tuple(Fraction(c, x.den) for c in x.num))

    def _lift(self, other: Union["FractionCyclo", int, Fraction]) -> "FractionCyclo":
        if isinstance(other, FractionCyclo):
            return other
        return FractionCyclo.from_poly(self.order, [other])

    def __add__(self, other) -> "FractionCyclo":
        other = self._lift(other)
        return FractionCyclo(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other) -> "FractionCyclo":
        other = self._lift(other)
        return FractionCyclo(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other) -> "FractionCyclo":
        a, b = self.coeffs, self._lift(other).coeffs
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return FractionCyclo(self.order, _reduce_fractions(self.order, out))

    def inverse(self) -> "FractionCyclo":
        if not any(self.coeffs):
            raise ZeroDivisionError("division by zero in cyclotomic field")
        r0 = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r1 = list(self.coeffs)
        s0: list[Fraction] = [Fraction(0)]
        s1: list[Fraction] = [Fraction(1)]
        while True:
            while r1[-1] == 0:
                r1.pop()
            if len(r1) == 1:
                return FractionCyclo.from_poly(self.order, [c / r1[0] for c in s1])
            quo = [Fraction(0)] * (len(r0) - len(r1) + 1)
            rem = list(r0)
            while len(rem) >= len(r1):
                lead = rem[-1]
                shift = len(rem) - len(r1)
                q = lead / r1[-1]
                quo[shift] = q
                for i, d in enumerate(r1):
                    rem[shift + i] -= q * d
                rem.pop()
            snew = list(s0) + [Fraction(0)] * max(0, len(quo) + len(s1) - 1 - len(s0))
            for i, qi in enumerate(quo):
                for j, sj in enumerate(s1):
                    snew[i + j] -= qi * sj
            r0, r1 = r1, rem
            s0, s1 = s1, snew

    def __truediv__(self, other) -> "FractionCyclo":
        return self * self._lift(other).inverse()

    def __pow__(self, exponent: int) -> "FractionCyclo":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = FractionCyclo.from_poly(self.order, [1])
        for _ in range(exponent):
            result = result * self
        return result

    def embed(self, n: int) -> "FractionCyclo":
        step = n // self.order
        out = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            out[i * step] = c
        return FractionCyclo.from_poly(n, out)

    def to_obj(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = f"z{self.order}" if i == 1 else f"z{self.order}^{i}"
                parts.append(mono if c == 1 else f"-{mono}" if c == -1 else f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


# -- differential fixtures -------------------------------------------------------

# the grading and descent rows of `verify-all`, as automorphisms
_GRADING_FIXTURES = (
    "A1 toral s=(1) m=2",
    "A2 diagram flip",
    "D4 diagram triality",
    "A2 flip * toral s=(1,1) m=2",
    "M3 conjugation (0,1,2) m=3",
)

# twists of the benchmark's `twist` pool: (type, one-based pi or None, s, m)
_TYPE_TWISTS = {
    "A2 flip * toral s=(1,1) m=3": ("A2", (2, 1), (1, 1), 3),
    "A2 toral s=(1,1) m=6": ("A2", None, (1, 1), 6),
    "A3 flip": ("A3", (3, 2, 1), (0, 0, 0), 1),
    "A3 flip * toral s=(1,0,1) m=2": ("A3", (3, 2, 1), (1, 0, 1), 2),
    "B3 toral s=(1,0,0) m=3": ("B3", None, (1, 0, 0), 3),
    "C3 toral s=(0,1,0) m=4": ("C3", None, (0, 1, 0), 4),
    "D4 triality (4,2,1,3)": ("D4", (4, 2, 1, 3), (0, 0, 0, 0), 1),
    "D4 triality * toral s=(0,1,0,0) m=3": ("D4", (3, 2, 4, 1), (0, 1, 0, 0), 3),
    "D4 toral s=(1,0,0,0) m=3": ("D4", None, (1, 0, 0, 0), 3),
    "G2 toral s=(1,0) m=6": ("G2", None, (1, 0), 6),
}

# Ad(diag(zeta^a)) on M_n: (n, exponents, m)
_MATRIX_TWISTS = {
    "M2 (0,1) m=3": (2, (0, 1), 3),
    "M4 (0,1,2,3) m=4": (4, (0, 1, 2, 3), 4),
    "M4 (0,1,2,3) m=6": (4, (0, 1, 2, 3), 6),
}

TWIST_FIXTURES = _GRADING_FIXTURES + tuple(_TYPE_TWISTS) + tuple(_MATRIX_TWISTS)

# the requests of _GRADING_FIXTURES, as _TYPE_TWISTS and _MATRIX_TWISTS list theirs
_GRADING_REQUESTS = {
    "A1 toral s=(1) m=2": ("A1", None, (1,), 2),
    "A2 diagram flip": ("A2", (2, 1), (0, 0), 1),
    "D4 diagram triality": ("D4", (3, 2, 4, 1), (0, 0, 0, 0), 1),
    "A2 flip * toral s=(1,1) m=2": ("A2", (2, 1), (1, 1), 2),
    "M3 conjugation (0,1,2) m=3": (3, (0, 1, 2), 3),
}


def layout_exponents(name: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The coweight of one named fixture, its charge s or its exponents a,
    and the exponents its basis layout's own rule gives it:
    `charge_pairings` on a type's table, `matrix_unit_shifts` on M_n."""
    request = {**_GRADING_REQUESTS, **_TYPE_TWISTS, **_MATRIX_TWISTS}[name]
    if len(request) == 3:
        n, exponents, _ = request
        return exponents, matrix_unit_shifts(n, exponents)
    label, _, s, _ = request
    return s, charge_pairings(root_system(cartan_matrix(label)), s)


@lru_cache(maxsize=None)
def _grading_fixtures() -> dict:
    """name -> factors (algebra, outer, exponents, m) of each of _GRADING_FIXTURES."""
    toral = type_twist_factors("A1", DiagramPermutation((0,)), (1,), 2)
    flip = DiagramPermutation((1, 0))
    a2, outer, *charged = type_twist_factors("A2", flip, (1, 1), 2)
    triality = DiagramPermutation((2, 1, 3, 0))
    d4, triality_map, _, _ = type_twist_factors("D4", triality, (0,) * 4, 1)
    factors = (
        toral,
        (a2, outer, (0,) * a2.dim, 1),
        (d4, triality_map, (0,) * d4.dim, 1),
        (a2, outer, *charged),
        matrix_twist_factors(3, (0, 1, 2), 3),
    )
    return dict(zip(_GRADING_FIXTURES, factors))


@lru_cache(maxsize=None)
def twist_factors(
    name: str,
) -> tuple[MultTableAlgebra, FiniteOrderAutomorphism, tuple[int, ...], int]:
    """The factors (algebra, outer, exponents, m) of one named fixture, as
    `grading.twist` takes them."""
    if name in _GRADING_FIXTURES:
        return _grading_fixtures()[name]
    if name in _MATRIX_TWISTS:
        n, exponents, m = _MATRIX_TWISTS[name]
        return matrix_twist_factors(n, exponents, m)
    label, pi, s, m = _TYPE_TWISTS[name]
    perm = (
        DiagramPermutation(tuple(range(len(s)))) if pi is None else DiagramPermutation.from_one_based(pi)
    )
    return type_twist_factors(label, perm, s, m)


@lru_cache(maxsize=None)
def twist_fixture(name: str) -> tuple[MultTableAlgebra, FiniteOrderAutomorphism]:
    """The algebra and checked monomial automorphism of one named fixture."""
    alg, *factors = twist_factors(name)
    return alg, twist(alg, *factors)


def three_pass_composition(
    alg: MultTableAlgebra, rs: RootSystem, perm: DiagramPermutation, s: Sequence[int], m: int
) -> tuple[FiniteOrderAutomorphism, FiniteOrderAutomorphism]:
    """pi and pi o tau_s, each built and checked by `check_automorphism`,
    with tau_s built and checked by it too, and the factors composed both
    ways."""
    period = lcm(perm.order(), m)
    pi = diagram_automorphism(alg, rs, perm)
    pi_auto = check_automorphism(alg, pi.images, pi.scalars, perm.order())
    tau = check_diagonal_automorphism(alg, charge_pairings(rs, s), m)
    tau_auto = check_automorphism(alg, tau.images, tau.scalars, tau.period)
    composed = compose(pi_auto, tau_auto)
    if composed != compose(tau_auto, pi_auto):
        raise LieConstructError("factors fail to commute despite an invariant charge")
    return pi_auto, check_automorphism(alg, composed.images, composed.scalars, period)


# -- the descent recomputation that `descent.fixed_point_report` replaced -------------


@dataclass(frozen=True)
class LoopCocycle:
    """u(n mod m) = sigma^(-n), one constant automorphism of A per residue."""

    values: tuple[FiniteOrderAutomorphism, ...]

    @property
    def period(self) -> int:
        return len(self.values)

    def value(self, n: int) -> FiniteOrderAutomorphism:
        return self.values[n % self.period]


def build_cocycle(sigma: FiniteOrderAutomorphism) -> LoopCocycle:
    """Store all m values of n -> sigma^(-n) and check the cocycle identity.

    The values are constant in z, so the gamma-twist in the cocycle identity
    acts trivially and the identity is exactly the homomorphism property,
    checked over all m^2 residue pairs.  sigma^(-n) is stored as the monomial
    sigma^(m - n), and each identity is one O(dim) composition.
    """
    m = sigma.period
    one = CycloNum.one(sigma.scalar_order)
    powers = [FiniteOrderAutomorphism(tuple(range(sigma.dim)), (one,) * sigma.dim, m)]
    for _ in range(1, m):
        powers.append(compose(sigma, powers[-1]))
    values = tuple(powers[(m - n) % m] for n in range(m))
    for n1 in range(m):
        for n2 in range(m):
            if compose(values[n1], values[n2]) != values[(n1 + n2) % m]:
                raise DescentError(f"cocycle identity fails at ({n1}, {n2})")
    return LoopCocycle(values=values)


def twisted_fixed_points(
    cocycle: LoopCocycle, grading: GradedDecomposition
) -> tuple[tuple[Sparse, ...], ...]:
    """Fixed spaces of x -> u(1)(gamma(x)) per residue; must equal the grading.

    On the slice A z^j the twisted action is the constant map
    zeta^j sigma^(-1), so the fixed space is the kernel of
    (zeta^j sigma^(-1) - id).  zeta^j depends only on j mod m, so the m
    kernels, one per residue, cover every degree; each is computed by
    elimination, apart from the closed-form grading, on sparse rows:
    sigma^(-1) is monomial, so each row has at most two entries.  The kernel
    for residue r must coincide with the eigenspace component r: equal
    dimensions, and every kernel vector in the component's span; any
    mismatch raises.  The result is the m kernels, kernel r being the fixed
    space of every degree j = r mod m.
    """
    m = cocycle.period
    if grading.period != m:
        raise DescentError("cocycle and grading periods differ")
    u1 = cocycle.value(1)
    order = u1.scalar_order
    n = grading.dim
    kernels = []
    for r in range(m):
        zeta = zeta_power(order, (order // m) * r)
        # u1 sends e_c to scalars[c] e_images[c]: column c holds that entry and -1
        rows = [{i: CycloNum.rational(order, -1)} for i in range(n)]
        for c, (i, scalar) in enumerate(zip(u1.images, u1.scalars)):
            rows[i][c] = rows[i].get(c, CycloNum.zero(order)) + zeta * scalar
        kernel = nullspace(rows, n, order)
        component = grading.component_bases[r]
        if len(kernel) != len(component):
            raise DescentError(
                f"residue {r}: fixed space dim {len(kernel)} != component dim {len(component)}"
            )
        solver = grading.component_solver(r)
        for v in kernel:
            if solver.coords(v) is None:
                raise DescentError(f"residue {r}: fixed vector escapes the grading component")
        kernels.append(tuple(kernel))
    return tuple(kernels)


# -- the twist paths that `grading.twist` replaced ------------------------------------


def charge_pairings(rs: RootSystem, s: Sequence[int]) -> tuple[int, ...]:
    """<s, alpha> for every basis index of the layout of rs, 0 on the
    Cartan: the exponents of tau_s as the type-label path wrote them."""
    _, root_index = _basis_layout(rs)
    out = [0] * (rs.rank + len(rs.roots))
    for alpha, idx in root_index.items():
        out[idx] = sum(si * ai for si, ai in zip(s, alpha))
    return tuple(out)


def matrix_unit_shifts(n: int, exponents: Sequence[int]) -> tuple[int, ...]:
    """Degree shift a_i - a_k on the matrix unit E_ik, as the matrix-unit
    path wrote it."""
    return tuple(exponents[r // n] - exponents[r % n] for r in range(n * n))


def check_diagonal_automorphism(
    alg: MultTableAlgebra, exponents: Sequence[int], m: int
) -> FiniteOrderAutomorphism:
    """Verify the diagonal map e_j -> zeta_m^(p_j) e_j by integer additivity.

    sigma(e_i e_j) = sum_k c_ij^k zeta^(p_k) e_k and sigma(e_i) sigma(e_j) =
    zeta^(p_i + p_j) sum_k c_ij^k e_k agree exactly when p_k = p_i + p_j
    mod m for every nonzero c_ij^k, because zeta_m is a primitive m-th root
    of unity.  So one pass of integer comparisons over the table's nonzero
    products certifies multiplicativity, with no scalar multiplied.  The map
    is invertible and sigma^m = 1 holds term by term.
    """
    n = alg.dim
    exponents = tuple(exponents)
    if len(exponents) != n:
        raise AutomorphismError(
            f"the diagonal map needs one exponent per basis element, {n} in all"
        )
    if m < 1:
        raise AutomorphismError("the diagonal period m must be positive")
    order = alg.scalar_order
    if order % m != 0:
        raise AutomorphismError(f"scalar order {order} lacks the {m}-th roots of unity")
    residues = [p % m for p in exponents]
    labels = alg.basis_labels
    for (i, j), entry in alg.products.items():
        target = (residues[i] + residues[j]) % m
        for k in entry:
            if residues[k] != target:
                raise AutomorphismError(
                    f"exponent additivity fails on basis pair ({labels[i]}, {labels[j]}): "
                    f"exponent {exponents[k]} of {labels[k]} is not "
                    f"{exponents[i]} + {exponents[j]} mod {m}"
                )
    step = order // m
    scalars = tuple(zeta_power(order, step * p) for p in exponents)
    return FiniteOrderAutomorphism(tuple(range(n)), scalars, m)


def _verify_untwist(
    alg: MultTableAlgebra, outer: FiniteOrderAutomorphism, shifts: Sequence[int]
) -> None:
    """Certify phi: e_k z^j -> e_k z^(j - shifts[k]) from L(sigma) onto
    L(outer), sigma = outer o diag(zeta^shifts) with zeta = zeta_M, both
    graded mod the common period M, in every degree.

    sigma has that form by construction: `untwist_iso` takes it from
    `grading.twist`, which composes outer with diag(zeta_m^p), and
    zeta_m^p = zeta_M^((M/m) p) is zeta^shifts.  Landing then rests on one
    clause on the basis, reported as lands-in-target: shifts[outer.images[k]]
    = shifts[k] as integers (the invariance clause).  Split v = sum_s v^(s)
    by shift class.  Outer preserves each class, and diag acts on class s as
    zeta^s, so sigma preserves each class too and sigma v = zeta^r v gives,
    class by class, outer v^(s) = zeta^(r - s) v^(s).  So the piece of
    phi(v z^r) at degree r - s, which is v^(s), lies in outer's component
    r - s: phi lands in the target.  Conversely outer w = zeta^r w gives
    sigma w^(s) = zeta^(r + s) w^(s), so phi^-1(w z^r) lands in the source.
    An outer eigenvector is supported on whole orbits, so a shift that
    agrees on an orbit only mod M splits it across degrees: agreement mod M
    is not enough.

    phi(e_a z^i . e_b z^j) and phi(e_a z^i) phi(e_b z^j) have the same
    terms, at degrees i + j - shifts[c] and i + j - shifts[a] - shifts[b],
    so phi preserves products in all degrees exactly when the shift is
    additive on every nonzero product of the table (the additivity clause).
    phi moves each basis vector by one integer, so it commutes with
    multiplication by t = z^M by its form (t-intertwine).  Each check raises
    on failure.
    """
    labels = alg.basis_labels
    for k, image in enumerate(outer.images):
        if shifts[image] != shifts[k]:
            raise DescentError(
                f"lands-in-target: shift {shifts[image]} of {labels[image]} is not "
                f"the shift {shifts[k]} of {labels[k]} on its orbit"
            )
    for (a, b), entry in alg.products.items():
        for c in entry:
            if shifts[c] != shifts[a] + shifts[b]:
                raise DescentError(
                    f"bracket preservation fails on the pair ({labels[a]}, {labels[b]}): "
                    f"shift {shifts[c]} of {labels[c]} is not {shifts[a]} + {shifts[b]}"
                )


def diagram_and_composition(
    alg: MultTableAlgebra,
    rs: RootSystem,
    perm: DiagramPermutation,
    s: Sequence[int],
    m: int,
) -> tuple[FiniteOrderAutomorphism, FiniteOrderAutomorphism]:
    """The diagram factor pi and the composition pi o tau_s, as the type-label
    path built them: pi by `diagram_automorphism`, tau_s by the additivity
    of <s, .>, the factors composed both ways, and the composition checked
    by its period; a trivial charge gives pi with its period lifted."""
    if len(s) != rs.rank:
        raise LieConstructError("charge rank mismatch")
    for i in range(rs.rank):
        if s[i] != s[perm.images[i]]:
            raise LieConstructError("toral charge must be constant on permutation orbits")
    period = lcm(perm.order(), m)
    if alg.scalar_order % period != 0:
        raise LieConstructError(
            f"algebra scalar order {alg.scalar_order} lacks the {period}-th roots of unity"
        )
    pi_auto = diagram_automorphism(alg, rs, perm)
    if all(si % m == 0 for si in s):
        return pi_auto, FiniteOrderAutomorphism(pi_auto.images, pi_auto.scalars, period)
    tau_auto = check_diagonal_automorphism(alg, charge_pairings(rs, s), m)
    if compose(pi_auto, tau_auto) != compose(tau_auto, pi_auto):
        raise LieConstructError("factors fail to commute despite an invariant charge")
    composed = compose(pi_auto, tau_auto)
    _check_period(alg, composed.images, composed.scalars, period)
    return pi_auto, composed


def untwist_matrix_iso(
    n: int,
    exponents: Sequence[int],
    m: int,
) -> UntwistIso:
    """Trivialization of the M_n covering algebra twisted by Ad(diag), as the
    matrix-unit path built it: the twist and the identity certified as
    diagonal maps of period m, with no outer factor."""
    alg, _ = build_matrix_algebra(n, exponents, m)
    shifts = matrix_unit_shifts(n, exponents)
    check_diagonal_automorphism(alg, shifts, m)
    identity = check_diagonal_automorphism(alg, (0,) * alg.dim, m)
    _verify_untwist(alg, identity, shifts)
    return UntwistIso(period=m, toral_modulus=m, shifts=shifts)


def coboundary_witness_matrix(
    n: int,
    exponents: Sequence[int],
    m: int,
) -> tuple[tuple[int, ...], list[dict]]:
    """Matrix-unit path: shift a_i - a_k on E_ik trivializes Ad(diag); the
    shifts and the coboundary-identity report row."""
    alg, _ = build_matrix_algebra(n, exponents, m)
    shifts = matrix_unit_shifts(n, exponents)
    sigma = check_diagonal_automorphism(alg, shifts, m)
    # residue 1 decides every residue: sigma must be diag(zeta_m^shifts)
    step = alg.scalar_order // m
    for k, (image, scalar) in enumerate(zip(sigma.images, sigma.scalars)):
        if image != k or scalar != zeta_power(alg.scalar_order, step * shifts[k]):
            raise DescentError(f"coboundary identity fails at residue 1, basis {k}")
    return shifts, [{"check": "coboundary-identity", "window": 2 * m, "status": "pass"}]


# -- the root-string table that `chevalley._fold` replaced ----------------------------

Root = tuple[int, ...]


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
        self.root_set = frozenset(rs.roots)
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


def root_string_algebra(rs: RootSystem) -> MultTableAlgebra:
    """The Chevalley table of rs with N_{alpha,beta} = +-(p+1) from root
    strings: +(p+1) on each extraspecial pair (the first decomposition of a
    positive root in the height-then-lex order), every other sign propagated
    through the Jacobi identity.  The reference for `chevalley.algebra_over`,
    which folds the Frenkel-Kac table of the simply-laced cover; the two
    agree up to the signs of the basis elements."""
    l = rs.rank
    consts = _Constants(rs)
    labels, root_index = _basis_layout(rs)

    def q(x: int) -> CycloNum:
        return CycloNum.rational(1, x)

    entries: dict[tuple[int, int], Sparse] = {}
    for i in range(l):
        for alpha in rs.roots:
            coeff = rs.pairing(alpha, i)
            if coeff:
                idx = root_index[alpha]
                entries[(i, idx)] = {idx: q(coeff)}
                entries[(idx, i)] = {idx: q(-coeff)}
    for alpha in rs.positives:
        ia, ina = root_index[alpha], root_index[_neg(alpha)]
        halpha = {j: q(c) for j, c in enumerate(consts.coroot_coeffs(alpha)) if c}
        entries[(ia, ina)] = halpha
        entries[(ina, ia)] = {j: -v for j, v in halpha.items()}
    for (a, b), value in consts.n.items():
        target = tuple(x + y for x, y in zip(a, b))
        entries[(root_index[a], root_index[b])] = {root_index[target]: q(value)}
    return MultTableAlgebra(
        dim=len(labels),
        scalar_order=1,
        kind=KIND_LIE,
        products=entries,
        basis_labels=tuple(labels),
    )


def embed_algebra(alg: MultTableAlgebra, n: int) -> MultTableAlgebra:
    """alg with every constant embedded into Q(zeta_n), for a multiple n of
    its scalar order, keeping its weights, and its certificate when it has
    one."""
    if n == alg.scalar_order:
        return alg
    products = {
        key: {k: embed(c, n) for k, c in entry.items()} for key, entry in alg.products.items()
    }
    out = MultTableAlgebra(
        dim=alg.dim,
        scalar_order=n,
        kind=alg.kind,
        products=products,
        basis_labels=alg.basis_labels,
        weights=alg.weights,
    )
    if "validation" in alg.__dict__:
        # the embedding of scalar fields is an injective ring map, so a law
        # holds on a basis triple after it exactly when it held before
        out.__dict__["validation"] = alg.validation
    return out


def inverse_witnesses(
    group: OutGroup,
) -> tuple[tuple[DiagramPermutation, Optional[DiagramPermutation]], ...]:
    """(g, h) for every element g of group, with h the first element such
    that h g h^-1 = g^-1, or None when there is none."""
    witnesses = []
    for g in group.elements:
        target = g.inverse().images
        found = next(
            (h for h in group.elements if h.compose(g).compose(h.inverse()).images == target),
            None,
        )
        witnesses.append((g, found))
    return tuple(witnesses)
