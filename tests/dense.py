"""Dense vectors and matrices, the dense automorphism check and the
ordered-triple table validation, kept as test oracles.

The package stores vectors as sparse {index: scalar} mappings and
automorphisms as monomials (images, scalars), and never multiplies dense
matrices.  These helpers work on dense tuples and on the dense view
`FiniteOrderAutomorphism.matrix` (column j is the image of basis element j),
so the tests can compare every sparse or monomial result with the plain
dense computation it replaces.  `densify` is the one way a test turns a
sparse vector into a dense tuple.  `twist_fixture` builds the twists those
differential tests run on.  `ordered_triple_validation` evaluates the Lie or
associative law on all n^3 ordered basis triples through `product_sparse`,
the reference for the reduced certificate of `validate_algebra`.
`windowed_untwist_check` brackets every pair of component slices in a degree
window, the reference for the table-and-residue certificate of
`descent._verify_untwist`, and `base_change_check` checks a grading degree by
degree in a window.  `FractionCyclo` is Q(zeta_m) on Fraction coefficients,
the reference for the integer numerators and one denominator of `CycloNum`.
`kernel_affine_roots` decomposes each grading component by one nullspace per
candidate weight, the reference for the weights `affine.affine_roots` reads
off the closed-form grading.  `fraction_rank_det` is elimination over
Fraction, the reference for the integer Bareiss `linalg.int_rank_det`, and
`all_pairs_centroid` imposes the centroid conditions on every pair of
homogeneous basis vectors, the reference for `centroid.centroid_graded`, which
imposes them on a generating set only.  `three_pass_composition` builds and
checks pi, tau_s and their composition for every charge, the reference for
`grading.twist`, which checks pi alone by `check_automorphism` (the identity
as a diagonal map), tau_s by additivity and the composition by its period.
`diagram_and_composition`, `untwist_matrix_iso` and
`coboundary_witness_matrix` are the separate type-label and matrix-unit
twist paths that `grading.twist`, `descent.untwist_iso` and
`descent.coboundary_witness` replaced, kept as references for them.
`product_rule_check` forms all n^2 products of component vectors, the
reference for the product rule that `eigengrading` draws from its certified
automorphism, and `propagation_consistency` re-multiplies every pair of
roots, the reference for the propagation of `chevalley.diagram_automorphism`,
which leaves that to its one `check_automorphism`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Mapping, Optional, Sequence, Union

from loopforms.acceptance import _grading_fixtures
from loopforms.affine import AffineExtractError, AffineRootData, FixedCartan
from loopforms.algebra import KIND_LIE, MultTableAlgebra, ValidationReport, Violation
from loopforms.centroid import CentroidReport
from loopforms.chevalley import (
    DiagramPermutation,
    LieConstructError,
    RootSystem,
    ToralCharge,
    _basis_layout,
    _Constants,
    algebra_over,
    charge_pairings,
    compose_pi_toral,
    diagram_automorphism,
)
from loopforms.cyclo import CycloNum, cyclotomic_polynomial, euler_phi
from loopforms.descent import (
    CheckReport,
    DescentError,
    LoopElement,
    UntwistIso,
    _verify_coboundary,
    _verify_untwist,
    build_matrix_algebra,
    loop_element,
    matrix_unit_shifts,
    ts_product,
)
from loopforms.grading import (
    AutomorphismError,
    FiniteOrderAutomorphism,
    GradedDecomposition,
    GradingError,
    _certified,
    _check_period,
    check_automorphism,
    check_diagonal_automorphism,
    eigengrading,
)
from loopforms.linalg import Sparse, SpanSolver, eliminate, nullspace, rank, sparse_add

Vector = tuple[CycloNum, ...]
Matrix = tuple[Vector, ...]


def densify(v: Mapping[int, CycloNum], dim: int, order: int) -> Vector:
    """The dense tuple of a sparse vector of length dim over Q(zeta_order)."""
    zero = CycloNum.zero(order)
    return tuple(v.get(i, zero) for i in range(dim))


def sparsify(v: Sequence[CycloNum]) -> Sparse:
    """The sparse vector of a dense tuple: its nonzero entries by index."""
    return {i: x for i, x in enumerate(v) if not x.is_zero()}


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
            for k, c in alg.basis_product(i, j):
                lhs = tuple(a + c * x for a, x in zip(lhs, columns[k]))
            if lhs != dense_product(alg, columns[i], columns[j]):
                raise AutomorphismError(
                    f"multiplicativity fails on basis pair "
                    f"({alg.basis_labels[i]}, {alg.basis_labels[j]})"
                )
    if not is_identity(mat_pow(matrix, period)):
        raise AutomorphismError(f"matrix^{period} is not the identity")


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
                    if not solver.contains(alg.product_sparse(x, y)):
                        raise GradingError(
                            f"product of components {i} and {j} leaves component {(i + j) % m}"
                        )


def propagation_consistency(
    alg: MultTableAlgebra, rs: RootSystem, sigma: FiniteOrderAutomorphism
) -> None:
    """sigma(e_a) sigma(e_b) = N_ab sigma(e_(a+b)) for every pair of roots
    whose sum is a root: every decomposition of every root reproduces the
    propagated image.  The reference for `chevalley.diagram_automorphism`,
    which leaves this to its closing `check_automorphism`."""
    consts = _Constants(rs)
    _, root_index = _basis_layout(rs)
    order = alg.scalar_order
    one = CycloNum.one(order)

    def image(root: tuple[int, ...]) -> Sparse:
        return sigma.apply({root_index[root]: one})

    for a in rs.roots:
        for b in rs.roots:
            target = tuple(x + y for x, y in zip(a, b))
            if target not in consts.root_set:
                continue
            lhs = alg.product_sparse(image(a), image(b))
            coeff = CycloNum.rational(order, consts.n[(a, b)])
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
    formed by `product_sparse` against one-entry basis vectors."""
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
    return ValidationReport(alg.kind, n, triples, tuple(violations))


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
    alg: MultTableAlgebra, grading: GradedDecomposition, shift_residue: int
) -> CentroidReport:
    """Solve for residue-level families c_i: A_i -> A_{i+shift} with
    c(xy) = (cx)y = x(cy) on all homogeneous basis pairs.

    The system is cut down first by every degree-zero basis element that
    multiplies diagonally (Cartan-type elements), which pins most unknowns to
    zero; the surviving sparse equations are then eliminated exactly.
    """
    m = grading.period
    d = shift_residue % m
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
    return CentroidReport(
        shift_residue=d,
        period=m,
        dims=tuple(dims),
        solution_dim=len(free),
        basis=tuple(families),
    )


# -- affine weights by candidate kernels ------------------------------------------


def kernel_affine_roots(
    alg: MultTableAlgebra,
    rs: RootSystem,
    grading: GradedDecomposition,
    h0: FixedCartan,
) -> AffineRootData:
    """The ad-h0 weight decomposition by elimination: the ad-h0 matrices of
    every component, then one nullspace per candidate weight.

    The candidates are the values of ad h0 on the root vectors (for a root
    alpha, sum_{i in O} <alpha, alpha_i^vee> on the orbit sum b_O) and 0; the
    kernels must exhaust each component.
    """
    m = grading.period
    order = grading.scalar_order
    rank_h0 = h0.rank
    candidates = {
        tuple(sum(rs.pairing(alpha, i) for i in orbit) for orbit in h0.orbits)
        for alpha in rs.roots
    }
    candidates.add(tuple(0 for _ in h0.orbits))
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
                coords = solver.coords(alg.product_sparse(h0.basis[k], v))
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
    return AffineRootData(h0=h0, period=m, spaces=tuple(spaces))


# -- windowed untwist oracle -------------------------------------------------------


def _shift_degrees(x: LoopElement, offset: int) -> LoopElement:
    return LoopElement({d + offset: v for d, v in x.terms.items()})


def _untwist_element(x: LoopElement, shifts: Sequence[int], direction: int) -> LoopElement:
    """e_k z^j -> e_k z^(j - direction * shifts[k]), term by term."""
    return loop_element(
        (j - direction * shifts[k], {k: c}) for j, v in x.terms.items() for k, c in v.items()
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
            image = _untwist_element(loop_element([(j, v)]), shifts, direction)
            for d, piece in image.terms.items():
                if not grading_to.component_solver(d % m).contains(piece):
                    raise DescentError(f"{name}: degree {j} image piece at degree {d}")
    source_slices = slices(source_grading)
    if not source_slices:
        raise DescentError("empty window")
    for i, v in source_slices:
        for j, w in source_slices:
            if abs(i + j) > window:
                continue
            x = loop_element([(i, v)])
            y = loop_element([(j, w)])
            lhs = _untwist_element(ts_product(alg, x, y), shifts, +1)
            rhs = ts_product(alg, _untwist_element(x, shifts, +1), _untwist_element(y, shifts, +1))
            if lhs != rhs:
                raise DescentError(f"bracket preservation fails on slice pair ({i}, {j})")
    for j, v in source_slices:
        x = loop_element([(j, v)])
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
                    if not solver.contains(alg.product_sparse(x, y)):
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
        return FractionCyclo(x.order, x.coeffs)

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

_CRITERION_2 = (
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

TWIST_FIXTURES = _CRITERION_2 + tuple(_TYPE_TWISTS) + tuple(_MATRIX_TWISTS)


@lru_cache(maxsize=None)
def _criterion_2() -> dict:
    return {name: (alg, sigma) for name, alg, sigma, _ in _grading_fixtures()}


@lru_cache(maxsize=None)
def twist_fixture(name: str) -> tuple[MultTableAlgebra, FiniteOrderAutomorphism]:
    """The algebra and checked monomial automorphism of one named fixture."""
    if name in _CRITERION_2:
        return _criterion_2()[name]
    if name in _MATRIX_TWISTS:
        return build_matrix_algebra(*_MATRIX_TWISTS[name])
    label, pi, s, m = _TYPE_TWISTS[name]
    perm = (
        DiagramPermutation.identity(len(s)) if pi is None else DiagramPermutation.from_one_based(pi)
    )
    rs, alg = algebra_over(label, lcm(perm.order(), m))
    return alg, compose_pi_toral(alg, rs, perm, ToralCharge(s=s, modulus=m))


def three_pass_composition(
    alg: MultTableAlgebra, rs: RootSystem, perm: DiagramPermutation, charge: ToralCharge
) -> tuple[FiniteOrderAutomorphism, FiniteOrderAutomorphism]:
    """pi and pi o tau_s, each built and checked by `check_automorphism`,
    with tau_s built and checked by it too, and the factors composed both
    ways."""
    period = lcm(perm.order(), charge.modulus)
    pi = diagram_automorphism(alg, rs, perm)
    pi_auto = check_automorphism(alg, pi.images, pi.scalars, perm.order())
    tau = check_diagonal_automorphism(alg, charge_pairings(rs, charge), charge.modulus)
    tau_auto = check_automorphism(alg, tau.images, tau.scalars, tau.period)
    composed = pi_auto.compose(tau_auto)
    if composed != tau_auto.compose(pi_auto):
        raise LieConstructError("factors fail to commute despite an invariant charge")
    return pi_auto, check_automorphism(alg, composed.images, composed.scalars, period)


# -- the twist paths that `grading.twist` replaced ------------------------------------


def diagram_and_composition(
    alg: MultTableAlgebra,
    rs: RootSystem,
    perm: DiagramPermutation,
    charge: ToralCharge,
) -> tuple[FiniteOrderAutomorphism, FiniteOrderAutomorphism]:
    """The diagram factor pi and the composition pi o tau_s, as the type-label
    path built them: pi by `diagram_automorphism`, tau_s by the additivity
    of <s, .>, the factors composed both ways, and the composition checked
    by its period; a trivial charge gives pi with its period lifted."""
    if len(charge.s) != rs.rank:
        raise LieConstructError("charge rank mismatch")
    for i in range(rs.rank):
        if charge.s[i] != charge.s[perm(i)]:
            raise LieConstructError("toral charge must be constant on permutation orbits")
    period = lcm(perm.order(), charge.modulus)
    if alg.scalar_order % period != 0:
        raise LieConstructError(
            f"algebra scalar order {alg.scalar_order} lacks the {period}-th roots of unity"
        )
    pi_auto = diagram_automorphism(alg, rs, perm)
    if all(si % charge.modulus == 0 for si in charge.s):
        return pi_auto, pi_auto.with_period(period)
    tau_auto = check_diagonal_automorphism(alg, charge_pairings(rs, charge), charge.modulus)
    if pi_auto.compose(tau_auto) != tau_auto.compose(pi_auto):
        raise LieConstructError("factors fail to commute despite an invariant charge")
    composed = pi_auto.compose(tau_auto)
    _check_period(alg, composed.images, composed.scalars, period)
    return pi_auto, _certified(alg, composed.images, composed.scalars, period)


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
    sigma = check_diagonal_automorphism(alg, shifts, m)
    identity = check_diagonal_automorphism(alg, (0,) * alg.dim, m)
    source_grading = eigengrading(alg, sigma)
    target_grading = eigengrading(alg, identity)
    checks = _verify_untwist(alg, source_grading, target_grading, shifts)
    return UntwistIso(period=m, toral_modulus=m, shifts=shifts, checks=checks)


def coboundary_witness_matrix(
    n: int,
    exponents: Sequence[int],
    m: int,
) -> tuple[tuple[int, ...], tuple[CheckReport, ...]]:
    """Matrix-unit path: shift a_i - a_k on E_ik trivializes Ad(diag)."""
    alg, _ = build_matrix_algebra(n, exponents, m)
    shifts = matrix_unit_shifts(n, exponents)
    sigma = check_diagonal_automorphism(alg, shifts, m)
    checks = _verify_coboundary(sigma, shifts)
    return shifts, checks
