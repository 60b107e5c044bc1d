"""Birational constructions on the base locus: projection away from a line,
the residual line of a 3-plane section, and the double projection from a
point onto a pencil of quadric surfaces.

All maps are returned as explicit tuples of polynomials over the pencil's
field, together with enough auxiliary data to verify them pointwise.
"""

from __future__ import annotations

from typing import Any, Sequence

from .curvecounts import curve_counts
from .errors import BudgetError, InternalCheckError, PrecondError, check
from .fields import PrimeField, parse_at
from .linalg import complete_basis, dependent, det, invert, mat_mul, mat_vec, nullspace, rank, rref, solve, transpose
from .matrices import SymMatrix, congruent, det_poly
from .pencil import BinaryForm, Pencil, _point_on_locus, _quadric_poly, pencil_congruent
from .poly import Poly
from .records import record


@record
class RationalMap:
    """Components of a rational map between projective spaces, all living in
    a polynomial ring over ``source_vars``."""

    source_vars: tuple[str, ...]
    components: tuple[Poly, ...]

    def __post_init__(self) -> None:
        for c in self.components:
            if c.vars != self.source_vars:
                raise PrecondError("component in the wrong ring")
        degs = {c.total_degree() for c in self.components if not c.is_zero}
        if len(degs) > 1:
            raise PrecondError("components have mixed degrees")

    def evaluate(self, point: Sequence[Any]) -> tuple[Any, ...] | None:
        """Value at a projective point, or None on the indeterminacy locus."""
        field = self.components[0].field
        vals = tuple(c.evaluate(list(point)) for c in self.components)
        if all(field.is_zero(v) for v in vals):
            return None
        return vals


# ----------------------------------------------------------------------
# projection from a line on the base locus
# ----------------------------------------------------------------------


@record
class LineProjection:
    """Projection of the base locus away from one of its lines.

    ``pencil`` is rewritten in coordinates where the line is
    {x2 = ... = xn = 0}, and ``inverse`` holds the matrix that takes a point
    x of the projected pencil to those coordinates.  The map beta
    forgets (x0, x1); its inverse is (m1 : m2 : x2*D : ... : xn*D) with
    D = L00*L11 - L01*L10 the 2x2 determinant of the linear system that
    recovers (x0, x1), and the restriction of the projection blows down onto
    the quintic base curve V(D, m1, m2)."""

    pencil: Pencil
    inverse: tuple[tuple[Any, ...], ...]
    linear_forms: tuple[tuple[Poly, Poly], tuple[Poly, Poly]]
    tails: tuple[Poly, Poly]
    beta: RationalMap
    beta_inverse: RationalMap
    curve_equations: tuple[Poly, Poly, Poly]


def _is_list_of(value: Any, length: int) -> bool:
    """Whether `value` is a list or tuple of `length` items."""
    return isinstance(value, (list, tuple)) and len(value) == length


def _exact_rows(pencil: Pencil, rows: Any, count: int, label: str, refusal: str) -> list[list[Any]]:
    """`rows` as `count` lists of n + 1 exact coordinates, entry (k, i) read
    by `parse_at` as ``label[k][i]``; any other shape is refused."""
    if not _is_list_of(rows, count) or not all(_is_list_of(r, pencil.n + 1) for r in rows):
        raise PrecondError(refusal)
    return [[parse_at(pencil.field, c, f"{label}[{k}][{i}]") for i, c in enumerate(r)] for k, r in enumerate(rows)]


def line_to_front(pencil: Pencil, line_rows: Sequence[Sequence[Any]]) -> tuple[Pencil, list[list[Any]]]:
    """Change coordinates so the given line becomes span(e0, e1).

    Returns the new pencil and the matrix M whose columns are the new basis
    vectors (first two spanning the line)."""
    fld = pencil.field
    rows = _exact_rows(pencil, line_rows, 2, "line_rows", "a line needs two spanning rows of length n+1")
    if dependent(fld, *rows):
        raise PrecondError("the rows do not span a line")
    basis_rows = complete_basis(fld, rows)
    m = transpose(basis_rows)  # columns are the basis vectors
    return pencil_congruent(pencil, m), m


def project_from_line(pencil: Pencil, line_rows: Sequence[Sequence[Any]]) -> LineProjection:
    """Project the base locus away from a line it contains.

    The line must lie on both quadrics; this is checked on the normalized
    Gram matrices (their upper-left 2x2 blocks must vanish).
    """
    fld = pencil.field
    norm, m = line_to_front(pencil, line_rows)
    for g in (norm.g0, norm.g1):
        for i in (0, 1):
            for j in (0, 1):
                if not fld.is_zero(g[i, j]):
                    raise PrecondError("the line does not lie on the base locus")

    ambient_vars = norm.variables()
    target_vars = ambient_vars[2:]
    xs = [Poly.variable(fld, target_vars, v) for v in target_vars]
    two = fld.from_int(2)

    def linear_form(g: SymMatrix, row: int) -> Poly:
        # L = 2 * sum_{j >= 2} G[row][j] x_j, in the target ring
        return sum((x * fld.mul(two, g[row, j]) for j, x in enumerate(xs, 2)), Poly.zero(fld, target_vars))

    l00 = linear_form(norm.g0, 0)
    l01 = linear_form(norm.g0, 1)
    l10 = linear_form(norm.g1, 0)
    l11 = linear_form(norm.g1, 1)
    t0 = _quadric_poly(fld, [row[2:] for row in norm.g0.entries[2:]], target_vars)
    t1 = _quadric_poly(fld, [row[2:] for row in norm.g1.entries[2:]], target_vars)

    d = l00 * l11 - l01 * l10
    m1 = l01 * t1 - l11 * t0
    m2 = l10 * t0 - l00 * t1

    beta = RationalMap(
        ambient_vars,
        tuple(Poly.variable(fld, ambient_vars, v) for v in target_vars),
    )
    beta_inv = RationalMap(target_vars, (m1, m2, *(x * d for x in xs)))

    return LineProjection(
        pencil=norm,
        inverse=tuple(tuple(row) for row in invert(fld, m)),
        linear_forms=((l00, l01), (l10, l11)),
        tails=(t0, t1),
        beta=beta,
        beta_inverse=beta_inv,
        curve_equations=(d, m1, m2),
    )


def round_trip(proj: LineProjection, point: Sequence[Any]) -> bool | None:
    """Check beta then its inverse on a point of the base locus, given in the
    coordinates of the pencil that was projected; M^-1 takes it to the
    coordinates where the line is span(e0, e1).

    Returns None when the point hits an indeterminacy locus, otherwise
    whether the composite returns to the same projective point.
    """
    fld = proj.pencil.field
    x = mat_vec(fld, proj.inverse, point)
    down = proj.beta.evaluate(x)
    if down is None:
        return None
    up = proj.beta_inverse.evaluate(list(down))
    if up is None:
        return None
    return dependent(fld, x, up)


# ----------------------------------------------------------------------
# residual line of a 3-plane section
# ----------------------------------------------------------------------


def residual_line(pencil: Pencil, plane_rows: Sequence[Sequence[Any]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The unique line in the intersection of the base locus with a 3-plane,
    as the reduced row echelon basis (u, v) of its span.

    The plane is given by four independent spanning rows.  The intersection
    must be a curve (the restricted forms must stay linearly independent);
    when it is, say, a twisted cubic plus its chord, the chord is returned.
    Errors: no line at all, more than one line, or a degenerate section.
    """
    fld = pencil.field
    if not isinstance(fld, PrimeField):
        raise PrecondError("residual-line search runs over a prime field")
    rows = _exact_rows(pencil, plane_rows, 4, "plane_rows", "a 3-plane needs four spanning rows of length n+1")
    if rank(fld, rows) != 4:
        raise PrecondError("need four independent rows spanning a 3-plane")
    basis_cols = transpose(rows)
    r0 = congruent(fld, pencil.g0, basis_cols)
    r1 = congruent(fld, pencil.g1, basis_cols)
    if dependent(fld, sum(r0.entries, ()), sum(r1.entries, ())):
        raise PrecondError(
            "the 3-plane section is not a curve: the restricted pencil is degenerate"
        )
    from .fqgeom import enumerate_lines

    inner = enumerate_lines(Pencil(fld, 3, r0, r1))
    if len(inner) == 0:
        raise PrecondError("the 3-plane section contains no line")
    if len(inner) > 1:
        raise PrecondError(
            f"the 3-plane section contains {len(inner)} lines; expected exactly one"
        )
    (u, v), _ = rref(fld, mat_mul(fld, inner[0], rows))
    return tuple(u), tuple(v)


# ----------------------------------------------------------------------
# double projection from a point
# ----------------------------------------------------------------------


@record
class DoubleProjection:
    """Double projection of a threefold base locus from a smooth point.

    In adapted coordinates the two forms read F = 2 x0 x4 + f(x1..x5) and
    G = 2 x0 x5 + g(x1..x5); eliminating x0 along the pencil of hyperplanes
    x5 = t x4 exhibits the base locus as birational to a bundle of quadric
    surfaces over the t-line, with a symmetric 4x4 matrix A(t) whose entries
    have degrees (1 | 2 / 2 | 3) by block; ``bundle_matrix`` holds its
    coefficient matrices A_0, ..., A_3, A(t) = sum_k A_k t^k.  Its
    determinant satisfies the exact identity

        det A(t) = -det(M)^2 * F(t, -1),

    where M is the adapted basis and F the discriminant form: the degeneracy
    sextic is the discriminant sextic re-read along t |-> (t : -1), times
    minus a square.  Over a prime field F_q the identity is double-checked
    by point counts of the two hyperelliptic curves y^2 = det A(t) and
    y^2 = -F(t, -1); when the counts refuse q (`curvecounts.CURVE_Q_LIMIT`)
    that route is skipped (`counts_checked` is false) and the exact identity
    stands alone."""

    pencil: Pencil
    bundle_matrix: tuple[SymMatrix, ...]
    degeneracy: BinaryForm
    discriminant: BinaryForm
    twist_factor: Any  # -det(M)^2
    identity_checked: bool
    counts_checked: bool
    curve_counts: tuple[int, int] | None


def double_projection(pencil: Pencil, point: Sequence[Any]) -> DoubleProjection:
    if pencil.n != 5:
        raise PrecondError("the double projection is implemented for n = 5")
    fld = pencil.field
    x = _point_on_locus(pencil, point)
    a = mat_vec(fld, pencil.g0.entries, x)
    b = mat_vec(fld, pencil.g1.entries, x)
    if dependent(fld, a, b):
        raise PrecondError("the point is singular on the base locus")

    # basis: x, three more kernel vectors of (a, b), then duals v4, v5
    kernel = nullspace(fld, [a, b])
    basis = [x]
    for v in kernel:
        if len(basis) == 4:
            break
        if rank(fld, basis + [v]) == len(basis) + 1:
            basis.append(v)
    check("the kernel of the gradient pair completes x to 4 vectors", vectors=len(basis), expected=4)
    v4 = solve(fld, [a, b], [fld.one, fld.zero])
    v5 = solve(fld, [a, b], [fld.zero, fld.one])
    basis += [v4, v5]
    check("the adapted basis has rank 6", rank=rank(fld, basis), expected=6)
    m = transpose(basis)
    norm = pencil_congruent(pencil, m)
    for g, dual in ((norm.g0, 4), (norm.g1, 5)):
        expect_row = [fld.one if j == dual else fld.zero for j in range(6)]
        check("the adapted Gram's first row is dual to x", first_row=[g[0, j] for j in range(6)], expected=expect_row)

    # A(t) = t*S0(t) - S1(t), S the tail Gram on (x1..x5) with x5 = t*x4:
    # local index i < 4 collects the Gram indices and powers of t it lifts
    # to, so A_k[i][j] takes -G1 from the terms t^k and G0 from the t^(k-1)
    lift = (((1, 0),), ((2, 0),), ((3, 0),), ((4, 0), (5, 1)))
    a = [[[fld.zero] * 4 for _ in range(4)] for _ in range(4)]
    for i in range(4):
        for j in range(4):
            for gi, s in lift[i]:
                for gj, u in lift[j]:
                    a[s + u][i][j] = fld.sub(a[s + u][i][j], norm.g1[gi, gj])
                    a[s + u + 1][i][j] = fld.add(a[s + u + 1][i][j], norm.g0[gi, gj])
            degree = max((k for k in range(4) if not fld.is_zero(a[k][i][j])), default=-1)
            limit = 1 + (i == 3) + (j == 3)
            if degree > limit:
                raise InternalCheckError("bundle matrix entry degree bound", entry=(i, j), degree=degree, bound=limit)

    bundle = tuple(SymMatrix.from_rows(a_k) for a_k in a)
    dpoly = det_poly(fld, bundle)
    if len(dpoly) > 7:
        raise InternalCheckError("degeneracy determinant degree <= 6", degree=len(dpoly) - 1)
    coeffs = dpoly + [fld.zero] * (7 - len(dpoly))
    sextic = BinaryForm(fld, tuple(coeffs))
    if sextic.is_zero:
        raise PrecondError("the elimination degenerated; choose a more general point")
    if not sextic.is_squarefree():
        raise PrecondError(
            "the degeneracy sextic is not squarefree; choose a more general point"
        )

    disc = pencil.discriminant_form()
    mdet = det(fld, m)
    twist = fld.neg(fld.mul(mdet, mdet))
    # F(t, -1) ascending in t: F = sum c_i s0^(6-i) s1^i puts (-1)^k c_(6-k) at t^k
    f_minus = [c if k % 2 == 0 else fld.neg(c) for k, c in enumerate(reversed(disc.coeffs))]
    check("det A(t) = -det(M)^2 * F(t, -1)", det_a=coeffs, twisted_discriminant=[fld.mul(twist, c) for c in f_minus])

    counts: tuple[int, int] | None = None
    if isinstance(fld, PrimeField):
        # second route: the curves y^2 = det A(t) and y^2 = -F(t, -1) differ by
        # the square factor det(M)^2, so their point counts over F_q and F_{q^2}
        # must agree even though the models fed to the counter differ.
        try:
            counts = curve_counts(sextic.chart_main(), fld.p)
        except BudgetError:  # q too large to count: the exact identity stands alone
            pass
        else:
            disc_counts = curve_counts([fld.neg(c) for c in f_minus], fld.p)
            check("degeneracy curve counts = discriminant curve counts", degeneracy=counts, discriminant=disc_counts)

    return DoubleProjection(
        pencil=pencil,
        bundle_matrix=bundle,
        degeneracy=sextic,
        discriminant=disc,
        twist_factor=twist,
        identity_checked=True,
        counts_checked=counts is not None,
        curve_counts=counts,
    )
