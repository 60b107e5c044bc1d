"""Closed-form bookkeeping for curves on the base locus and for quadric
surface bundles over ℙ¹×ℙ¹: secant-degree formulas, parameter counts of
bundle families, the determinant and fiber tangency of the tangent-fibers
specialization matrix, and the singular-fiber count of the degree-6
fibration.
"""

from __future__ import annotations

from math import comb
from typing import Any, Sequence

from .errors import InternalCheckError, PrecondError, check
from .fields import QQ, Field, parse_at
from .poly import Poly
from .records import record

HPT_VARS = ("y1", "z1", "y2", "z2")
_GROUP1 = ("y1", "z1")
_GROUP2 = ("y2", "z2")


def secant_degrees(d: int, g: int) -> tuple[int, int]:
    """Degrees of the secant constructions attached to a degree-d genus-g
    curve R on the base locus: the number of secant lines through a general
    point of the span, and the degree of the surface swept by secants to R
    inside the threefold.

    (3,0) -> (1,1): a twisted cubic has one secant through a general point
    and its secant surface is a hyperplane-section component.
    (4,1) -> (2,0): elliptic quartics have no secant surface inside X.
    """
    if d < 3:
        raise PrecondError("secant formulas need degree >= 3")
    if g < 0:
        raise PrecondError("genus must be nonnegative")
    sec = comb(d - 1, 2) - g
    sigma = d * d - 4 * d - 4 * g + 4
    return sec, sigma


def secant_multiplicity(d: int, g: int) -> int:
    """The multiplicity m with which the secant surface meets a general line
    of the ruling, recovered numerically from m·d + sigma = 4·sec.

    For every admissible (d, g) this must come out to d-2; the division is
    checked to be exact rather than assumed.
    """
    sec, sigma = secant_degrees(d, g)
    num = 4 * sec - sigma
    if num % d != 0:
        raise InternalCheckError("m·d + sigma = 4·sec has an integer m", four_sec_minus_sigma=num, d=d, g=g)
    return num // d


@record
class BundleParameterCounts:
    family: int
    generic: int
    degeneracy_bidegree: tuple[int, int]


def bundle_parameter_counts(d: int) -> BundleParameterCounts:
    """Dimension bookkeeping for quadric surface bundles on ℙ¹ whose matrix
    has linear-part twist d.

    The family count adds the entry blocks (6 quadratic-block entries of
    degree d+1, 3 mixed entries of degree d+2, one corner of degree d+3),
    then subtracts fiberwise congruences (GL₄ acting fiberwise: 16 minus the
    6-dimensional stabilizer is accounted as 22 = 16 + 6 here, matching the
    block normal form) and the base reparametrization.  The generic count is
    the full space of symmetric matrices with a degree-(4d+3) determinant
    twist, modulo scaling.  Both are recomputed from the blocks, not stored.
    """
    if d < 0:
        raise PrecondError("twist must be nonnegative")
    family = 6 * 2 * (d + 1) + 3 * 3 * (d + 2) + 4 * (d + 3) - 22 - 6
    generic = 7 * (4 * d + 3) - 7
    if family > generic:
        raise InternalCheckError("family count <= generic count", family=family, generic=generic)
    return BundleParameterCounts(
        family=family,
        generic=generic,
        degeneracy_bidegree=(4 * d + 2, 6),
    )


@record
class FiberTangency:
    """Tangency of the degeneracy curve {g = 0} along one coordinate fiber.

    The restriction of g to the fiber divisor is a binary quadratic form
    (times the square of the complementary coordinate); tangency means that
    form has a double root, i.e. vanishing discriminant, while not being
    identically zero.  An identically-zero restriction means the fiber lies
    inside the curve and is flagged instead of counted as tangent."""

    fiber: str
    restriction: tuple[Any, Any, Any]
    discriminant: Any
    restriction_zero: bool
    tangent: bool


@record
class HptReport:
    """Outcome of the specialization-matrix check.

    ``factors`` is the computed factorization of the determinant divisor:
    (name, class, exponent) triples summing to ``det_bidegree``.  The same
    (6,6) class is also reached by the alternative grouping that counts the
    degeneracy curve doubly and the coordinate fibers simply; both sums are
    recorded and no preference between the two conventions is taken."""

    determinant: Poly
    det_bidegree: tuple[int, int]
    factors: tuple[tuple[str, tuple[int, int], int], ...]
    factored_class_sum: tuple[int, int]
    configuration_class_sum: tuple[int, int]
    fibers: tuple[FiberTangency, ...]
    all_tangent: bool


def _coeff_grid(g: Poly) -> list[list[Any]]:
    # a[i][j] = coefficient of y1^i z1^(2-i) y2^j z2^(2-j)
    return [[g.coeff((i, 2 - i, j, 2 - j)) for j in range(3)] for i in range(3)]


def poly_from_grid(grid: Sequence[Sequence[Any]], field: Field = QQ) -> Poly:
    """The (2,2)-form with coefficient grid[i][j] on y1^i z1^(2-i) y2^j z2^(2-j)."""
    if not isinstance(grid, (list, tuple)) or len(grid) != 3 or any(
        not isinstance(row, (list, tuple)) or len(row) != 3 for row in grid
    ):
        raise PrecondError("grid: expected a 3x3 coefficient grid [[a00, a01, a02], ...]")
    terms: dict[tuple, Any] = {}
    for i in range(3):
        for j in range(3):
            c = parse_at(field, grid[i][j], f"grid[{i}][{j}]")
            if not field.is_zero(c):
                terms[(i, 2 - i, j, 2 - j)] = c
    return Poly(field, HPT_VARS, terms)


def hpt_check(g: Poly) -> HptReport:
    """For a (2,2)-curve g on ℙ¹×ℙ¹, report the determinant bookkeeping of
    the specialization matrix diag(y1 z1, y1 z2, y2 z1, y2 z2 g) and the
    tangency of {g = 0} along the four coordinate fibers.

    The determinant must equal y1² y2² z1² z2² · g symbolically, a divisor of
    class 2(1,0) + 2(1,0) + 2(0,1) + 2(0,1) + (2,2) = (6,6).  Tangency along
    {y1=0}, {z1=0}, {y2=0}, {z2=0} is read off the rows and columns of the
    coefficient grid of g.
    """
    fld = g.field
    if g.vars != HPT_VARS:
        raise PrecondError(f"g must live in variables {HPT_VARS}")
    ok, bideg = g.is_bihomogeneous(_GROUP1, _GROUP2)
    if g.is_zero or not ok or bideg != (2, 2):
        raise PrecondError("g must be bihomogeneous of bidegree (2,2)")

    def v(name: str) -> Poly:
        return Poly.variable(fld, HPT_VARS, name)

    y1, z1, y2, z2 = (v(name) for name in HPT_VARS)
    diag = [y1 * z1, y1 * z2, y2 * z1, y2 * z2 * g]
    det = diag[0] * diag[1] * diag[2] * diag[3]  # the matrix is diagonal
    expected = y1 * y1 * y2 * y2 * z1 * z1 * z2 * z2 * g
    check("det of the diagonal matrix = y1²y2²z1²z2²·g", det=det, expected=expected)
    ok, det_bideg = det.is_bihomogeneous(_GROUP1, _GROUP2)
    check("the determinant is bihomogeneous", bihomogeneous=ok, expected=True)
    check("determinant bidegree = (6,6)", bidegree=det_bideg, expected=(6, 6))
    # y1, z1 cut (1,0)-divisors, y2, z2 cut (0,1)-divisors, g cuts a (2,2)-curve
    factors = (
        ("y1", (1, 0), 2),
        ("z1", (1, 0), 2),
        ("y2", (0, 1), 2),
        ("z2", (0, 1), 2),
        ("g", (2, 2), 1),
    )
    factored = tuple(
        sum(e * c[axis] for _, c, e in factors) for axis in (0, 1)
    )
    # alternative grouping: twice the (2,2) curve plus the four simple fibers
    configuration = (2 * 2 + 1 + 1, 2 * 2 + 1 + 1)
    check("factor classes sum to (6,6)", factored=factored, expected=(6, 6))
    check("configuration classes sum to (6,6)", configuration=configuration, expected=(6, 6))

    a = _coeff_grid(g)
    four = fld.from_int(4)

    def tangency(fiber: str, b: tuple[Any, Any, Any]) -> FiberTangency:
        rzero = all(fld.is_zero(c) for c in b)
        disc = fld.sub(fld.mul(b[1], b[1]), fld.mul(four, fld.mul(b[0], b[2])))
        return FiberTangency(
            fiber=fiber,
            restriction=b,
            discriminant=disc,
            restriction_zero=rzero,
            tangent=(not rzero) and fld.is_zero(disc),
        )

    fibers = (
        tangency("y1=0", (a[0][0], a[0][1], a[0][2])),
        tangency("z1=0", (a[2][0], a[2][1], a[2][2])),
        tangency("y2=0", (a[0][0], a[1][0], a[2][0])),
        tangency("z2=0", (a[0][2], a[1][2], a[2][2])),
    )
    return HptReport(
        determinant=det,
        det_bidegree=(6, 6),
        factors=factors,
        factored_class_sum=factored,
        configuration_class_sum=configuration,
        fibers=fibers,
        all_tangent=all(f.tangent for f in fibers),
    )


def singular_fiber_count(chi_total: int, chi_smooth: int, chi_nodal: int) -> int:
    """Number of singular fibers of a fibration over ℙ¹ from Euler numbers:
    chi_total = (2 - k)·chi_smooth + k·chi_nodal, solved for k."""
    if chi_smooth == chi_nodal:
        raise PrecondError("smooth and nodal fibers must have different Euler numbers")
    num = 2 * chi_smooth - chi_total
    den = chi_smooth - chi_nodal
    if num % den != 0:
        raise InternalCheckError(
            "(2 - k)·chi_smooth + k·chi_nodal = chi_total has an integer k", numerator=num, denominator=den
        )
    k = num // den
    if k < 0:
        raise InternalCheckError("fiber count k >= 0", k=k)
    return k


def dp6_fiber_count() -> int:
    """Singular-fiber count of the sextic del Pezzo fibration obtained from
    the double projection: the total space has Euler number 4 - 4 + 2 + 2 = 4,
    a smooth sextic del Pezzo fiber has 6, a nodal one 5, whence 8 fibers."""
    chi_total = 4 - 4 + 2 + 2
    count = singular_fiber_count(chi_total, 6, 5)
    check("dp6 singular fiber count = 8", count=count, expected=8)
    return count
