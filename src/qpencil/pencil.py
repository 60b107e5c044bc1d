"""Pencils of two quadratic forms and their discriminant binary form.

A pencil is a pair of symmetric Gram matrices (G0, G1) of size (n+1) over an
exact field of characteristic != 2.  The discriminant form is

    F(s0, s1) = det(s0*G0 + s1*G1),

a binary form of degree n+1 in (s0, s1).  The base locus of the pencil is a
smooth complete intersection of dimension n-2 exactly when F is nonzero and
squarefree; `is_smooth` certifies this with the gcd of F(1, t) and its
derivative, and of F(t, 1) only when the first chart does not settle it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Sequence

from . import univariate as uv
from .errors import PrecondError
from .fields import QQ, Field, PrimeField, parse_at
from .linalg import dependent, mat_vec
from .matrices import SymMatrix, congruent, det_poly
from .records import record

if TYPE_CHECKING:
    from .poly import Poly


@record
class BinaryForm:
    """A binary form sum_i c_i s0^(d-i) s1^i, stored as coeffs (c_0..c_d)."""

    field: Field
    coeffs: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise PrecondError("binary form needs at least one coefficient")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return all(self.field.is_zero(c) for c in self.coeffs)

    def evaluate(self, s0: Any, s1: Any) -> Any:
        fld = self.field
        total = fld.zero
        d = self.degree
        for i, c in enumerate(self.coeffs):
            term = c
            for _ in range(d - i):
                term = fld.mul(term, s0)
            for _ in range(i):
                term = fld.mul(term, s1)
            total = fld.add(total, term)
        return total

    def chart_main(self) -> list:
        """Dehomogenization F(1, t) as an ascending coefficient list."""
        return uv.trim(self.field, list(self.coeffs))

    def chart_other(self) -> list:
        """Dehomogenization F(t, 1) as an ascending coefficient list."""
        return uv.trim(self.field, list(reversed(self.coeffs)))

    def chart_gcds(self) -> tuple[list, list]:
        """The monic gcds of F(1, t) and of F(t, 1) with their derivatives
        ([1] for a constant chart), by `univariate.gcd_with_derivative`: over
        the rationals each is the last member of one primitive
        pseudo-remainder sequence.  F of degree d is squarefree exactly when
        F(1, t) is squarefree of degree >= d - 1; then the second is [1]."""
        a = self.chart_main()
        ga = uv.gcd_with_derivative(self.field, a)
        if len(ga) == 1 and len(a) >= self.degree:
            return ga, [self.field.one]
        return ga, uv.gcd_with_derivative(self.field, self.chart_other())

    def is_squarefree(self) -> bool:
        """Squarefree as a *binary* form: both charts squarefree and the
        multiplicity of each of (0:1), (1:0) at most one."""
        if self.is_zero:
            raise PrecondError("zero form")
        return all(len(g) == 1 for g in self.chart_gcds())

    def proportional_to(self, other: "BinaryForm") -> bool:
        """True when self = c * other for some nonzero scalar c."""
        if self.degree != other.degree or self.field != other.field or self.is_zero != other.is_zero:
            return False
        return dependent(self.field, self.coeffs, other.coeffs)


@record
class Pencil:
    """Two quadratic forms in n+1 variables given by symmetric Gram matrices."""

    field: Field
    n: int
    g0: SymMatrix
    g1: SymMatrix

    def __post_init__(self) -> None:
        if self.n < 2:
            raise PrecondError("need at least 3 variables (n >= 2)")
        if self.field.characteristic == 2:
            raise PrecondError("characteristic 2 is not supported")
        if self.g0.size != self.n + 1 or self.g1.size != self.n + 1:
            raise PrecondError(f"Gram matrices must be {self.n + 1}x{self.n + 1}")

    # -- construction ---------------------------------------------------

    @classmethod
    def from_gram(cls, field: Field, g0: Sequence[Sequence[Any]], g1: Sequence[Sequence[Any]]) -> "Pencil":
        m0 = SymMatrix.from_rows(g0)
        return cls(field, m0.size - 1, m0, SymMatrix.from_rows(g1))

    @classmethod
    def from_quadric_terms(
        cls,
        field: Field,
        n: int,
        terms0: Iterable[tuple[int, int, Any]],
        terms1: Iterable[tuple[int, int, Any]],
    ) -> "Pencil":
        """Build from monomial coefficients: a term (i, j, c) with i <= j is
        the coefficient c of x_i x_j.  Off-diagonal Gram entries are c/2."""
        return cls(
            field,
            n,
            _gram_from_terms(field, n, terms0, "terms0"),
            _gram_from_terms(field, n, terms1, "terms1"),
        )

    # -- the two forms as polynomials ------------------------------------

    def variables(self) -> tuple[str, ...]:
        return tuple(f"x{i}" for i in range(self.n + 1))

    def form(self, which: int) -> Poly:
        return _quadric_poly(self.field, (self.g0, self.g1)[which].entries, self.variables())

    def eval_form(self, which: int, x: Sequence[Any]) -> Any:
        """Q(x) = x^T G x."""
        return self.eval_bilinear(which, x, x)

    def eval_bilinear(self, which: int, x: Sequence[Any], y: Sequence[Any]) -> Any:
        """The polarization B(x, y) = x^T G y (so Q(x+y) = Q(x)+2B(x,y)+Q(y)),
        summed over the nonzero coordinates of x and y only."""
        g = (self.g0, self.g1)[which]
        fld = self.field
        ys = [(j, c) for j, c in enumerate(y) if not fld.is_zero(c)]
        total = fld.zero
        for i, row in enumerate(g.entries):
            if fld.is_zero(x[i]):
                continue
            for j, c in ys:
                total = fld.add(total, fld.mul(fld.mul(x[i], row[j]), c))
        return total

    def member(self, s0: Any, s1: Any) -> SymMatrix:
        """The Gram matrix of s0*Q0 + s1*Q1."""
        fld = self.field
        return SymMatrix.from_rows(
            [
                [
                    fld.add(fld.mul(s0, a), fld.mul(s1, b))
                    for a, b in zip(r0, r1)
                ]
                for r0, r1 in zip(self.g0.entries, self.g1.entries)
            ]
        )

    # -- invariants -------------------------------------------------------

    def discriminant_form(self) -> BinaryForm:
        """det(s0 G0 + s1 G1) as a binary form of degree n+1.

        Raises if the determinant vanishes identically (degenerate pencil).
        """
        form = _discriminant_or_none(self)
        if form is None:
            raise PrecondError("degenerate pencil: det(s0*G0 + s1*G1) is identically zero")
        return form


def _discriminant_or_none(p: Pencil, minors: bool = False):
    """det(s0 G0 + s1 G1), or None when it is the zero polynomial; with
    `minors` (over the rationals), the pair of it and the leading principal
    minors of G0 + t G1 that `det_poly` decodes from the same elimination.

    The determinant is taken over F[t] of G0 + t G1; by homogeneity its
    coefficient of t^k is the coefficient of s0^(m-k) s1^k.
    """
    fld = p.field
    m = p.n + 1
    d, deltas = det_poly(fld, (p.g0, p.g1), minors=True) if minors else (det_poly(fld, (p.g0, p.g1)), None)
    form = BinaryForm(fld, tuple(d + [fld.zero] * (m + 1 - len(d)))) if d else None
    return (form, deltas) if minors else form


def _quadric_poly(field: Field, gram: Sequence[Sequence[Any]], vars_: tuple[str, ...]) -> Poly:
    """x^T G x as a polynomial in `vars_`: the Gram entry G[i][j] with i < j
    is half the coefficient of x_i x_j, so that coefficient is 2 G[i][j].
    Only the projections and the toric census build the forms as
    polynomials, so `poly` is imported here, not by every pencil user."""
    from .poly import Poly

    m = len(vars_)
    two = field.from_int(2)
    terms: dict[tuple[int, ...], Any] = {}
    for i in range(m):
        for j in range(i, m):
            c = gram[i][j] if i == j else field.mul(two, gram[i][j])
            if not field.is_zero(c):
                exp = [0] * m
                exp[i] += 1
                exp[j] += 1
                terms[tuple(exp)] = c
    return Poly(field, vars_, terms)


def _gram_from_terms(field: Field, n: int, terms: Iterable[tuple[int, int, Any]], where: str) -> SymMatrix:
    """The Gram matrix of sum c x_i x_j over the terms (i, j, c); diagnostics
    name the offending term as `where[k]`."""
    m = n + 1
    g = [[field.zero] * m for _ in range(m)]
    seen: set[tuple[int, int]] = set()
    half = field.inv(field.from_int(2))
    for k, (i, j, raw) in enumerate(terms):
        spot = f"{where}[{k}]"
        if not 0 <= i <= j <= n:
            raise PrecondError(
                f"{spot}: monomial index ({i}, {j}) out of range, need 0 <= i <= j <= {n}"
            )
        if (i, j) in seen:
            raise PrecondError(f"{spot}: duplicate term ({i}, {j})")
        seen.add((i, j))
        c = parse_at(field, raw, spot)
        if i == j:
            g[i][i] = c
        else:
            g[i][j] = g[j][i] = field.mul(c, half)
    return SymMatrix.from_rows(g)


@record
class SmoothnessReport:
    smooth: bool
    # det(s0 G0 + s1 G1), or None when it vanishes identically
    discriminant: BinaryForm | None
    # gcd of each chart polynomial with its derivative (monic coeff tuples),
    # from `BinaryForm.chart_gcds`
    chart_main_gcd: tuple
    chart_other_gcd: tuple
    # over the rationals: the leading principal minors Δ_1..Δ_(n+1) of
    # L·(G0 + t G1), L > 0 clearing every denominator, as ascending int
    # coefficient lists from the elimination that gave the discriminant;
    # None over F_p, for a degenerate pencil, or when that elimination
    # swapped rows (some Δ_k vanishes identically)
    minors: tuple | None = None

    @property
    def degenerate(self) -> bool:
        return self.discriminant is None

    @property
    def degree(self) -> int:
        return -1 if self.discriminant is None else self.discriminant.degree

    @property
    def certificate(self) -> dict:
        return {
            "degree": self.degree,
            "degenerate": self.degenerate,
            "gcd_deg_chart_main": len(self.chart_main_gcd) - 1,
            "gcd_deg_chart_other": len(self.chart_other_gcd) - 1,
        }


def smoothness(p: Pencil) -> SmoothnessReport:
    """Decide smoothness of the base locus via the discriminant form.

    The base locus is smooth of dimension n-2 iff the discriminant form is
    nonzero of degree n+1 with no repeated projective root, i.e. both chart
    dehomogenizations have gcd 1 with their derivatives (`chart_gcds`);
    over the rationals each gcd is the last member of one primitive
    pseudo-remainder sequence, and nothing else of it is kept.
    """
    fld = p.field
    disc, minors = _discriminant_or_none(p, minors=True) if fld == QQ else (_discriminant_or_none(p), None)
    if disc is None:
        return SmoothnessReport(False, None, (fld.one,), (fld.one,))
    ga, gb = disc.chart_gcds()
    smooth = len(ga) == 1 and len(gb) == 1
    return SmoothnessReport(smooth, disc, tuple(ga), tuple(gb), minors)


def _point_on_locus(p: Pencil, x: Sequence[Any]) -> list[Any]:
    """x as n + 1 exact coordinates (each read by `parse_at`) of a point on
    both quadrics; anything else is refused."""
    fld = p.field
    if not isinstance(x, (list, tuple)) or len(x) != p.n + 1:
        raise PrecondError(f"need a projective point with {p.n + 1} coordinates")
    x = [parse_at(fld, c, f"point[{k}]") for k, c in enumerate(x)]
    if all(fld.is_zero(c) for c in x):
        raise PrecondError("not a projective point")
    if not (fld.is_zero(p.eval_form(0, x)) and fld.is_zero(p.eval_form(1, x))):
        raise PrecondError("point is not on the base locus")
    return x


def singular_at(p: Pencil, x: Sequence[Any]) -> bool:
    """Whether the point x of the base locus is a singular point of it.

    Singularity means the two gradients G0 x and G1 x are linearly dependent
    (the Jacobian has rank < 2).  x is read and refused as in
    `_point_on_locus`.
    """
    fld = p.field
    x = _point_on_locus(p, x)
    return dependent(fld, mat_vec(fld, p.g0.entries, x), mat_vec(fld, p.g1.entries, x))


def discriminant_cover(p: Pencil) -> BinaryForm:
    """The binary form under the hyperelliptic double cover y² = (this form).

    This is the *signed* discriminant (-1)^(m(m-1)/2) · det(s0 G0 + s1 G1)
    with m = n+1 variables, so for threefolds (m = 6) it is minus the plain
    determinant form.  The sign matters: it fixes the quadratic twist of the
    cover, and with the unsigned determinant the F_q point counts disagree
    with the line geometry whenever -1 is a non-square (q ≡ 3 mod 4).
    """
    return _signed_discriminant(p.discriminant_form(), p.n + 1)


def _signed_discriminant(form: BinaryForm, m: int) -> BinaryForm:
    """(-1)^(m(m-1)/2) times the determinant form of m-variable Grams."""
    if (m * (m - 1) // 2) % 2 == 0:
        return form
    fld = form.field
    return BinaryForm(fld, tuple(fld.neg(c) for c in form.coeffs))


def _require_prime(pencil: Pencil) -> int:
    if not isinstance(pencil.field, PrimeField):
        raise PrecondError("F_q geometry needs a prime-field pencil")
    return pencil.field.p


def is_smooth(p: Pencil) -> bool:
    return smoothness(p).smooth


# -- transforms --------------------------------------------------------


def pencil_congruent(p: Pencil, m_rows: Sequence[Sequence[Any]]) -> Pencil:
    """Change coordinates on P^n: Gram matrices become M^T G M."""
    return Pencil(
        p.field,
        p.n,
        congruent(p.field, p.g0, m_rows),
        congruent(p.field, p.g1, m_rows),
    )


def pencil_recombined(p: Pencil, a: Any, b: Any, c: Any, d: Any) -> Pencil:
    """Replace the spanning forms by (a Q0 + b Q1, c Q0 + d Q1); requires
    ad - bc != 0 so the pencil itself is unchanged."""
    fld = p.field
    if fld.is_zero(fld.sub(fld.mul(a, d), fld.mul(b, c))):
        raise PrecondError("recombination matrix is singular")
    g0 = p.member(a, b)
    g1 = p.member(c, d)
    return Pencil(fld, p.n, g0, g1)


def reduce_pencil(p: Pencil, q: int) -> Pencil:
    """The same pencil with coefficients reduced into F_q.

    Over a prime field the modulus must already match; over the rationals
    every Gram entry must have denominator prime to q.
    """
    if isinstance(p.field, PrimeField):
        if p.field.p != q:
            raise PrecondError(f"pencil lives over F_{p.field.p}, not F_{q}")
        return p
    fld = PrimeField(q)
    return Pencil(
        fld,
        p.n,
        SymMatrix.from_rows([[fld.parse(e) for e in row] for row in p.g0.entries]),
        SymMatrix.from_rows([[fld.parse(e) for e in row] for row in p.g1.entries]),
    )


# -- stock examples -----------------------------------------------------


def toric_pencil(field: Field = QQ) -> Pencil:
    """x0 x1 - x2 x3 = x2 x3 - x4 x5 = 0 in P^5."""
    one = field.one
    neg = field.neg(one)
    return Pencil.from_quadric_terms(
        field,
        5,
        [(0, 1, one), (2, 3, neg)],
        [(2, 3, one), (4, 5, neg)],
    )


def diagonal_pencil(field: Field, n: int) -> Pencil:
    """Q0 = sum x_i^2, Q1 = sum i * x_i^2; discriminant prod_i (s0 + i s1)."""
    g0 = SymMatrix.diagonal(field, [field.one] * (n + 1))
    g1 = SymMatrix.diagonal(field, [field.from_int(i) for i in range(n + 1)])
    return Pencil(field, n, g0, g1)
