"""Point counts and L-polynomials of genus-2 hyperelliptic curves y^2 = f(t).

For squarefree f of degree 5 or 6 over F_q (q an odd prime here), the counts
N1 = #C(F_q) and N2 = #C(F_{q^2}) of the smooth projective model determine
the numerator L(T) of the zeta function:

    L(T) = 1 + c1 T + c2 T^2 + q c1 T^3 + q^2 T^4.

The counts give the power sums p1 = q + 1 - N1 and p2 = q^2 + 1 - N2 of the
four reciprocal roots of L, and Newton's identities their elementary
symmetric functions e1 = p1 and e2 = (p1^2 - p2)/2, so c1 = -e1 and
c2 = e2.  The order of the Jacobian over F_q is L(1); the tests calibrate
it against a brute-force order from Mumford pairs on degree-5 models.  Both
counts use F_q arithmetic alone: N2 is read off the norms f(a) f(a') at
conjugate pairs of F_{q^2} (see `curve_counts`), so no extension field is
built.  `_genus2_cover` gives the counting data of the cover
y^2 = (signed discriminant)(1, t) of a smooth threefold pencil, for both
`zeta` and the torsor comparison; the pencil's smoothness report has proved
that cover squarefree of degree 5 or 6, so only an outside model is tested
for both (`_validate_model`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from . import univariate as uv
from .errors import InternalCheckError, PrecondError, check, within
from .fields import PrimeField, legendre
from .pencil import _require_prime, _signed_discriminant, smoothness
from .records import record

if TYPE_CHECKING:
    from .pencil import Pencil

# N2 takes about q^2/2 resultants: 0.2 s at q = 307, and 2.4 s at q = 997,
# the largest prime within the bound (2-core Intel Xeon, CPython 3.11.7)
CURVE_Q_LIMIT = 1000


@record
class CurveData:
    """Counting data of y^2 = f(t) over F_q."""

    q: int
    f: tuple[int, ...]
    n1: int
    n2: int
    lpoly: tuple[int, int, int, int, int]  # ascending coefficients of L(T)

    @property
    def jacobian_order(self) -> int:
        return sum(self.lpoly)


def _validate_model(field: PrimeField, f: Sequence[int]) -> list[int]:
    coeffs = uv.trim(field, [field.from_int(c) for c in f])
    deg = len(coeffs) - 1
    if deg not in (5, 6):
        raise PrecondError(f"need deg f in (5, 6), got {deg}")
    if not uv.is_squarefree(field, coeffs):
        raise PrecondError("f must be squarefree")
    return coeffs


def curve_counts(f: Sequence[int], q: int) -> tuple[int, int]:
    """(N1, N2) for y^2 = f(t): point counts over F_q and F_{q^2}.

    Both come from F_q arithmetic alone, with chi the Legendre symbol mod q.
    Over F_q, each t gives 1 + chi(f(t)) points.  Over F_{q^2}, each t in
    F_q gives 2 points (every element of F_q is a square in F_{q^2}), or 1
    where f(t) = 0.  The other t pair up as the conjugate roots a, a' of the
    monic irreducible quadratics u = t^2 + b t + e, those with
    chi(b^2 - 4e) = -1.  The quadratic character of F_{q^2} is chi of the
    norm, and N(f(a)) = f(a) f(a') = Res(u, f), so the pair gives
    2 (1 + chi(Res(u, f))) points; with f = r1 t + r0 mod u, the resultant is
    r0^2 - b r0 r1 + e r1^2.  Above t = infinity lie 1 point for a quintic,
    and for a sextic 1 + chi(lead) over F_q and 2 over F_{q^2}.
    """
    within("q of the curve counts", q, CURVE_Q_LIMIT=CURVE_Q_LIMIT)
    field = PrimeField(q)
    return _counts(field, _validate_model(field, f))


def _counts(field: PrimeField, coeffs: Sequence[int]) -> tuple[int, int]:
    """(N1, N2) as in `curve_counts`, for a model already known to be
    squarefree of degree 5 or 6, given by its trimmed coefficients mod q."""
    q = field.p
    values = [uv.evaluate(field, coeffs, t) for t in range(q)]
    quintic = len(coeffs) == 6
    n1 = q + sum(legendre(v, q) for v in values) + (1 if quintic else 1 + legendre(coeffs[-1], q))
    n2 = 2 * q - values.count(0) + (1 if quintic else 2)
    for b in range(q):
        for e in range(q):
            if legendre(b * b - 4 * e, q) != -1:
                continue
            r1 = r0 = 0
            for c in reversed(coeffs):  # (r1 t + r0) t + c, with t^2 = -b t - e
                r1, r0 = (r0 - b * r1) % q, (c - e * r1) % q
            n2 += 2 * (1 + legendre(r0 * r0 - b * r0 * r1 + e * r1 * r1, q))
    return n1, n2


def lpolynomial(n1: int, n2: int, q: int) -> tuple[int, int, int, int, int]:
    """L(T) of a genus-2 curve from its first two point counts."""
    p1 = q + 1 - n1
    p2 = q * q + 1 - n2
    if (p1 * p1 - p2) % 2:
        raise InternalCheckError("power-sum parity p1² ≡ p2 (mod 2)", p1=p1, p2=p2)
    e1 = p1
    e2 = (p1 * p1 - p2) // 2
    return (1, -e1, e2, -q * e1, q * q)


def weil_check(lpoly: Sequence[int], q: int) -> None:
    """Exact integer sanity checks on L: functional-equation symmetry and the
    Weil bound |L(1) - (q+1)^2| <= 4 sqrt(q) (q+1), squared to stay in Z."""
    _, c1, c2, _, _ = lpoly
    check("functional equation L(T) = q²T⁴·L(1/(qT))", lpoly=tuple(lpoly), expected=(1, c1, c2, q * c1, q * q))
    l1 = sum(lpoly)
    if l1 <= 0:
        raise InternalCheckError("Jacobian order L(1) > 0", l1=l1)
    gap = l1 - (q + 1) ** 2
    if gap * gap > 16 * q * (q + 1) ** 2:
        raise InternalCheckError("Weil bound (L(1) - (q+1)²)² <= 16q(q+1)²", l1=l1, q=q)
    # per-coefficient Weil bounds: |c1| <= 4 sqrt(q), |c2| <= 6q ... the c2
    # bound below is the crude |e2| <= C(4,2) q
    if c1 * c1 > 16 * q:
        raise InternalCheckError("Weil bound c1² <= 16q", c1=c1, q=q)
    if abs(c2) > 6 * q:
        raise InternalCheckError("Weil bound |c2| <= 6q", c2=c2, q=q)


def curve_data(f: Sequence[int], q: int) -> CurveData:
    return _curve_data(f, q, curve_counts(f, q))


def _curve_data(f: Sequence[int], q: int, counts: tuple[int, int]) -> CurveData:
    n1, n2 = counts
    lp = lpolynomial(n1, n2, q)
    weil_check(lp, q)
    return CurveData(q, tuple(c % q for c in f), n1, n2, lp)


def _genus2_cover(pencil: Pencil, what: str) -> CurveData:
    """Counting data of the genus-2 cover y² = c(t) of a smooth threefold
    pencil over F_q, where c = (signed discriminant)(1, t); `what` names the
    caller in the precondition errors.  Smoothness makes the sextic form
    squarefree, so c is squarefree of degree 6, or 5 when (0:1) is a root,
    and is counted without `_validate_model`."""
    q = _require_prime(pencil)
    if pencil.n != 5:
        raise PrecondError(f"{what} needs a threefold pencil (n = 5)")
    rep = smoothness(pencil)
    if not rep.smooth:
        raise PrecondError(f"{what} needs a smooth base locus")
    cover = _signed_discriminant(rep.discriminant, pencil.n + 1).chart_main()
    within("q of the curve counts", q, CURVE_Q_LIMIT=CURVE_Q_LIMIT)
    return _curve_data(cover, q, _counts(pencil.field, cover))
