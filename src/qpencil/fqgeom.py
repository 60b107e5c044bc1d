"""Projective geometry of a pencil of quadrics over prime fields.

Point counts and singular points come from the q + 1 members
a G0 + b G1 of the pencil, [a:b] in P^1(F_q): a character sum over the
members gives #X(F_q), and the singular points lie in the kernels of the
singular members, so only the F_q-roots of the discriminant need linear
algebra.  Lines still come from a scan of P^n(F_q): points are enumerated by
canonical representatives, scaled so that the first nonzero coordinate is 1,
and one scan of them finds the common zeros of the quadrics.  Lines are read
off pairs of common zeros and stored by the reduced row echelon form of their
2x(n+1) basis matrix.  The scans are vectorized with numpy, imported on
first use, and results come out in a fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .curvecounts import CurveData, curve_data
from .errors import InternalCheckError, PrecondError
from .fields import PrimeField, legendre
from .linalg import nullspace, rref
from .matrices import SymMatrix
from .pencil import Pencil, _discriminant_or_none, _independent, _signed_discriminant, smoothness

if TYPE_CHECKING:
    import numpy as np

POINT_SCAN_LIMIT = 10**9
# q + 1 members of the pencil, each one Horner evaluation of D and one
# Legendre symbol (about 2 s of plain Python at the bound)
MEMBER_LIMIT = 10**6
# (q + 1) m^3 for a pencil whose D vanishes identically, where each of the
# q + 1 members of size m is eliminated (about 2 s at the bound for m = 6)
ELIMINATION_LIMIT = 4 * 10**6
_CHUNK = 1 << 19


def gaussian_binomial(m: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^m."""
    if k < 0 or k > m:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def projective_point_count(q: int, dim: int) -> int:
    return (q ** (dim + 1) - 1) // (q - 1)


def projective_points(p: int, nvars: int) -> np.ndarray:
    """All points of P^(nvars-1)(F_p), first nonzero coordinate 1, as an
    (N, nvars) int64 array in a fixed order."""
    import numpy as np

    if p ** nvars > POINT_SCAN_LIMIT:
        raise PrecondError(f"point scan {p}^{nvars} exceeds {POINT_SCAN_LIMIT}")
    blocks = []
    for lead in range(nvars):
        free = nvars - lead - 1
        tail = _free_grid(p, free)
        block = np.zeros((tail.shape[0], nvars), dtype=np.int64)
        block[:, lead] = 1
        if free:
            block[:, lead + 1:] = tail
        blocks.append(block)
    return np.concatenate(blocks, axis=0)


def _free_grid(p: int, free: int) -> np.ndarray:
    """All tuples in range(p)^free as an (p^free, free) array, lexicographic."""
    import numpy as np

    if free == 0:
        return np.zeros((1, 0), dtype=np.int64)
    grid = np.indices((p,) * free, dtype=np.int64)
    return grid.reshape(free, -1).T


def _gram_array(g: SymMatrix, p: int) -> np.ndarray:
    import numpy as np

    return np.array([[int(x) % p for x in row] for row in g.entries], dtype=np.int64)


def _quadric_values(pts: np.ndarray, g: np.ndarray, p: int) -> np.ndarray:
    """x^T G x mod p for each row x of `pts`."""
    return ((pts @ g) * pts).sum(axis=1) % p


def _common_zeros(p: int, nvars: int, grams: Sequence[np.ndarray]) -> np.ndarray:
    """The points of `projective_points(p, nvars)` on which every quadric
    with a Gram matrix in `grams` vanishes."""
    import numpy as np

    pts = projective_points(p, nvars)
    mask = np.ones(pts.shape[0], dtype=bool)
    for g in grams:
        mask &= _quadric_values(pts, g, p) == 0
    return pts[mask]


def points_on_pencil(pencil: Pencil) -> np.ndarray:
    """Canonical representatives of the F_p points of the base locus."""
    p = _require_prime(pencil)
    return _common_zeros(p, pencil.n + 1, [_gram_array(g, p) for g in (pencil.g0, pencil.g1)])


# ----------------------------------------------------------------------
# points and singular points from the members of the pencil
# ----------------------------------------------------------------------


def count_points(pencil: Pencil) -> int:
    """#X(F_q) from the q + 1 members M = a G0 + b G1, [a:b] in P^1(F_q).

    With m = n + 1 variables and an additive character psi, summing
    psi(a Q0(x) + b Q1(x)) over x in F_q^m and (a, b) in F_q^2 gives
    q^2 N_aff = q^m + (q - 1) sum_M S(M), N_aff = #{x : Q0(x) = Q1(x) = 0}
    (Weil; Lidl-Niederreiter, *Finite Fields*, 6.2).  A member of rank r
    whose congruence diagonalization has nonzero pivots of product delta has
    S(M) = q^(m - r/2) chi((-1)^(r/2) delta) for even r (q^m for r = 0) and
    S(M) = 0 for odd r.  A member off the roots of D = det(s0 G0 + s1 G1)
    has r = m and delta = D(a, b), so only the roots are diagonalized; when
    D vanishes identically, every member is.  Then #X = (N_aff - 1)/(q - 1).
    """
    p = _require_members(pencil)
    m = pencil.n + 1
    sign = (-1) ** (m // 2)
    chi_sum = rank_deficient = 0
    for a, b, d in _member_values(pencil):
        if d:
            if m % 2 == 0:
                chi_sum += legendre(sign * d, p)
            continue
        r, delta = _rank_and_delta(pencil.member(a, b).to_lists(), p)
        if r % 2 == 0:
            rank_deficient += p ** (m - r // 2) * legendre((-1) ** (r // 2) * delta, p)
    total = p**m + (p - 1) * (p ** (m // 2) * chi_sum + rank_deficient)
    n_aff = _exact_quotient(total, p * p, "q^2 N_aff = q^m + (q - 1) sum S(M)", "q^m + (q - 1) sum S(M)")
    return _exact_quotient(n_aff - 1, p - 1, "#X = (N_aff - 1)/(q - 1)", "N_aff - 1")


def singular_points(pencil: Pencil) -> list[tuple[int, ...]]:
    """Points of the base locus where the 2x(n+1) Jacobian drops rank.

    The Jacobian rows are 2 G0 x and 2 G1 x, dependent exactly when
    (a G0 + b G1) x = 0 for some [a:b], which is then a root of
    D = det(s0 G0 + s1 G1) (Reid, *The complete intersection of two or more
    quadrics*, ch. 2).  So Sing(X)(F_q) is the union, over the F_q-roots of
    D (every member when D vanishes identically), of P(ker M)(F_q) on X.
    The points come out in `projective_points` order: by the index of the
    first nonzero coordinate, then by the point.
    """
    p = _require_members(pencil)
    field = pencil.field
    kernels = [
        rref(field, nullspace(field, pencil.member(a, b).to_lists()))[0]
        for a, b, d in _member_values(pencil)
        if not d
    ]
    visited = sum(projective_point_count(p, len(basis) - 1) for basis in kernels)
    if visited > POINT_SCAN_LIMIT:
        raise PrecondError(
            f"singular members' kernels hold {visited} points, over POINT_SCAN_LIMIT = {POINT_SCAN_LIMIT}"
        )
    found: set[tuple[int, ...]] = set()
    for basis in kernels:
        # a one-point kernel is tested in plain Python, so that smooth
        # pencils never load numpy
        if len(basis) == 1:
            x = basis[0]
            if not pencil.eval_form(0, x) and not pencil.eval_form(1, x):
                found.add(tuple(x))
        else:
            found.update(_kernel_zeros(pencil, basis))
    return sorted(found, key=lambda x: (next(i for i, c in enumerate(x) if c), x))


def _require_members(pencil: Pencil) -> int:
    """p, once the p + 1 members are within MEMBER_LIMIT."""
    p = _require_prime(pencil)
    if p + 1 > MEMBER_LIMIT:
        raise PrecondError(f"the {p + 1} members of a pencil over F_{p} exceed MEMBER_LIMIT = {MEMBER_LIMIT}")
    return p


def _member_values(pencil: Pencil) -> Iterator[tuple[int, int, int]]:
    """(a, b, D(a, b) mod p) for [a:b] = [1:0], ..., [1:p-1], then [0:1],
    with D = det(s0 G0 + s1 G1) taken once and evaluated by Horner.  When D
    vanishes identically every member is eliminated, within ELIMINATION_LIMIT."""
    p = pencil.field.p
    disc = _discriminant_or_none(pencil)
    if disc is None:
        work = (p + 1) * (pencil.n + 1) ** 3
        if work > ELIMINATION_LIMIT:
            raise PrecondError(
                f"D vanishes identically, and eliminating the {p + 1} members over F_{p} "
                f"takes (q + 1) m^3 = {work}, over ELIMINATION_LIMIT = {ELIMINATION_LIMIT}"
            )
        coeffs: tuple[int, ...] = (0,)
    else:
        coeffs = disc.coeffs
    descending = coeffs[::-1]  # D(1, t) = sum_i c_i t^i
    for t in range(p):
        v = 0
        for c in descending:
            v = (v * t + c) % p
        yield 1, t, v
    yield 0, 1, coeffs[-1]


def _rank_and_delta(rows: list[list[int]], p: int) -> tuple[int, int]:
    """Rank r of a symmetric matrix mod p and the product delta of the
    nonzero pivots of a congruence diagonalization.  A block with zero
    diagonal and a nonzero entry at (i, j) is first changed by x_i -> x_i + x_j,
    which puts 2 a_ij != 0 at (i, i)."""
    a, r, delta = rows, 0, 1
    while a:
        m = len(a)
        piv = next((i for i in range(m) if a[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in range(m) for j in range(i + 1, m) if a[i][j]), None)
            if pair is None:
                break
            piv, j = pair
            a[piv] = [(x + y) % p for x, y in zip(a[piv], a[j])]
            for row in a:
                row[piv] = (row[piv] + row[j]) % p
        d, prow = a[piv][piv], a[piv]
        inv = pow(d, p - 2, p)
        rest = [k for k in range(m) if k != piv]
        a = [[(a[k][l] - a[k][piv] * inv * prow[l]) % p for l in rest] for k in rest]
        r, delta = r + 1, delta * d % p
    return r, delta


def _kernel_zeros(pencil: Pencil, basis: list[list[int]]) -> Iterator[tuple[int, ...]]:
    """The points of P(span basis)(F_p) on both quadrics.  `basis` is in
    reduced row echelon form, so each combination whose first nonzero
    coefficient is 1 is a canonical point."""
    import numpy as np

    p = pencil.field.p
    pts = projective_points(p, len(basis)) @ np.array(basis, dtype=np.int64) % p
    mask = np.ones(pts.shape[0], dtype=bool)
    for g in (pencil.g0, pencil.g1):
        mask &= _quadric_values(pts, _gram_array(g, p), p) == 0
    return map(tuple, pts[mask].tolist())


def _exact_quotient(num: int, den: int, identity: str, what: str) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise InternalCheckError(f"{identity}: {what} = {num} is not divisible by {den} (remainder {rem})")
    return q


def _require_prime(pencil: Pencil) -> int:
    if not isinstance(pencil.field, PrimeField):
        raise PrecondError("F_q geometry needs a prime-field pencil")
    return pencil.field.p


# ----------------------------------------------------------------------
# lines
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ProjLine:
    """A line in P^n(F_p), stored by the RREF basis of its row span."""

    p: int
    rows: tuple[tuple[int, ...], tuple[int, ...]]

    @classmethod
    def from_span(cls, p: int, u: Sequence[int], v: Sequence[int]) -> "ProjLine":
        field = PrimeField(p)
        red, pivots = rref(field, [list(u), list(v)])
        if len(pivots) != 2:
            raise PrecondError("vectors do not span a line")
        return cls(p, (tuple(red[0]), tuple(red[1])))

    def points(self) -> list[tuple[int, ...]]:
        """The q+1 projective points on the line, canonically normalized."""
        p = self.p
        u, v = self.rows
        reps = [v] + [tuple((a + t * b) % p for a, b in zip(u, v)) for t in range(p)]
        out = []
        for rep in reps:
            lead = next(i for i, c in enumerate(rep) if c)
            inv = pow(rep[lead], p - 2, p)
            out.append(tuple((c * inv) % p for c in rep))
        return sorted(out)


def enumerate_lines_of_quadrics(
    p: int, nvars: int, grams: Iterable[SymMatrix]
) -> list[ProjLine]:
    """All lines of P^(nvars-1)(F_p) on which every given quadric vanishes.

    Since char != 2, Q(ax + by) = a^2 Q(x) + 2ab x^T G y + b^2 Q(y), so two
    distinct common zeros x, y span such a line exactly when x^T G y = 0 for
    every Gram matrix G.  Both rows of a line's RREF basis are canonical
    points, so each line is found once, as the pair (x, y) with
    lead(x) < lead(y) and x[lead(y)] = 0, where lead is the index of the
    first nonzero coordinate.  Pairs are tested in blocks of rows, never as
    one N x N array.  Lines come out sorted by pivot columns, then by rows.
    """
    import numpy as np

    gram_arrays = [_gram_array(g, p) for g in grams]
    pts = _common_zeros(p, nvars, gram_arrays)
    lead = (pts != 0).argmax(axis=1)
    step = max(1, _CHUNK // max(pts.shape[0], 1))
    found: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for start in range(0, pts.shape[0], step):
        block = pts[start:start + step]
        later = np.searchsorted(lead, lead[start], side="right")  # pts are sorted by lead
        rest, rest_lead = pts[later:], lead[later:]
        mask = (rest_lead[None, :] > lead[start:start + step, None]) & (block[:, rest_lead] == 0)
        for g in gram_arrays:
            mask &= ((block @ g) % p) @ rest.T % p == 0
        a, b = np.nonzero(mask)
        found += zip(map(tuple, block[a].tolist()), map(tuple, rest[b].tolist()))
    found.sort(key=lambda rows: (rows[0].index(1), rows[1].index(1), rows))
    return [ProjLine(p, rows) for rows in found]


def enumerate_lines(pencil: Pencil) -> list[ProjLine]:
    """The F_p lines on the base locus of a pencil (a complete intersection).

    Rejects pencils whose two forms do not cut out a codimension-2 scheme
    (one form a multiple of the other, or zero).
    """
    p = _require_prime(pencil)
    if not _independent(pencil.field, pencil.g0, pencil.g1):
        raise PrecondError("not a complete intersection: the two forms are proportional")
    return enumerate_lines_of_quadrics(p, pencil.n + 1, [pencil.g0, pencil.g1])


@dataclass(frozen=True)
class TorsorReport:
    """Two independent computations of one cardinality: lines on the base
    locus by exhaustive enumeration, and the order of the Jacobian of the
    genus-2 cover y² = signed discriminant sextic from point counts."""

    q: int
    line_count: int
    jacobian_order: int
    curve_counts: tuple[int, int]
    lpoly: tuple[int, int, int, int, int]

    @property
    def consistent(self) -> bool:
        return self.line_count == self.jacobian_order


def torsor_check(pencil: Pencil) -> TorsorReport:
    """Assert #lines(X)(F_q) == |Jac(C)(F_q)| and report both sides.

    The surface of lines on a smooth threefold base locus X is a torsor
    under the Jacobian of the hyperelliptic curve C: y² = signed
    discriminant, and torsors over finite fields are trivial, so the two
    cardinalities must agree.  Lines are enumerated one by one; the Jacobian
    order comes from the zeta function of C, so the routes are independent.
    """
    data = _genus2_cover(pencil, "the torsor comparison")
    lines = enumerate_lines(pencil)
    if len(lines) != data.jacobian_order:
        raise InternalCheckError(
            f"line count {len(lines)} differs from Jacobian order {data.jacobian_order}"
        )
    return TorsorReport(
        q=data.q,
        line_count=len(lines),
        jacobian_order=data.jacobian_order,
        curve_counts=(data.n1, data.n2),
        lpoly=data.lpoly,
    )


def _genus2_cover(pencil: Pencil, what: str) -> CurveData:
    """Counting data of the genus-2 cover y² = c(t) of a smooth threefold
    pencil over F_q, where c = (signed discriminant)(1, t); `what` names the
    caller in the precondition errors."""
    q = _require_prime(pencil)
    if pencil.n != 5:
        raise PrecondError(f"{what} needs a threefold pencil (n = 5)")
    rep = smoothness(pencil)
    if not rep.smooth:
        raise PrecondError(f"{what} needs a smooth base locus")
    cover = _signed_discriminant(rep.discriminant, pencil.n + 1)
    return curve_data([int(c) for c in cover.chart_main()], q)
