"""Brute-force projective geometry over small prime fields.

Points are enumerated by canonical representatives, scaled so that the
first nonzero coordinate is 1; one scan of them finds the common zeros of the
quadrics.  Lines are read off pairs of common zeros and stored by the reduced
row echelon form of their 2x(n+1) basis matrix.  All bulk work is vectorized
with numpy, imported on first use, and results come out in a fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .curvecounts import CurveData, curve_data
from .errors import InternalCheckError, PrecondError
from .fields import PrimeField
from .linalg import rref
from .matrices import SymMatrix
from .pencil import Pencil, _independent, _signed_discriminant, smoothness

if TYPE_CHECKING:
    import numpy as np

POINT_SCAN_LIMIT = 10**9
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


def count_points(pencil: Pencil) -> int:
    return int(points_on_pencil(pencil).shape[0])


def singular_points(pencil: Pencil) -> list[tuple[int, ...]]:
    """Points of the base locus where the 2x(n+1) Jacobian drops rank.

    The Jacobian rows are 2*G0*x and 2*G1*x; since char != 2 the factor 2 is
    irrelevant.  Rank < 2 means all 2x2 minors vanish.
    """
    p = _require_prime(pencil)
    g0, g1 = (_gram_array(g, p) for g in (pencil.g0, pencil.g1))
    pts = _common_zeros(p, pencil.n + 1, [g0, g1])
    if pts.shape[0] == 0:
        return []
    u = (pts @ g0) % p
    v = (pts @ g1) % p
    minors = (u[:, :, None] * v[:, None, :] - u[:, None, :] * v[:, :, None]) % p
    sing = (minors == 0).all(axis=(1, 2))
    return [tuple(int(c) for c in row) for row in pts[sing]]


def _require_prime(pencil: Pencil) -> int:
    if not isinstance(pencil.field, PrimeField):
        raise PrecondError("this scan needs a prime-field pencil")
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

    @property
    def nvars(self) -> int:
        return len(self.rows[0])

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

    def zero_coordinates(self) -> frozenset[int]:
        """Indices j with x_j = 0 identically on the line."""
        return frozenset(
            j for j in range(self.nvars) if self.rows[0][j] == 0 and self.rows[1][j] == 0
        )


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
