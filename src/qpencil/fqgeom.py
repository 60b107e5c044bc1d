"""Brute-force projective geometry over small prime fields.

Points and lines are enumerated by canonical representatives: a point scales
its first nonzero coordinate to 1, a line is the reduced row echelon form of
its 2x(n+1) basis matrix.  All bulk work is vectorized with numpy, and
results come out in a fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InternalCheckError, PrecondError
from .fields import PrimeField
from .linalg import rref
from .matrices import SymMatrix
from .pencil import Pencil, discriminant_cover, is_smooth

POINT_SCAN_LIMIT = 10**9
LINE_SCAN_LIMIT = 5 * 10**7
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
    if free == 0:
        return np.zeros((1, 0), dtype=np.int64)
    grid = np.indices((p,) * free, dtype=np.int64)
    return grid.reshape(free, -1).T


def _gram_array(g: SymMatrix, p: int) -> np.ndarray:
    return np.array([[int(x) % p for x in row] for row in g.entries], dtype=np.int64)


def quadric_values(points: np.ndarray, gram: np.ndarray, p: int) -> np.ndarray:
    return np.einsum("nk,kl,nl->n", points, gram, points) % p


def points_on_pencil(pencil: Pencil) -> np.ndarray:
    """Canonical representatives of the F_p points of the base locus."""
    p = _require_prime(pencil)
    pts = projective_points(p, pencil.n + 1)
    g0 = _gram_array(pencil.g0, p)
    g1 = _gram_array(pencil.g1, p)
    mask = (quadric_values(pts, g0, p) == 0) & (quadric_values(pts, g1, p) == 0)
    return pts[mask]


def count_points(pencil: Pencil) -> int:
    return int(points_on_pencil(pencil).shape[0])


def singular_points(pencil: Pencil) -> list[tuple[int, ...]]:
    """Points of the base locus where the 2x(n+1) Jacobian drops rank.

    The Jacobian rows are 2*G0*x and 2*G1*x; since char != 2 the factor 2 is
    irrelevant.  Rank < 2 means all 2x2 minors vanish.
    """
    p = _require_prime(pencil)
    pts = points_on_pencil(pencil)
    if pts.shape[0] == 0:
        return []
    g0 = _gram_array(pencil.g0, p)
    g1 = _gram_array(pencil.g1, p)
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


def _pivot_pairs(nvars: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(nvars) for j in range(i + 1, nvars)]


def _lines_for_pivots(
    p: int, nvars: int, i: int, j: int, grams: list[np.ndarray]
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All RREF line bases with pivot columns (i, j) on which every listed
    quadric vanishes identically."""
    gap = list(range(i + 1, j))
    tail = list(range(j + 1, nvars))
    nfree = len(gap) + 2 * len(tail)
    found: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    total = p ** nfree
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        idx = np.arange(start, stop, dtype=np.int64)
        free = np.empty((idx.shape[0], max(nfree, 1)), dtype=np.int64)
        rem = idx
        for col in range(nfree - 1, -1, -1):
            free[:, col] = rem % p
            rem = rem // p
        u = np.zeros((idx.shape[0], nvars), dtype=np.int64)
        v = np.zeros((idx.shape[0], nvars), dtype=np.int64)
        u[:, i] = 1
        v[:, j] = 1
        pos = 0
        for col in gap:
            u[:, col] = free[:, pos]
            pos += 1
        for col in tail:
            u[:, col] = free[:, pos]
            pos += 1
        for col in tail:
            v[:, col] = free[:, pos]
            pos += 1
        mask = np.ones(idx.shape[0], dtype=bool)
        for g in grams:
            qu = np.einsum("nk,kl,nl->n", u, g, u) % p
            qv = np.einsum("nk,kl,nl->n", v, g, v) % p
            buv = np.einsum("nk,kl,nl->n", u, g, v) % p
            mask &= (qu == 0) & (qv == 0) & (buv == 0)
            if not mask.any():
                break
        for a, b in zip(u[mask], v[mask]):
            found.append((tuple(int(x) for x in a), tuple(int(x) for x in b)))
    return found


def enumerate_lines_of_quadrics(
    p: int, nvars: int, grams: Iterable[SymMatrix]
) -> list[ProjLine]:
    """All lines of P^(nvars-1)(F_p) on which every given quadric vanishes."""
    gram_arrays = [_gram_array(g, p) for g in grams]
    pairs = _pivot_pairs(nvars)
    work = sum(p ** (2 * nvars - i - j - 3) for i, j in pairs)
    if work > LINE_SCAN_LIMIT:
        raise PrecondError(f"line scan of {work} candidates exceeds {LINE_SCAN_LIMIT}")
    return [
        ProjLine(p, rows)
        for i, j in pairs
        for rows in _lines_for_pivots(p, nvars, i, j, gram_arrays)
    ]


def enumerate_lines(pencil: Pencil) -> list[ProjLine]:
    """The F_p lines on the base locus of a pencil (a complete intersection).

    Rejects pencils whose two forms do not cut out a codimension-2 scheme
    (one form a multiple of the other, or zero).
    """
    p = _require_prime(pencil)
    if _proportional_grams(pencil):
        raise PrecondError("not a complete intersection: the two forms are proportional")
    return enumerate_lines_of_quadrics(p, pencil.n + 1, [pencil.g0, pencil.g1])


def _proportional_grams(pencil: Pencil) -> bool:
    fld = pencil.field
    flat0 = [x for row in pencil.g0.entries for x in row]
    flat1 = [x for row in pencil.g1.entries for x in row]
    if all(fld.is_zero(x) for x in flat0) or all(fld.is_zero(x) for x in flat1):
        return True
    i = next(k for k, x in enumerate(flat0) if not fld.is_zero(x))
    if fld.is_zero(flat1[i]):
        ratio = None
    else:
        ratio = fld.div(flat1[i], flat0[i])
    if ratio is None:
        return False
    return all(fld.eq(y, fld.mul(ratio, x)) for x, y in zip(flat0, flat1))


def count_lines(pencil: Pencil) -> int:
    return len(enumerate_lines(pencil))


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
    from .curvecounts import curve_data

    q = _require_prime(pencil)
    if pencil.n != 5:
        raise PrecondError("the torsor comparison needs a threefold pencil (n = 5)")
    if not is_smooth(pencil):
        raise PrecondError("the torsor comparison needs a smooth base locus")
    lines = enumerate_lines(pencil)
    cover = discriminant_cover(pencil)
    f = [int(c) for c in cover.chart_main()]
    data = curve_data(f, q)
    if len(lines) != data.jacobian_order:
        raise InternalCheckError(
            f"line count {len(lines)} differs from Jacobian order {data.jacobian_order}"
        )
    return TorsorReport(
        q=q,
        line_count=len(lines),
        jacobian_order=data.jacobian_order,
        curve_counts=(data.n1, data.n2),
        lpoly=data.lpoly,
    )
