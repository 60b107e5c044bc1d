"""Symmetric matrices: exact inertia over the rationals, and determinants of
symmetric matrices over F[t], both from one integer elimination.

The elimination is classical symmetric reduction, fraction-free over Z
after clearing denominators: a nonzero diagonal entry is the next pivot,
and the remaining block is the rational Schur complement times the
determinant of the pivots taken so far (exact division, as in Bareiss
elimination).  One pivot rule covers a zero diagonal: the integer
congruence x_i <- x_i + x_j, of determinant 1, makes the diagonal entry
2·u_ij from an entry u_ij != 0.  Every block is symmetric, so only its
upper triangle is built and divided.  The signs of the pivots give the
inertia.  The determinant of M(t) = sum_k M_k t^k over F[t], for F the
rationals or a prime field, is given by its coefficient matrices M_k and
taken over Z[t] by Kronecker substitution: with
B = prod_i sum_j sum_k |M_k[i][j]| bounding every coefficient of the
determinant, the upper triangles of the M_k are packed row by row into the
one integer matrix M(2^K), K = bitlength(B) + 1, whose elimination over Z
gives det M(2^K) as its last pivot, and its balanced base-2^K digits are the
coefficients.  Over the rationals all denominators are cleared first (when
every one is 1, the numerators are the integers); over F_p the
representatives are lifted to Z and the result is reduced mod p.  When
every pivot is taken in place, the pivots are the leading principal minors
at 2^K, decoded the same way on request (over the rationals, for Jacobi's
signature rule).  No eigenvalues, no floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Sequence

from .errors import InternalCheckError, PrecondError
from .fields import Field, PrimeField, Rationals
from .records import record


@record
class SymMatrix:
    """An immutable symmetric matrix of field elements or Polys."""

    entries: tuple[tuple[Any, ...], ...]

    def __post_init__(self) -> None:
        m = len(self.entries)
        for row in self.entries:
            if len(row) != m:
                raise PrecondError("symmetric matrix must be square")
        for i in range(m):
            for j in range(i):
                if self.entries[i][j] != self.entries[j][i]:
                    raise PrecondError(f"matrix not symmetric at ({i},{j})")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Any]]) -> "SymMatrix":
        return cls(tuple(tuple(r) for r in rows))

    @classmethod
    def diagonal(cls, field: Field, diag: Sequence[Any]) -> "SymMatrix":
        m = len(diag)
        return cls.from_rows(
            [[diag[i] if i == j else field.zero for j in range(m)] for i in range(m)]
        )

    @property
    def size(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> Any:
        return self.entries[ij[0]][ij[1]]

    def map(self, fn) -> "SymMatrix":
        return SymMatrix.from_rows([[fn(x) for x in row] for row in self.entries])

    def to_lists(self) -> list[list[Any]]:
        return [list(r) for r in self.entries]


def congruent(field: Field, g: SymMatrix, m_rows: Sequence[Sequence[Any]]) -> SymMatrix:
    """M^T G M for a (column-acting) change of coordinates given by rows of M."""
    from .linalg import mat_mul, transpose

    mt = transpose(m_rows)
    prod = mat_mul(field, mat_mul(field, mt, g.to_lists()), [list(r) for r in m_rows])
    return SymMatrix.from_rows(prod)


def inertia(g: SymMatrix) -> tuple[int, int, int]:
    """Exact (positive, negative, zero) inertia of a rational symmetric matrix
    (entries ints or Fractions), scaled to integers by the positive lcm of
    its denominators."""
    return _inertia_z(_integer_grams(g.entries)[0])


def _inertia_z(a: list[list[int]]) -> tuple[int, int, int]:
    """Inertia of an integer symmetric matrix, read off the pivots of
    `_eliminate`: D_k counts positive when D_k and D_(k-1) have the same
    sign (D_0 = 1), negative otherwise, and the zero block left counts zero.
    The input is read from its upper triangle alone."""
    pivots, zero, _ = _eliminate([row[k:] for k, row in enumerate(a)])
    pos = sum((d > 0) == (prev > 0) for prev, d in zip([1, *pivots], pivots))
    return pos, len(pivots) - pos, zero


def _eliminate(u: list[list[int]]) -> tuple[list[int], int, bool]:
    """Fraction-free symmetric elimination of the integer symmetric matrix
    whose upper triangle is `u` (row k holds the entries (k, k), (k, k + 1),
    ...); `u` is overwritten.

    Returns the pivots D_1, ..., D_r, the size of the zero block left, and
    whether every pivot was taken in place, in which case D_k is the leading
    principal minor of order k.  The remaining block is D·S, with S the
    rational Schur complement and D the determinant of the pivots taken so
    far (D = 1 at first), so every entry is a minor of the (congruent) input
    and each division is exact (Sylvester's identity; Bareiss, Math. Comp.
    22, 1968).  A pivot d at (0, 0) turns the block into (d·A - a·aᵀ)/D and
    D into d; by symmetry only the upper triangle is built, each entry
    divided as it is made.  A zero (0, 0) entry is replaced by `_bring_pivot`.
    Neither of its moves changes the determinant, so det = D_r when no zero
    block is left, and 0 otherwise.
    """
    pivots: list[int] = []
    leading, divisor = True, 1
    while u:
        if not u[0][0]:
            leading = False
            if not _bring_pivot(u):
                return pivots, len(u), False
        d = u[0][0]
        u = _schur(u, divisor, len(pivots))
        pivots.append(d)
        divisor = d
    return pivots, 0, leading


def _bring_pivot(u: list[list[int]]) -> bool:
    """Move a nonzero diagonal entry of the block with upper triangle `u` to
    (0, 0) by a symmetric permutation, or False when the block is zero.

    When the whole diagonal is zero, an entry u_ij ≠ 0 (i < j) makes one by
    the integer congruence x_i ← x_i + x_j, of determinant 1: row and column
    j are added to row and column i, whose diagonal entry becomes 2·u_ij.
    """
    m = len(u)
    i = next((i for i in range(m) if u[i][0]), None)
    if i is None:
        pair = next(((i, i + c) for i in range(m) for c in range(1, m - i) if u[i][c]), None)
        if pair is None:
            return False
        i, j = pair
        row_j = _full_row(u, j)
        for k in range(i):
            u[k][i - k] += row_j[k]
        u[i] = [x + y for x, y in zip(u[i], row_j[i:])]
        u[i][0] = 2 * u[i][j - i]
    if i:
        row_i = _full_row(u, i)
        del u[i]
        for k in range(i):
            del u[k][i - k]
        u.insert(0, [row_i[i], *row_i[:i], *row_i[i + 1:]])
    return True


def _full_row(u: list[list[int]], i: int) -> list[int]:
    """Row i of the symmetric matrix whose upper triangle is `u`."""
    return [u[k][i - k] for k in range(i)] + u[i]


def _schur(u: list[list[int]], divisor: int, step: int) -> list[list[int]]:
    """The upper triangle of (d·A - a·aᵀ)/divisor without its first row and
    column, for the block A with upper triangle `u`, d = A_00 and a the
    first row; the rows of `u` are rebuilt in place.  Each entry is divided
    as it is made, a remainder raises, and a divisor of 1 divides nothing."""
    top, rest = u[0], u[1:]
    d = top[0]
    if divisor == 1:
        for k, row in enumerate(rest, 1):
            a = top[k]
            row[:] = [d * x - a * y for x, y in zip(row, top[k:])]
        return rest
    for k, row in enumerate(rest, 1):
        a = top[k]
        for c, y in enumerate(top[k:]):
            row[c], r = divmod(d * row[c] - a * y, divisor)
            if r:
                raise InternalCheckError("exact elimination division", step=step, divisor=divisor, remainder=r)
    return rest


def _integer_grams(*grams: Sequence[Sequence[Any]]) -> list[list[list[int]]]:
    """The rational matrices `grams` (entries int or Fraction), each times the
    positive lcm of the denominators of all their entries, as int lists."""
    return _scaled_to_integers(grams)[0]


def _scaled_to_integers(blocks: Sequence[Sequence[Sequence[Any]]]) -> tuple[list[list[list[int]]], int]:
    """The rationals `blocks[b][i][j]` (ints or Fractions) times the
    positive lcm L of all their denominators, as nested int lists, and L.
    When every denominator is 1 the numerators are taken as they are."""
    scale = math.lcm(*[x.denominator for b in blocks for row in b for x in row])
    if scale == 1:
        return [[[x.numerator for x in row] for row in b] for b in blocks], 1
    return [[[x.numerator * (scale // x.denominator) for x in row] for row in b] for b in blocks], scale


def signature_pair(g: list[list[int]]) -> tuple[int, int]:
    """(positive, negative) inertia of an integer symmetric matrix given as
    its rows; degenerate input is rejected."""
    pos, negv, zero = _inertia_z(g)
    if zero:
        raise PrecondError("form is degenerate")
    return pos, negv


def det_poly(field: Field, coeffs: Sequence[SymMatrix], minors: bool = False):
    """Determinant of M(t) = sum_k M_k t^k over F[t], for F the rationals or
    a prime field, from its coefficient matrices `coeffs` = (M_0, ..., M_d),
    symmetric matrices of one size, as one integer symmetric elimination at
    t = 2^K.

    The result is an ascending coefficient list of field elements; a
    singular M(t) gives the zero polynomial ``[]``.  Over the rationals
    every entry is multiplied by the lcm L of all denominators and the
    integer determinant is divided by L^m; over F_p the representatives are
    lifted to balanced integers in (-p/2, p/2) and the integer determinant
    is reduced mod p.

    With `minors` (rationals only) the result is the pair of the determinant
    and the leading principal minors Δ_1, ..., Δ_m of L·M(t), a tuple of
    ascending int coefficient lists from the same elimination, or None in
    place of the minors when the determinant vanishes or the elimination
    took a pivot out of place (then some Δ_k vanishes identically).
    """
    m = coeffs[0].size if coeffs else 0
    if m == 0 or any(c.size != m for c in coeffs):
        raise PrecondError("determinant needs nonempty coefficient matrices of one size")
    if isinstance(field, Rationals):
        ints, scale = _scaled_to_integers([c.entries for c in coeffs])
        digits, deltas = _det_zt(ints, minors)
        den = scale**m
        det = [Fraction(c) for c in digits] if den == 1 else [Fraction(c, den) for c in digits]
        return (det, deltas) if minors else det
    if minors:
        raise PrecondError("leading minors are decoded over the rationals only")
    if isinstance(field, PrimeField):
        p, half = field.p, field.p // 2
        ints = [[[(x + half) % p - half for x in row] for row in c.entries] for c in coeffs]
        return _trim([c % p for c in _det_zt(ints)[0]])
    raise PrecondError(f"det_poly works over the rationals or a prime field, not {field!r}")


def _trim(c: list[int]) -> list[int]:
    while c and not c[-1]:
        c.pop()
    return c


def _det_zt(mats: list[list[list[int]]], minors: bool = False) -> tuple[list[int], tuple[list[int], ...] | None]:
    """Determinant of the symmetric M(t) = sum_k mats[k] t^k over Z[t] by
    Kronecker substitution, and with `minors` its leading principal minors
    Δ_1, ..., Δ_m.

    Every coefficient of the determinant is at most
    B = prod_i sum_j sum_k |M_k[i][j]| in absolute value (B bounds the
    permanent of the entries' 1-norms), so with K = bitlength(B) + 1 the
    integer determinant at t = 2^K holds them as balanced base-2^K digits.
    Row i of the upper triangle of M(2^K) is packed from the rows i of the
    M_k by Horner's rule in 2^K.  A nonzero determinant has no zero row, so
    B bounds every Δ_k as well, and the pivots of an elimination that took
    each pivot in place, Δ_k(2^K), are decoded alike.  Otherwise, or without
    `minors`, the minors are None: a zero row makes K = 1, too narrow for any
    nonzero digit.
    """
    m = len(mats[0])
    bound = math.prod(sum(abs(x) for mat in mats for x in mat[i]) for i in range(m))
    width = bound.bit_length() + 1
    upper = []
    for i in range(m):
        packed = mats[-1][i][i:]
        for mat in reversed(mats[:-1]):
            packed = [(v << width) + x for v, x in zip(packed, mat[i][i:])]
        upper.append(packed)
    pivots, zero, leading = _eliminate(upper)
    coeffs = [] if zero else _balanced_digits(pivots[-1], width)
    if not (minors and coeffs and leading):
        return coeffs, None
    return coeffs, tuple(_balanced_digits(v, width) for v in pivots)


def _balanced_digits(v: int, width: int) -> list[int]:
    """The balanced base-2^width digits of v, least significant first."""
    digits = []
    half, mask = 1 << (width - 1), (1 << width) - 1
    while v:
        digit = v & mask
        if digit >= half:
            digit -= 1 << width
        digits.append(digit)
        v = (v - digit) >> width
    return digits
