"""Symmetric matrices: exact inertia over the rationals, and determinants of
square matrices over F[t].

The inertia routine is classical symmetric reduction, fraction-free over Z
after clearing denominators: split off one square at a time at a nonzero
diagonal entry, or a hyperbolic pair when the whole remaining diagonal
vanishes, each remaining block being the rational one times the determinant
of the pivots taken so far (exact division, as in Bareiss elimination).
Every block is symmetric, so only its upper triangle is built and divided.
The determinant over F[t], for F the rationals or a prime field, is taken
over Z[t] by Kronecker substitution: with B = prod_i sum_j |e_ij|_1
bounding every coefficient of the determinant, each entry is evaluated at
t = 2^K, K = bitlength(B) + 1, one fraction-free (Bareiss) elimination
over Z gives the determinant at 2^K, and its balanced base-2^K digits are
the coefficients.  Over the rationals all denominators are cleared first
(when every one is 1, the numerators are the integers);
over F_p the representatives are lifted to Z and the result is reduced
mod p.  When the elimination swaps no rows, its pivots are the leading
principal minors at 2^K, decoded the same way on request (over the
rationals, for Jacobi's signature rule).  No eigenvalues, no floats.
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
    """An immutable symmetric matrix; entries are field elements or Polys."""

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
    """Inertia of an integer symmetric matrix by symmetric elimination.

    The remaining block is D·S, with S the rational Schur complement and D
    (`minor`) the determinant of the pivots taken so far, D = 1 at first, so
    every entry is a minor of the input and each division is exact
    (Sylvester's identity; Bareiss, Math. Comp. 22, 1968).  A nonzero
    diagonal entry d counts with the sign of d·D; the block becomes
    (d·A - a·aᵀ)/D and D becomes d.  When the whole diagonal is zero, an
    entry d at (i, j) splits off a hyperbolic pair (+1, -1); the block
    becomes -d·(d·A - a_i·a_jᵀ - a_j·a_iᵀ)/D² and D becomes -d²/D.

    Every block is symmetric, so only its upper triangle is built, each
    entry divided as it is made: row k of `u` holds the entries (k, k),
    (k, k + 1), ... of the block, and the input is read from its upper
    triangle alone.
    """
    u = [row[k:] for k, row in enumerate(a)]
    pos = neg = step = 0
    minor = 1
    while u:
        m = len(u)
        piv = next((i for i in range(m) if u[i][0]), None)
        if piv is not None:
            p = _full_row(u, piv)
            d = p[piv]
            pos, neg = (pos + 1, neg) if (d > 0) == (minor > 0) else (pos, neg + 1)
            upper = []
            for k in range(m):
                if k != piv:
                    row = _exact_row(d, u[k], p[k], p[k:], minor, step, "diagonal pivot")
                    if k < piv:
                        del row[piv - k]
                    upper.append(row)
            u, minor = upper, d
        else:
            pair = next(((i, i + j) for i in range(m) for j in range(1, m - i) if u[i][j]), None)
            if pair is None:
                return pos, neg, m
            i, j = pair
            ri, rj = _full_row(u, i), _full_row(u, j)
            d = ri[j]
            pos, neg = pos + 1, neg + 1
            upper, square = [], minor * minor
            for k in range(m):
                if k != i and k != j:
                    ik, jk = ri[k], rj[k]
                    # -d·inner/D², as the row (-d·inner - 0·inner)/D²
                    inner = [d * x - ik * yj - jk * yi for x, yi, yj in zip(u[k], ri[k:], rj[k:])]
                    row = _exact_row(-d, inner, 0, inner, square, step, "hyperbolic pair")
                    for c in (j, i):
                        if k < c:
                            del row[c - k]
                    upper.append(row)
            # D becomes -d²/D, the one-entry row (0·0 - d·d)/D
            u, minor = upper, _exact_row(0, (0,), d, (d,), minor, step, "hyperbolic pair")[0]
        step += 1
    return pos, neg, 0


def _full_row(u: list[list[int]], i: int) -> list[int]:
    """Row i of the symmetric matrix whose upper triangle is `u`."""
    return [u[k][i - k] for k in range(i)] + u[i]


def _exact_row(d: int, x: Sequence[int], c: int, y: Sequence[int], divisor: int, step: int, kind: str) -> list[int]:
    """The row (d·x - c·y)/divisor for integer rows x and y, each entry
    divided as it is made, so a block row is updated and divided in one
    pass; a remainder raises, and a divisor of 1 divides nothing."""
    if divisor == 1:
        return [d * a - c * b for a, b in zip(x, y)]
    out = []
    for a, b in zip(x, y):
        q, r = divmod(d * a - c * b, divisor)
        if r:
            raise InternalCheckError("exact inertia division", step=step, kind=kind, divisor=divisor, remainder=r)
        out.append(q)
    return out


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


def det_poly(field: Field, rows: Sequence[Sequence[Sequence[Any]]], minors: bool = False):
    """Determinant of a square matrix over F[t], for F the rationals or a
    prime field, as one integer Bareiss elimination at t = 2^K.

    Entries and result are ascending coefficient lists of field elements; a
    singular matrix gives the zero polynomial ``[]``.  Over the rationals
    every entry is multiplied by the lcm L of all coefficient denominators
    and the integer determinant is divided by L^m; over F_p the
    representatives are lifted to balanced integers in (-p/2, p/2) and the
    integer determinant is reduced mod p.

    With `minors` (rationals only) the result is the pair of the determinant
    and the leading principal minors Δ_1, ..., Δ_m of L times the matrix, a
    tuple of ascending int coefficient lists from the same elimination, or
    None in place of the minors when the determinant vanishes or the
    elimination swapped rows (then some Δ_k vanishes identically).
    """
    m = len(rows)
    if m == 0 or any(len(row) != m for row in rows):
        raise PrecondError("determinant needs a nonempty square matrix")
    if isinstance(field, Rationals):
        ints, scale = _scaled_to_integers(rows)
        coeffs, deltas = _det_zt(ints, minors)
        den = scale**m
        det = [Fraction(c) for c in coeffs] if den == 1 else [Fraction(c, den) for c in coeffs]
        return (det, deltas) if minors else det
    if minors:
        raise PrecondError("leading minors are decoded over the rationals only")
    if isinstance(field, PrimeField):
        p, half = field.p, field.p // 2
        ints = [[[(c + half) % p - half for c in e] for e in row] for row in rows]
        return _trim([c % p for c in _det_zt(ints)[0]])
    raise PrecondError(f"det_poly works over the rationals or a prime field, not {field!r}")


def _trim(c: list[int]) -> list[int]:
    while c and not c[-1]:
        c.pop()
    return c


def _det_zt(rows: list[list[list[int]]], minors: bool = False) -> tuple[list[int], tuple[list[int], ...] | None]:
    """Determinant of a square matrix over Z[t] by Kronecker substitution,
    and with `minors` its leading principal minors Δ_1, ..., Δ_m.

    Every coefficient of the determinant is at most
    B = prod_i sum_j |e_ij|_1 in absolute value (B bounds the permanent of
    the entries' 1-norms), so with K = bitlength(B) + 1 the integer
    determinant at t = 2^K holds them as balanced base-2^K digits.  A
    nonzero determinant has no zero row, so B bounds every Δ_k as well, and
    the pivots of an elimination without row swaps, Δ_k(2^K), are decoded
    alike.  Otherwise, or without `minors`, the minors are None: a zero row
    makes K = 1, too narrow for any nonzero digit.
    """
    bound = math.prod(sum(abs(c) for e in row for c in e) for row in rows)
    width = bound.bit_length() + 1
    packed = []
    for row in rows:
        out = []
        for e in row:
            v = 0
            for c in reversed(e):
                v = (v << width) + c
            out.append(v)
        packed.append(out)
    det, pivots = _bareiss(packed)
    coeffs = _balanced_digits(det, width)
    if not (minors and coeffs and pivots):
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


def _bareiss(a: list[list[int]]) -> tuple[int, list[int] | None]:
    """Determinant of a square integer matrix, and its pivots when no row
    was swapped (None otherwise); `a` is overwritten.

    Step k replaces each entry below and right of the pivot by
    (a_kk a_ij - a_ik a_kj) / (previous pivot), a division that is exact
    because every intermediate entry is a minor of the input (Sylvester's
    identity).  Without swaps the pivot of step k is the leading principal
    minor of order k + 1.  A zero pivot is swapped with a nonzero entry below it.
    """
    m = len(a)
    sign, prev, swapped = 1, 1, False
    for k in range(m - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, m) if a[i][k]), None)
            if swap is None:
                return 0, None
            a[k], a[swap] = a[swap], a[k]
            sign, swapped = -sign, True
        pivot, row_k = a[k][k], a[k]
        for row in a[k + 1:]:
            lead = row[k]
            for j in range(k + 1, m):
                row[j], rem = divmod(pivot * row[j] - lead * row_k[j], prev)
                if rem:
                    raise InternalCheckError("exact Bareiss division", step=k, previous_pivot=prev, remainder=rem)
        prev = pivot
    return sign * a[m - 1][m - 1], None if swapped else [a[k][k] for k in range(m)]
