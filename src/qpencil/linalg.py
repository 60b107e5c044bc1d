"""Small dense exact linear algebra over a field strategy object.

Everything here works on lists/tuples of field elements; nothing is numpy.
These routines are for matrices of size at most ~10, where exactness matters
more than speed (basis completions, reduced row echelon forms, kernels).
"""

from __future__ import annotations

from typing import Sequence

from .errors import PrecondError
from .fields import Field

Matrix = list  # list[list[element]]


def mat_copy(rows: Sequence[Sequence]) -> Matrix:
    return [list(r) for r in rows]


def identity(field: Field, m: int) -> Matrix:
    return [
        [field.one if i == j else field.zero for j in range(m)] for i in range(m)
    ]


def transpose(rows: Sequence[Sequence]) -> Matrix:
    return [list(col) for col in zip(*rows)]


def mat_mul(field: Field, a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    if len(a[0]) != len(b):
        raise PrecondError("matrix shape mismatch")
    bt = transpose(b)
    out = []
    for row in a:
        out_row = []
        for col in bt:
            acc = field.zero
            for x, y in zip(row, col):
                acc = field.add(acc, field.mul(x, y))
            out_row.append(acc)
        out.append(out_row)
    return out


def mat_vec(field: Field, a: Sequence[Sequence], v: Sequence) -> list:
    out = []
    for row in a:
        acc = field.zero
        for x, y in zip(row, v):
            acc = field.add(acc, field.mul(x, y))
        out.append(acc)
    return out


def dependent(field: Field, u: Sequence, v: Sequence) -> bool:
    """Whether u and v are linearly dependent, rank [u, v] < 2: one of them
    is zero, or each is a scalar multiple of the other."""
    i = next((i for i, c in enumerate(u) if not field.is_zero(c)), None)
    if i is None:
        return True
    # v = (v_i / u_i) u, checked without dividing
    return all(field.eq(field.mul(u[i], b), field.mul(v[i], a)) for a, b in zip(u, v))


def rref(field: Field, rows: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref rows, pivot column indices)."""
    a = mat_copy(rows)
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if not field.is_zero(a[i][c])), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = field.inv(a[r][c])
        a[r] = [field.mul(inv, x) for x in a[r]]
        for i in range(nrows):
            if i != r and not field.is_zero(a[i][c]):
                f = a[i][c]
                a[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def rank(field: Field, rows: Sequence[Sequence]) -> int:
    return len(rref(field, rows)[1])


def nullspace(field: Field, rows: Sequence[Sequence]) -> list[list]:
    """Basis of the right kernel {v : A v = 0}."""
    if not rows:
        raise PrecondError("empty matrix")
    ncols = len(rows[0])
    red, pivots = rref(field, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(red[r][fc])
        basis.append(v)
    return basis


def solve(field: Field, rows: Sequence[Sequence], rhs: Sequence) -> list:
    """One solution of A x = b, or PrecondError if inconsistent."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(field, aug)
    ncols = len(rows[0])
    if ncols in pivots:
        raise PrecondError("inconsistent linear system")
    x = [field.zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def det(field: Field, rows: Sequence[Sequence]) -> object:
    """Determinant by fraction-free-enough Gaussian elimination (field ops)."""
    a = mat_copy(rows)
    m = len(a)
    if any(len(r) != m for r in a):
        raise PrecondError("determinant of a non-square matrix")
    result = field.one
    for c in range(m):
        piv = next((i for i in range(c, m) if not field.is_zero(a[i][c])), None)
        if piv is None:
            return field.zero
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            result = field.neg(result)
        result = field.mul(result, a[c][c])
        inv = field.inv(a[c][c])
        for i in range(c + 1, m):
            if field.is_zero(a[i][c]):
                continue
            f = field.mul(a[i][c], inv)
            a[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[i], a[c])]
    return result


def invert(field: Field, rows: Sequence[Sequence]) -> Matrix:
    m = len(rows)
    aug = [list(r) + list(e) for r, e in zip(rows, identity(field, m))]
    red, pivots = rref(field, aug)
    if pivots != list(range(m)):
        raise PrecondError("matrix is singular")
    return [row[m:] for row in red]


def complete_basis(field: Field, vectors: Sequence[Sequence]) -> Matrix:
    """Extend independent row vectors to a basis, greedily with standard vectors.

    Returns a full list of basis row vectors beginning with the given ones.
    """
    if not vectors:
        raise PrecondError("need at least one vector")
    m = len(vectors[0])
    basis = [list(v) for v in vectors]
    if rank(field, basis) != len(basis):
        raise PrecondError("given vectors are dependent")
    for j in range(m):
        if len(basis) == m:
            break
        e = [field.one if k == j else field.zero for k in range(m)]
        if rank(field, basis + [e]) > len(basis):
            basis.append(e)
    if len(basis) != m:
        raise PrecondError("could not complete basis")  # pragma: no cover
    return basis
