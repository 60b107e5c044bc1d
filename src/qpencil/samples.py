"""Seeded random generators for pencils, points, and planted configurations.

Used by the test suite, the acceptance run, and the experiment scripts; all
randomness flows through an explicit ``random.Random`` so runs are
reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Any

from .errors import PrecondError
from .fields import Field, PrimeField
from .matrices import SymMatrix
from .pencil import Pencil, is_smooth, singular_at


def random_element(field: Field, rng: random.Random, span: int = 9) -> Any:
    if isinstance(field, PrimeField):
        return rng.randrange(field.p)
    return Fraction(rng.randint(-span, span))


def random_symmetric(field: Field, size: int, rng: random.Random) -> SymMatrix:
    rows = [[field.zero] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            c = random_element(field, rng)
            rows[i][j] = rows[j][i] = c
    return SymMatrix.from_rows(rows)


def random_pencil(
    field: Field, n: int, rng: random.Random, smooth: bool = True, tries: int = 400
) -> Pencil:
    for _ in range(tries):
        p = Pencil(
            field,
            n,
            random_symmetric(field, n + 1, rng),
            random_symmetric(field, n + 1, rng),
        )
        if not smooth or is_smooth(p):
            return p
    raise PrecondError("could not find a smooth pencil; widen the search")


def random_pencil_through_line(
    field: Field, n: int, rng: random.Random, smooth: bool = True, tries: int = 400
) -> Pencil:
    """A (smooth) pencil whose base locus contains the coordinate line
    x2 = ... = xn = 0, i.e. both Gram matrices have a zero upper-left 2x2
    block."""
    for _ in range(tries):
        grams = []
        for _ in range(2):
            g = [[field.zero] * (n + 1) for _ in range(n + 1)]
            for i in range(n + 1):
                for j in range(max(i, 2), n + 1):
                    c = random_element(field, rng)
                    g[i][j] = g[j][i] = c
            for i in (0, 1):
                for j in (0, 1):
                    g[i][j] = field.zero
            grams.append(SymMatrix.from_rows(g))
        p = Pencil(field, n, grams[0], grams[1])
        if not smooth or is_smooth(p):
            return p
    raise PrecondError("could not find a smooth pencil through the line")


def random_point_on_pencil(pencil: Pencil, rng: random.Random) -> tuple[int, ...]:
    """A uniformly random smooth F_p point of the base locus."""
    from .fqgeom import points_on_pencil

    if not isinstance(pencil.field, PrimeField):
        raise PrecondError("point sampling needs a prime field")
    pts = points_on_pencil(pencil)
    if pts.shape[0] == 0:
        raise PrecondError("the base locus has no F_p points")
    order = list(range(pts.shape[0]))
    rng.shuffle(order)
    for i in order:
        x = [int(c) for c in pts[i]]
        if not singular_at(pencil, x):
            return tuple(x)
    raise PrecondError("every F_p point of the base locus is singular")
