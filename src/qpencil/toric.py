"""The split-torus example  x0 x1 = x2 x3 = x4 x5  in P^5.

Its base locus is singular exactly at the six coordinate points, contains the
eight planes {x_a = x_b = x_c = 0} with one index from each of the blocks
{0,1}, {2,3}, {4,5}, and over F_q carries exactly 12 q^2 lines: the ones in
those planes plus 4 (q-1)^2 lines through pairs of "opposite" singular
points.  Everything is checked here twice — by exhaustive scan and by closed
formula — and the degree bookkeeping 8*1 + 4*6 = 32 = deg of the line scheme
is exposed for the n = 5 story.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from typing import Sequence

from .errors import InternalCheckError, PrecondError, check
from .fields import QQ, Field, PrimeField
from .fqgeom import enumerate_lines, singular_points
from .pencil import toric_pencil
from .poly import Poly
from .records import record

BLOCKS = ((0, 1), (2, 3), (4, 5))

# index triples of the eight planes {x_a = x_b = x_c = 0}
PLANE_TRIPLES: tuple[tuple[int, int, int], ...] = tuple(
    itertools.product(*BLOCKS)
)
# bit j of a line's zero mask is set when x_j vanishes identically on it
_BITS = tuple(1 << j for j in range(6))
# the planes containing a line, indexed by its zero mask: those whose three
# zero coordinates are all set
_HOMES: tuple[tuple[tuple[int, int, int], ...], ...] = tuple(
    tuple(t for t in PLANE_TRIPLES if all(zeros >> i & 1 for i in t)) for zeros in range(64)
)


def coordinate_points(field: Field) -> list[tuple]:
    return list(_vertices(field))


@functools.lru_cache(maxsize=4)
def _vertices(field: Field) -> tuple[tuple, ...]:
    """The six coordinate points over `field`, e_0 first.  Cached, so every
    list of singular points shares the same six immutable tuples and a caller
    that keeps many reports keeps one copy of them."""
    return tuple(tuple(field.one if j == i else field.zero for j in range(6)) for i in range(6))


def toric_singular_points(field: Field) -> list[tuple]:
    """The singular locus of the base locus: the six coordinate points.

    Over a prime field this is `fqgeom.singular_points`, exhaustive over
    the kernels of the singular members: the three members x0 x1 - x4 x5,
    x0 x1 - x2 x3 and x2 x3 - x4 x5 each have a 2-dimensional kernel, a
    coordinate line whose two vertices are the zeros of one binary
    quadratic, so no numpy scan runs.  Over the rationals no finite
    search is exhaustive, so we argue by monomial support: each
    2x2 minor of the Jacobian is (up to sign and a factor of 4) a product of
    one variable from each of two blocks, so on a singular point at most one
    block can have a nonzero coordinate — and the equations then kill all
    but one coordinate of that block.
    """
    p = toric_pencil(field)
    if isinstance(field, PrimeField):
        found = sorted(singular_points(p))
        expected = sorted(_vertices(field))
        check("toric singular points = the six coordinate points", found=found, expected=expected)
        return expected
    if field != QQ:
        raise PrecondError("unsupported field for the singular-locus computation")
    q0 = p.form(0)
    q1 = p.form(1)
    vars_ = p.variables()
    minors: list[Poly] = []
    grads0 = [q0.derivative(v) for v in vars_]
    grads1 = [q1.derivative(v) for v in vars_]
    for a in range(6):
        for b in range(a + 1, 6):
            minors.append(grads0[a] * grads1[b] - grads0[b] * grads1[a])
    # support argument: every nonzero minor is a single monomial x_c x_d with
    # c, d in two different blocks
    for m in minors:
        if m.is_zero:
            continue
        if len(m.terms) != 1:
            raise InternalCheckError("every nonzero Jacobian minor is a monomial", minor=m)
        (exp,) = m.terms
        support = [i for i, e in enumerate(exp) if e]
        blocks = {_block_of(i) for i in support}
        check("Jacobian minor: one variable per block", blocks=len(blocks), variables=len(support), where={"minor": m})
    # hence: vanishing of all minors forces the support of the point into a
    # single block, and x_a x_b = 0 within that block leaves one coordinate
    return coordinate_points(field)


def _block_of(i: int) -> int:
    return i // 2


@record
class ToricLineCensus:
    q: int
    total: int
    planar: int
    nonplanar: int
    per_plane: dict[tuple[int, int, int], int]
    # closed-form predictions, kept separate from the scan results
    predicted_total: int
    predicted_planar: int
    predicted_nonplanar: int
    predicted_per_plane: int

    @property
    def consistent(self) -> bool:
        return (
            self.total == self.predicted_total
            and self.planar == self.predicted_planar
            and self.nonplanar == self.predicted_nonplanar
            and all(v == self.predicted_per_plane for v in self.per_plane.values())
        )


def _zero_mask(line: tuple[Sequence[int], Sequence[int]]) -> int:
    """Bit j set when x_j vanishes identically on the line with rows (u, v)."""
    u, v = line
    return sum(bit for a, b, bit in zip(u, v, _BITS) if not (a or b))


def toric_line_census(q: int) -> ToricLineCensus:
    """Count the F_q lines on the toric base locus, split by the planes.

    The scan side enumerates all lines on the two quadrics; the predicted
    side is combinatorial: each of the 8 planes is a P^2 with q^2+q+1 lines;
    a line lies in two planes iff it joins two coordinate vertices of a
    common edge, and there are 12 such shared lines; the lines in no plane
    come in 4 (q-1)^2 torus translates.  Total: 12 q^2.  The lines are
    counted by their zero-coordinate masks, and each mask by its planes.
    """
    p = PrimeField(q)
    lines = enumerate_lines(toric_pencil(p))
    per_plane = dict.fromkeys(PLANE_TRIPLES, 0)
    planar_set = 0
    multiplicity_sum = 0
    for zeros, count in Counter(map(_zero_mask, lines)).items():
        homes = _HOMES[zeros]
        multiplicity_sum += count * len(homes)
        if homes:
            planar_set += count
            for t in homes:
                per_plane[t] += count
    nonplanar = len(lines) - planar_set
    pred_per_plane = q * q + q + 1
    pred_planar = 8 * pred_per_plane - 12
    pred_nonplanar = 4 * (q - 1) ** 2
    pred_total = 12 * q * q
    check("per-plane multiplicities sum to 8(q^2+q+1)", multiplicity_sum=multiplicity_sum, expected=8 * pred_per_plane)
    return ToricLineCensus(
        q=q,
        total=len(lines),
        planar=planar_set,
        nonplanar=nonplanar,
        per_plane=per_plane,
        predicted_total=pred_total,
        predicted_planar=pred_planar,
        predicted_nonplanar=pred_nonplanar,
        predicted_per_plane=pred_per_plane,
    )


def plane_union_point_count(q: int) -> tuple[int, int]:
    """Points of the union of the eight planes over F_q, both by direct scan
    and by inclusion-exclusion; returns (scan, formula)."""
    from .fqgeom import projective_points
    import numpy as np

    pts = projective_points(q, 6)
    arr = np.asarray(pts)
    in_union = np.zeros(arr.shape[0], dtype=bool)
    for t in PLANE_TRIPLES:
        in_union |= (arr[:, list(t)] == 0).all(axis=1)
    scan = int(in_union.sum())

    formula = 0
    for r in range(1, 9):
        for combo in itertools.combinations(PLANE_TRIPLES, r):
            union_idx = set().union(*[set(t) for t in combo])
            dim_plus = 6 - len(union_idx)  # ambient coordinates left free
            npts = (q**dim_plus - 1) // (q - 1) if dim_plus else 0
            formula += (-1) ** (r + 1) * npts
    return scan, formula


def dp6_point_count(q: int) -> int:
    """Points of a split sextic del Pezzo surface over F_q (a P^2 blown up in
    three rational points in general position): q^2 + 4q + 1."""
    return q * q + 4 * q + 1


@record
class ComponentBookkeeping:
    """The twelve components of the scheme of lines on the toric base locus:
    eight (dual) planes of degree 1 and four sextic del Pezzo surfaces of
    degree 6, glued along 24 edge lines and 12 vertex points."""

    plane_components: int
    plane_degree: int
    dp6_components: int
    dp6_degree: int

    @property
    def total_degree(self) -> int:
        return (
            self.plane_components * self.plane_degree
            + self.dp6_components * self.dp6_degree
        )


def line_scheme_components() -> ComponentBookkeeping:
    return ComponentBookkeeping(8, 1, 4, 6)


def component_count_identity(q: int) -> tuple[int, int]:
    """Count F_q points of the line scheme with multiplicity, two ways.

    Summing the components: 8 planes of q^2+q+1 points and 4 del Pezzo
    sextics of q^2+4q+1 points.  Stratifying instead: 12 open interiors of
    (q-1)^2 points at multiplicity 1, 24 edge interiors of q-1 points at
    multiplicity 2, and 12 vertices at multiplicity 4.  Returns both sums
    (equal for every q; each equals 12q^2 + 24q + 12)."""
    by_components = 8 * (q * q + q + 1) + 4 * dp6_point_count(q)
    by_strata = 12 * (q - 1) ** 2 + 2 * 24 * (q - 1) + 4 * 12
    return by_components, by_strata
