"""Finite groups of integer matrices acting on a rank-3 character lattice,
and the rationality criterion for the corresponding three-dimensional tori:
the torus is nonrational exactly when the acting group contains a copy of a
distinguished Klein four-subgroup, up to conjugation inside the full
symmetry group.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Sequence

from .errors import InternalCheckError, PrecondError, check, within
from .fields import exact_int
from .records import record

Mat = tuple[tuple[int, int, int], ...]

# elements of a closure, and the order of one element: a unipotent
# generator reaches the guard in 0.17 s either way (2-core Intel Xeon,
# CPython 3.11.7)
CLOSURE_GUARD = 10**4

# order-4 rotation of the lattice, a transposition, and the inversion
GEN_A: Mat = ((0, 1, 0), (0, 0, 1), (-1, -1, -1))
GEN_B: Mat = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
GEN_C: Mat = ((-1, 0, 0), (0, -1, 0), (0, 0, -1))

IDENTITY: Mat = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def mat_from(rows: Sequence[Sequence[int]]) -> Mat:
    """A lattice matrix from 3 lists or tuples of 3 ints (no bools) each."""
    if not isinstance(rows, (list, tuple)) or len(rows) != 3 or any(
        not isinstance(r, (list, tuple)) or len(r) != 3 for r in rows
    ):
        raise PrecondError("lattice matrices are 3x3: expected 3 rows of 3 integers")
    return tuple(tuple(exact_int(x, "matrix entry") for x in r) for r in rows)  # type: ignore[return-value]


def mmul(x: Mat, y: Mat) -> Mat:
    # unrolled: the closures and conjugacy tests make most of their products here
    (a, b, c), (d, e, f), (g, h, i) = x
    (p, q, r), (s, t, u), (v, w, z) = y
    return (
        (a * p + b * s + c * v, a * q + b * t + c * w, a * r + b * u + c * z),
        (d * p + e * s + f * v, d * q + e * t + f * w, d * r + e * u + f * z),
        (g * p + h * s + i * v, g * q + h * t + i * w, g * r + h * u + i * z),
    )


def mdet(x: Mat) -> int:
    return (
        x[0][0] * (x[1][1] * x[2][2] - x[1][2] * x[2][1])
        - x[0][1] * (x[1][0] * x[2][2] - x[1][2] * x[2][0])
        + x[0][2] * (x[1][0] * x[2][1] - x[1][1] * x[2][0])
    )


def minv(x: Mat) -> Mat:
    d = mdet(x)
    if d not in (1, -1):
        raise PrecondError("matrix is not invertible over the integers")
    cof = [
        [
            (x[(i + 1) % 3][(j + 1) % 3] * x[(i + 2) % 3][(j + 2) % 3]
             - x[(i + 1) % 3][(j + 2) % 3] * x[(i + 2) % 3][(j + 1) % 3])
            for i in range(3)
        ]
        for j in range(3)
    ]
    return tuple(tuple(c * d for c in row) for row in cof)  # type: ignore[return-value]


@record
class IntMatrixGroup:
    """A finite group of 3x3 integer matrices, stored as its full element
    list in a deterministic order."""

    generators: tuple[Mat, ...]
    elements: tuple[Mat, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: Mat) -> bool:
        return x in set(self.elements)


def group_closure(gens: Sequence[Iterable[Iterable[int]]]) -> IntMatrixGroup:
    """Enumerate the group generated by integer matrices with det ±1.

    Breadth-first closure under right multiplication by the generators; a
    finite set closed under multiplication and containing the identity is a
    group, and inverses are double-checked at the end.  A closure over
    CLOSURE_GUARD elements, infinite or too large, is refused.
    """
    mats = [mat_from(g) for g in gens]
    for m in mats:
        if mdet(m) not in (1, -1):
            raise PrecondError("generators must be invertible over the integers")
    seen: set[Mat] = {IDENTITY}
    frontier = [IDENTITY]
    while frontier:
        nxt = []
        for x in frontier:
            for g in mats:
                y = mmul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    within("elements of the closure", len(seen), CLOSURE_GUARD=CLOSURE_GUARD)
        frontier = nxt
    for x in seen:
        if minv(x) not in seen:
            raise InternalCheckError("the closure holds every inverse", element=x, inverse=minv(x))
    elements = tuple(sorted(seen))
    return IntMatrixGroup(generators=tuple(mats), elements=elements)


def lattice_symmetry_group() -> IntMatrixGroup:
    """The full lattice symmetry group ⟨a, b, c⟩ of order 48, a product of a
    symmetric group on four letters and the central inversion."""
    g = group_closure([GEN_A, GEN_B, GEN_C])
    check("full symmetry group order = 48", order=g.order, expected=48)
    return g


def obstruction_subgroup() -> IntMatrixGroup:
    """The Klein four-group whose presence up to conjugacy is the
    nonrationality obstruction.

    Generated by a double transposition of the permutation factor together
    with one of its transposition factors times the central inversion; its
    three involutions all have trace -1, none is the inversion itself, and it
    does not lie inside the permutation factor.  Those properties single out
    one conjugacy class among the 25 Klein subgroups of the full group — the
    class whose lattice is the character lattice of the norm-one torus of a
    biquadratic extension, the minimal nonrational three-dimensional torus.
    """
    a2 = mmul(GEN_A, GEN_A)
    t34 = mmul(mmul(a2, GEN_B), minv(a2))  # the transposition conjugate to b by a²
    dbl = mmul(GEN_B, t34)  # commuting product: a double transposition
    bc = mmul(GEN_B, GEN_C)
    g = group_closure([dbl, bc])
    check("obstruction subgroup order = 4", order=g.order, expected=4)
    check("obstruction subgroup is a Klein four-group", tag=isomorphism_tag(g), expected="klein")
    character = [x[0][0] + x[1][1] + x[2][2] for x in g.elements]
    expected = [3 if x == IDENTITY else -1 for x in g.elements]
    check("lattice character of the obstruction subgroup", character=character, expected=expected)
    return g


def relations_audit() -> bool:
    """Check the defining relations of the standard generators:
    a⁴ = b² = (ab)³ = 1, c² = 1, and c central."""
    a, b, c = GEN_A, GEN_B, GEN_C
    a2 = mmul(a, a)
    if mmul(a2, a2) != IDENTITY:
        return False
    if mmul(b, b) != IDENTITY:
        return False
    ab = mmul(a, b)
    if mmul(ab, mmul(ab, ab)) != IDENTITY:
        return False
    if mmul(c, c) != IDENTITY:
        return False
    for x in (a, b):
        if mmul(c, x) != mmul(x, c):
            return False
    return True


def element_order(x: Mat) -> int:
    y = x
    n = 1
    while y != IDENTITY:
        y = mmul(y, x)
        n += 1
        within("order of the element", n, CLOSURE_GUARD=CLOSURE_GUARD)
    return n


def isomorphism_tag(g: IntMatrixGroup) -> str:
    """Coarse isomorphism-type tag from order, exponent and abelianness —
    enough to tell apart the groups that occur here."""
    orders = [element_order(x) for x in g.elements]
    exponent = 1
    for o in orders:
        exponent = lcm(exponent, o)
    abelian = all(
        mmul(x, y) == mmul(y, x) for i, x in enumerate(g.elements) for y in g.elements[i + 1:]
    )
    if g.order == 1:
        return "trivial"
    if g.order == 2:
        return "cyclic2"
    if g.order == 4 and exponent == 2:
        return "klein"
    if abelian and exponent == g.order:
        return f"cyclic{g.order}"
    if g.order == 24 and not abelian and exponent == 12:
        return "sym4"
    if g.order == 48 and not abelian and exponent == 12:
        return "sym4 x cyclic2"
    return f"order{g.order}"


def klein_subgroups(g: IntMatrixGroup) -> list[tuple[Mat, ...]]:
    """All Klein four-subgroups, each as a sorted 4-tuple of elements."""
    invs = [x for x in g.elements if x != IDENTITY and mmul(x, x) == IDENTITY]
    found: set[tuple[Mat, ...]] = set()
    for i, x in enumerate(invs):
        for y in invs[i + 1:]:
            if mmul(x, y) != mmul(y, x):
                continue
            found.add(tuple(sorted({IDENTITY, x, y, mmul(x, y)})))
    return sorted(found)


@record
class TorusVerdict:
    """Rationality verdict for the torus with this symmetry group.

    ``unmatched_klein`` flags the case where the group has Klein subgroups
    but none conjugate to the obstruction inside the ambient group; the
    criterion is applied up to ambient conjugacy only, so such verdicts are
    marked rather than silently trusted."""

    rational: bool
    order: int
    tag: str
    witness_subgroup: tuple[Mat, ...] | None
    conjugator: Mat | None
    klein_count: int
    unmatched_klein: bool


def torus_rationality(gens: Sequence[Iterable[Iterable[int]]]) -> TorusVerdict:
    """Apply the nonrationality criterion to the subgroup generated by the
    given matrices: nonrational iff some subgroup is conjugate, inside the
    full lattice symmetry group, to the distinguished Klein four-group.

    Only Klein four-subgroups can be conjugate to a Klein four-group, so the
    search enumerates those.  The witness records both the subgroup and a
    conjugating element.
    """
    ambient = lattice_symmetry_group()
    ambient_set = set(ambient.elements)
    # the generators lie in the ambient group exactly when the group they
    # generate does; checking them first keeps the closure finite and small
    for k, x in enumerate(gens):
        try:
            m = mat_from(x)
        except PrecondError as exc:
            raise PrecondError(f"generators[{k}]: {exc}") from exc
        if m not in ambient_set:
            raise PrecondError(f"generators[{k}] does not lie in the lattice symmetry group")
    g = group_closure(gens)
    target = frozenset(obstruction_subgroup().elements)
    kleins = klein_subgroups(g)
    witness = None
    conj = None
    for k in kleins:
        kset = frozenset(k)
        for h in ambient.elements:
            hinv = minv(h)
            image = frozenset(mmul(mmul(h, x), hinv) for x in kset)
            if image == target:
                witness = k
                conj = h
                break
        if witness is not None:
            break
    rational = witness is None
    return TorusVerdict(
        rational=rational,
        order=g.order,
        tag=isomorphism_tag(g),
        witness_subgroup=witness,
        conjugator=conj,
        klein_count=len(kleins),
        unmatched_klein=rational and bool(kleins),
    )
