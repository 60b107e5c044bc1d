"""Odd decompositions: the isotopy classes of real pencils and their verdicts.

An odd decomposition is a cyclic composition of k into an odd number of
parts, read up to rotation and reflection (see `circle` for how a pencil's
index circle gives one).  This module lists the classes admissible in P^n,
rebuilds the walk of positive indices of a class, and reads off the real
points, real lines and real rationality of a threefold base locus.  It
needs no pencil, so the `classes` subcommand loads nothing else.
"""

from __future__ import annotations

import itertools

from .errors import InternalCheckError, PrecondError, check, within
from .records import record

# the largest n `enumerate_classes` takes: it lists every composition of
# k <= n+1 into an odd number of parts, so its work grows about 4x per step
# of 2 in n (n = 18 took 1.4-2.4 s and n = 20 6.9 s, 2-core Intel Xeon,
# CPython 3.11.7)
MAX_CLASSES_N = 18


@record
class OddDecomposition:
    """A cyclic composition of k into an odd number of positive parts, in
    canonical form (lexicographically greatest rotation/reflection).  The
    jump-free circle is the special class (0,)."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.parts == (0,):
            return
        if len(self.parts) % 2 == 0:
            raise PrecondError("need an odd number of parts")
        if any(x < 1 for x in self.parts):
            raise PrecondError("parts must be positive")
        if self.parts != canonical_parts(self.parts):
            raise PrecondError(f"{self.parts} is not in canonical form")

    @property
    def k(self) -> int:
        return 0 if self.parts == (0,) else sum(self.parts)

    def label(self) -> str:
        return "(" + ",".join(str(x) for x in self.parts) + ")"


def canonical_parts(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically greatest tuple among all rotations of the cyclic
    word and of its reversal."""
    if parts == (0,):
        return parts
    best = None
    for word in (tuple(parts), tuple(reversed(parts))):
        for r in range(len(word)):
            cand = word[r:] + word[:r]
            if best is None or cand > best:
                best = cand
    return best


def enumerate_classes(n: int) -> list[OddDecomposition]:
    """All odd decompositions admissible in P^n: k = n+1 (mod 2) and
    0 <= k <= n+1, for 2 <= n <= `MAX_CLASSES_N`.  Sorted by (k, number of parts, parts)."""
    if n < 2:
        raise PrecondError(f"n: need n >= 2, got {n}")
    within("n", n, MAX_CLASSES_N=MAX_CLASSES_N)
    classes: set[tuple[int, ...]] = set()
    for k in range(0, n + 2):
        if (k - (n + 1)) % 2:
            continue
        if k == 0:
            classes.add((0,))
            continue
        for length in range(1, k + 1, 2):
            for cut in itertools.combinations(range(1, k), length - 1):
                bounds = (0,) + cut + (k,)
                parts = tuple(b - a for a, b in zip(bounds, bounds[1:]))
                classes.add(canonical_parts(parts))
    ordered = sorted(classes, key=lambda t: (sum(t), len(t), tuple(-x for x in t)))
    return [OddDecomposition(t) for t in ordered]


def signature_walk(dec: OddDecomposition, n: int) -> list[int]:
    """Reconstruct the ccw walk of positive indices of a circle in this
    class, starting with the arc that precedes the first jump of the word
    (so the walk of the class (2) in P^5 reads 2, 3, 4, 3)."""
    if dec.parts == (0,):
        if (n + 1) % 2:
            raise PrecondError(f"class (0) does not occur in P^{n}")
        level = (n + 1) // 2
        return [level]
    k = dec.k
    if (k - (n + 1)) % 2 or k > n + 1:
        raise PrecondError(f"class {dec.label()} does not occur in P^{n}")
    length = len(dec.parts)
    s = (length - 1) // 2
    word: list[int] = []
    for j, run in enumerate(dec.parts):
        gap = dec.parts[(j - s) % length]
        word.extend([1] * run)
        word.extend([-1] * gap)
    check("jump word length = 2k", length=len(word), two_k=2 * k)
    for i in range(2 * k):
        if word[(i + k) % (2 * k)] != -word[i]:
            raise InternalCheckError("the jump word is antipodal", position=i, word=word)
    head = sum(word[:k])
    if (n + 1 - head) % 2:
        raise InternalCheckError("walk start (n + 1 - head)/2 is integral", n=n, head=head)
    level = (n + 1 - head) // 2
    walk = [level]
    for w in word[:-1]:
        level += w
        walk.append(level)
    if not all(0 <= x <= n + 1 for x in walk):
        raise InternalCheckError("walk stays in 0..n + 1", walk=walk, n=n)
    check("the walk closes up", end=walk[-1] + word[-1], start=walk[0])
    return walk


def real_line_exists(dec: OddDecomposition, n: int) -> bool:
    """Whether every member of the pencil has positive index in the window
    [m+1, m+3], m = floor((n-2)/2) — the exact condition for the base locus
    to contain a real line."""
    m = (n - 2) // 2
    walk = signature_walk(dec, n)
    return all(m + 1 <= x <= m + 3 for x in walk)


def has_real_points(dec: OddDecomposition, n: int) -> bool:
    """The real locus is empty iff some member is definite (index n+1)."""
    walk = signature_walk(dec, n)
    return all(x != n + 1 and x != 0 for x in walk)


_THREEFOLD_TYPES = {
    (4,): "S³",
    (4, 1, 1): "S³ ⊔ S³",
    (3, 2, 1): "S¹ × S²",
    (6,): "∅",
}


@record
class RealVerdict:
    decomposition: OddDecomposition
    walk: tuple[int, ...]
    has_points: bool
    has_line: bool
    rational: bool
    reason: str
    topology: str | None


def real_verdict(dec: OddDecomposition, n: int = 5) -> RealVerdict:
    """Rationality over the reals of a threefold base locus, by class.

    For n = 5: rational iff a real line exists; the classes without one are
    (6) (empty real locus), (4), (4,1,1) and (3,2,1), whose real loci are
    also recorded.
    """
    if n != 5:
        raise PrecondError("rationality verdicts are implemented for n = 5 only")
    walk = tuple(signature_walk(dec, n))
    points = has_real_points(dec, n)
    line = real_line_exists(dec, n)
    if line:
        reason = "contains a real line"
    elif not points:
        reason = "real locus is empty"
    else:
        reason = "no real line"
    return RealVerdict(
        decomposition=dec,
        walk=walk,
        has_points=points,
        has_line=line,
        rational=line,
        reason=reason,
        topology=_THREEFOLD_TYPES.get(dec.parts),
    )
