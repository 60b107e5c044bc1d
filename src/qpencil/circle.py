"""The index circle of a real pencil and its odd decomposition.

Walk counterclockwise around the unit circle of members s0*Q0 + s1*Q1 of a
smooth rational pencil.  The positive index of the member is locally constant
and jumps by +-1 exactly at the 2k circle points lying over the k real
projective roots of the discriminant form.  The cyclic word of jump signs
decomposes the circle into maximal runs; the multiset of run lengths, read
cyclically, is a complete invariant of the real pencil up to isotopy, and is
always a composition of k into an odd number of parts.

Everything here is exact: roots are isolated with Sturm sequences, and every
signature is computed twice on antipodal arcs, by two algorithms, and
cross-checked.  On the members (1, t) the signature comes from the signs of
the leading principal minors that the discriminant's elimination already
gave (Jacobi's rule), and elsewhere from a symmetric elimination.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import univariate as uv
from .errors import InternalCheckError, PrecondError, check, within
from .fields import QQ
from .matrices import _integer_grams, signature_pair
from .pencil import Pencil, SmoothnessReport, smoothness

# the largest n `enumerate_classes` takes: it lists every composition of
# k <= n+1 into an odd number of parts, so its work grows about 4x per step
# of 2 in n (n = 18 took 1.4-2.4 s and n = 20 6.9 s, 2-core Intel Xeon,
# CPython 3.11.7)
MAX_CLASSES_N = 18


@dataclass(frozen=True)
class JumpPoint:
    """A circle point where the index jumps.

    ``half`` is '+' or '-' for the sign of s0 (finite slope rho = s1/s0), or
    the sign of s1 when the point is one of the poles (0, +-1).  Finite jumps
    carry the isolating interval of the root rho of F(1, rho).
    """

    half: str
    at_infinity: bool
    interval: tuple[Fraction, Fraction] | None

    def __post_init__(self) -> None:
        if self.half not in ("+", "-"):
            raise PrecondError("half must be '+' or '-'")
        if self.at_infinity != (self.interval is None):
            raise PrecondError("exactly the infinite jumps lack an interval")


@dataclass(frozen=True)
class IndexCircle:
    """Jump points in ccw order and the (pos, neg) signature on each arc.

    ``arc_signatures[i]`` is the signature on the arc that follows
    ``jump_points[i]`` counterclockwise; ``jump_signs[i]`` is the change of
    positive index when crossing ``jump_points[i]`` counterclockwise.  With
    no jumps at all (k = 0) there is a single arc and no signs.
    """

    n: int
    jump_points: tuple[JumpPoint, ...]
    arc_signatures: tuple[tuple[int, int], ...]
    jump_signs: tuple[int, ...]

    @property
    def root_count(self) -> int:
        """k = number of real projective roots of the discriminant form."""
        return len(self.jump_points) // 2


def _swap(sig: tuple[int, int]) -> tuple[int, int]:
    return (sig[1], sig[0])


def _jacobi_signature(minors: tuple[list[int], ...], t: Fraction) -> tuple[int, int] | None:
    """(positive, negative) inertia of the member (1, t) by Jacobi's rule
    (Gantmacher, The Theory of Matrices I, ch. X §3): with every leading
    principal minor Δ_k(t) nonzero, the negative index is the number V of
    sign changes in 1, Δ_1(t), ..., Δ_m(t), so the signature is (m - V, V).
    None when some Δ_k(t) vanishes."""
    signs = [uv._sign_at(d, t) for d in minors]
    if not all(signs):
        return None
    v = sum(a != b for a, b in zip([1] + signs, signs))
    return len(signs) - v, v


def index_circle(p: Pencil, report: SmoothnessReport | None = None) -> IndexCircle:
    """Compute the index circle of a smooth pencil over the rationals;
    `report` is `smoothness(p)` when the caller already holds it."""
    if p.field != QQ:
        raise PrecondError("the index circle needs rational coefficients")
    report = smoothness(p) if report is None else report
    if not report.smooth:
        raise PrecondError("the base locus is singular; the index circle is undefined")
    disc = report.discriminant
    n = p.n

    inf_jump = QQ.is_zero(disc.coeffs[-1])  # det(G1) is the s1^(n+1) coefficient
    f = disc.chart_main()
    roots = uv.isolate_real_roots(f, report.chain)
    samples = uv.sample_points_between(roots)
    m = len(roots)
    k = m + (1 if inf_jump else 0)
    if (k - (n + 1)) % 2:
        raise InternalCheckError("root count k ≡ n + 1 (mod 2)", k=k, n=n)

    # the members (1, t) and (-1, -t) at t = num/den are positive multiples
    # of ±(den·Z0 + num·Z1), and (0, 1) of Z1, with Z0, Z1 the Grams scaled
    # to integers by one positive lcm
    z0, z1 = _integer_grams(p.g0.entries, p.g1.entries)

    def member(s0: int, s1: int) -> list[list[int]]:
        return [[s0 * a + s1 * b for a, b in zip(r0, r1)] for r0, r1 in zip(z0, z1)]

    def plus(t: Fraction) -> tuple[int, int]:
        # Jacobi's rule on the report's minors; elimination when there are
        # none or one vanishes at t
        sig = _jacobi_signature(report.minors, t) if report.minors else None
        return signature_pair(member(t.denominator, t.numerator)) if sig is None else sig

    sigs_plus = [plus(t) for t in samples]
    sigs_minus = [signature_pair(member(-t.denominator, -t.numerator)) for t in samples]
    for t, sp, sm in zip(samples, sigs_plus, sigs_minus):
        if sm != _swap(sp):
            raise InternalCheckError("antipodal signatures at a sample", t=t, plus=sp, minus=sm, expected=_swap(sp))

    jumps: list[JumpPoint] = []
    arcs: list[tuple[int, int]] = []

    if m == 0 and not inf_jump:
        # constant circle
        sig = sigs_plus[0]
        check("constant circle: sig(1, 0) = sig(0, 1)", plus=sig, north=signature_pair(z1))
        check("jump-free circle is antipodally balanced", positive=sig[0], negative=sig[1])
        return IndexCircle(n, (), (sig,), ())

    north = JumpPoint("+", True, None)
    south = JumpPoint("-", True, None)
    finite_plus = [JumpPoint("+", False, r) for r in roots]
    finite_minus = [JumpPoint("-", False, r) for r in roots]

    if inf_jump:
        jumps = finite_plus + [north] + finite_minus + [south]
        arcs = sigs_plus[1:] + sigs_minus + [sigs_plus[0]]
    else:
        jumps = finite_plus + finite_minus
        # the arc after the last '+' jump passes through (0, 1); check all
        # three routes onto it agree
        sig_north, ends = signature_pair(z1), {"t_first": samples[0], "t_last": samples[m]}
        check(
            "arc through (0, 1): sig(1, t_last) = sig(0, 1) = sig(-1, -t_first)",
            plus=sigs_plus[m], north=sig_north, minus=sigs_minus[0], where=ends,
        )
        check(
            "arc through (0, -1): sig(-1, -t_last) = sig(0, -1) = sig(1, t_first)",
            minus=sigs_minus[m], south=_swap(sig_north), plus=sigs_plus[0], where=ends,
        )
        arcs = sigs_plus[1:] + sigs_minus[1:]

    check("arcs = jumps = 2k", arcs=len(arcs), jumps=len(jumps), two_k=2 * k)

    for i, sig in enumerate(arcs):
        j = (i + k) % (2 * k)
        if arcs[j] != _swap(sig):
            raise InternalCheckError(
                "antipodal arcs swap signatures", arc=i, signature=sig, antipode=j, antipode_signature=arcs[j]
            )
        if sig[0] + arcs[j][0] != n + 1:
            raise InternalCheckError(
                "antipodal positive indices sum to n + 1",
                n=n, arc=i, signature=sig, antipode=j, antipode_signature=arcs[j],
            )

    signs = []
    for i in range(len(arcs)):
        d = arcs[i][0] - arcs[i - 1][0]
        if d not in (1, -1):
            raise InternalCheckError("index jumps are ±1", arc=i, jump=d)
        signs.append(d)
    check("positive jumps = root count", positive_jumps=signs.count(1), root_count=k)

    return IndexCircle(n, tuple(jumps), tuple(arcs), tuple(signs))


# ----------------------------------------------------------------------
# odd decompositions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
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


def decomposition(circle: IndexCircle) -> OddDecomposition:
    """Read off the odd decomposition from the cyclic word of jump signs."""
    word = list(circle.jump_signs)
    if not word:
        return OddDecomposition((0,))
    start = word.index(-1) + 1
    rot = word[start:] + word[:start]  # ends with a -1, so every +run closes
    parts: list[int] = []
    run = 0
    for s in rot:
        if s == 1:
            run += 1
        elif run:
            parts.append(run)
            run = 0
    if len(parts) % 2 == 0:
        raise InternalCheckError("the jump word has an odd number of runs", runs=parts)
    check("run lengths sum to the root count", run_sum=sum(parts), root_count=circle.root_count)
    return OddDecomposition(canonical_parts(tuple(parts)))


def pencil_decomposition(p: Pencil, report: SmoothnessReport | None = None) -> OddDecomposition:
    return decomposition(index_circle(p, report))


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


@dataclass(frozen=True)
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
