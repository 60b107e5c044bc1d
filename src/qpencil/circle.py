"""The index circle of a real pencil and its odd decomposition.

Walk counterclockwise around the unit circle of members s0*Q0 + s1*Q1 of a
smooth rational pencil.  The positive index of the member is locally constant
and jumps by +-1 exactly at the 2k circle points lying over the k real
projective roots of the discriminant form.  The cyclic word of jump signs
decomposes the circle into maximal runs; the multiset of run lengths, read
cyclically, is a complete invariant of the real pencil up to isotopy, and is
always a composition of k into an odd number of parts.  The classes
themselves, and the verdicts read off a class, live in `classes`.

Everything here is exact: roots are isolated with Sturm sequences, and every
signature is computed twice on antipodal arcs, by two algorithms, and
cross-checked.  On the members (1, t) the signature comes from the signs of
the leading principal minors that the discriminant's elimination already
gave (Jacobi's rule), and elsewhere from a symmetric elimination.
"""

from __future__ import annotations

from fractions import Fraction

from . import classes, univariate as uv
from .classes import OddDecomposition, canonical_parts
from .errors import InternalCheckError, PrecondError, check
from .fields import QQ
from .matrices import _integer_grams, signature_pair
from .pencil import Pencil, SmoothnessReport, smoothness
from .records import record

# `classes` holds the class combinatorics; these two are bound here as well
# because perfbench calls them, and traces real_verdict, as circle attributes
enumerate_classes = classes.enumerate_classes
real_verdict = classes.real_verdict


@record
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


@record
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
