"""Dense univariate polynomial helpers over an exact field.

Polynomials are plain ascending coefficient lists ``[c0, c1, ...]``; the zero
polynomial is ``[]`` (or any all-zero list).  The first half is field-generic
(works over the rationals and prime fields); its gcd is the Euclidean
algorithm over any field.  The Sturm machinery at the bottom needs an
ordered field and is rationals-only; its chains come from primitive
pseudo-remainder sequences on Python ints, as positive integer multiples of
the rational chain, so the last member of the chain of f is a multiple of
gcd(f, f').  That is the one remainder sequence over the rationals: the
smoothness report takes each chart's gcd with its derivative from it, and
hands the chain of D(1, t) to root isolation instead of building it again.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Sequence

from .errors import InternalCheckError, PrecondError, check
from .fields import QQ, Field
from .matrices import _trim


def trim(field: Field, c: Sequence[Any]) -> list:
    out = list(c)
    while out and field.is_zero(out[-1]):
        out.pop()
    return out


def degree(field: Field, c: Sequence[Any]) -> int:
    t = trim(field, c)
    return len(t) - 1


def is_zero_poly(field: Field, c: Sequence[Any]) -> bool:
    return all(field.is_zero(x) for x in c)


def add(field: Field, a: Sequence[Any], b: Sequence[Any]) -> list:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else field.zero
        y = b[i] if i < len(b) else field.zero
        out.append(field.add(x, y))
    return trim(field, out)


def neg(field: Field, a: Sequence[Any]) -> list:
    return [field.neg(x) for x in a]


def sub(field: Field, a: Sequence[Any], b: Sequence[Any]) -> list:
    return add(field, a, neg(field, b))


def scale(field: Field, k: Any, a: Sequence[Any]) -> list:
    return trim(field, [field.mul(k, x) for x in a])


def mul(field: Field, a: Sequence[Any], b: Sequence[Any]) -> list:
    a = trim(field, a)
    b = trim(field, b)
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return trim(field, out)


def evaluate(field: Field, c: Sequence[Any], x: Any) -> Any:
    acc = field.zero
    for coeff in reversed(list(c)):
        acc = field.add(field.mul(acc, x), coeff)
    return acc


def derivative(field: Field, c: Sequence[Any]) -> list:
    out = [field.mul(field.from_int(i), c[i]) for i in range(1, len(c))]
    return trim(field, out)


def divmod_poly(field: Field, a: Sequence[Any], b: Sequence[Any]) -> tuple[list, list]:
    b = trim(field, b)
    if not b:
        raise PrecondError("polynomial division by zero")
    rem = trim(field, a)
    db = len(b) - 1
    lead_inv = field.inv(b[-1])
    quo = [field.zero] * max(len(rem) - db, 0)
    while len(rem) - 1 >= db and rem:
        shift = len(rem) - 1 - db
        factor = field.mul(rem[-1], lead_inv)
        quo[shift] = factor
        for i in range(db + 1):
            rem[shift + i] = field.sub(rem[shift + i], field.mul(factor, b[i]))
        rem = trim(field, rem)
    return trim(field, quo), rem


def monic(field: Field, a: Sequence[Any]) -> list:
    a = trim(field, a)
    if not a:
        return []
    return scale(field, field.inv(a[-1]), a)


def gcd_poly(field: Field, a: Sequence[Any], b: Sequence[Any]) -> list:
    """Monic gcd by the Euclidean algorithm, over any field."""
    a = trim(field, a)
    b = trim(field, b)
    while b:
        _, r = divmod_poly(field, a, b)
        a, b = b, r
    return monic(field, a)


def is_squarefree(field: Field, a: Sequence[Any]) -> bool:
    a = trim(field, a)
    if not a:
        raise PrecondError("squarefreeness of the zero polynomial is undefined")
    if len(a) == 1:
        return True
    g = gcd_poly(field, a, derivative(field, a))
    return len(g) == 1


def sylvester_matrix(field: Field, a: Sequence[Any], b: Sequence[Any]) -> list[list]:
    a = trim(field, a)
    b = trim(field, b)
    da, db = len(a) - 1, len(b) - 1
    if da < 0 or db < 0:
        raise PrecondError("resultant with a zero polynomial")
    m = da + db
    rows = []
    for i in range(db):
        row = [field.zero] * m
        for j, c in enumerate(reversed(a)):
            row[i + j] = c
        rows.append(row)
    for i in range(da):
        row = [field.zero] * m
        for j, c in enumerate(reversed(b)):
            row[i + j] = c
        rows.append(row)
    return rows


def resultant(field: Field, a: Sequence[Any], b: Sequence[Any]) -> Any:
    from .linalg import det

    return det(field, sylvester_matrix(field, a, b))


# ----------------------------------------------------------------------
# Sturm machinery (rationals only: needs an ordering)
#
# A chain is kept integer-scaled: each member is a positive multiple of the
# rational Sturm polynomial, as a list of ints, so a sign at x = num/den
# (den > 0) is the sign of den^d·p(num/den), found by integer Horner.
# ----------------------------------------------------------------------


def sturm_chain(c: Sequence[Fraction]) -> list[list[int]]:
    """Sturm chain p0, p1, -rem(p0,p1), ... of a nonzero rational polynomial,
    each member a positive multiple of the rational one, with coprime
    integer coefficients."""
    p0 = _primitive_multiple(c)
    if not p0:
        raise PrecondError("Sturm chain of the zero polynomial")
    chain = [p0]
    p1 = [i * x for i, x in enumerate(p0)][1:]
    if p1:
        chain.append(p1)
        while True:
            r = _prem(chain[-2], chain[-1])
            if not r:
                break
            chain.append(_primitive([-x for x in r]))
    return chain


def _primitive_multiple(p: Sequence[Any]) -> list[int]:
    """A rational polynomial (ints or Fractions) times a positive rational:
    integer coefficients with no common factor and no trailing zeros."""
    scale = math.lcm(*(x.denominator for x in p))
    return _primitive(_trim([x.numerator * (scale // x.denominator) for x in p]))


def _primitive(p: list[int]) -> list[int]:
    """The integer polynomial divided by its content, the positive gcd of its
    coefficients; the zero polynomial is returned as it is."""
    content = math.gcd(*p)
    return [x // content for x in p] if content > 1 else p


def _prem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """A positive multiple of rem(a, b) over the rationals, for integer
    polynomials a and b != 0 without trailing zeros.  Each step cancels the
    lead of the remainder r by  (|lead b|/g)·r - sign(lead b)·(lead r/g)·t^s·b
    with g = gcd(lead b, lead r), so the multiplier stays positive."""
    r = list(a)
    lead = b[-1]
    db = len(b) - 1
    while len(r) > db:
        g = math.gcd(lead, r[-1])
        keep, cancel = abs(lead) // g, r[-1] // g
        if lead < 0:
            cancel = -cancel
        shift = len(r) - 1 - db
        if keep != 1:
            r = [keep * x for x in r]
        for i, y in enumerate(b, shift):
            r[i] -= cancel * y
        r = _trim(r)
    return r


def _sign_at(p: Sequence[int], x: Fraction) -> int:
    """Sign of p(x) for an integer polynomial p: the sign of den^d·p(num/den)
    with x = num/den, den > 0, by homogeneous Horner."""
    num, den = x.numerator, x.denominator
    acc, power = 0, 1
    for c in reversed(p):
        acc = acc * num + c * power
        power *= den
    return (acc > 0) - (acc < 0)


def sign_variations(chain: Sequence[Sequence[int]], x: Fraction) -> int:
    signs = [s for s in (_sign_at(p, x) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def root_bound(c: Sequence[int]) -> int:
    """The least power of two R = 2^k, k >= 0, that dominates the integer
    polynomial c of degree d >= 1 (given without trailing zeros):
    |c_d|·R^d > sum_{i<d} |c_i|·R^i.  On |t| >= R the lead term outweighs
    the rest, so c(±R) != 0 and every real root lies in (-R, R)."""
    *rest, lead = [abs(x) for x in c]
    d = len(rest)
    # each i needs 2^(k(d - i)) > |c_i|/|c_d| > 2^(bits(c_i) - 1 - bits(c_d)), so the
    # scan starts at the least k meeting that; R = 2·max_i (|c_i|/|c_d|)^(1/(d - i))
    # dominates (Fujiwara), so it ends a few steps on
    k = max([0] + [(x.bit_length() - 1 - lead.bit_length()) // (d - i) + 1 for i, x in enumerate(rest) if x])
    while sum(x << (i * k) for i, x in enumerate(rest)) >= lead << (d * k):
        k += 1
    return 1 << k


def isolate_real_roots(
    c: Sequence[Fraction], chain: Sequence[Sequence[int]] | None = None
) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals for the distinct real roots, in increasing order;
    `chain` is `sturm_chain(c)` when the caller already holds it.

    Bisection starts from (-R, R), R = `root_bound` of the chain's head, the
    least power of two whose lead term dominates, so every endpoint is a
    dyadic rational a/2^j of a few bits (Collins and Akritas, SYMSAC 1976)
    and the Sturm signs at it are taken on small integers.  Each root is a
    pair (lo, hi) with f nonzero at both endpoints and exactly one root in
    the open interval — except dyadic roots met at a midpoint, which come
    back as exact singletons (r, r).  Intervals of distinct roots have
    disjoint interiors (they may share a non-root endpoint).  f gives way to
    its squarefree part only when the last member of its Sturm chain, a
    multiple of gcd(f, f'), is nonconstant.
    """
    f = trim(QQ, list(c))
    if not f:
        raise PrecondError("cannot isolate roots of the zero polynomial")
    if len(f) == 1:
        return []
    chain = sturm_chain(f) if chain is None else chain
    if len(chain[-1]) > 1:
        f, _ = divmod_poly(QQ, f, [Fraction(x) for x in chain[-1]])
        chain = sturm_chain(f)

    # the bisection revisits its points, so each point's sign variations
    # are taken once per call, keyed by the point's numerator and
    # denominator (hashing a Fraction takes a modular inverse)
    variations: dict[tuple[int, int], int] = {}

    def variations_at(x: Fraction) -> int:
        key = x.numerator, x.denominator
        v = variations.get(key)
        if v is None:
            v = variations[key] = sign_variations(chain, x)
        return v

    def count(a: Fraction, b: Fraction) -> int:
        """Number of distinct real roots in the half-open interval (a, b]."""
        return variations_at(a) - variations_at(b)

    def fsign(x: Fraction) -> int:
        return _sign_at(chain[0], x)

    bound = Fraction(root_bound(chain[0]))
    lo0, hi0 = -bound, bound  # f is nonzero at both
    total = count(lo0, hi0)
    if total == 0:
        return []

    def nonroot_below(r: Fraction, floor: Fraction) -> Fraction:
        """A point m in (floor, r) with f(m) != 0 and no root in (m, r)."""
        m = (floor + r) / 2
        while fsign(m) == 0 or count(m, r) > 1:
            m = (m + r) / 2
        return m

    def nonroot_above(r: Fraction, ceil: Fraction) -> Fraction:
        """A point m in (r, ceil) with f(m) != 0 and no root in (r, m]."""
        m = (r + ceil) / 2
        while fsign(m) == 0 or count(r, m) > 0:
            m = (r + m) / 2
        return m

    # bisection over a stack of intervals with the leftmost on top, so the
    # roots come out in increasing order; a root met at a midpoint goes on
    # as its singleton (mid, mid) between its two non-root neighbours
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(lo0, hi0)]
    while stack:
        lo, hi = stack.pop()
        # a singleton is its root; otherwise f(lo) != 0 and f(hi) != 0
        n = 1 if lo == hi else count(lo, hi)
        if n == 1:
            out.append((lo, hi))
        elif n > 1:
            mid = (lo + hi) / 2
            if fsign(mid) == 0:
                ml, mr = nonroot_below(mid, lo), nonroot_above(mid, hi)
                stack += [(mr, hi), (mid, mid), (lo, ml)]
            else:
                stack += [(mid, hi), (lo, mid)]

    check("isolated roots = Sturm root count", isolated=len(out), sturm_count=total)
    for left, right in zip(out, out[1:]):
        if left[1] > right[0]:
            raise InternalCheckError("isolating intervals do not overlap", left=left, right=right)
    return out


def sample_points_between(roots: Sequence[tuple[Fraction, Fraction]]) -> list[Fraction]:
    """Rational non-root samples interleaving isolated roots: one below all
    roots, one between each consecutive pair, one above all roots."""
    if not roots:
        return [Fraction(0)]
    samples = [roots[0][0] - 1]
    for (_, hi), (lo2, _) in zip(roots, roots[1:]):
        samples.append((hi + lo2) / 2)
    samples.append(roots[-1][1] + 1)
    return samples
