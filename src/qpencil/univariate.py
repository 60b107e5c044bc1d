"""Dense univariate polynomial helpers over an exact field.

Polynomials are plain ascending coefficient lists ``[c0, c1, ...]``; the zero
polynomial is ``[]`` (or any all-zero list).  The first half is field-generic
(works over the rationals and prime fields); its gcd is the Euclidean
algorithm over any field, except that the gcd of a rational polynomial with
its derivative comes from one primitive pseudo-remainder sequence on Python
ints.  The second half needs an ordered field and is rationals-only: real
root isolation of a squarefree polynomial by Descartes' rule of signs,
bisecting on a dyadic grid by de Casteljau's rule on integer Bernstein
coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import ne
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


def gcd_with_derivative(field: Field, c: Sequence[Any]) -> list:
    """The monic gcd of c and c' ([1] for a constant c).  Over the rationals
    it is the last member of the primitive pseudo-remainder sequence of c
    and c' on Python ints, made monic; over F_p it is Euclid's algorithm."""
    c = trim(field, c)
    if len(c) < 2:
        return [field.one]
    if field != QQ:
        return gcd_poly(field, c, derivative(field, c))
    a = _primitive_multiple(c)
    b = _primitive([i * x for i, x in enumerate(a)][1:])
    while r := _prem(a, b):
        a, b = b, _primitive(r)
    return monic(QQ, b)


def is_squarefree(field: Field, a: Sequence[Any]) -> bool:
    if is_zero_poly(field, a):
        raise PrecondError("squarefreeness of the zero polynomial is undefined")
    return len(gcd_with_derivative(field, a)) == 1


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
# Over the rationals: a polynomial is scaled to its primitive integer
# multiple, so remainders, signs and root isolation run on Python ints.
# ----------------------------------------------------------------------


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


def isolate_real_roots(c: Sequence[Fraction]) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals for the real roots of a squarefree nonzero
    rational polynomial f, in increasing order, by Descartes' rule of signs
    (Collins and Akritas, SYMSAC 1976).

    Every real root lies in (-R, R), R = 2^r = `root_bound` of f.  The roots
    in (0, R) and in (-R, 0) are bisected apart on the dyadic grid ±c·R/2^k
    (`_half_roots`), so every endpoint is a dyadic rational a/2^j of a few
    bits.  A root at 0 or at a midpoint comes back as an exact singleton
    (r, r); any other as a pair (lo, hi) with one root inside and f nonzero
    at both ends, which `check` confirms by a change of sign.  Intervals of
    distinct roots have disjoint interiors, and the leaves of each half's
    bisection, counting 0 or 1, must tile it, so no node is lost.

    Input with a repeated real root is refused with PrecondError: at once
    when it is 0 or a midpoint, and otherwise past the depth where every
    interval is narrower than sep(f)/√3, as sep(f) > √3·d^(-(d+2)/2)·‖f‖₁^(1-d)
    (Mahler, Michigan Math. J. 11, 1964).  There the two circles through the
    ends of an interval, √3 times its width across, hold at most one root,
    so by the two-circle theorem a count of 2 or more proves a repeated
    root.  A repeated non-real root is not detected; the intervals of the
    real roots are still correct.
    """
    f = trim(QQ, list(c))
    if not f:
        raise PrecondError("cannot isolate roots of the zero polynomial")
    p = _primitive_multiple(f)
    if len(p) == 1:
        return []
    d, r = len(p) - 1, root_bound(p).bit_length() - 1
    limit = r + math.ceil((d + 2) / 2 * math.log2(d)) + (d - 1) * (sum(map(abs, p)) - 1).bit_length()
    if not p[0] and not p[1]:
        raise PrecondError("root isolation needs a squarefree polynomial: 0 is a repeated root")
    at_zero = [] if p[0] else [(Fraction(0), Fraction(0))]
    out = _half_roots(p, -1, r, limit)[::-1] + at_zero + _half_roots(p, 1, r, limit)
    for lo, hi in out:
        if lo != hi:
            a, b = _sign_at(p, lo), _sign_at(p, hi)
            check("f changes sign across an isolating interval", sign_product=a * b, expected=-1,
                  where={"interval": (lo, hi), "sign_at_lo": a, "sign_at_hi": b})
    for left, right in zip(out, out[1:]):
        if left[1] > right[0]:
            raise InternalCheckError("isolating intervals do not overlap", left=left, right=right)
    return out


def _half_roots(p: list[int], sign: int, r: int, limit: int) -> list[tuple[Fraction, Fraction]]:
    """The intervals of `isolate_real_roots` for the roots of the integer
    polynomial p between 0 and sign·2^r, nearest 0 first.

    A node (b, c, k) stands for sign·x with x in (c·2^r/2^k, (c + 1)·2^r/2^k),
    and b are the Bernstein coefficients on [0, 1] of a positive multiple of
    g(x) = p(sign·2^r·(c + x)/2^k): the coefficients of (x + 1)^d·g(1/(x + 1)),
    each divided by a binomial coefficient.  So their sign variations are the
    Descartes count of the roots inside, and b[0] and b[-1] have the signs of
    p at the ends.  A root met at a midpoint is pushed as the node (None, c, k)
    of its singleton, between the two halves."""
    d = len(p) - 1
    a = [-x if sign < 0 and i % 2 else x for i, x in enumerate(p)]
    # b_i = sum_j C(i, j)/C(d, j)·a_j for a_j the coefficients of p(sign·2^r·x),
    # times the lcm of the C(d, j), by d rounds of neighbour sums
    scale = math.lcm(*(math.comb(d, j) for j in range(d + 1)))
    top = [x * (scale // math.comb(d, j)) << (r * j) for j, x in enumerate(a)]
    for k in range(1, d + 1):
        for i in range(d, k - 1, -1):
            top[i] += top[i - 1]
    out: list[tuple[Fraction, Fraction]] = []
    covered = 0  # the width of the leaves (counts 0 and 1), in units of 2^(r - limit - 1)
    stack: list[tuple[list[int] | None, int, int]] = [(top, 0, 0)]
    while stack:
        b, c, k = stack.pop()
        if b is None:
            out.append((_dyadic(sign * c, r - k),) * 2)
            continue
        count = _variations(b)
        if count == 1 and b[0] and b[-1]:
            out.append(_interval(sign, c, r - k))
        elif count and k > limit:
            raise PrecondError(
                f"root isolation needs a squarefree polynomial: {count} roots counted in an interval of width 2^{r - k}"
            )
        elif count:
            left, right = _halves(b)
            if left[-1]:
                stack += [(right, 2 * c + 1, k + 1), (left, 2 * c, k + 1)]
            elif left[-2]:
                stack += [(right, 2 * c + 1, k + 1), (None, 2 * c + 1, k + 1), (left, 2 * c, k + 1)]
            else:
                mid = _dyadic(sign * (2 * c + 1), r - k - 1)
                raise PrecondError(f"root isolation needs a squarefree polynomial: {mid} is a repeated root")
            continue
        covered += 1 << (limit + 1 - k)
    if covered != 1 << (limit + 1):
        raise InternalCheckError("the leaves of the bisection tile the half", covered=covered,
                                 expected=1 << (limit + 1), half=_interval(sign, 0, r))
    return out


def _dyadic(c: int, e: int) -> Fraction:
    return Fraction(c << e) if e >= 0 else Fraction(c, 1 << -e)


def _interval(sign: int, c: int, e: int) -> tuple[Fraction, Fraction]:
    """The interval between sign·c·2^e and sign·(c + 1)·2^e."""
    return (_dyadic(c, e), _dyadic(c + 1, e)) if sign > 0 else (_dyadic(-c - 1, e), _dyadic(-c, e))


def _halves(b: Sequence[int]) -> tuple[list[int], list[int]]:
    """The Bernstein coefficients of the two halves [0, 1/2] and [1/2, 1],
    each times 2^d, from those b of degree d, by de Casteljau's rule; the
    left half ends with, and the right half starts with, the value at 1/2."""
    d = len(b) - 1
    left, right, row = [b[0] << d], [b[-1] << d], list(b)
    for j in range(d - 1, -1, -1):
        for i in range(j + 1):
            row[i] += row[i + 1]
        left.append(row[0] << j)
        right.append(row[j] << j)
    return left, right[::-1]


def _variations(g: Sequence[int]) -> int:
    """The number of sign changes in the coefficients of g, zeros skipped."""
    signs = [x < 0 for x in g if x]
    return sum(map(ne, signs, signs[1:]))


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
