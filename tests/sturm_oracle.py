"""Sturm sequences over the rationals: the reference that the Descartes root
isolation of `qpencil.univariate` is tested against.

A chain is kept integer-scaled: each member is a positive multiple of the
rational Sturm polynomial, as a list of ints with coprime coefficients, built
from the library's primitive pseudo-remainders.  Sturm's theorem counts the
distinct real roots in (a, b] as V(a) - V(b), V the sign variations of the
chain, with no condition on the endpoints.
"""

from fractions import Fraction

import qpencil.univariate as uv
from qpencil.fields import QQ


def sturm_chain(f):
    """Sturm chain p0, p1, -rem(p0, p1), ... of a nonconstant rational f."""
    chain = [uv._primitive_multiple(f)]
    chain.append([i * x for i, x in enumerate(chain[0])][1:])
    while r := uv._prem(chain[-2], chain[-1]):
        chain.append(uv._primitive([-x for x in r]))
    return chain


def sign_variations(chain, x):
    signs = [s for s in (uv._sign_at(p, x) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def roots_in(chain, a, b):
    """Sturm's theorem: the distinct real roots in the half-open (a, b]."""
    return sign_variations(chain, a) - sign_variations(chain, b)


def cauchy_isolation(c):
    """`sturm_isolation` of a squarefree rational polynomial from ±(B + 1),
    with B = 1 + max |c_i|/|c_d| the Cauchy bound: its endpoints carry the
    coefficients of c in their denominators."""
    f = uv.trim(QQ, list(c))
    if len(f) < 2:
        return []
    return sturm_isolation(sturm_chain(f), 2 + max(abs(x) for x in f[:-1]) / abs(f[-1]))


def sturm_isolation(chain, bound):
    """Root isolation by Sturm counts of the squarefree head of `chain`,
    bisecting from (-bound, bound), which must hold every real root:
    intervals with exactly one root and non-root ends, or exact singletons
    for roots met at a midpoint, in increasing order."""

    def count(a, b):
        return roots_in(chain, a, b)

    def is_root(x):
        return uv._sign_at(chain[0], x) == 0

    bound = Fraction(bound)
    out, stack = [], [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        roots = 1 if lo == hi else count(lo, hi)
        if roots == 1:
            out.append((lo, hi))
        elif roots > 1:
            mid = (lo + hi) / 2
            if is_root(mid):
                below, above = (lo + mid) / 2, (mid + hi) / 2
                while is_root(below) or count(below, mid) > 1:
                    below = (below + mid) / 2
                while is_root(above) or count(mid, above) > 0:
                    above = (mid + above) / 2
                stack += [(above, hi), (mid, mid), (lo, below)]
            else:
                stack += [(mid, hi), (lo, mid)]
    return out


def share_a_root(chain, one, other):
    """Whether the closed intervals `one` and `other` meet in a set that
    holds exactly one root of chain[0]."""
    lo, hi = max(one[0], other[0]), min(one[1], other[1])
    if lo > hi:
        return False
    return roots_in(chain, lo, hi) + (uv._sign_at(chain[0], Fraction(lo)) == 0) == 1
