"""Dense univariate arithmetic; coefficients ascending."""

import gc
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import qpencil.univariate as uv
from qpencil.errors import PrecondError
from qpencil.fields import QQ, PrimeField
from qpencil.matrices import SymMatrix
from qpencil.pencil import Pencil, smoothness

F5 = PrimeField(5)

coeffs5 = st.lists(st.integers(0, 4), min_size=0, max_size=7)


@given(coeffs5, coeffs5)
def test_divmod_identity(a, b):
    if uv.is_zero_poly(F5, b):
        with pytest.raises(PrecondError):
            uv.divmod_poly(F5, a, b)
        return
    q, r = uv.divmod_poly(F5, a, b)
    back = uv.add(F5, uv.mul(F5, q, b), r)
    assert uv.trim(F5, back) == uv.trim(F5, a)
    assert uv.degree(F5, r) < uv.degree(F5, b) or uv.is_zero_poly(F5, r)


@given(coeffs5, coeffs5)
def test_gcd_divides_both(a, b):
    g = uv.gcd_poly(F5, a, b)
    if uv.is_zero_poly(F5, a) and uv.is_zero_poly(F5, b):
        assert g == [F5.zero] or uv.is_zero_poly(F5, g)
        return
    for c in (a, b):
        if uv.is_zero_poly(F5, c):
            continue
        _, r = uv.divmod_poly(F5, c, g)
        assert uv.is_zero_poly(F5, r)
    # monic normalization
    assert g[-1] == F5.one


@given(coeffs5, coeffs5, coeffs5)
def test_mul_distributes(a, b, c):
    lhs = uv.mul(F5, a, uv.add(F5, b, c))
    rhs = uv.add(F5, uv.mul(F5, a, b), uv.mul(F5, a, c))
    assert uv.trim(F5, lhs) == uv.trim(F5, rhs)


def _from_roots(roots):
    f = [Fraction(1)]
    for r in roots:
        f = uv.mul(QQ, f, [-Fraction(r), Fraction(1)])
    return f


@given(st.lists(st.integers(-8, 8), min_size=1, max_size=5))
def test_squarefree_iff_resultant_with_derivative(roots):
    f = _from_roots(roots)
    res = uv.resultant(QQ, f, uv.derivative(QQ, f))
    assert uv.is_squarefree(QQ, f) == (len(set(roots)) == len(roots))
    assert (res != 0) == uv.is_squarefree(QQ, f)


def test_squarefree_prime_field_spot():
    # (t+1)^2 (t+2) over F_5
    f = uv.mul(F5, uv.mul(F5, [1, 1], [1, 1]), [2, 1])
    assert not uv.is_squarefree(F5, f)
    assert uv.is_squarefree(F5, [2, 1, 1, 3])


def _roots_in(chain, a, b):
    """Sturm's theorem: the distinct real roots in the half-open (a, b]."""
    return uv.sign_variations(chain, a) - uv.sign_variations(chain, b)


@given(st.lists(st.builds(Fraction, st.integers(-48, 48), st.integers(1, 6)), min_size=1, max_size=4))
@settings(max_examples=60)
def test_sturm_counts_match_known_roots(roots):
    """Sturm count on (a, b] equals the number of planted roots.

    Chains are built from squarefree input (multiplicities are stripped
    before the chain everywhere in the library), so plant each root once.
    """
    distinct = sorted(set(roots))
    f = _from_roots(distinct)
    chain = uv.sturm_chain(f)
    lo = min(distinct) - 1
    hi = max(distinct) + 1
    assert _roots_in(chain, lo, hi) == len(distinct)
    # half-open convention: (a, b] includes b, excludes a
    for r in distinct:
        assert _roots_in(chain, lo, r) == sum(1 for x in distinct if lo < x <= r)
        assert _roots_in(chain, r, hi) == sum(1 for x in distinct if r < x <= hi)


def test_integer_sturm_counts_at_large_denominators():
    """-(t - 1/3)(t + 5/7)(3t^2 - 2): non-integral coefficients, a negative
    lead and two irrational roots +-s, s = sqrt(2/3).  Each root is counted
    on (r - 2^-40, r + 2^-40] around a rational r within 2^-50 of it, so the
    endpoints have denominators near 2^40 and the chain members are
    evaluated far from their integer scaling."""
    f = uv.mul(QQ, _from_roots([Fraction(1, 3), Fraction(-5, 7)]), [Fraction(-2), Fraction(0), Fraction(3)])
    f = uv.neg(QQ, f)
    assert f[-1] == -3 and any(c.denominator > 1 for c in f)
    chain = uv.sturm_chain(f)
    assert all(type(c) is int for p in chain for c in p)
    s = Fraction(math.isqrt(2 * 2**100 // 3), 2**50)  # s <= sqrt(2/3) < s + 2^-50
    near = [-s, Fraction(-5, 7), Fraction(1, 3), s]
    eps = Fraction(1, 2**40)
    for r in near:
        assert _roots_in(chain, r - eps, r + eps) == 1
    for a, b in zip(near, near[1:]):
        assert _roots_in(chain, a + eps, b - eps) == 0
    assert _roots_in(chain, near[0] - eps, near[-1] + eps) == 4
    # exact rational roots: (a, b] holds b but not a
    for r in (Fraction(-5, 7), Fraction(1, 3)):
        assert _roots_in(chain, r - eps, r) == 1
        assert _roots_in(chain, r, r + eps) == 0

    intervals = uv.isolate_real_roots(f)
    assert len(intervals) == 4
    (a0, b0), (a1, b1), (a2, b2), (a3, b3) = intervals
    two_thirds = Fraction(2, 3)
    assert a0 < 0 and a0 * a0 > two_thirds and (b0 >= 0 or b0 * b0 < two_thirds)  # a0 < -s < b0
    assert (a3 < 0 or a3 * a3 < two_thirds) and b3 > 0 and b3 * b3 > two_thirds  # a3 < s < b3
    for (a, b), r in (((a1, b1), Fraction(-5, 7)), ((a2, b2), Fraction(1, 3))):
        assert a == b == r or a < r < b


def test_rational_gcd_of_multiples_is_the_monic_common_factor():
    """gcd(g·a, g·b) = monic(g) with Fraction coefficients, for coprime a, b
    with non-integral coefficients and negative leads."""
    g = uv.mul(QQ, _from_roots([Fraction(2, 3), Fraction(-1, 2)]), [Fraction(5, 7), Fraction(0), Fraction(-3, 2)])
    a = [Fraction(1, 3), Fraction(-2, 5), Fraction(-7, 4)]  # no rational roots, lead -7/4
    b = uv.neg(QQ, _from_roots([Fraction(3, 11), Fraction(-4, 9), Fraction(5, 2)]))
    assert uv.gcd_poly(QQ, a, b) == [Fraction(1)]
    for x, y, common in ((a, b, g), (b, a, g), (a, a, uv.mul(QQ, g, a)), (b, [], uv.mul(QQ, g, b))):
        got = uv.gcd_poly(QQ, uv.mul(QQ, g, x), uv.mul(QQ, g, y))
        assert got == uv.monic(QQ, common) and all(type(c) is Fraction for c in got)
    assert uv.gcd_poly(QQ, [], []) == []


@pytest.mark.parametrize(
    "diag1, main_gcd, other_gcd",
    [
        ([Fraction(1, 2), Fraction(1, 2), Fraction(3), Fraction(-5, 3)], (2, 1), (Fraction(1, 2), 1)),
        ([Fraction(1, 2)] * 3 + [Fraction(3), Fraction(-5, 3)], (4, 4, 1), (Fraction(1, 4), 1, 1)),
    ],
)
def test_chart_gcds_of_a_repeated_root(diag1, main_gcd, other_gcd):
    """G0 = I, G1 = diag(diag1): the root s0 + s1/2 = 0 is repeated, so each
    chart gcd is a power of it, monic, with Fraction coefficients."""
    n = len(diag1) - 1
    p = Pencil(QQ, n, SymMatrix.diagonal(QQ, [Fraction(1)] * (n + 1)), SymMatrix.diagonal(QQ, diag1))
    rep = smoothness(p)
    assert not rep.smooth
    assert rep.chart_main_gcd == main_gcd and rep.chart_other_gcd == other_gcd
    assert all(type(c) is Fraction for c in rep.chart_main_gcd + rep.chart_other_gcd)


def _rational_sturm_chain(f):
    chain = [uv.trim(QQ, f), uv.derivative(QQ, f)]
    while True:
        _, r = uv.divmod_poly(QQ, chain[-2], chain[-1])
        if not r:
            return chain
        chain.append(uv.neg(QQ, r))


@given(st.lists(st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9)), min_size=2, max_size=7))
@settings(max_examples=80)
def test_sturm_members_are_positive_multiples_of_the_rational_chain(coeffs):
    f = uv.trim(QQ, coeffs)
    if len(f) < 2:
        return
    chain = uv.sturm_chain(f)
    want = _rational_sturm_chain(f)
    assert len(chain) == len(want)
    for member, ref in zip(chain, want):
        assert all(type(c) is int for c in member) and len(member) == len(ref)
        ratio = Fraction(member[-1]) / ref[-1]
        assert ratio > 0 and [ratio * c for c in ref] == member


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5))
@settings(max_examples=60)
def test_isolation_brackets_every_root_once(roots):
    f = _from_roots(roots)
    intervals = uv.isolate_real_roots(f)
    distinct = sorted(set(roots))
    assert len(intervals) == len(distinct)
    for (a, b), r in zip(intervals, distinct):
        # exact hits come back as singletons, otherwise the root is interior
        if a == b:
            assert a == Fraction(r)
        else:
            assert a < Fraction(r) < b
    # disjoint interiors, increasing order
    for (a1, b1), (a2, b2) in zip(intervals, intervals[1:]):
        assert b1 <= a2


def test_isolation_irrational_roots():
    # t^2 - 2: two irrational roots, must be isolated with rational endpoints
    intervals = uv.isolate_real_roots([Fraction(-2), Fraction(0), Fraction(1)])
    assert len(intervals) == 2
    (a1, b1), (a2, b2) = intervals
    assert a1 < -Fraction(141421, 100000) < b1 or a1 < b1 < 0
    assert float(a2) < 2 ** 0.5 < float(b2) + 1e-12


@pytest.mark.parametrize(
    "factors, intervals",
    [
        # t^2 (t - 3)(t + 5), from (-8, 8): the first bisection midpoint 0 is the double root
        ([[0, 1], [0, 1], [-3, 1], [5, 1]], [(-8, -4), (0, 0), (2, 8)]),
        # (t^2 - 2)^2 (t - 1), from (-4, 4)
        ([[-2, 0, 1], [-2, 0, 1], [-1, 1]], [(-4, 0), (1, 1), (Fraction(5, 4), 2)]),
        # (2t + 1)^3 (3t^2 - 7), from (-4, 4)
        ([[1, 2], [1, 2], [1, 2], [-7, 0, 3]], [(-2, -1), (-1, 0), (0, 2)]),
        # -(t - 1)^2 (t + 2), whose Sturm chain ends in a negative multiple of t - 1
        ([[-1], [-1, 1], [-1, 1], [2, 1]], [(-4, 0), (0, 4)]),
    ],
)
def test_isolation_of_a_polynomial_with_multiple_roots(factors, intervals):
    """Non-squarefree input is isolated through its squarefree part; the
    intervals are pinned to those of the gcd-first isolation."""
    f = [Fraction(1)]
    for factor in factors:
        f = uv.mul(QQ, f, [Fraction(c) for c in factor])
    assert uv.isolate_real_roots(f) == [(Fraction(a), Fraction(b)) for a, b in intervals]


def test_isolation_leaves_no_reference_cycles():
    """The bisection keeps its intervals on a stack, not in a closure that
    calls itself, so with the cyclic collector off, 100 isolations each of
    (t - 1)(t - 2)(t - 3), whose midpoint 2 is a root, and of
    t (t - 3)(t + 5), whose first midpoint 0 is a root, leave nothing for it
    to collect."""
    cases = [
        (_from_roots([1, 2, 3]), [(0, Fraction(3, 2)), (2, 2), (Fraction(5, 2), 4)]),
        (_from_roots([0, 3, -5]), [(-8, -4), (0, 0), (2, 8)]),
    ]
    gc.collect()
    gc.disable()
    try:
        for f, intervals in cases:
            for _ in range(100):
                assert uv.isolate_real_roots(f) == intervals
        assert gc.collect() == 0
    finally:
        gc.enable()


def _root_bound_battery():
    """Seeded integer polynomials: random coefficients with huge and tiny
    ratios to the lead, roots at 0, and products of dyadic roots a/2^j that
    bisection from (-R, R) meets exactly at a midpoint."""
    rng = random.Random(26)
    out = [[0, 1], [0, 0, 5], [-1, 1], [-2, 1], [1, 0, 1], [-(2**300), 1], [-1, 2**300], [7, 0, 0, 3]]
    for trial in range(240):
        d = trial % 12 + 1
        scale = rng.choice([1, 2**64, 10**90])
        if trial % 4 == 0:  # huge coefficients below a small lead
            c = [rng.randint(-scale, scale) for _ in range(d)] + [rng.choice([-1, 1])]
        elif trial % 4 == 1:  # a huge lead over small coefficients
            c = [rng.randint(-9, 9) for _ in range(d)] + [rng.choice([-1, 1]) * rng.randint(1, scale)]
        elif trial % 4 == 2:  # a root at 0 of multiplicity up to 3
            zeros = rng.randint(1, min(d, 3))
            c = [0] * zeros + [rng.randint(-scale, scale) for _ in range(d - zeros)] + [rng.randint(1, 9)]
        else:  # dyadic roots a/2^j, some repeated
            c = uv._primitive_multiple(_from_roots([Fraction(rng.randint(-40, 40), 2 ** rng.randint(0, 4)) for _ in range(d)]))
        out.append(c)
    return out


def test_root_bound_is_the_least_dominating_power_of_two():
    """R = root_bound(c) is a power of two with |c_d|·R^d > sum |c_i|·R^i,
    and the least such R >= 1; c(±R) != 0, and every real root lies in
    (-R, R), where the Sturm count matches the count out to the Cauchy
    bound 1 + max |c_i|/|c_d|.  Isolation from (-R, R) brackets the same
    roots, meeting dyadic roots exactly as singletons."""
    singletons = 0
    for c in _root_bound_battery():
        r = uv.root_bound(c)
        *rest, lead = [abs(x) for x in c]
        d = len(rest)
        assert r >= 1 and r & (r - 1) == 0, c
        assert lead * r**d > sum(x * r**i for i, x in enumerate(rest)), c
        half = Fraction(r, 2)
        assert r == 1 or lead * half**d <= sum(x * half**i for i, x in enumerate(rest)), c
        f = [Fraction(x) for x in c]
        chain = uv.sturm_chain(f)
        assert uv._sign_at(c, Fraction(r)) and uv._sign_at(c, Fraction(-r)), c
        cauchy = 1 + Fraction(max(rest), lead)
        assert _roots_in(chain, -cauchy - 1, cauchy + 1) == _roots_in(chain, Fraction(-r), Fraction(r)), c
        intervals = uv.isolate_real_roots(f)
        assert len(intervals) == _roots_in(chain, Fraction(-r), Fraction(r)), c
        assert all(-r <= lo <= hi <= r for lo, hi in intervals), c
        for lo, hi in intervals:
            if lo == hi:
                singletons += 1
                assert uv.evaluate(QQ, f, lo) == 0
    assert singletons > 100, singletons


def test_sample_points_between():
    f = _from_roots([0, 4])
    roots = uv.isolate_real_roots(f)
    samples = uv.sample_points_between(roots)
    # one sample in every gap: before, between, after
    assert len(samples) == 3
    assert samples[0] < 0 < samples[1] < 4 < samples[2]


def test_evaluate_and_derivative():
    f = [Fraction(1), Fraction(-3), Fraction(2)]  # 1 - 3t + 2t^2
    assert uv.evaluate(QQ, f, Fraction(2)) == 1 - 6 + 8
    assert uv.derivative(QQ, f) == [Fraction(-3), Fraction(4)]


def test_resultant_of_common_root():
    f = _from_roots([2, 5])
    g = _from_roots([2, -1])
    assert uv.resultant(QQ, f, g) == 0
    h = _from_roots([3])
    assert uv.resultant(QQ, f, h) != 0
