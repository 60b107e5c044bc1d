"""Genus-2 point counts, L-polynomials, and the Mumford calibration."""

import random
import time

import pytest

from qpencil import univariate as uv
from qpencil.curvecounts import (
    CURVE_Q_LIMIT,
    curve_counts,
    curve_data,
    lpolynomial,
    weil_check,
)
from qpencil.errors import InternalCheckError, PrecondError
from qpencil.fields import PrimeField, legendre

# y^2 = t^5 - t, the classic calibration curve
T5_MINUS_T = [0, -1, 0, 0, 0, 1]


class _Fp2:
    """Reference F_{p^2} = F_p[w]/(w^2 - nu), nu a non-residue; elements are
    reduced pairs (a, b) meaning a + b*w.  It has just the methods that
    `_mumford_order` and the brute-force count call, and its square roots
    are counted by listing every square, not through the norm."""

    def __init__(self, p):
        self.p = p
        self.nu = next(a for a in range(2, p) if legendre(a, p) == -1)
        self.zero, self.one = (0, 0), (1, 0)
        self.roots = {}  # v -> #{y : y^2 = v}
        for y in self.elements():
            v = self.mul(y, y)
            self.roots[v] = self.roots.get(v, 0) + 1

    def elements(self):
        return ((a, b) for a in range(self.p) for b in range(self.p))

    def from_int(self, m):
        return (m % self.p, 0)

    def is_zero(self, x):
        return x == (0, 0)

    def add(self, x, y):
        return ((x[0] + y[0]) % self.p, (x[1] + y[1]) % self.p)

    def neg(self, x):
        return (-x[0] % self.p, -x[1] % self.p)

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        (a, b), (c, d) = x, y
        return ((a * c + self.nu * b * d) % self.p, (a * d + b * c) % self.p)

    def inv(self, x):
        return next(y for y in self.elements() if self.mul(x, y) == self.one)

    def chi(self, x):
        return self.roots.get(x, 0) - 1


def _brute_counts(f, q):
    """(N1, N2) by listing the square roots of f(x) in F_q and in F_{q^2},
    plus the points above t = infinity (one for a quintic, one per square
    root of the lead for a sextic)."""
    fq, ext = PrimeField(q), _Fp2(q)
    n1 = sum((y * y - uv.evaluate(fq, f, t)) % q == 0 for t in range(q) for y in range(q))
    lifted = [ext.from_int(c) for c in f]
    n2 = sum(ext.roots.get(uv.evaluate(ext, lifted, x), 0) for x in ext.elements())
    if len(f) == 6:
        return n1 + 1, n2 + 1
    return n1 + sum((y * y - f[-1]) % q == 0 for y in range(q)), n2 + ext.roots[lifted[-1]]


def _mumford_order(f, field):
    """Order of Jac(y^2 = f), f squarefree of degree 5, by listing Mumford
    pairs: the identity, plus pairs (u, v) with u monic of degree 1 or 2,
    deg v < deg u, and u | v^2 - f.  `field` is a prime field or `_Fp2`."""
    coeffs = [field.from_int(c) for c in f]
    elements = list(field.elements())
    total = 1  # identity
    # degree-1 u = t - a, v = b: condition b^2 = f(a)
    for a in elements:
        total += 1 + field.chi(uv.evaluate(field, coeffs, a))
    # degree-2 u = t^2 + u1 t + u0, v = v1 t + v0: u | v^2 - f
    diffs = []
    for v1 in elements:
        for v0 in elements:
            v = uv.trim(field, [v0, v1])
            diffs.append(uv.sub(field, uv.mul(field, v, v), coeffs))
    for u1 in elements:
        for u0 in elements:
            u = [u0, u1, field.one]
            total += sum(not uv.divmod_poly(field, diff, u)[1] for diff in diffs)
    return total


def test_calibration_counts_over_f3():
    n1, n2 = curve_counts(T5_MINUS_T, 3)
    assert (n1, n2) == (4, 6)


def test_calibration_lpolynomial():
    data = curve_data(T5_MINUS_T, 3)
    assert data.jacobian_order == 8
    assert data.lpoly[0] == 1
    assert data.lpoly[4] == 9
    assert sum(data.lpoly) == 8


def test_mumford_order_matches_over_f3_and_f9():
    f3 = PrimeField(3)
    data = curve_data(T5_MINUS_T, 3)
    assert _mumford_order(T5_MINUS_T, f3) == data.jacobian_order
    # over F_9 the order is prod (1 - alpha_i^2) = L(1) L(-1), here 64
    l_minus_1 = sum(c * (-1) ** i for i, c in enumerate(data.lpoly))
    assert _mumford_order(T5_MINUS_T, _Fp2(3)) == sum(data.lpoly) * l_minus_1 == 64


def test_counts_match_the_brute_force_count_over_f_q_squared():
    """(N1, N2) from F_q arithmetic against square roots listed in F_{q^2},
    on 1000 random squarefree models of degree 5 and 6."""
    rng = random.Random(20261018)
    seen = set()
    for q in (3, 5, 7, 11, 13):
        models = 0
        while models < 200:
            deg = rng.choice((5, 6))
            f = [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)]
            if not uv.is_squarefree(PrimeField(q), f):
                continue
            models += 1
            assert curve_counts(f, q) == _brute_counts(f, q), (f, q)
            seen.add(f"degree {deg}")
            if any(uv.evaluate(PrimeField(q), f, t) == 0 for t in range(q)):
                seen.add("a root in F_q")
            if legendre(f[-1], q) == -1:
                seen.add(f"a non-square lead, degree {deg}")
            if f[0] == 0:
                seen.add("c0 = 0")
    assert seen == {
        "degree 5",
        "degree 6",
        "a root in F_q",
        "a non-square lead, degree 5",
        "a non-square lead, degree 6",
        "c0 = 0",
    }


def test_two_route_jacobian_orders_agree():
    for f, q in [
        (T5_MINUS_T, 3),
        (T5_MINUS_T, 5),
        ([1, 0, 2, 0, 0, 1], 5),
        ([2, 0, 1, 0, 0, 1], 7),
    ]:
        assert curve_data(f, q).jacobian_order == _mumford_order(f, PrimeField(q))


def test_degree_six_models_count_both_infinite_branches():
    # y^2 = t^6 + t + 1 over F_5: the leading coefficient is a square, so two
    # points sit over infinity
    data = curve_data([1, 1, 0, 0, 0, 0, 1], 5)
    assert data.n1 >= 2
    weil_check(data.lpoly, 5)


def test_model_validation():
    with pytest.raises(PrecondError, match="deg f"):
        curve_counts([1, 1, 1], 3)
    with pytest.raises(PrecondError, match="squarefree"):
        curve_counts([0, 0, 1, 0, 0, 1], 5)  # t^2 (t^3 + 1)
    start = time.perf_counter()
    with pytest.raises(PrecondError, match="CURVE_Q_LIMIT"):
        curve_counts(T5_MINUS_T, 1009)
    assert time.perf_counter() - start < 0.1
    assert CURVE_Q_LIMIT < 1009


def test_weil_check_rejects_bad_lpolys():
    good = curve_data(T5_MINUS_T, 3).lpoly
    weil_check(good, 3)
    bad = (1, good[1], good[2], good[3] + 1, good[4])
    with pytest.raises(InternalCheckError, match="functional") as err:
        weil_check(bad, 3)
    assert f"lpoly = {bad}, expected = {tuple(good)}" in str(err.value)
    with pytest.raises(InternalCheckError, match=r"Weil bound \(L\(1\) - \(q\+1\)²\)² <= 16q\(q\+1\)²: l1 = 410, q = 3"):
        weil_check((1, 100, 0, 300, 9), 3)
    with pytest.raises(InternalCheckError, match=r"Jacobian order L\(1\) > 0: l1 = -10"):
        weil_check((1, -5, 0, -15, 9), 3)


def test_lpolynomial_parity_guard():
    # p1 = 0, p2 = 1 is impossible: p1^2 - p2 must be even
    with pytest.raises(InternalCheckError, match="parity .*: p1 = 0, p2 = 1"):
        lpolynomial(3 + 1, 3 * 3 + 1 - 1, 3)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_weil_bound_holds_for_counted_curves(q):
    f = [1, 0, 1, 0, 0, 1]
    data = curve_data(f, q)
    # N1 within the genus-2 Hasse-Weil interval
    assert abs(data.n1 - (q + 1)) <= 4 * q**0.5
    weil_check(data.lpoly, q)
