import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from qpencil.errors import PrecondError
from qpencil.fields import QQ, PrimeField
from qpencil.poly import Poly

F5 = PrimeField(5)
VARS = ("x", "y", "z")


def _poly5(terms):
    return Poly(F5, VARS, {tuple(e): c % 5 for e, c in terms})


small_terms = st.lists(
    st.tuples(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        st.integers(1, 4),
    ),
    max_size=5,
)


@given(small_terms, small_terms)
def test_add_commutes(ta, tb):
    a, b = _poly5(ta), _poly5(tb)
    assert a + b == b + a


@given(small_terms, small_terms, small_terms)
def test_mul_associates_and_distributes(ta, tb, tc):
    a, b, c = _poly5(ta), _poly5(tb), _poly5(tc)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(small_terms, small_terms)
def test_derivative_product_rule(ta, tb):
    a, b = _poly5(ta), _poly5(tb)
    lhs = (a * b).derivative("y")
    rhs = a.derivative("y") * b + a * b.derivative("y")
    assert lhs == rhs


def test_zero_and_equality():
    z = Poly.zero(F5, VARS)
    assert z.is_zero
    assert not z
    assert z == Poly(F5, VARS, {(0, 0, 0): 0})
    one = Poly.const(F5, VARS, 1)
    assert one + z == one


def test_evaluate():
    x = Poly.variable(QQ, VARS, "x")
    y = Poly.variable(QQ, VARS, "y")
    f = x * x + 2 * y - 1
    from fractions import Fraction

    vals = [Fraction(3), Fraction(-2), Fraction(7)]
    assert f.evaluate(vals) == 9 - 4 - 1


def test_bihomogeneous_zero_poly():
    z = Poly.zero(QQ, ("a", "b", "c", "d"))
    ok, bideg = z.is_bihomogeneous(("a", "b"), ("c", "d"))
    assert ok and bideg is None


def test_bihomogeneous_detects_mixed():
    a, b, c, d = (Poly.variable(QQ, ("a", "b", "c", "d"), v) for v in "abcd")
    ok, bideg = (a * c + b * d).is_bihomogeneous(("a", "b"), ("c", "d"))
    assert ok and bideg == (1, 1)
    ok, _ = (a * c + b).is_bihomogeneous(("a", "b"), ("c", "d"))
    assert not ok


def test_total_degree():
    x = Poly.variable(QQ, VARS, "x")
    y = Poly.variable(QQ, VARS, "y")
    f = x * x * y - y * y * y
    assert f.total_degree() == 3


def test_variable_name_checked():
    with pytest.raises(PrecondError):
        Poly.variable(QQ, VARS, "w")


def test_constructor_reduces_prime_field_coefficients():
    """Over F_7 the coefficient 8 is 1: the constructor reduces it, so the
    polynomial prints, compares and hashes as ``x``; a coefficient divisible
    by 7 drops out."""
    f7 = PrimeField(7)
    x = Poly.variable(f7, ("x",), "x")
    eight_x = Poly(f7, ("x",), {(1,): 8, (0,): -7})
    assert eight_x.terms == {(1,): 1}
    assert str(eight_x) == str(x)
    assert eight_x == x and hash(eight_x) == hash(x)
    assert (eight_x - x).is_zero


def test_poly_copies_and_pickles_through_its_constructor():
    """copy, deepcopy and pickle rebuild a Poly through __init__, so the
    copy is equal, still immutable, and an F_p copy keeps reduced
    coefficients."""
    x, y = Poly.variable(QQ, ("x", "y"), "x"), Poly.variable(QQ, ("x", "y"), "y")
    for p in (x * x - 3 * y + 1, Poly.zero(F5, VARS), _poly5([((1, 0, 2), 3), ((0, 0, 0), 4)])):
        for clone in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert clone == p and hash(clone) == hash(p) and clone.vars == p.vars and clone.field == p.field
            assert clone.terms == p.terms
            with pytest.raises(AttributeError, match="immutable"):
                clone.terms = {}
