"""The one primitive that words a failed identity: `errors.check` and
`errors.InternalCheckError`."""

from fractions import Fraction

import pytest

from qpencil.errors import InternalCheckError, check


class _Unprintable:
    """A value that compares by identity and refuses to be formatted."""

    def __str__(self):
        raise AssertionError("formatted")

    __repr__ = __str__


def test_a_passing_check_formats_nothing():
    value = _Unprintable()
    check("x = x", left=value, right=value, where={"context": _Unprintable()})
    check("three routes agree", a=(1, 2), b=(1, 2), c=(1, 2))


def test_a_failing_check_names_the_identity_and_every_value():
    with pytest.raises(InternalCheckError) as err:
        check("lines = |Jac|", lines=7, jacobian_order=8, where={"t": Fraction(1, 2)})
    assert str(err.value) == "lines = |Jac|: lines = 7, jacobian_order = 8, t = 1/2"
    assert err.value.identity == "lines = |Jac|"
    assert err.value.values == {"lines": 7, "jacobian_order": 8, "t": Fraction(1, 2)}
    # any one of several values differing fails the check
    with pytest.raises(InternalCheckError, match=r"^arc: a = \(1, 2\), b = \(1, 2\), c = \(2, 1\)$"):
        check("arc", a=(1, 2), b=(1, 2), c=(2, 1))


def test_values_print_in_str_form_inside_lists_and_tuples():
    err = InternalCheckError("identity", coeffs=[Fraction(1, 2), Fraction(-3)], pair=(Fraction(2, 3),), row=[])
    assert str(err) == "identity: coeffs = [1/2, -3], pair = (2/3,), row = []"


def test_a_bare_message_still_works():
    err = InternalCheckError("planted failure")
    assert str(err) == "planted failure" and err.identity == "planted failure" and err.values == {}
