"""The one primitive that words a failed identity, `errors.check` and
`errors.InternalCheckError`, and the one that words a refused budget,
`errors.within` and `errors.BudgetError`."""

import importlib
import pkgutil
import re
from fractions import Fraction
from functools import partial

import pytest

import qpencil
from qpencil import fqgeom
from qpencil.classes import enumerate_classes
from qpencil.curvecounts import curve_counts
from qpencil.errors import BudgetError, InternalCheckError, PrecondError, check, within
from qpencil.fields import PrimeField
from qpencil.io import parse_pencil
from qpencil.isotropy import amer_harness
from qpencil.latticegroups import element_order, group_closure
from qpencil.matrices import SymMatrix
from qpencil.pencil import Pencil, diagonal_pencil

from conftest import refuses_at_once


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


def test_within_refuses_only_over_the_limit():
    within("points", 10, POINT_SCAN_LIMIT=10)
    with pytest.raises(BudgetError) as err:
        within("points of P^2(F_3)", 11, POINT_SCAN_LIMIT=10)
    exc = err.value
    assert isinstance(exc, PrecondError)
    assert str(exc) == "points of P^2(F_3): 11 over POINT_SCAN_LIMIT = 10"
    assert (exc.what, exc.needed, exc.name, exc.limit) == ("points of P^2(F_3)", 11, "POINT_SCAN_LIMIT", 10)
    assert exc.bound == "POINT_SCAN_LIMIT = 10"


def _grams_pencil(p, n, g0, g1):
    fld = PrimeField(p)
    return Pencil(fld, n, SymMatrix.from_rows(g0), SymMatrix.from_rows(g1))


def _cone_over_a_curve_in_p8():
    """Q0 = x0^2 + x1^2 + x2^2 + x3^2 and Q1 = x0 x1 + 2 x2 x3 over F_5,
    cones in P^8 over a curve of P^3 with a P^4 of vertices: 25 781 common
    zeros with 1.8e8 pairs to test."""
    g0 = [[int(i == j and i < 4) for j in range(9)] for i in range(9)]
    g1 = [[0] * 9 for _ in range(9)]
    g1[0][1] = g1[1][0] = 3  # 1/2 mod 5
    g1[2][3] = g1[3][2] = 1
    return _grams_pencil(5, 8, g0, g1)


_ZERO = [[0] * 3 for _ in range(3)]
_UNIPOTENT = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
_FIVE = PrimeField(5)

# (function, argument, bound): each input is refused before its work starts
BOUNDS = {
    "points of P^n": (lambda pn: fqgeom.projective_points(*pn), (1009, 5), "POINT_SCAN_LIMIT = 1000000000"),
    "canonical y": (fqgeom.points_on_pencil, diagonal_pencil(PrimeField(1009), 5), "POINT_SCAN_LIMIT = 1000000000"),
    "every fiber flat": (
        fqgeom.points_on_pencil,
        _grams_pencil(40009, 2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], _ZERO),
        "POINT_SCAN_LIMIT = 1000000000",
    ),
    # 9 * 100002^3 < 2^53 at F_100003, so the first prime past the bound
    "float range": (
        fqgeom.points_on_pencil,
        diagonal_pencil(PrimeField(100043), 2),
        "EXACT_FLOAT_LIMIT = 9007199254740991",
    ),
    "pairs": (fqgeom.enumerate_lines, _cone_over_a_curve_in_p8(), "PAIR_TEST_LIMIT = 100000000"),
    "members": (fqgeom.count_points, diagonal_pencil(PrimeField(10**9 + 7), 5), "MEMBER_LIMIT = 1000000"),
    "eliminations": (
        fqgeom.singular_points,
        _grams_pencil(20011, 5, [[0] * 6] + [[0] + [int(i == j) for j in range(5)] for i in range(5)], [[0] * 6] * 6),
        "ELIMINATION_LIMIT = 4000000",
    ),
    "curve counts": (partial(curve_counts, [0, -1, 0, 0, 0, 1]), 1009, "CURVE_Q_LIMIT = 1000"),
    "amer": (
        lambda fg: amer_harness(*fg, 3, _FIVE),
        (SymMatrix.diagonal(_FIVE, [1] * 5), SymMatrix.diagonal(_FIVE, [0, 1, 2, 3, 4])),
        "AMER_SEARCH_LIMIT = 50000000",
    ),
    "closure": (group_closure, [[[1, 1, 0], [0, 1, 0], [0, 0, 1]]], "CLOSURE_GUARD = 10000"),
    "element order": (element_order, _UNIPOTENT, "CLOSURE_GUARD = 10000"),
    "input n": (parse_pencil, {"field": {"kind": "prime", "p": 3}, "n": 25, "q0": [], "q1": []}, "MAX_N = 24"),
    "classes n": (enumerate_classes, 19, "MAX_CLASSES_N = 18"),
}


@pytest.mark.parametrize("fn, arg, bound", BOUNDS.values(), ids=BOUNDS.keys())
def test_every_bound_refuses_with_a_budget_error(fn, arg, bound):
    err = refuses_at_once(fn, arg, re.escape(bound), 1.0)
    assert isinstance(err, BudgetError) and err.bound == bound
    assert str(err) == f"{err.what}: {err.needed} over {bound}" and err.needed > err.limit


def test_the_cases_cover_every_named_bound():
    """Every module constant named like a budget has a case above."""
    names = {
        name
        for info in pkgutil.iter_modules(qpencil.__path__)
        for name, value in vars(importlib.import_module(f"qpencil.{info.name}")).items()
        if re.fullmatch(r"[A-Z][A-Z0-9_]*_(LIMIT|GUARD)|MAX_[A-Z0-9_]+", name) and isinstance(value, int)
    }
    assert names == {bound.split(" = ")[0] for *_, bound in BOUNDS.values()}
