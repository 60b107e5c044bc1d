"""Secant numerics, bundle parameter counts, and the specialization matrix."""

from fractions import Fraction

import pytest

from qpencil.bundlecalc import (
    bundle_parameter_counts,
    dp6_fiber_count,
    hpt_check,
    poly_from_grid,
    secant_degrees,
    secant_multiplicity,
    singular_fiber_count,
)
from qpencil.errors import InternalCheckError, PrecondError
from qpencil.fields import QQ, PrimeField

TANGENT_GRID = [[0, 0, 1], [0, -1, 0], [1, 0, 0]]
NONTANGENT_GRID = [[1, 1, 1], [0, 1, 0], [1, 0, 1]]


@pytest.mark.parametrize(
    "d, g, sec, sigma",
    [(3, 0, 1, 1), (4, 1, 2, 0), (5, 2, 4, 1)],
)
def test_secant_table(d, g, sec, sigma):
    assert secant_degrees(d, g) == (sec, sigma)


@pytest.mark.parametrize("d, g", [(3, 0), (4, 1), (5, 2), (6, 2), (7, 0)])
def test_secant_multiplicity_is_degree_minus_two(d, g):
    assert secant_multiplicity(d, g) == d - 2


def test_secant_guards():
    with pytest.raises(PrecondError, match="degree"):
        secant_degrees(2, 0)
    with pytest.raises(PrecondError, match="genus"):
        secant_degrees(4, -1)


@pytest.mark.parametrize(
    "d, family, generic, bideg",
    [(0, 14, 14, (2, 6)), (1, 39, 42, (6, 6)), (2, 64, 70, (10, 6))],
)
def test_bundle_parameter_counts(d, family, generic, bideg):
    counts = bundle_parameter_counts(d)
    assert counts.family == family
    assert counts.generic == generic
    assert counts.degeneracy_bidegree == bideg
    # closed forms
    assert counts.family == 25 * d + 14
    assert counts.generic == 28 * d + 14


def test_bundle_parameter_count_guard():
    with pytest.raises(PrecondError):
        bundle_parameter_counts(-1)


# -- the specialization matrix ---------------------------------------------


def test_poly_from_grid_round_trips():
    g = poly_from_grid(TANGENT_GRID)
    assert g.coeff((0, 2, 2, 0)) == Fraction(1)
    assert g.coeff((1, 1, 1, 1)) == Fraction(-1)
    assert g.coeff((2, 0, 0, 2)) == Fraction(1)
    ok, bideg = g.is_bihomogeneous(("y1", "z1"), ("y2", "z2"))
    assert ok and bideg == (2, 2)
    for grid, reason in [
        ([[1, 2], [3, 4]], "3x3"),
        ([[1, 2, 3], [1, 2, 3], 5], "3x3"),
        ([[1, 2, 3], [1, 2, 3], [1, 2]], "3x3"),
        ([[1, 2, 3], [1, 2.5, 3], [1, 2, 3]], r"grid\[1\]\[1\]: .*must be exact"),
        ([[1, 2, 3], [1, 2, 3], [1, 2, True]], r"grid\[2\]\[2\]: not a coefficient"),
    ]:
        with pytest.raises(PrecondError, match=reason):
            poly_from_grid(grid)


def test_hpt_tangent_configuration():
    # (y1 z2 - y2 z1)^2 - y1 z1 y2 z2: tangent to all four coordinate fibers
    rep = hpt_check(poly_from_grid(TANGENT_GRID))
    assert rep.all_tangent
    assert rep.det_bidegree == (6, 6)
    assert rep.factored_class_sum == (6, 6)
    assert rep.configuration_class_sum == (6, 6)
    assert [f.fiber for f in rep.fibers] == ["y1=0", "z1=0", "y2=0", "z2=0"]
    for f in rep.fibers:
        assert f.tangent and not f.restriction_zero
        assert f.discriminant == 0


def test_hpt_non_tangent_configuration():
    rep = hpt_check(poly_from_grid(NONTANGENT_GRID))
    assert not rep.all_tangent
    tangs = [f.tangent for f in rep.fibers]
    assert not all(tangs)


def test_hpt_fiber_inside_the_curve_is_flagged():
    # g = y1 z1 y2 z2 restricts to zero on every coordinate fiber
    rep = hpt_check(poly_from_grid([[0, 0, 0], [0, 1, 0], [0, 0, 0]]))
    for f in rep.fibers:
        assert f.restriction_zero
        assert not f.tangent
    assert not rep.all_tangent


def test_hpt_determinant_factors():
    rep = hpt_check(poly_from_grid(TANGENT_GRID))
    names = [name for name, _, _ in rep.factors]
    assert names == ["y1", "z1", "y2", "z2", "g"]
    assert sum(e for _, _, e in rep.factors) == 9  # 2+2+2+2+1


def test_hpt_works_mod_p():
    rep = hpt_check(poly_from_grid(TANGENT_GRID, PrimeField(7)))
    assert rep.all_tangent


def test_hpt_rejects_wrong_bidegree():
    from qpencil.poly import Poly
    from qpencil.bundlecalc import HPT_VARS

    y1 = Poly.variable(QQ, HPT_VARS, "y1")
    with pytest.raises(PrecondError, match="bidegree"):
        hpt_check(y1 * y1)
    with pytest.raises(PrecondError):
        hpt_check(Poly.zero(QQ, HPT_VARS))


# -- fiber counting ----------------------------------------------------------


def test_dp6_fiber_count():
    assert dp6_fiber_count() == 8


def test_singular_fiber_count_solver():
    assert singular_fiber_count(4, 6, 5) == 8
    assert singular_fiber_count(2 * 6, 6, 5) == 0
    with pytest.raises(PrecondError):
        singular_fiber_count(4, 5, 5)
    with pytest.raises(InternalCheckError):
        singular_fiber_count(3, 6, 4)
