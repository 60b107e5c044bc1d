"""Genus-2 point counts, L-polynomials, and the Mumford calibration."""

import pytest

from qpencil.curvecounts import (
    curve_counts,
    curve_data,
    lpolynomial,
    mumford_order,
    weil_check,
)
from qpencil.errors import InternalCheckError, PrecondError
from qpencil.fields import PrimeField, QuadraticExtension

# y^2 = t^5 - t, the classic calibration curve
T5_MINUS_T = [0, -1, 0, 0, 0, 1]


def test_calibration_counts_over_f3():
    n1, n2 = curve_counts(T5_MINUS_T, 3)
    assert (n1, n2) == (4, 6)


def test_calibration_lpolynomial():
    data = curve_data(T5_MINUS_T, 3)
    assert data.jacobian_order == 8
    assert data.lpoly[0] == 1
    assert data.lpoly[4] == 9
    assert data.lpoly_at(1) == 8


def test_mumford_order_matches_over_f3_and_f9():
    f3 = PrimeField(3)
    data = curve_data(T5_MINUS_T, 3)
    assert mumford_order(T5_MINUS_T, f3) == data.jacobian_order
    # over F_9 the order is prod |1 - alpha_i^2| = L_2(1), here 64
    f9 = QuadraticExtension.of(f3)
    lifted = [f9.embed(f3.from_int(c)) for c in T5_MINUS_T]
    assert mumford_order(lifted, f9) == 64


def test_two_route_jacobian_orders_agree():
    for f, q in [
        (T5_MINUS_T, 3),
        (T5_MINUS_T, 5),
        ([1, 0, 2, 0, 0, 1], 5),
        ([2, 0, 1, 0, 0, 1], 7),
    ]:
        assert curve_data(f, q).jacobian_order == mumford_order(f, PrimeField(q))


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
    with pytest.raises(PrecondError, match="degree-5"):
        mumford_order([1, 1, 0, 0, 0, 0, 1], PrimeField(5))


def test_weil_check_rejects_bad_lpolys():
    good = curve_data(T5_MINUS_T, 3).lpoly
    weil_check(good, 3)
    with pytest.raises(InternalCheckError, match="functional"):
        weil_check((1, good[1], good[2], good[3] + 1, good[4]), 3)
    with pytest.raises(InternalCheckError, match="Weil"):
        weil_check((1, 100, 0, 300, 9), 3)
    with pytest.raises(InternalCheckError, match="positive"):
        weil_check((1, -5, 0, -15, 9), 3)


def test_lpolynomial_parity_guard():
    # p1 = 0, p2 = 1 is impossible: p1^2 - p2 must be even
    with pytest.raises(InternalCheckError, match="parity"):
        lpolynomial(3 + 1, 3 * 3 + 1 - 1, 3)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_weil_bound_holds_for_counted_curves(q):
    f = [1, 0, 1, 0, 0, 1]
    data = curve_data(f, q)
    # N1 within the genus-2 Hasse-Weil interval
    assert abs(data.n1 - (q + 1)) <= 4 * q**0.5
    weil_check(data.lpoly, q)
