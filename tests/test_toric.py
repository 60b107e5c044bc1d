"""The split-torus pencil: singular locus, line census, and component degrees."""

from fractions import Fraction

import pytest

from qpencil import toric
from qpencil.errors import InternalCheckError
from qpencil.fields import QQ, PrimeField
from qpencil.pencil import singular_at, toric_pencil
from qpencil.toric import (
    PLANE_TRIPLES,
    component_count_identity,
    dp6_point_count,
    line_scheme_components,
    plane_union_point_count,
    toric_line_census,
    toric_singular_points,
)


def test_plane_triples_pick_one_index_per_block():
    assert len(PLANE_TRIPLES) == 8
    for a, b, c in PLANE_TRIPLES:
        assert a in (0, 1) and b in (2, 3) and c in (4, 5)


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(5)])
def test_six_singular_points(field):
    sing = toric_singular_points(field)
    assert len(sing) == 6
    p = toric_pencil(field)
    for pt in sing:
        assert singular_at(p, list(pt))


@pytest.mark.parametrize("make", [lambda: QQ, lambda: PrimeField(3)], ids=["QQ", "F3"])
def test_singular_points_share_their_tuples_across_calls(make):
    # each call gets its own list of the same six tuples, so reports kept
    # side by side hold one copy of the points
    first, second = toric_singular_points(make()), toric_singular_points(make())
    assert first == second and first is not second
    assert all(a is b for a, b in zip(first, second))
    first.clear()
    assert len(toric_singular_points(make())) == 6


def test_singular_points_over_f_p_come_sorted():
    assert toric_singular_points(PrimeField(5)) == sorted(tuple(int(j == i) for j in range(6)) for i in range(6))


def test_a_missing_singular_point_names_both_point_lists(monkeypatch):
    scan = toric.singular_points
    monkeypatch.setattr(toric, "singular_points", lambda p: sorted(scan(p))[1:])
    with pytest.raises(InternalCheckError) as err:
        toric_singular_points(PrimeField(3))
    vertices = [tuple(int(j == i) for j in range(6)) for i in range(6)]
    assert err.value.identity == "toric singular points = the six coordinate points"
    assert err.value.values == {"found": sorted(vertices)[1:], "expected": sorted(vertices)}
    assert f"found = {sorted(vertices)[1:]}, expected = {sorted(vertices)}" in str(err.value)


def test_rational_singular_points_are_the_vertices():
    sing = toric_singular_points(QQ)
    assert sorted(sing) == sorted(
        tuple(Fraction(1) if j == i else Fraction(0) for j in range(6)) for i in range(6)
    )


def test_line_census_over_f3():
    census = toric_line_census(3)
    assert census.total == 108  # 12 q^2
    assert census.planar == 92
    assert census.nonplanar == 16  # 4 (q-1)^2
    assert census.consistent
    assert len(census.per_plane) == 8
    assert all(v == 13 for v in census.per_plane.values())


def test_line_census_over_f5():
    census = toric_line_census(5)
    assert census.total == 300
    assert census.nonplanar == 64
    assert census.consistent


def test_line_census_over_f7():
    census = toric_line_census(7)
    assert census.total == 588  # 12 q^2
    assert census.nonplanar == 144  # 4 (q-1)^2
    assert census.consistent


def test_plane_union_point_count_two_ways():
    for q in (3, 5):
        scan, formula = plane_union_point_count(q)
        assert scan == formula


@pytest.mark.parametrize("q, pts", [(3, 22), (5, 46), (7, 78)])
def test_dp6_point_count(q, pts):
    assert dp6_point_count(q) == pts


def test_component_bookkeeping():
    comps = line_scheme_components()
    assert comps.plane_components == 8
    assert comps.dp6_components == 4
    assert comps.total_degree == 32  # 8*1 + 4*6


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_component_count_identity(q):
    by_components, by_strata = component_count_identity(q)
    assert by_components == by_strata
    assert by_components == 12 * q * q + 24 * q + 12


def test_census_matches_component_interiors():
    # the nonplanar lines of the census are exactly the 4 (q-1)^2 interior
    # points of the del Pezzo components that live on honest lines
    census = toric_line_census(3)
    assert census.nonplanar == 4 * (3 - 1) ** 2
