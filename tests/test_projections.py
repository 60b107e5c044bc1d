"""Projection from a line, residual lines, and the double projection."""

import random
from fractions import Fraction

import pytest

from qpencil import projections
from qpencil.errors import InternalCheckError, PrecondError
from qpencil.io import load_pencil
from qpencil.fields import QQ, PrimeField
from qpencil.fqgeom import points_on_pencil
from qpencil.linalg import dependent, invert, rank
from qpencil.pencil import Pencil, diagonal_pencil, pencil_congruent, toric_pencil
from qpencil.projections import (
    DoubleProjection,
    double_projection,
    project_from_line,
    residual_line,
    round_trip,
)
from qpencil.samples import random_pencil_through_line, random_point_on_pencil

from conftest import REPO

F11 = PrimeField(11)

LINE_ROWS = [
    [1, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0],
]


def test_dependent_is_rank_below_two():
    """A seeded battery over F_3, F_5 and the rationals: zero vectors,
    nonzero multiples, pairs with different leads and random pairs."""
    for field in (PrimeField(3), PrimeField(5), QQ):
        rng = random.Random(f"dependent/{field}")

        def entry():
            if field == QQ:
                return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            return rng.randrange(field.p)

        def nonzero():
            return next(c for c in iter(entry, None) if not field.is_zero(c))

        zero = [field.zero] * 4
        cases = [(zero, zero)]
        for _ in range(30):
            u = [entry() for _ in range(3)] + [nonzero()]
            cases += [(zero, u), (u, zero), (u, [field.mul(nonzero(), c) for c in u])]
            i, j = sorted(rng.sample(range(4), 2))
            led = [[field.zero] * k + [nonzero()] + [entry() for _ in range(3 - k)] for k in (i, j)]
            cases += [tuple(led), tuple(reversed(led))]
            cases.append(([entry() for _ in range(4)], [entry() for _ in range(4)]))
        verdicts = [dependent(field, u, v) for u, v in cases]
        assert verdicts == [rank(field, [u, v]) < 2 for u, v in cases], field
        assert True in verdicts and False in verdicts


def test_projection_round_trips():
    """beta^-1(beta(x)) = x on 20 base-locus points given in the pencil's
    own coordinates: for the coordinate line span(e0, e1), and for that
    pencil moved by a random invertible congruence, whose line is no
    coordinate line."""
    rng = random.Random(11)
    p = random_pencil_through_line(F11, 5, rng)
    while True:
        m = [[rng.randrange(11) for _ in range(6)] for _ in range(6)]
        if rank(F11, m) == 6:
            break
    inverse = invert(F11, m)
    # x_old = M x_new, so the line is spanned by columns 0 and 1 of M^-1
    moved_line = [[inverse[i][k] for i in range(6)] for k in (0, 1)]
    assert all(sum(map(bool, row)) > 1 for row in moved_line)
    for pencil, line in ((p, LINE_ROWS), (pencil_congruent(p, m), moved_line)):
        proj = project_from_line(pencil, line)
        checked = failures = 0
        for row in points_on_pencil(pencil):
            verdict = round_trip(proj, [int(c) for c in row])
            if verdict is None:
                continue
            checked += 1
            if not verdict:
                failures += 1
            if checked == 20:
                break
        assert checked == 20
        assert failures == 0


def test_projection_curve_equations():
    rng = random.Random(11)
    p = random_pencil_through_line(F11, 5, rng)
    proj = project_from_line(p, LINE_ROWS)
    (l00, l01), (l10, l11) = proj.linear_forms
    d, m1, m2 = proj.curve_equations
    assert d == l00 * l11 - l01 * l10
    t0, t1 = proj.tails
    assert m1 == l01 * t1 - l11 * t0
    assert m2 == l10 * t0 - l00 * t1
    assert d.total_degree() == 2
    assert m1.total_degree() == 3


def test_projection_rejects_lines_off_the_base_locus():
    p = diagonal_pencil(F11, 5)  # contains no coordinate line
    with pytest.raises(PrecondError, match="does not lie"):
        project_from_line(p, LINE_ROWS)
    rng = random.Random(11)
    good = random_pencil_through_line(F11, 5, rng)
    with pytest.raises(PrecondError, match="span"):
        project_from_line(good, [[1, 0, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0]])
    # a float coordinate is refused by name, not projected in floats
    rational = random_pencil_through_line(QQ, 5, rng)
    with pytest.raises(PrecondError, match=r"line_rows\[1\]\[1\]: .*must be exact"):
        project_from_line(rational, [[1, 0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0, 0]])
    # a row that is not a list was a TypeError from len()
    with pytest.raises(PrecondError, match="two spanning rows"):
        project_from_line(good, [5, [0, 1, 0, 0, 0, 0]])


def test_projection_works_over_the_rationals():
    rng = random.Random(3)
    p = random_pencil_through_line(QQ, 4, rng)
    proj = project_from_line(p, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])
    assert len(proj.beta_inverse.components) == 5
    # the inverse formula lands back on the ray of the input wherever defined
    d, m1, m2 = proj.curve_equations
    assert not d.is_zero


def test_residual_line_of_a_tangent_section():
    """Slice a threefold by a 3-plane through one of its lines: the section
    is a quartic curve containing that line."""
    rng = random.Random(11)
    p = random_pencil_through_line(F11, 5, rng)
    plane = [
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
    ]
    line = residual_line(p, plane)
    assert line == ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0))  # the planted line
    u, v = line
    points = [v] + [[(a + t * b) % 11 for a, b in zip(u, v)] for t in range(11)]
    for pt in points:
        assert p.eval_form(0, pt) % 11 == 0
        assert p.eval_form(1, pt) % 11 == 0


def test_residual_line_guards():
    rng = random.Random(11)
    p = random_pencil_through_line(F11, 5, rng)
    with pytest.raises(PrecondError, match="independent"):
        residual_line(p, [[1, 0, 0, 0, 0, 0]] * 4)
    with pytest.raises(PrecondError, match="prime"):
        residual_line(diagonal_pencil(QQ, 5), [[0] * 6] * 4)
    # on span(e0, e2, e3, e4) the toric forms restrict to -x2 x3 and x2 x3
    plane = [[1 if j == i else 0 for j in range(6)] for i in (0, 2, 3, 4)]
    with pytest.raises(PrecondError, match="not a curve"):
        residual_line(toric_pencil(PrimeField(5)), plane)
    # rows are read as exact coordinates: a float reached pow() as a TypeError,
    # a bare int was not iterable, short rows were a matrix shape mismatch,
    # and True was read as 1
    f7 = toric_pencil(PrimeField(7))
    with pytest.raises(PrecondError, match=r"plane_rows\[2\]\[3\]: .*must be exact"):
        residual_line(f7, [plane[0], plane[1], [0, 0, 0, 1.0, 0, 0], plane[3]])
    with pytest.raises(PrecondError, match="four spanning rows"):
        residual_line(f7, 5)
    with pytest.raises(PrecondError, match="four spanning rows"):
        residual_line(f7, [row[:5] for row in plane])
    with pytest.raises(PrecondError, match=r"plane_rows\[0\]\[0\]: not a coefficient: True"):
        residual_line(f7, [[True, 0, 0, 0, 0, 0]] + plane[1:])


# -- double projection -----------------------------------------------------


def _smooth_pencil_with_point(q, seed):
    from qpencil.samples import random_pencil

    rng = random.Random(seed)
    fld = PrimeField(q)
    while True:
        p = random_pencil(fld, 5, rng)
        pt = random_point_on_pencil(p, rng)
        try:
            return p, double_projection(p, pt)
        except PrecondError:
            continue


@pytest.mark.parametrize("q, seed", [(11, 2), (11, 9), (13, 4)])
def test_double_projection_identity(q, seed):
    p, dp = _smooth_pencil_with_point(q, seed)
    assert isinstance(dp, DoubleProjection)
    assert dp.identity_checked
    assert dp.counts_checked
    assert dp.curve_counts is not None
    fld = p.field
    # the twist is minus a square
    assert fld.chi(fld.neg(dp.twist_factor)) in (0, 1)
    assert dp.degeneracy.degree == 6
    # the bundle matrix's coefficient matrices A_0..A_3 are symmetric 4x4,
    # with the (1|2 / 2|3) degree profile
    assert [a.size for a in dp.bundle_matrix] == [4] * 4
    for i in range(4):
        for j in range(4):
            e = [a[i, j] for a in dp.bundle_matrix]
            assert max((k for k, c in enumerate(e) if c), default=-1) <= 1 + (i == 3) + (j == 3)


def test_a_doubled_determinant_fails_the_degeneracy_identity_naming_both_sides(monkeypatch):
    """det A(t) = -det(M)^2 F(t, -1) coefficient by coefficient: a
    determinant twice too large is caught, with both coefficient lists."""
    monkeypatch.chdir(REPO)
    pencil, _ = load_pencil("inputs/smooth_f3.json")
    point = [1, 0, 0, 2, 2, 1]
    good = double_projection(pencil, point).degeneracy.coeffs
    det_poly = projections.det_poly
    monkeypatch.setattr(projections, "det_poly", lambda fld, rows: [2 * c % 3 for c in det_poly(fld, rows)])
    with pytest.raises(InternalCheckError) as err:
        double_projection(pencil, point)
    doubled = [2 * c % 3 for c in good]
    assert err.value.identity == "det A(t) = -det(M)^2 * F(t, -1)"
    assert err.value.values == {"det_a": doubled, "twisted_discriminant": list(good)}
    assert f"det_a = {doubled}, twisted_discriminant = {list(good)}" in str(err.value)


def test_double_projection_over_the_rationals():
    # the diagonal pencil passes through (1 : 2 : 1 : 0 : 0 : -2)? no — use a
    # planted point: x with Q0(x) = Q1(x) = 0
    p = Pencil.from_gram(
        QQ,
        [
            [0, 0, 0, 0, 1, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, -1, 0, 0, 0],
            [0, 0, 0, 2, 0, 0],
            [1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 3],
        ],
        [
            [0, 0, 0, 0, 0, 1],
            [0, 2, 0, 0, 0, 0],
            [0, 0, 3, 0, 0, 0],
            [0, 0, 0, -1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [1, 0, 0, 0, 0, 0],
        ],
    )
    pt = [Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(0)]
    dp = double_projection(p, pt)
    assert dp.identity_checked
    assert dp.counts_checked is False  # no finite field, no counting route
    assert dp.curve_counts is None
    assert dp.twist_factor < 0


def test_double_projection_guards():
    p = diagonal_pencil(F11, 5)
    with pytest.raises(PrecondError, match="base locus"):
        double_projection(p, [1, 0, 0, 0, 0, 0])
    with pytest.raises(PrecondError, match="n = 5"):
        double_projection(diagonal_pencil(F11, 4), [1, 0, 0, 0, 0])
    with pytest.raises(PrecondError, match="projective"):
        double_projection(p, [0, 0, 0, 0, 0, 0])
    # over F_7 a float coordinate reached pow() and raised TypeError
    with pytest.raises(PrecondError, match=r"point\[3\]: .*must be exact"):
        double_projection(diagonal_pencil(PrimeField(7), 5), [1, 0, 0, 2.0, 0, 0])
    # a point that is not a list was a TypeError from iterating it
    with pytest.raises(PrecondError, match="6 coordinates"):
        double_projection(toric_pencil(PrimeField(7)), 5)
    # a coordinate vertex of the toric pencil is one of its six singular points
    with pytest.raises(PrecondError, match="the point is singular on the base locus"):
        double_projection(toric_pencil(PrimeField(7)), [1, 0, 0, 0, 0, 0])
