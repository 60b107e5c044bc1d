"""Pencil construction, discriminants, smoothness, and reductions."""

import math
import random
import threading
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qpencil import univariate as uv
from qpencil.errors import PrecondError
from qpencil.fields import QQ, PrimeField
from qpencil.linalg import det
from qpencil.matrices import SymMatrix
from qpencil.pencil import (
    BinaryForm,
    Pencil,
    diagonal_pencil,
    discriminant_cover,
    is_smooth,
    pencil_congruent,
    pencil_recombined,
    reduce_pencil,
    singular_at,
    smoothness,
    toric_pencil,
)
from qpencil.projections import project_from_line
from qpencil.samples import random_element, random_pencil, random_pencil_through_line, random_symmetric

F3 = PrimeField(3)
F5 = PrimeField(5)


# -- construction -------------------------------------------------------


def test_quadric_terms_halve_off_diagonal():
    p = Pencil.from_quadric_terms(QQ, 2, [(0, 1, 1)], [(2, 2, 1)])
    assert p.g0[0, 1] == Fraction(1, 2)
    assert p.g0[1, 0] == Fraction(1, 2)
    assert p.g1[2, 2] == Fraction(1)


def test_quadric_terms_halve_mod_3():
    # over F_3 the inverse of 2 is 2, so the Gram entry of x0*x1 is 2
    p = Pencil.from_quadric_terms(F3, 2, [(0, 1, 1)], [(2, 2, 1)])
    assert p.g0[0, 1] == 2


def test_quadric_terms_reject_duplicates():
    with pytest.raises(PrecondError, match="duplicate"):
        Pencil.from_quadric_terms(QQ, 2, [(0, 1, 1), (0, 1, 2)], [(0, 0, 1)])


def test_quadric_terms_reject_bad_index():
    with pytest.raises(PrecondError, match="out of range"):
        Pencil.from_quadric_terms(QQ, 2, [(0, 3, 1)], [(0, 0, 1)])
    with pytest.raises(PrecondError):
        Pencil.from_quadric_terms(QQ, 2, [(1, 0, 1)], [(0, 0, 1)])


def test_rejects_small_n_and_char_2():
    with pytest.raises(PrecondError, match="n >= 2"):
        diagonal_pencil(QQ, 1)
    with pytest.raises(PrecondError, match="characteristic 2"):
        diagonal_pencil(PrimeField(2), 3)


def test_member_recovers_the_spanning_forms():
    p = diagonal_pencil(QQ, 3)
    assert p.member(QQ.one, QQ.zero) == p.g0
    assert p.member(QQ.zero, QQ.one) == p.g1


def test_form_matches_eval_form():
    p = toric_pencil(QQ)
    x = [Fraction(k) for k in (1, 2, 3, 4, 5, 6)]
    for which in (0, 1):
        assert p.form(which).evaluate(x) == p.eval_form(which, x)
    # the projection tails are the forms of the Gram blocks on x2..x5, i.e.
    # the normalized forms evaluated with x0 = x1 = 0
    through_line = random_pencil_through_line(QQ, 5, random.Random(3))
    proj = project_from_line(through_line, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]])
    y = [Fraction(k) for k in (2, -3, 5, 7)]
    for which in (0, 1):
        assert proj.tails[which].evaluate(y) == proj.pencil.eval_form(which, [0, 0, *y])
    # random vectors with zero coordinates, over Q and F_p: the form, and the
    # bilinear form against the full double sum, with the field's types
    rng = random.Random(5)
    draws = {QQ: lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4)), PrimeField(7): lambda: rng.randrange(7)}
    for fld, draw in draws.items():
        p = random_pencil(fld, 4, rng, smooth=False)
        for _ in range(30):
            x, y = ([draw() if rng.random() < 0.5 else fld.zero for _ in range(5)] for _ in range(2))
            for which in (0, 1):
                g = (p.g0, p.g1)[which].entries
                full = fld.zero
                for i in range(5):
                    for j in range(5):
                        full = fld.add(full, fld.mul(fld.mul(x[i], g[i][j]), y[j]))
                got = p.eval_bilinear(which, x, y)
                assert got == full and type(got) is type(full)
                assert p.form(which).evaluate(x) == p.eval_form(which, x)


@given(st.lists(st.integers(0, 4), min_size=4, max_size=4))
def test_polarization_identity_mod_5(xs):
    p = diagonal_pencil(F5, 3)
    y = [3, 1, 4, 2]
    qx = p.eval_form(0, xs)
    qy = p.eval_form(0, y)
    qxy = p.eval_form(0, [F5.add(a, b) for a, b in zip(xs, y)])
    b = p.eval_bilinear(0, xs, y)
    assert qxy == F5.add(F5.add(qx, qy), F5.mul(2, b))


# -- discriminant forms -------------------------------------------------


def test_diagonal_discriminant_factors():
    # prod_i (s0 + i*s1) for i in 0..3: roots at s0/s1 = 0, -1, -2, -3
    p = diagonal_pencil(QQ, 3)
    disc = p.discriminant_form()
    assert disc.degree == 4
    for i in range(4):
        assert disc.evaluate(Fraction(-i), Fraction(1)) == 0
    assert disc.evaluate(Fraction(1), Fraction(0)) == 1  # det(G0)
    assert disc.evaluate(Fraction(1), Fraction(1)) == 24


def test_toric_discriminant_shape():
    """The pencil x0x1 - x2x3, x2x3 - x4x5 degenerates doubly at three members."""
    disc = toric_pencil(QQ).discriminant_form()
    reference = BinaryForm(
        QQ, tuple(Fraction(c) for c in (0, 0, -1, 2, -1, 0, 0))
    )  # -s0^2 (s1 - s0)^2 s1^2
    assert disc.proportional_to(reference)
    assert not disc.is_squarefree()
    zero = BinaryForm(QQ, (Fraction(0),) * 7)
    assert zero.proportional_to(zero)
    assert not zero.proportional_to(reference) and not reference.proportional_to(zero)


def test_degenerate_pencil_rejected():
    g = SymMatrix.diagonal(QQ, [Fraction(1), Fraction(1), Fraction(0), Fraction(0)])
    p = Pencil(QQ, 3, g, g)
    with pytest.raises(PrecondError, match="degenerate"):
        p.discriminant_form()


def test_congruence_scales_discriminant_by_square():
    p = diagonal_pencil(QQ, 4)
    m = [
        [1, 2, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 1, 3, 0, 0],
        [0, 0, 0, 1, 1],
        [0, 0, 0, 0, 2],
    ]
    q = pencil_congruent(p, m)
    d0 = p.discriminant_form()
    d1 = q.discriminant_form()
    det_m = Fraction(1 * 1 * 3 * 1 * 2)
    assert d1.coeffs == tuple(det_m**2 * c for c in d0.coeffs)


def test_recombination_keeps_discriminant_class():
    p = diagonal_pencil(F5, 3)
    q = pencil_recombined(p, 1, 2, 1, 3)
    # same degenerate members, so the discriminants share their roots
    d0, d1 = p.discriminant_form(), q.discriminant_form()
    for s0 in range(5):
        for s1 in range(5):
            if (s0, s1) == (0, 0):
                continue
            a0, a1 = F5.add(F5.mul(1, s0), F5.mul(1, s1)), F5.add(F5.mul(2, s0), F5.mul(3, s1))
            assert F5.is_zero(d1.evaluate(s0, s1)) == F5.is_zero(d0.evaluate(a0, a1))


def test_recombination_rejects_singular_matrix():
    with pytest.raises(PrecondError, match="singular"):
        pencil_recombined(diagonal_pencil(QQ, 3), 1, 2, 2, 4)


# -- the signed cover form ----------------------------------------------


def test_cover_form_is_negated_determinant_for_threefolds():
    p = diagonal_pencil(QQ, 5)
    disc = p.discriminant_form()
    cover = discriminant_cover(p)
    assert cover.coeffs == tuple(-c for c in disc.coeffs)


def test_cover_form_sign_depends_on_variable_count():
    # m = n+1 = 5 gives m(m-1)/2 = 10, an even power of -1
    p = diagonal_pencil(QQ, 4)
    assert discriminant_cover(p).coeffs == p.discriminant_form().coeffs


# -- smoothness ---------------------------------------------------------


def test_diagonal_pencils_are_smooth():
    # n >= 8 guards against a determinant size limit read as "not smooth"
    for field in (QQ, PrimeField(101)):
        for n in (2, 3, 4, 5, 8, 9):
            p = diagonal_pencil(field, n)
            rep = smoothness(p)
            assert rep.smooth, (field, n)
            assert rep.degree == n + 1
            assert not rep.degenerate
            assert rep.certificate["gcd_deg_chart_main"] == 0
            expected = [field.one]
            for i in range(n + 1):  # prod_i (s0 + i s1), ascending in s1
                expected = uv.mul(field, expected, [field.one, field.from_int(i)])
            expected += [field.zero] * (n + 2 - len(expected))
            assert p.discriminant_form().coeffs == tuple(expected)
            assert rep.discriminant == p.discriminant_form()


def _both_chart_gcds(form):
    """Reference: the gcd of each chart with its derivative, both always taken."""
    fld = form.field
    charts = (form.chart_main(), form.chart_other())
    return [uv.gcd_poly(fld, c, uv.derivative(fld, c)) if len(c) > 1 else [fld.one] for c in charts]


def _planted_pencil(field, n, rng, kind):
    """A pencil over `field` in n+1 variables.  kind 1: diagonal with
    a_0 = 0 and b_1 = b_2 = 0, so c_0 = c_d = c_(d-1) = 0 (a root at (1:0)
    and a double root at (0:1)); kind 2: random with G0 singular and G1 of
    corank 2; otherwise random."""
    m = n + 1
    if kind == 1:
        a = [field.zero] + [random_element(field, rng, 3) or field.one for _ in range(n)]
        b = [random_element(field, rng, 3) or field.one, field.zero, field.zero]
        b += [random_element(field, rng, 3) for _ in range(n - 2)]
        return Pencil(field, n, SymMatrix.diagonal(field, a), SymMatrix.diagonal(field, b))
    grams = [random_symmetric(field, m, rng), random_symmetric(field, m, rng)]
    if kind == 2:
        for g, zeros in ((0, (0,)), (1, (1, 2))):
            rows = grams[g].to_lists()
            for z in zeros:
                for i in range(m):
                    rows[i][z] = rows[z][i] = field.zero
            grams[g] = SymMatrix.from_rows(rows)
    return Pencil(field, n, *grams)


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(5), PrimeField(7)], ids=repr)
def test_one_chart_squarefree_test_matches_both_gcds(field):
    """`BinaryForm.chart_gcds`, `is_squarefree` and the smoothness verdict and
    certificate agree with taking both chart gcds: on discriminants of
    pencils with n = 2..7 and on random forms of degree 3..8, among them
    forms with c_0 = 0 and c_d = c_(d-1) = 0, which a test reading the
    degree off F(t, 1) instead of d would call squarefree."""
    rng = random.Random(repr(field))
    for trial in range(240):
        n = trial % 6 + 2
        rep = smoothness(_planted_pencil(field, n, rng, trial % 3))
        if rep.degenerate:
            continue
        ga, gb = _both_chart_gcds(rep.discriminant)
        assert rep.smooth == (len(ga) == 1 and len(gb) == 1), (trial, rep.discriminant)
        assert rep.certificate["gcd_deg_chart_main"] == len(ga) - 1
        assert rep.certificate["gcd_deg_chart_other"] == len(gb) - 1, (trial, rep.discriminant)
        assert [list(rep.chart_main_gcd), list(rep.chart_other_gcd)] == [ga, gb]
    for trial in range(400):
        c = [random_element(field, rng, 3) for _ in range(trial % 6 + 4)]
        if trial % 4 in (1, 3):
            c[0] = field.zero
        if trial % 4 in (2, 3):
            c[-1] = c[-2] = field.zero
        form = BinaryForm(field, tuple(c))
        if form.is_zero:
            continue
        ga, gb = _both_chart_gcds(form)
        assert list(form.chart_gcds()) == [ga, gb], (trial, c)
        assert form.is_squarefree() == (len(ga) == 1 and len(gb) == 1), (trial, c)


def _euclid_gcd_with_derivative(c):
    """Reference: the monic gcd of a rational polynomial (ascending
    coefficients) with its derivative, by Euclid's algorithm on Fractions."""

    def trim(p):
        while p and p[-1] == 0:
            p = p[:-1]
        return p

    a = trim([Fraction(x) for x in c])
    b = trim([i * x for i, x in enumerate(a)][1:])
    while b:
        r = list(a)
        while len(r) >= len(b):
            factor, shift = r[-1] / b[-1], len(r) - len(b)
            for i, y in enumerate(b):
                r[shift + i] -= factor * y
            r = trim(r)
        a, b = b, r
    return [x / a[-1] for x in a]


def test_rational_chart_gcds_come_from_sturm_chains(monkeypatch):
    """Over the rationals both chart gcds are read off Sturm chains, with no
    second remainder sequence: on seeded forms, a third with a repeated
    finite root and half with a double root at [1:0] (c_0 = c_1 = 0), so
    that the F(t, 1) gcd is taken, each agrees with Euclid's algorithm."""

    def refuse(*args):
        raise AssertionError("gcd_poly over the rationals")

    monkeypatch.setattr(uv, "gcd_poly", refuse)
    rng = random.Random("rational chart gcds")
    other_chart = 0
    for trial in range(120):
        c = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(trial % 4 + 2)]
        if trial % 3 == 0:
            r = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            c = uv.mul(QQ, c, [r * r, -2 * r, Fraction(1)])
        if trial % 2:
            c = [Fraction(0), Fraction(0), *c]
        form = BinaryForm(QQ, tuple(c))
        if form.is_zero:
            continue
        a, b = form.chart_main(), form.chart_other()
        ga, gb = form.chart_gcds()
        assert [ga, gb] == [_euclid_gcd_with_derivative(a), _euclid_gcd_with_derivative(b)], (trial, c)
        other_chart += len(ga) > 1 or len(a) < form.degree
    assert other_chart >= 60


def _rational_battery(rng):
    """Pencils over Q with n = 2..12, each (n, kind) once: integral Grams,
    for odd n with a zero (0, 0) entry in both (Δ_1 = 0, so the
    discriminant's elimination swaps rows and no minors are decoded), and
    fractional Grams; diagonal pencils with one ratio b_i/a_i planted twice
    (a repeated root of F(1, t)) or with b_0 = b_1 = 0 (a double root at
    s0 = 0, so F(1, t) drops two degrees and the F(t, 1) gcd is taken); and
    Grams sharing a zero row (D = 0); the last three under a random
    unimodular change of coordinates."""
    for trial in range(55):
        n, kind = trial % 11 + 2, trial % 5
        m = n + 1
        if kind == 0:
            grams = [random_symmetric(QQ, m, rng).to_lists() for _ in range(2)]
            if n % 2:
                grams[0][0][0] = grams[1][0][0] = Fraction(0)
            yield Pencil.from_gram(QQ, *grams)
            continue
        if kind == 1:
            grams = []
            for _ in range(2):
                rows = [[Fraction(0)] * m for _ in range(m)]
                for i in range(m):
                    for j in range(i, m):
                        rows[i][j] = rows[j][i] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                grams.append(SymMatrix.from_rows(rows))
            yield Pencil(QQ, n, *grams)
            continue
        a = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(m)]
        b = [Fraction(rng.randint(-5, 5)) for _ in range(m)]
        if kind == 2:
            b[1] = b[0] * a[1] / a[0]
        if kind == 3:
            b[0] = b[1] = Fraction(0)
        if kind == 4:
            a[0] = b[0] = Fraction(0)
        unimodular = [[Fraction(int(i == j) if j <= i else rng.randint(-2, 2)) for j in range(m)] for i in range(m)]
        diagonal = Pencil(QQ, n, SymMatrix.diagonal(QQ, a), SymMatrix.diagonal(QQ, b))
        yield pencil_congruent(diagonal, unimodular)


def _values_pin(poly, values):
    """Whether the polynomial `poly` of degree < len(values) takes `values`
    at t = 0, 1, ..."""
    return all(uv.evaluate(QQ, poly, Fraction(t)) == v for t, v in enumerate(values))


def test_smoothness_over_the_rationals_matches_the_gcd_reference():
    """On the rational battery, the report built from one Sturm chain of
    D(1, t) agrees with a reference that takes D and each leading minor
    point by point and each chart gcd by `gcd_poly` with the derivative,
    made monic; and the chain it keeps is the Sturm chain of D(1, t)."""
    seen = {"repeated": 0, "other_chart": 0, "degenerate": 0, "no_minors": 0}
    for trial, p in enumerate(_rational_battery(random.Random(20))):
        m = p.n + 1
        rep = smoothness(p)
        scale = math.lcm(*(x.denominator for g in (p.g0, p.g1) for row in g.entries for x in row))
        pairs = [list(zip(r0, r1)) for r0, r1 in zip(p.g0.entries, p.g1.entries)]
        members = [[[scale * (a + t * b) for a, b in row] for row in pairs] for t in range(m + 1)]
        dets = [det(QQ, member) / scale**m for member in members]
        if not any(dets):
            assert rep.discriminant is None and rep.minors is None and rep.chain is None and not rep.smooth, trial
            assert rep.chart_main_gcd == rep.chart_other_gcd == (QQ.one,)
            seen["degenerate"] += 1
            continue
        assert _values_pin(rep.discriminant.chart_main(), dets), trial
        leading = [[det(QQ, [row[:k] for row in members[t][:k]]) for t in range(k + 1)] for k in range(1, m + 1)]
        if rep.minors is None:
            assert not all(any(values) for values in leading), trial
            seen["no_minors"] += 1
        else:
            assert all(_values_pin(delta, values) for delta, values in zip(rep.minors, leading)), trial
        charts = rep.discriminant.chart_main(), rep.discriminant.chart_other()
        ga, gb = (uv.monic(QQ, uv.gcd_poly(QQ, c, uv.derivative(QQ, c))) if len(c) > 1 else [QQ.one] for c in charts)
        smooth = len(ga) == 1 and len(gb) == 1
        assert rep.smooth == smooth and list(rep.chart_main_gcd) == ga, trial
        # F(t, 1) is read only when F(1, t) does not settle squarefreeness
        if len(ga) == 1 and len(charts[0]) > rep.degree:
            assert rep.chart_other_gcd == (QQ.one,), trial
        else:
            assert list(rep.chart_other_gcd) == gb, trial
            seen["other_chart"] += 1
        seen["repeated"] += len(ga) > 1
        assert list(rep.chain) == uv.sturm_chain(charts[0]), trial
    assert all(seen.values()), seen


def _minors_battery(rng):
    """The toric pencil, whose diagonal is all zero, and rational pencils
    with n = 2..7: random Grams, Grams with a zero (0, 0) entry, with an
    all-zero diagonal, and with equal rank-one leading 2 x 2 blocks (so
    Δ_2 vanishes identically while Δ_1 does not); every other pencil has
    G1 divided by 3, so L = 3 clears its denominators."""
    yield toric_pencil(QQ)
    for trial in range(120):
        n, kind = trial % 6 + 2, trial % 4
        m = n + 1
        grams = [random_symmetric(QQ, m, rng).to_lists() for _ in range(2)]
        for g in grams:
            if kind == 1:
                g[0][0] = Fraction(0)
            if kind == 2:
                for i in range(m):
                    g[i][i] = Fraction(0)
            if kind == 3:
                g[0][0] = g[0][1] = g[1][0] = g[1][1] = Fraction(rng.randint(1, 4))
        if trial % 2:
            grams[1] = [[x / 3 for x in row] for row in grams[1]]
        yield Pencil.from_gram(QQ, *grams)


def test_minors_are_decoded_exactly_when_no_leading_minor_vanishes_at_the_kronecker_point():
    """`smoothness(p).minors` is None exactly when some leading principal
    minor of L·(G0 + 2^K·G1) vanishes, for 2^K the point at which
    `det_poly` evaluates the matrix (K = bitlength(B) + 1, with
    B = prod_i sum_j |e_ij|_1 over L·G0 and L·G1); otherwise the decoded
    minors take those values at 2^K."""
    seen = {"minors": 0, "none": 0, "later_zero": 0}
    for trial, p in enumerate(_minors_battery(random.Random(27))):
        m = p.n + 1
        scale = math.lcm(*(x.denominator for g in (p.g0, p.g1) for row in g.entries for x in row))
        pairs = [list(zip(r0, r1)) for r0, r1 in zip(p.g0.entries, p.g1.entries)]
        rows = [[(int(scale * a), int(scale * b)) for a, b in row] for row in pairs]
        bound = math.prod(sum(abs(a) + abs(b) for a, b in row) for row in rows)
        point = 2 ** (bound.bit_length() + 1)
        member = [[a + point * b for a, b in row] for row in rows]
        leading = [det(QQ, [row[:k] for row in member[:k]]) for k in range(1, m + 1)]
        rep = smoothness(p)
        assert (rep.minors is None) == (not all(leading)), trial
        if rep.minors is None:
            seen["none"] += 1
            seen["later_zero"] += bool(leading[0])
        else:
            assert [uv.evaluate(QQ, delta, Fraction(point)) for delta in rep.minors] == leading, trial
            seen["minors"] += 1
        if trial == 0:
            assert rep.minors is None and not leading[0]  # the toric pencil
    assert all(count > 20 for count in seen.values()), seen


def test_isolation_reuses_the_report_chain():
    """Root isolation given the report's chain returns the intervals it
    finds on its own, squarefree or not."""
    for trial, p in enumerate(_rational_battery(random.Random(21))):
        rep = smoothness(p)
        if rep.discriminant is not None:
            f = rep.discriminant.chart_main()
            assert uv.isolate_real_roots(f, rep.chain) == uv.isolate_real_roots(f), trial


def test_toric_pencil_is_not_smooth():
    rep = smoothness(toric_pencil(QQ))
    assert not rep.smooth
    assert rep.degree == 6
    assert not rep.degenerate
    assert not is_smooth(toric_pencil(F5))


def test_smoothness_of_degenerate_pencil():
    """A zero row makes D vanish identically and leaves no digit width to
    decode the leading minors with, so over the rationals none is decoded
    and the report comes back at once."""
    g = SymMatrix.diagonal(QQ, [Fraction(1)] * 3 + [Fraction(0)])
    done = []
    worker = threading.Thread(target=lambda: done.append(smoothness(Pencil(QQ, 3, g, g))), daemon=True)
    worker.start()
    worker.join(1)
    assert done, "smoothness of a degenerate pencil did not return within 1 s"
    rep = done[0]
    assert rep.degenerate and not rep.smooth and rep.degree == -1
    assert rep.discriminant is None and rep.minors is None


# -- singular points ----------------------------------------------------


def test_singular_at_toric_vertex():
    p = toric_pencil(QQ)
    e0 = [Fraction(1)] + [Fraction(0)] * 5
    assert singular_at(p, e0)


def test_singular_at_smooth_point():
    p = toric_pencil(QQ)
    assert not singular_at(p, [Fraction(1)] * 6)


def test_singular_at_guards():
    p = toric_pencil(QQ)
    with pytest.raises(PrecondError, match="projective"):
        singular_at(p, [Fraction(0)] * 6)
    with pytest.raises(PrecondError, match="base locus"):
        singular_at(p, [Fraction(1), Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0)])
    # a 7-coordinate point read True, a 2-coordinate one raised IndexError,
    # and a float was taken as it stood
    f7 = toric_pencil(PrimeField(7))
    for point in ([1, 0, 0, 0, 0, 0, 0], [1, 0], 5):
        with pytest.raises(PrecondError, match="6 coordinates"):
            singular_at(f7, point)
    with pytest.raises(PrecondError, match=r"point\[1\]: .*must be exact"):
        singular_at(f7, [1, 1.5, 0, 0, 0, 0])


# -- reduction ----------------------------------------------------------


def test_reduce_rational_pencil():
    p = toric_pencil(QQ)
    r = reduce_pencil(p, 3)
    assert isinstance(r.field, PrimeField) and r.field.p == 3
    # 1/2 becomes 2 mod 3
    assert r.g0[0, 1] == 2
    assert r.n == p.n


def test_reduce_prime_pencil_must_match():
    p = toric_pencil(F3)
    assert reduce_pencil(p, 3) is p
    with pytest.raises(PrecondError, match="F_3"):
        reduce_pencil(p, 5)


def test_reduce_rejects_denominator_clash():
    p = Pencil.from_quadric_terms(QQ, 2, [(0, 0, "1/3"), (1, 1, 1)], [(2, 2, 1)])
    with pytest.raises(PrecondError):
        reduce_pencil(p, 3)


# -- dimension bookkeeping ----------------------------------------------


def expected_dim(n: int) -> int:
    """Dimension of the base locus of a nondegenerate pencil in P^n."""
    return n - 2


def max_linear_subspace_dim(n: int) -> int:
    """Largest dimension of a linear space contained in a smooth base locus."""
    return (n - 1) // 2


@pytest.mark.parametrize("n, dim, lin", [(2, 0, 0), (3, 1, 1), (4, 2, 1), (5, 3, 2)])
def test_dimension_formulas(n, dim, lin):
    assert expected_dim(n) == dim
    assert max_linear_subspace_dim(n) == lin
