"""Point counts, singular points and line enumeration over prime fields, and
the torsor identity."""

import io
import itertools
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest

from qpencil import cli, pencil as pencil_mod
from qpencil.errors import BudgetError, InternalCheckError, PrecondError
from qpencil.fields import QQ, PrimeField, legendre
from qpencil import fqgeom
from qpencil.io import load_pencil
from qpencil.fqgeom import (
    ELIMINATION_LIMIT,
    MEMBER_LIMIT,
    PAIR_TEST_LIMIT,
    POINT_SCAN_LIMIT,
    _common_zeros,
    _gram_array,
    count_points,
    enumerate_lines,
    points_on_pencil,
    projective_point_count,
    projective_points,
    singular_points,
    torsor_check,
)
from qpencil.linalg import det, mat_vec, rank, rref
from qpencil.matrices import SymMatrix
from qpencil.pencil import (
    Pencil,
    _discriminant_or_none,
    diagonal_pencil,
    pencil_congruent,
    singular_at,
    toric_pencil,
)
from qpencil.samples import random_pencil, random_symmetric

from conftest import REPO, refuses_at_once

F3 = PrimeField(3)
F5 = PrimeField(5)


# -- projective bookkeeping ----------------------------------------------


@pytest.mark.parametrize(
    "q, dim, count",
    [(3, 1, 4), (3, 2, 13), (3, 5, 364), (5, 2, 31), (7, 3, 400)],
)
def test_projective_point_count(q, dim, count):
    assert projective_point_count(q, dim) == count


def test_projective_points_enumerates_each_point_once():
    pts = projective_points(3, 3)  # P^2(F_3)
    assert len(pts) == 13
    seen = set()
    for row in pts:
        # normalized: first nonzero coordinate is 1
        lead = next(i for i, c in enumerate(row) if c)
        assert row[lead] == 1
        seen.add(tuple(int(c) for c in row))
    assert len(seen) == 13


# -- quadric point counts -------------------------------------------------


def test_count_points_matches_brute_force():
    rng = random.Random(5)
    p = random_pencil(F3, 2, rng)
    brute = 0
    for x0 in range(3):
        for x1 in range(3):
            for x2 in range(3):
                x = (x0, x1, x2)
                if x == (0, 0, 0):
                    continue
                lead = next(c for c in x if c)
                if lead != 1:
                    continue
                if p.eval_form(0, x) % 3 == 0 and p.eval_form(1, x) % 3 == 0:
                    brute += 1
    assert count_points(p) == brute


def test_conic_intersection_point_count():
    # x0^2 + x1^2 + x2^2 = x1^2 + 2 x2^2 = 0 over F_5
    p = diagonal_pencil(F5, 2)
    pts = points_on_pencil(p)
    assert count_points(p) == len(pts)
    for row in pts:
        assert p.eval_form(0, [int(c) for c in row]) % 5 == 0


def test_point_enumeration_requires_a_prime_field():
    with pytest.raises(PrecondError):
        count_points(toric_pencil(QQ))


# -- the common zeros against the P^n scan ---------------------------------


def _scan_common_zeros(p, nvars, grams):
    """The common zeros by evaluating every quadric on all of P^(nvars-1)(F_p)."""
    pts = projective_points(p, nvars)
    mask = np.ones(len(pts), dtype=bool)
    for g in grams:
        mask &= ((pts @ g) * pts).sum(axis=1) % p == 0
    return pts[mask]


def _kernel_cases(p, nvars, rng):
    """(kind, Gram arrays) in nvars variables over F_p, one of each kind."""

    def sym():
        g = np.array([[rng.randrange(p) for _ in range(nvars)] for _ in range(nvars)], dtype=np.int64)
        return (g + g.T) % p

    n = nvars - 1
    yield "random", [sym(), sym()]
    g0, g1 = sym(), sym()
    g0[n, n] = g1[n, n] = 0
    yield "gamma0 = gamma1 = 0", [g0, g1]
    g0, g1 = sym(), sym()
    g0[n, n] = 0
    yield "gamma0 = 0", [g0, g1]
    g0, g1 = sym(), sym()
    for g in (g0, g1):
        g[n, :] = g[:, n] = 0
    yield "x_n absent", [g0, g1]
    g = sym()
    yield "proportional", [g, 2 * g % p]
    yield "G1 = 0", [sym(), np.zeros((nvars, nvars), dtype=np.int64)]
    g0, g1 = sym(), sym()
    for g in (g0, g1):
        g[0, :] = g[:, 0] = 0
    yield "cone with vertex e0", [g0, g1]
    g0, g1 = sym(), sym()
    for g in (g0, g1):
        g[n, :] = g[:, n] = 0
    g1[0, n] = g1[n, 0] = 1
    yield "only Q1 has a w term", [g0, g1]
    if nvars == 6:
        toric = toric_pencil(PrimeField(p))
        yield "toric", [_gram_array(g, p) for g in (toric.g0, toric.g1)]


def test_common_zeros_match_the_scan_order_included():
    kinds = set()
    for p in (3, 5, 7, 11):
        for nvars in range(2, 7):
            rng = random.Random(f"kernel/{p}/{nvars}")
            for kind, grams in _kernel_cases(p, nvars, rng):
                found = _common_zeros(p, nvars, grams)
                expected = _scan_common_zeros(p, nvars, grams)
                assert found.dtype == expected.dtype and found.shape == expected.shape, (p, nvars, kind)
                assert np.array_equal(found, expected), (p, nvars, kind)
                kinds.add(kind)
    assert len(kinds) == 9


def test_common_zeros_refuse_over_the_scan_budget_at_once():
    # |P^4(F_1009)| = 1.04e12 canonical y, over POINT_SCAN_LIMIT before any work
    fld = PrimeField(1009)
    refuses_at_once(enumerate_lines, diagonal_pencil(fld, 5), "POINT_SCAN_LIMIT", 1.0)
    refuses_at_once(points_on_pencil, diagonal_pencil(fld, 5), "POINT_SCAN_LIMIT", 1.0)


def test_flat_fibers_are_refused_before_they_are_expanded():
    # G1 = 0 makes M = 0, so every fiber over P^1(F_p) is flat: (p + 1) y and
    # p (p + 1) w values, over POINT_SCAN_LIMIT although the y are not
    p = 40009
    assert (p + 1) ** 2 > POINT_SCAN_LIMIT >= p + 1
    fld = PrimeField(p)
    cone = Pencil(fld, 2, SymMatrix.diagonal(fld, [1, 1, 1]), SymMatrix.diagonal(fld, [0, 0, 0]))
    refuses_at_once(points_on_pencil, cone, "every fiber flat", 1.0)


def test_flat_fibers_of_each_slice_are_counted_before_expansion(monkeypatch):
    """With M != 0 the flat fibers are counted slice by slice: for x0^2 and
    x0 x2 over F_7 in P^3, with x3 absent, M = x0^2 is flat over the 8 y on
    the line x0 = 0 of P^2, so the scan visits 57 + 7 * 8 points."""
    g0 = np.zeros((4, 4), dtype=np.int64)
    g1 = np.zeros((4, 4), dtype=np.int64)
    g0[0, 0] = g1[0, 2] = g1[2, 0] = 1
    visited = 57 + 7 * 8
    expected = _scan_common_zeros(7, 4, [g0, g1])
    assert len(expected) == 57  # the plane x0 = 0
    monkeypatch.setattr(fqgeom, "POINT_SCAN_LIMIT", visited - 1)
    with pytest.raises(BudgetError, match="the flat fibers") as err:
        _common_zeros(7, 4, [g0, g1])
    assert err.value.bound == f"POINT_SCAN_LIMIT = {visited - 1}"
    monkeypatch.setattr(fqgeom, "POINT_SCAN_LIMIT", visited)
    assert np.array_equal(_common_zeros(7, 4, [g0, g1]), expected)


def test_line_finder_refuses_over_the_pair_budget_before_the_pair_test():
    """A cone over a curve of P^3(F_5) with a P^4 of vertices in P^8 has
    25 781 common zeros and 1.4e8 pairs to test, over PAIR_TEST_LIMIT."""
    fld = PrimeField(5)
    curve = random_pencil(fld, 3, random.Random(3))
    grams = [[[int(curve_g[i, j]) if i < 4 and j < 4 else 0 for j in range(9)] for i in range(9)] for curve_g in (curve.g0, curve.g1)]
    cone = _pencil_of(fld, 8, grams)
    zeros = points_on_pencil(cone)
    lead = (zeros != 0).argmax(axis=1)
    pairs = sum(int((lead == l).sum()) * int((lead > l).sum()) for l in range(9))
    assert pairs > PAIR_TEST_LIMIT
    refuses_at_once(enumerate_lines, cone, "PAIR_TEST_LIMIT", 1.0)


def test_torsor_check_at_q23_stays_under_200_mb():
    """The scan keeps only the common zeros, so a torsor check at q = 23
    (|P^5(F_23)| = 6.7e6 points) peaks well below the 200 MB it is allowed."""
    code = (
        "import random, resource\n"
        "from qpencil.fields import PrimeField\n"
        "from qpencil.fqgeom import torsor_check\n"
        "from qpencil.samples import random_pencil\n"
        "rep = torsor_check(random_pencil(PrimeField(23), 5, random.Random(23)))\n"
        "print(rep.line_count, rep.jacobian_order, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines, order, maxrss_kb = map(int, done.stdout.split())
    assert lines == order
    assert maxrss_kb < 200 * 1024


# -- the member routes against the P^n scan ---------------------------------


def _minors_scan(pencil):
    """The singular points by scanning the common zeros: the Jacobian rows
    2 G0 x and 2 G1 x are dependent exactly when all their 2x2 minors
    vanish (char != 2)."""
    p = pencil.field.p
    g0, g1 = (_gram_array(g, p) for g in (pencil.g0, pencil.g1))
    pts = points_on_pencil(pencil)
    if pts.shape[0] == 0:
        return []
    u = (pts @ g0) % p
    v = (pts @ g1) % p
    minors = (u[:, :, None] * v[:, None, :] - u[:, None, :] * v[:, :, None]) % p
    sing = (minors == 0).all(axis=(1, 2))
    return [tuple(int(c) for c in row) for row in pts[sing]]


def _pencil_of(fld, n, grams):
    return Pencil(fld, n, *(SymMatrix.from_rows(g) for g in grams))


def _battery_cases(fld, n, rng):
    """(kind, pencil) over fld in n + 1 variables, one of each kind."""
    m, p = n + 1, fld.p
    yield "smooth", random_pencil(fld, n, rng)
    yield "random", random_pencil(fld, n, rng, smooth=False)
    # singular at e0: Q0(e0) = Q1(e0) = 0 and G1 e0 = c G0 e0
    g0, g1 = (random_symmetric(fld, m, rng).to_lists() for _ in range(2))
    c = rng.randrange(p)
    g0[0][0] = g1[0][0] = 0
    for j in range(1, m):
        g1[0][j] = g1[j][0] = c * g0[0][j] % p
    yield "planted", _pencil_of(fld, n, (g0, g1))
    # the cone with vertex e0: D vanishes identically
    grams = [random_symmetric(fld, m, rng).to_lists() for _ in range(2)]
    for g in grams:
        for j in range(m):
            g[0][j] = g[j][0] = 0
    yield "cone", _pencil_of(fld, n, grams)
    # D vanishes identically with no common kernel: x0 x1 and x0 x2 over a
    # random block in x3..xn
    grams = [random_symmetric(fld, m, rng).to_lists() for _ in range(2)]
    half = (p + 1) // 2
    for k, g in enumerate(grams):
        for i in range(3):
            for j in range(m):
                g[i][j] = g[j][i] = 0
        g[0][1 + k] = g[1 + k][0] = half
    yield "kronecker", _pencil_of(fld, n, grams)
    g = random_symmetric(fld, m, rng)
    yield "proportional", Pencil(fld, n, g, g.map(lambda x: 2 * x % p))
    yield "g1 = 0", Pencil(fld, n, random_symmetric(fld, m, rng), SymMatrix.diagonal(fld, [0] * m))
    if n == 5:
        yield "toric", toric_pencil(fld)


# every (p, n) with p in 3, 5, 7, 11, 13 and n in 2..7 whose scan of
# P^n(F_p) stays within 2 * 10^5 points
BATTERY = [(p, n) for p in (3, 5, 7, 11, 13) for n in range(2, 8) if p ** (n + 1) <= 2 * 10**5]


def test_member_routes_match_the_scan_on_a_seeded_battery(monkeypatch):
    """Both member routes agree with the P^n scan on every kind of pencil,
    and build no member through the field-generic `Pencil.member`."""

    def generic_member(*args):
        raise AssertionError("Pencil.member called")

    monkeypatch.setattr(Pencil, "member", generic_member)
    kinds, degenerate, singular = set(), 0, 0
    for p, n in BATTERY:
        fld = PrimeField(p)
        rng = random.Random(f"battery/{p}/{n}")
        for kind, pencil in _battery_cases(fld, n, rng):
            where = (p, n, kind)
            assert count_points(pencil) == len(points_on_pencil(pencil)), where
            sing = singular_points(pencil)
            assert sing == _minors_scan(pencil), where
            kinds.add(kind)
            degenerate += _discriminant_or_none(pencil) is None
            singular += bool(sing)
    assert {n for _, n in BATTERY} == set(range(2, 8))
    assert {p for p, _ in BATTERY} == {3, 5, 7, 11, 13}
    assert len(kinds) == 8
    assert degenerate >= 2 * len(BATTERY) and singular >= 3 * len(BATTERY), (degenerate, singular)


@pytest.mark.parametrize("q", [3, 7, 11])
def test_member_sum_sees_the_sign_of_each_member(q):
    """For q = 3 mod 4, chi(-1) = -1, so the count is right only with the
    signs (-1)^(r/2) and delta right: on the nonsingular members of a smooth
    threefold (r = 6) and on the two rank-2 members, diag(0, 0, 1, 1) and
    diag(1, 1, 0, 0), of x0^2 + x1^2 + x2^2 + x3^2 = x2^2 + x3^2 = 0."""
    fld = PrimeField(q)
    smooth = random_pencil(fld, 5, random.Random(q))
    split = Pencil(fld, 3, SymMatrix.diagonal(fld, [1, 1, 1, 1]), SymMatrix.diagonal(fld, [0, 0, 1, 1]))
    for pencil in (smooth, split):
        assert count_points(pencil) == len(points_on_pencil(pencil))


@pytest.mark.parametrize("q, planted", [(3, 12), (7, 28), (11, 44)])
def test_a_negated_minor_breaks_the_count(monkeypatch, q, planted):
    """The sum reads delta off `linalg.det`: negated there, the two rank-2
    members of the split pencil, of determinant 1 on their pivot columns,
    count 2 q^3 each instead of 0, and X, empty over F_q for q = 3 mod 4,
    is counted with 2 (q + 1) points."""
    fld = PrimeField(q)
    split = Pencil(fld, 3, SymMatrix.diagonal(fld, [1, 1, 1, 1]), SymMatrix.diagonal(fld, [0, 0, 1, 1]))
    assert count_points(split) == len(points_on_pencil(split)) == 0
    monkeypatch.setattr(fqgeom, "det", lambda field, rows: -det(field, rows) % q)
    assert count_points(split) == planted


def _planted(fld, n, kind, rng):
    """A pencil in n + 1 variables over fld whose D has the planted root of
    `kind`, under a random change of coordinates: a 2 x 2 block (B0, B1) is
    set beside a random block in the other n - 1 variables.

    - "corank 2": B0 = S, B1 = -S/t0 for a random invertible S with
      S_11 != 0, so the member at [1:t0] vanishes on the block: a double
      root of corank 2.
    - "corank 1": B0 + t B1 = [[0, t - t0], [t - t0, 1]], of determinant
      -(t - t0)^2 and rank 1 at t0: a double root of corank 1.
    - "[0:1] simple": B0 = S, B1 = diag(1, 0), so G1 has corank 1, c_m = 0
      and c_(m-1) = S_11 det(the random block of G1) != 0.
    - "[0:1] double": B0 = S, B1 = 0, so G1 has corank 2 and
      c_m = c_(m-1) = 0.
    """
    p, m = fld.p, n + 1
    t0 = rng.randrange(1, p)
    s = _invertible_symmetric(fld, 2, rng)
    while not s[1][1]:
        s = _invertible_symmetric(fld, 2, rng)
    if kind == "corank 1":
        b0, b1 = [[0, -t0 % p], [-t0 % p, 1]], [[0, 1], [1, 0]]
    else:
        b0, b1 = s, {
            "corank 2": [[-x * pow(t0, p - 2, p) % p for x in row] for row in s],
            "[0:1] simple": [[1, 0], [0, 0]],
            "[0:1] double": [[0, 0], [0, 0]],
        }[kind]
    # the random block is nondegenerate at t0 and at [0:1], so the planted
    # member's kernel is the block's
    rest1 = _invertible_symmetric(fld, m - 2, rng)
    while True:
        rest0 = random_symmetric(fld, m - 2, rng).to_lists()
        if rank(fld, [[(x + t0 * y) % p for x, y in zip(r0, r1)] for r0, r1 in zip(rest0, rest1)]) == m - 2:
            break
    grams = [[row + [0] * (m - 2) for row in b] + [[0, 0] + row for row in rest] for b, rest in ((b0, rest0), (b1, rest1))]
    while True:
        a = [[rng.randrange(p) for _ in range(m)] for _ in range(m)]
        if rank(fld, a) == m:
            return pencil_congruent(_pencil_of(fld, n, grams), a)


def _invertible_symmetric(fld, size, rng):
    while True:
        rows = random_symmetric(fld, size, rng).to_lists()
        if rank(fld, rows) == size:
            return rows


def _count_battery():
    """(q, n, kind, pencil) for q in 3, 5, 7 and n = 2..6: a smooth pencil,
    the four planted roots of `_planted`, and a cone, whose D vanishes
    identically."""
    for q in (3, 5, 7):
        fld = PrimeField(q)
        for n in range(2, 7):
            rng = random.Random(f"count/{q}/{n}")
            yield q, n, "smooth", random_pencil(fld, n, rng)
            for kind in ("corank 2", "corank 1", "[0:1] simple", "[0:1] double"):
                yield q, n, kind, _planted(fld, n, kind, rng)
            grams = [random_symmetric(fld, n + 1, rng).to_lists() for _ in range(2)]
            for g in grams:
                for j in range(n + 1):
                    g[0][j] = g[j][0] = 0
            yield q, n, "cone", _pencil_of(fld, n, grams)


def test_count_points_matches_the_common_zeros_on_planted_roots():
    """The member sum against the common zeros for both parities of m = n + 1:
    double roots of corank 2 and of corank 1, simple and double roots at
    [0:1], and D = 0, each planted and hidden by a change of coordinates."""
    seen = set()
    for q, n, kind, pencil in _count_battery():
        assert count_points(pencil) == len(points_on_pencil(pencil)), (q, n, kind)
        disc = _discriminant_or_none(pencil)
        flags = [(d, simple) for _, _, d, simple in fqgeom._member_values(pencil)]
        if kind == "cone":
            assert disc is None and not any(d or simple for d, simple in flags)
        elif kind.startswith("[0:1]"):
            assert flags[-1] == (0, kind == "[0:1] simple"), (q, n, kind)
        elif kind.startswith("corank"):
            assert any(d == 0 and not simple for d, simple in flags[:-1]), (q, n, kind)
        seen.add(((n + 1) % 2, kind))
    assert len(seen) == 12


def _counted_rref(monkeypatch):
    calls = []

    def counted(field, rows):
        calls.append(len(rows))
        return rref(field, rows)

    monkeypatch.setattr(fqgeom, "rref", counted)
    return calls


@pytest.mark.parametrize("q, n", [(3, 3), (3, 5), (5, 5), (7, 3)])
def test_simple_roots_are_not_reduced_for_even_m(monkeypatch, q, n):
    """For even m a simple root of D has corank 1, so S(M) = 0 with no
    reduction: a smooth pencil, whose D has only simple roots, reduces no
    member even where D has F_q-roots, and a planted double root of corank
    2 is reduced."""
    fld = PrimeField(q)
    rng = random.Random(f"simple/{q}/{n}")
    smooth = random_pencil(fld, n, rng)
    while all(d for _, _, d, _ in fqgeom._member_values(smooth)):
        smooth = random_pencil(fld, n, rng)
    double = _planted(fld, n, "corank 2", rng)
    expected = [len(points_on_pencil(p)) for p in (smooth, double)]
    calls = _counted_rref(monkeypatch)
    assert count_points(smooth) == expected[0]
    assert calls == []
    assert count_points(double) == expected[1]
    assert calls


@pytest.mark.parametrize("q, n", [(3, 3), (5, 5), (7, 3)])
def test_a_double_root_read_as_simple_breaks_the_count(monkeypatch, q, n):
    """Planted fault: every root of D reported simple.  The member at a
    double root of corank 2 has even rank m - 2 and S(M) != 0, so skipping
    it changes the count or fails one of its exact divisions."""
    pencil = _planted(PrimeField(q), n, "corank 2", random.Random(f"fault/{q}/{n}"))
    expected = len(points_on_pencil(pencil))
    assert count_points(pencil) == expected
    member_values = fqgeom._member_values
    monkeypatch.setattr(fqgeom, "_member_values", lambda p: ((a, b, d, not d) for a, b, d, _ in member_values(p)))
    try:
        planted = count_points(pencil)
    except InternalCheckError:
        planted = None
    assert planted != expected


def _rank_and_delta(rows, p):
    """Rank r of a symmetric matrix mod p and the product delta of the
    nonzero pivots of a congruence diagonalization.  A block with zero
    diagonal and a nonzero entry at (i, j) is first changed by x_i -> x_i + x_j,
    which puts 2 a_ij != 0 at (i, i).  Consumes `rows`."""
    a, r, delta = rows, 0, 1
    while a:
        m = len(a)
        piv = next((i for i in range(m) if a[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in range(m) for j in range(i + 1, m) if a[i][j]), None)
            if pair is None:
                break
            piv, j = pair
            a[piv] = [(x + y) % p for x, y in zip(a[piv], a[j])]
            for row in a:
                row[piv] = (row[piv] + row[j]) % p
        d, prow = a[piv][piv], a[piv]
        inv = pow(d, p - 2, p)
        rest = [k for k in range(m) if k != piv]
        a = [[(a[k][l] - a[k][piv] * inv * prow[l]) % p for l in rest] for k in rest]
        r, delta = r + 1, delta * d % p
    return r, delta


def _symmetric_of_rank(p, m, r, rng):
    """A^T D A for a random D = diag(d_1, ..., d_r, 0, ...) with d_i != 0 and
    a random invertible A: a symmetric m x m matrix of rank r."""
    fld = PrimeField(p)
    while True:
        a = [[rng.randrange(p) for _ in range(m)] for _ in range(m)]
        if rank(fld, a) == m:
            break
    d = [rng.randrange(1, p) for _ in range(r)] + [0] * (m - r)
    return [[sum(a[k][i] * d[k] * a[k][j] for k in range(m)) % p for j in range(m)] for i in range(m)]


def _zero_diagonal(p, m, rng):
    """A random symmetric matrix with zero diagonal, the oracle's
    x_i -> x_i + x_j case."""
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            rows[i][j] = rows[j][i] = rng.randrange(p) if rng.random() < 0.5 else 0
    return rows


def test_pivot_minor_matches_the_congruence_diagonalization():
    """For a symmetric M mod p with pivot columns P in its reduced row
    echelon form, |P| is the rank and det M[P, P] is nonzero with the
    Legendre symbol of the product of the congruence pivots: a seeded
    battery of every rank for m <= 8, and of zero-diagonal matrices."""
    rng = random.Random("pivot minors")
    ranks, zero_diagonal = set(), 0
    for p in (3, 5, 7, 11, 13):
        fld = PrimeField(p)
        for m in range(1, 9):
            cases = [_symmetric_of_rank(p, m, r, rng) for r in range(m + 1) for _ in range(8)]
            cases += [_zero_diagonal(p, m, rng) for _ in range(16)]
            for rows in cases:
                r, delta = _rank_and_delta([list(row) for row in rows], p)
                pivots = rref(fld, rows)[1]
                assert len(pivots) == r, (p, rows)
                minor = det(fld, [[rows[i][j] for j in pivots] for i in pivots])
                assert minor and legendre(minor, p) == legendre(delta, p), (p, rows)
                ranks.add((m, r))
                zero_diagonal += r > 0 and not any(rows[i][i] for i in range(m))
    assert ranks == {(m, r) for m in range(1, 9) for r in range(m + 1)}
    assert zero_diagonal >= 400, zero_diagonal


def test_toric_singular_points_over_f3():
    sing = singular_points(toric_pencil(F3))
    assert len(sing) == 6
    # exactly the coordinate vertices, in projective_points order
    assert sing == [tuple(1 if i == j else 0 for i in range(6)) for j in range(6)]


def test_smooth_pencil_has_no_singular_points():
    assert singular_points(diagonal_pencil(F5, 3)) == []


# binary quadratics gamma t^2 + 2 beta t + alpha by their zeros on P^1
_LINE_FORMS = ("residue", "non-residue", "zero", "gamma = 0", "gamma = beta = 0", "R = 0")


def _line_form(kind, p, rng):
    """(alpha, beta, gamma) of a form of the given kind, and its number of
    zeros on P^1(F_p): the discriminant beta^2 - alpha gamma a nonzero
    square, a non-square or zero; a linear form; a nonzero constant; or 0."""
    beta, gamma = rng.randrange(p), rng.randrange(1, p)
    inv = pow(gamma, p - 2, p)
    if kind == "residue":
        s = rng.randrange(1, p)
        return (beta * beta - s * s) * inv % p, beta, gamma, 2
    if kind == "non-residue":
        c = next(z for z in range(2, p) if legendre(z, p) == -1)
        return (beta * beta - c) * inv % p, beta, gamma, 0
    if kind == "zero":
        return beta * beta * inv % p, beta, gamma, 1
    if kind == "gamma = 0":
        return rng.randrange(p), rng.randrange(1, p), 0, 2
    if kind == "gamma = beta = 0":
        return rng.randrange(1, p), 0, 0, 1
    return 0, 0, 0, p + 1


def _planted_line_kernel(fld, n, member, form, rng):
    """A pencil whose member a G0 + b G1, (a, b) = `member`, has the kernel
    span(e0, e1), on which the form that decides it (Q0 for b != 0, Q1 for
    b = 0) has the Gram [[alpha, beta], [beta, gamma]], `form`."""
    p, m = fld.p, n + 1
    while True:
        block = random_symmetric(fld, m - 2, rng).to_lists()
        if rank(fld, block) == m - 2:
            break
    kernel_member = [[0] * m, [0] * m] + [[0, 0, *row] for row in block]
    deciding = random_symmetric(fld, m, rng).to_lists()
    alpha, beta, gamma = form
    deciding[0][0], deciding[0][1], deciding[1][0], deciding[1][1] = alpha, beta, beta, gamma
    a, b = member
    if b:
        inv = pow(b, p - 2, p)
        other = [[(x - a * y) * inv % p for x, y in zip(r, s)] for r, s in zip(kernel_member, deciding)]
        grams = (deciding, other)
    else:
        grams = (kernel_member, deciding)
    return _pencil_of(fld, n, grams)


@pytest.mark.parametrize("p, n", [(5, 3), (7, 3), (5, 4)])
def test_two_dimensional_kernels_match_the_minors_scan(p, n):
    """A member with a 2-dimensional kernel K, at [1:0], [0:1] and [1:lambda],
    meets X in the zeros of one binary quadratic: their number on P(K) is
    fixed by its kind, and every point agrees with the minors scan.  Each
    pencil is taken as planted, with K = span(e0, e1) and the form's
    coefficients as chosen, and after a random change of coordinates."""
    fld = PrimeField(p)
    rng = random.Random(f"line kernels/{p}/{n}")
    for member in ((1, 0), (0, 1), (1, rng.randrange(1, p))):
        for kind in _LINE_FORMS:
            *form, zeros = _line_form(kind, p, rng)
            planted = _planted_line_kernel(fld, n, member, form, rng)
            while True:
                change = [[rng.randrange(p) for _ in range(n + 1)] for _ in range(n + 1)]
                if rank(fld, change) == n + 1:
                    break
            for pencil in (planted, pencil_congruent(planted, change)):
                where = (p, n, member, kind)
                sing = singular_points(pencil)
                assert sing == _minors_scan(pencil), where
                kernel = pencil.member(*member).to_lists()
                assert len(kernel) - rank(fld, kernel) == 2, where
                assert sum(not any(mat_vec(fld, kernel, x)) for x in sing) == zeros, where


def test_two_dimensional_kernels_need_no_scan_bound():
    """Over F_200003 the common-zero scan refuses 2 variables, since
    4 (p - 1)^3 >= 2^53; the toric pencil's three 2-dimensional kernels are
    solved as binary quadratics instead."""
    p = 200003
    assert 4 * (p - 1) ** 3 >= 2**53
    sing = singular_points(toric_pencil(PrimeField(p)))
    assert sing == [tuple(1 if i == j else 0 for i in range(6)) for j in range(6)]


def test_singular_points_decide_a_shared_kernel_once(monkeypatch):
    """Q0 and Q1 have zero first and second rows and columns, so D vanishes
    identically and every member's kernel holds span(e0, e1); over F_101 the
    4x4 blocks form a pencil with no singular member, so each of the 102
    members has exactly that kernel.  It is decided once, by one binary
    quadratic, and its 102 points are the whole singular locus."""
    p = 101
    fld = PrimeField(p)
    rng = random.Random("shared kernel/4")
    grams = [[[0] * 6, [0] * 6] + [[0, 0, *row] for row in random_symmetric(fld, 4, rng).to_lists()] for _ in range(2)]
    pencil = _pencil_of(fld, 5, grams)
    assert _discriminant_or_none(pencil) is None
    assert all(rank(fld, pencil.member(a, b).to_lists()) == 4 for a, b in [(1, t) for t in range(p)] + [(0, 1)])
    calls = []
    real = fqgeom._line_zeros
    monkeypatch.setattr(fqgeom, "_line_zeros", lambda *args: calls.append(args[2:]) or real(*args))
    line = [(1, t, 0, 0, 0, 0) for t in range(p)] + [(0, 1, 0, 0, 0, 0)]
    assert singular_points(pencil) == line
    assert calls == [([1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0])]


def _cone_over_curve(fld, rng):
    """The cone in P^4 over a smooth curve in P^3, with vertex (1:0:0:0:0)."""
    curve = random_pencil(fld, 3, rng)
    cone = [SymMatrix.from_rows([[0] * 5] + [[0, *row] for row in g.entries]) for g in (curve.g0, curve.g1)]
    return Pencil(fld, 4, *cone)


@pytest.mark.parametrize("q", [3, 5])
def test_singular_at_agrees_with_the_singular_point_scan(q):
    fld = PrimeField(q)
    for p in (toric_pencil(fld), _cone_over_curve(fld, random.Random(q))):
        zeros = [[int(c) for c in row] for row in points_on_pencil(p)]
        by_point = [tuple(x) for x in zeros if singular_at(p, x)]
        assert by_point == singular_points(p)
        assert by_point


@pytest.mark.parametrize("fn", [count_points, singular_points])
def test_member_routes_refuse_over_their_budgets_before_work(fn):
    # q + 1 members over MEMBER_LIMIT
    big = PrimeField(10**9 + 7)
    refuses_at_once(fn, diagonal_pencil(big, 5), re.escape("MEMBER_LIMIT = 1000000"))
    # D vanishes identically: each of the q + 1 members would be eliminated
    p = 20011
    assert (p + 1) * 6**3 > ELIMINATION_LIMIT and p + 1 <= MEMBER_LIMIT
    cone = _pencil_of(PrimeField(p), 5, [[[0] * 6] + [[0] + [int(i == j) for j in range(5)] for i in range(5)]] * 2)
    refuses_at_once(fn, cone, re.escape("ELIMINATION_LIMIT = 4000000"))


def test_singular_points_refuse_kernels_over_the_scan_budget():
    # G1 = 0 makes the member [0:1] zero, so its kernel is all of P^3(F_1009),
    # (1009^4 - 1)/1008 > 10^9 points; the count needs no kernel and runs
    fld = PrimeField(1009)
    pencil = Pencil(fld, 3, SymMatrix.diagonal(fld, [1, 1, 1, 1]), SymMatrix.diagonal(fld, [0] * 4))
    assert (1009**4 - 1) // 1008 > POINT_SCAN_LIMIT
    refuses_at_once(singular_points, pencil, "POINT_SCAN_LIMIT")
    # X is the quadric surface sum x_i^2 = 0 of discriminant 1, split: (q + 1)^2 points
    assert count_points(pencil) == 1010**2


# -- lines ----------------------------------------------------------------


def _line_points(p, u, v):
    """The q + 1 points of the line spanned by u and v over F_p."""
    return [v] + [tuple((a + t * b) % p for a, b in zip(u, v)) for t in range(p)]


def test_lines_on_a_smooth_threefold():
    rng = random.Random(7)
    p = random_pencil(F3, 5, rng)
    lines = enumerate_lines(p)
    assert len(lines) == 16
    for u, v in lines:
        for pt in _line_points(3, u, v):
            assert p.eval_form(0, pt) % 3 == 0
            assert p.eval_form(1, pt) % 3 == 0


def _rref_line_scan(p, grams):
    """Every RREF basis (u, v) of a line, in pivot order, on which each quadric
    vanishes: Q(u) = Q(v) = B(u, v) = 0 for every Gram matrix."""

    def form(g, u, v):
        return sum(u[a] * g[a][b] * v[b] for a in range(len(u)) for b in range(len(v))) % p

    m = len(grams[0])
    found = []
    for i, j in itertools.combinations(range(m), 2):
        free_u = [c for c in range(i + 1, m) if c != j]
        free_v = list(range(j + 1, m))
        for vals_u in itertools.product(range(p), repeat=len(free_u)):
            u = [0] * m
            u[i] = 1
            for c, val in zip(free_u, vals_u):
                u[c] = val
            if any(form(g, u, u) for g in grams):
                continue
            for vals_v in itertools.product(range(p), repeat=len(free_v)):
                v = [0] * m
                v[j] = 1
                for c, val in zip(free_v, vals_v):
                    v[c] = val
                if not any(form(g, v, v) or form(g, u, v) for g in grams):
                    found.append((tuple(u), tuple(v)))
    return found


def _line_oracle_cases():
    rng = random.Random(31)
    smooth = [random_pencil(F3, 5, rng) for _ in range(2)]
    # the cone in P^4 over a curve in P^3, singular at (1:0:0:0:0)
    curve = random_pencil(F5, 3, rng)
    cone = [SymMatrix.from_rows([[0] * 5] + [[0, *row] for row in g.entries]) for g in (curve.g0, curve.g1)]
    return [toric_pencil(F3), *smooth, Pencil(F5, 4, *cone)]


def test_lines_from_point_pairs_match_the_rref_scan():
    for pencil in _line_oracle_cases():
        lines = enumerate_lines(pencil)
        grams = [[[int(e) for e in row] for row in g.entries] for g in (pencil.g0, pencil.g1)]
        assert lines == _rref_line_scan(pencil.field.p, grams)
        assert lines


def test_line_enumeration_rejects_proportional_grams():
    g = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    doubled = [[2 * e for e in row] for row in g]
    p = Pencil.from_gram(F5, g, doubled)
    with pytest.raises(PrecondError):
        enumerate_lines(p)
    zero = [[0] * 4 for _ in range(4)]
    for g0, g1 in ((g, zero), (zero, g)):
        with pytest.raises(PrecondError, match="not a complete intersection"):
            enumerate_lines(Pencil.from_gram(F5, g0, g1))


# -- the torsor identity ---------------------------------------------------


def test_torsor_check_on_a_seeded_pencil():
    rng = random.Random(7)
    p = random_pencil(F3, 5, rng)
    rep = torsor_check(p)
    assert rep.consistent
    assert rep.q == 3
    assert rep.line_count == 16
    assert rep.jacobian_order == 16
    assert rep.curve_counts == (5, 13)
    assert sum(rep.lpoly) == rep.jacobian_order


def test_a_lost_line_fails_the_torsor_identity_naming_both_sides(monkeypatch):
    """A line scan that drops one line breaks lines = |Jac C(F_q)|: the
    error names the identity and both counts, and the CLI exits 3 with them."""
    monkeypatch.chdir(REPO)
    pencil, _ = load_pencil("inputs/smooth_f3.json")
    order = torsor_check(pencil).jacobian_order
    monkeypatch.setattr(fqgeom, "enumerate_lines", lambda p: enumerate_lines(p)[:-1])
    with pytest.raises(InternalCheckError) as err:
        torsor_check(pencil)
    assert err.value.identity == "line count = |Jac C(F_q)|"
    assert err.value.values == {"line_count": order - 1, "jacobian_order": order}
    out, errs = io.StringIO(), io.StringIO()
    code, report = cli.run(["torsor", "inputs/smooth_f3.json"], out=out, err=errs)
    assert code == 3 and report is None and out.getvalue() == ""
    assert errs.getvalue() == (
        f"internal check failed: line count = |Jac C(F_q)|: line_count = {order - 1}, jacobian_order = {order}\n"
    )


def test_a_smooth_op_takes_two_determinants(monkeypatch):
    """`torsor_check` takes D once, through the smoothness report of its
    cover, and `count_points` once more; the cover's counts take none."""
    calls = []
    det_poly = pencil_mod.det_poly

    def counted(field, coeffs, **kwargs):
        calls.append(coeffs[0].size)
        return det_poly(field, coeffs, **kwargs)

    pencil = random_pencil(F3, 5, random.Random(3))
    monkeypatch.setattr(pencil_mod, "det_poly", counted)
    rep = torsor_check(pencil)
    count_points(pencil)
    assert rep.consistent
    assert calls == [6, 6]


def test_torsor_check_guards():
    with pytest.raises(PrecondError, match="n = 5"):
        torsor_check(diagonal_pencil(F3, 4))
    with pytest.raises(PrecondError, match="smooth"):
        torsor_check(toric_pencil(F3))


@pytest.mark.parametrize("q", [7, 11])
def test_torsor_identity_at_larger_q(q):
    p = random_pencil(PrimeField(q), 5, random.Random(q))
    rep = torsor_check(p)
    assert rep.consistent
    assert rep.line_count == rep.jacobian_order == sum(rep.lpoly)
