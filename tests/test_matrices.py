"""Symmetric matrices: inertia, congruence invariance, determinants over F[t]."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qpencil import matrices, univariate as uv
from qpencil.errors import InternalCheckError, PrecondError
from qpencil.fields import QQ, PrimeField
from qpencil.linalg import det, identity, mat_mul
from qpencil.matrices import SymMatrix, _inertia_z, congruent, det_poly, inertia, signature_pair


def test_symmetry_enforced():
    with pytest.raises(PrecondError):
        SymMatrix.from_rows([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])
    with pytest.raises(PrecondError):
        SymMatrix.from_rows([[Fraction(1), Fraction(2)]])


def test_inertia_of_diagonal():
    g = SymMatrix.diagonal(QQ, [Fraction(2), Fraction(-3), Fraction(0), Fraction(5)])
    assert inertia(g) == (2, 1, 1)
    # signature pairs are only defined for nondegenerate forms
    with pytest.raises(PrecondError):
        signature_pair([[2, 0, 0, 0], [0, -3, 0, 0], [0, 0, 0, 0], [0, 0, 0, 5]])
    assert signature_pair([[2, 0, 0], [0, -3, 0], [0, 0, 5]]) == (2, 1)


def test_inertia_total_is_size():
    g = SymMatrix.from_rows(
        [
            [Fraction(0), Fraction(1), Fraction(2)],
            [Fraction(1), Fraction(0), Fraction(3)],
            [Fraction(2), Fraction(3), Fraction(0)],
        ]
    )
    pos, neg, zero = inertia(g)
    assert pos + neg + zero == 3


def _is_invertible(field, rows):
    return not field.is_zero(det(field, rows))


def _random_invertible(rng, size):
    """Random rational invertible matrix, by rejection."""
    while True:
        m = [[Fraction(rng.randint(-4, 4)) for _ in range(size)] for _ in range(size)]
        if _is_invertible(QQ, m):
            return m


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_inertia_congruence_invariant(seed):
    """Sylvester: inertia is unchanged by G -> M^T G M with M invertible."""
    rng = random.Random(seed)
    size = rng.randint(2, 5)
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            rows[i][j] = rows[j][i] = Fraction(rng.randint(-5, 5))
    g = SymMatrix.from_rows(rows)
    m = _random_invertible(rng, size)
    assert inertia(congruent(QQ, g, m)) == inertia(g)


def _fraction_inertia(rows):
    """Reference inertia: plain symmetric elimination on Fractions, a square
    at a nonzero diagonal entry, else a hyperbolic pair."""
    a = [[Fraction(x) for x in row] for row in rows]
    pos = neg = 0
    while a:
        m = len(a)
        piv = next((i for i in range(m) if a[i][i]), None)
        if piv is not None:
            d = a[piv][piv]
            pos, neg = pos + (d > 0), neg + (d < 0)
            rest = [k for k in range(m) if k != piv]
            a = [[a[k][l] - a[k][piv] * a[piv][l] / d for l in rest] for k in rest]
            continue
        pair = next(((i, j) for i in range(m) for j in range(i + 1, m) if a[i][j]), None)
        if pair is None:
            return pos, neg, m
        i, j = pair
        d = a[i][j]
        pos, neg = pos + 1, neg + 1
        rest = [k for k in range(m) if k not in pair]
        a = [[a[k][l] - (a[k][i] * a[l][j] + a[k][j] * a[l][i]) / d for l in rest] for k in rest]
    return pos, neg, 0


def _rational(rng, bound=4):
    return Fraction(rng.randint(-bound, bound), rng.choice([1, 2, 3, 7]))


def test_integer_inertia_matches_fraction_elimination():
    """B^T D B with D diagonal of known signs and denominators 2, 3, 7: for
    invertible B the inertia is D's (Sylvester); for singular B the
    reference elimination on Fractions decides."""
    rng = random.Random(7)
    for trial in range(240):
        size = trial % 9 + 1
        d = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice([2, 3, 7])) for _ in range(size)]
        d[rng.randrange(size)] *= trial % 3  # a zero entry in one trial of three
        b = [[_rational(rng) for _ in range(size)] for _ in range(size)]
        if trial % 4 == 0 and size > 1:
            b[-1] = [2 * x - y for x, y in zip(b[0], b[1 % (size - 1)])]
        rows = [
            [sum(b[k][i] * d[k] * b[k][j] for k in range(size)) for j in range(size)]
            for i in range(size)
        ]
        got = inertia(SymMatrix.from_rows(rows))
        assert got == _fraction_inertia(rows), (trial, rows)
        if _is_invertible(QQ, b):
            assert got == (sum(x > 0 for x in d), sum(x < 0 for x in d), sum(x == 0 for x in d))


def test_integer_inertia_of_zero_diagonal_matrices():
    """A zero diagonal forces hyperbolic pairs: [[0, A], [A^T, 0]] with A
    invertible has inertia (k, k, 0), and random zero-diagonal matrices
    (some with a zero row) agree with the reference elimination."""
    rng = random.Random(11)
    for trial in range(120):
        k = trial % 4 + 1
        a = [[_rational(rng) for _ in range(k)] for _ in range(k)]
        while not _is_invertible(QQ, a):
            a = [[_rational(rng) for _ in range(k)] for _ in range(k)]
        rows = [[Fraction(0)] * (2 * k) for _ in range(2 * k)]
        for i in range(k):
            for j in range(k):
                rows[i][k + j] = rows[k + j][i] = a[i][j]
        assert inertia(SymMatrix.from_rows(rows)) == (k, k, 0)
        size = trial % 9 + 1
        rows = [[Fraction(0)] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() < 0.6:
                    rows[i][j] = rows[j][i] = _rational(rng, 9)
        if trial % 5 == 0:
            zero = rng.randrange(size)
            for i in range(size):
                rows[i][zero] = rows[zero][i] = Fraction(0)
        assert inertia(SymMatrix.from_rows(rows)) == _fraction_inertia(rows), (trial, rows)


def test_exact_division_inertia_matches_the_schur_complement_reference(monkeypatch):
    """Sizes 1-9 against `_fraction_inertia`: B^T D B with negative entries
    in D, so the pivot determinant D changes sign, and every third B
    singular; and P^T [[0, A], [A^T, 0]] P for a permutation P, whose zero
    diagonal forces a congruence x_i <- x_i + x_j, again after the first
    step.  The steps, each dividing by D through `_schur`, and the pivot
    searches through `_bring_pivot` are watched to show that both cases are
    reached."""
    divisors, congruences = [], []
    schur, bring = matrices._schur, matrices._bring_pivot

    def watched_schur(u, divisor, step):
        divisors.append(divisor)
        return schur(u, divisor, step)

    def watched_bring(u):
        if not any(row[0] for row in u):
            congruences.append(len(divisors))  # the step it opens
        return bring(u)

    monkeypatch.setattr(matrices, "_schur", watched_schur)
    monkeypatch.setattr(matrices, "_bring_pivot", watched_bring)
    rng = random.Random(9)
    negative_divisors = later_congruences = 0
    for trial in range(360):
        size = trial % 9 + 1
        if trial % 2:
            d = [Fraction(rng.choice([-3, -2, -1, 1, 2]), rng.choice([1, 2, 3])) for _ in range(size)]
            b = [[_rational(rng) for _ in range(size)] for _ in range(size)]
            if trial % 3 == 0 and size > 1:
                b[-1] = [2 * x - y for x, y in zip(b[0], b[1 % (size - 1)])]
            rows = [[sum(b[k][i] * d[k] * b[k][j] for k in range(size)) for j in range(size)] for i in range(size)]
        else:
            k = max(1, size // 2)
            a = [[_rational(rng) if rng.random() < 0.8 else Fraction(0) for _ in range(k)] for _ in range(k)]
            block = [[Fraction(0)] * (2 * k) for _ in range(2 * k)]
            for i in range(k):
                for j in range(k):
                    block[i][k + j] = block[k + j][i] = a[i][j]
            perm = rng.sample(range(2 * k), 2 * k)
            rows = [[block[perm[i]][perm[j]] for j in range(2 * k)] for i in range(2 * k)]
        divisors.clear()
        congruences.clear()
        assert inertia(SymMatrix.from_rows(rows)) == _fraction_inertia(rows), (trial, rows)
        negative_divisors += any(div < 0 for div in divisors)
        later_congruences += any(step < len(divisors) and divisors[step] != 1 for step in congruences)
    assert negative_divisors > 30 and later_congruences > 30, (negative_divisors, later_congruences)


def test_symmetric_elimination_divides_the_upper_triangles_only(monkeypatch):
    """Every Schur block is symmetric, so only its upper triangle is built
    and divided: eliminating an 8 x 8 matrix by diagonal pivots makes
    28 + 21 + ... + 1 = 84 entries through `_schur`, step by step,
    where the whole blocks would be 49 + 36 + ... + 1 = 140."""
    entries = [0] * 8  # per step
    schur = matrices._schur

    def counted(u, divisor, step):
        out = schur(u, divisor, step)
        entries[step] += sum(len(row) for row in out)
        return out

    monkeypatch.setattr(matrices, "_schur", counted)
    rows = [[Fraction(9 if i == j else (i * j) % 3 - 1) for j in range(8)] for i in range(8)]
    assert inertia(SymMatrix.from_rows(rows)) == _fraction_inertia(rows) == (8, 0, 0)
    assert entries == [28, 21, 15, 10, 6, 3, 1, 0]


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_congruence_determinant_square_factor(seed):
    rng = random.Random(seed)
    size = rng.randint(2, 4)
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            rows[i][j] = rows[j][i] = Fraction(rng.randint(-5, 5))
    g = SymMatrix.from_rows(rows)
    m = _random_invertible(rng, size)
    dm = det(QQ, m)
    assert det(QQ, congruent(QQ, g, m).to_lists()) == dm * dm * det(QQ, g.to_lists())


def test_det_block_multiplicative():
    # det of a block-diagonal symmetric matrix is the product of block dets
    a = SymMatrix.from_rows([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]])
    b = SymMatrix.from_rows([[Fraction(-1), Fraction(4)], [Fraction(4), Fraction(0)]])
    rows = [[Fraction(0)] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            rows[i][j] = a[i, j]
            rows[2 + i][2 + j] = b[i, j]
    big = SymMatrix.from_rows(rows)
    assert det(QQ, big.to_lists()) == det(QQ, a.to_lists()) * det(QQ, b.to_lists())


def _poly_matrix(field, rng, size, degree, coeff=None):
    """A random symmetric matrix over F[t] with entries of the given degree,
    as the rows of its entries' ascending coefficient lists."""
    coeff = coeff or (lambda: field.from_int(rng.randint(-4, 4)))
    rows = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            rows[i][j] = rows[j][i] = [coeff() for _ in range(degree + 1)]
    return rows


def _coefficient_matrices(field, rows):
    """The coefficient matrices M_0, ..., M_d of the matrix over F[t] whose
    entries are the ascending coefficient lists `rows`."""
    top = max(len(e) for row in rows for e in row)
    return [
        SymMatrix.from_rows([[e[k] if k < len(e) else field.zero for e in row] for row in rows])
        for k in range(max(top, 1))
    ]


def _at(field, mats, t):
    """M(t) = sum_k M_k t^k as rows of field elements."""
    m = mats[0].size
    return [[uv.evaluate(field, [a[i, j] for a in mats], t) for j in range(m)] for i in range(m)]


def test_det_poly_matches_pointwise_evaluation():
    rng = random.Random(5)
    f5 = PrimeField(5)
    cases = [(f5, _poly_matrix(f5, rng, size, 2), range(5)) for size in (3, 9, 12)]
    # linear entries over Q: det has degree <= size, so t = 0..size pins it down
    cases += [(QQ, _poly_matrix(QQ, rng, size, 1), range(size + 1)) for size in (3, 9, 12)]
    # rational entries of both signs with denominators 2, 3 and 7, so the
    # denominators are cleared before the elimination over Z[t]
    fraction = lambda: Fraction(rng.randint(-9, 9), rng.choice((2, 3, 7)))
    cases += [(QQ, _poly_matrix(QQ, rng, size, 1, fraction), range(size + 1)) for size in (3, 6, 9)]
    # large primes: representatives lifted to Z grow far beyond a machine word;
    # quadratic entries give degree <= 2 size, pinned down by 2 size + 1 points
    for p in (10**9 + 7, 2**61 - 1):
        fp = PrimeField(p)
        residue = lambda: rng.randrange(p)
        cases += [(fp, _poly_matrix(fp, rng, size, 2, residue), range(2 * size + 1)) for size in (3, 6, 12)]
    for field in (f5, QQ):
        # the zero (0,0) entry moves the first pivot to (1, 1)
        zero_pivot = [
            [[], [field.one], [field.zero, field.one]],
            [[field.one], [field.from_int(2), field.one], [field.from_int(3)]],
            [[field.zero, field.one], [field.from_int(3)], []],
        ]
        cases.append((field, zero_pivot, range(5) if field is f5 else range(4)))
        # the all-zero diagonal makes the first pivot by the congruence
        # x_0 <- x_0 + x_1; det = 6t
        zero_diagonal = [
            [[], [field.one], [field.zero, field.one]],
            [[field.one], [], [field.from_int(3)]],
            [[field.zero, field.one], [field.from_int(3)], []],
        ]
        cases.append((field, zero_diagonal, range(4)))
    # coefficients of absolute value exactly B = prod_i sum_j sum_k |M_k[i][j]|,
    # the bound that fixes the digit width: one bit less would misread them
    for rows in ([[[-7]]], [[[0, 7]]], [[[0, 3], []], [[], [-5]]]):
        cases.append((QQ, [[[Fraction(c) for c in e] for e in row] for row in rows], range(3)))
    for field, rows, points in cases:
        mats = _coefficient_matrices(field, rows)
        d = det_poly(field, mats)
        for tv in points:
            t = field.from_int(tv)
            assert uv.evaluate(field, d, t) == det(field, _at(field, mats, t)), (field, len(rows), tv)
        # the report formats these values, so the element types are part of the result
        assert d and d[-1] != field.zero
        if field is QQ:
            assert all(type(c) is Fraction for c in d)
        else:
            assert all(type(c) is int and 0 <= c < field.p for c in d)
    # a singular matrix: row and column 2 are t times row and column 0 plus
    # row and column 1, the congruence that puts t e_0 + e_1 in place of e_2
    for field in (f5, QQ):
        rows = _poly_matrix(field, rng, 4, 1)
        combo = lambda a, b: uv.add(field, uv.mul(field, [field.zero, field.one], a), b)
        for j in (0, 1, 3):
            rows[2][j] = rows[j][2] = combo(rows[0][j], rows[1][j])
        rows[2][2] = combo(rows[2][0], rows[2][1])
        assert det_poly(field, _coefficient_matrices(field, rows)) == []


def _interpolate(xs, ys):
    """The ascending coefficients over Q of the polynomial of degree below
    len(xs) through the points (xs, ys), by Lagrange's formula."""
    coeffs = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis, scale = [Fraction(1)], Fraction(yi)
        for j, xj in enumerate(xs):
            if j != i:
                basis = uv.mul(QQ, basis, [Fraction(-xj), Fraction(1)])
                scale /= xi - xj
        coeffs = [c + scale * b for c, b in zip(coeffs, basis + [0] * len(xs))]
    return uv.trim(QQ, coeffs)


def _interpolated_det(mats, ints):
    """det M(t) over Q by pointwise `linalg.det` at deg M · m + 1 integer
    points and interpolation; `ints` are the matrices M_k over Q, so an F_p
    matrix is passed as its representatives and reduced afterwards."""
    m = mats[0].size
    xs = range((len(mats) - 1) * m + 1)
    return _interpolate(xs, [det(QQ, _at(QQ, ints, Fraction(x))) for x in xs])


@pytest.mark.parametrize("degree", [1, 3])
def test_det_poly_matches_interpolation_on_a_seeded_battery(degree):
    """det_poly on coefficient matrices against `linalg.det` at enough points
    to interpolate det M(t).  Over Q the entries are fractions, so the
    common denominator L is not 1, and the decoded minors of L·M(t) are the
    pointwise leading minors; a zero row gives det = 0, and a zero diagonal
    forces a pivot out of place, so the minors are None.  Over F_p,
    p in {3, 5, 7, 10^9 + 7}, det M(t) is the determinant of the lifted
    representatives reduced mod p, which interpolation over Q gives for
    every p, however small."""
    rng = random.Random(31 + degree)
    fraction = lambda: Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5)))
    seen = {"minors": 0, "no minors": 0, "zero": 0}
    for trial in range(12):
        m = 2 + trial % 4
        rows = _poly_matrix(QQ, rng, m, degree, fraction)
        if trial % 4 == 1:
            rows[0] = [[] for _ in range(m)]
            for row in rows:
                row[0] = []
        elif trial % 4 == 2:
            for i in range(m):
                rows[i][i] = []
        mats = _coefficient_matrices(QQ, rows)
        d, minors = det_poly(QQ, mats, minors=True)
        assert d == _interpolated_det(mats, mats), trial
        assert all(type(c) is Fraction for c in d)
        scale = math.lcm(*(x.denominator for a in mats for row in a.entries for x in row))
        if not d or trial % 4 == 2:
            assert minors is None, trial
            seen["zero" if not d else "no minors"] += 1
            continue
        assert scale > 1, trial
        seen["minors"] += 1
        for x in range(degree * m + 1):
            member = [[scale * v for v in row] for row in _at(QQ, mats, Fraction(x))]
            leading = [det(QQ, [row[:k] for row in member[:k]]) for k in range(1, m + 1)]
            assert [uv.evaluate(QQ, [Fraction(c) for c in delta], Fraction(x)) for delta in minors] == leading
    assert seen == {"minors": 6, "no minors": 3, "zero": 3}
    for p in (3, 5, 7, 10**9 + 7):
        fp = PrimeField(p)
        for trial in range(6):
            m = 2 + trial % 4
            mats = _coefficient_matrices(fp, _poly_matrix(fp, rng, m, degree, lambda: rng.randrange(p)))
            lifted = [a.map(Fraction) for a in mats]
            expected = uv.trim(fp, [int(c) % p for c in _interpolated_det(mats, lifted)])
            assert det_poly(fp, mats) == expected, (p, trial)


def test_det_poly_needs_the_rationals_or_a_prime_field():
    with pytest.raises(PrecondError, match="rationals or a prime field"):
        det_poly(object(), [SymMatrix.from_rows([[1]])])
    with pytest.raises(PrecondError, match="rationals only"):
        det_poly(PrimeField(5), [SymMatrix.from_rows([[1]])], minors=True)


def test_det_poly_refuses_a_nonsymmetric_matrix():
    """The elimination reads the upper triangle only, so det_poly takes
    `SymMatrix` coefficient matrices, which refuse a matrix that is not
    symmetric instead of letting it be misread as its symmetric upper half;
    coefficient matrices of different sizes, or none, are refused too."""
    for field in (QQ, PrimeField(5)):
        with pytest.raises(PrecondError, match="symmetric"):
            det_poly(field, [SymMatrix.from_rows([[field.one, field.from_int(2)], [field.from_int(3), field.one]])])
        one, two = SymMatrix.diagonal(field, [field.one]), SymMatrix.diagonal(field, [field.one] * 2)
        for coeffs in ([one, two], []):
            with pytest.raises(PrecondError, match="one size"):
                det_poly(field, coeffs)


class _OffByOne(int):
    """An integer whose products come out one too large."""

    def __mul__(self, other):
        return int(self) * other + 1

    __rmul__ = __mul__


_PLANTED_ROWS = [[2, 0, 1], [0, 1, 0], [1, 0, 1]]


def _assert_planted_pivot_is_named(monkeypatch, runs):
    """Every pivot in place, each run gives its expected value; with the
    first pivot planted off by one, each run is refused by the one checked
    division with the same identity, step, divisor and remainder."""
    # every pivot in place: the leading principal minors 2, 2, 1
    assert matrices._eliminate([[2, 0, 1], [1, 0], [1]]) == ([2, 2, 1], 0, True)
    assert [run() for run, _ in runs.values()] == [expected for _, expected in runs.values()]
    eliminate = matrices._eliminate
    monkeypatch.setattr(matrices, "_eliminate", lambda u: eliminate([[_OffByOne(u[0][0]), *u[0][1:]], *u[1:]]))
    # the planted pivot 2 makes step 0 produce [[3, 1], [1, 2]] instead of
    # [[2, 0], [0, 1]], and step 1 then divides 3·2 - 1·1 = 5 by 2
    for name, (run, _) in runs.items():
        with pytest.raises(InternalCheckError) as err:
            run()
        assert str(err.value) == "exact elimination division: step = 1, divisor = 2, remainder = 1", name


def test_inexact_bareiss_division_names_divisor_and_remainder(monkeypatch):
    """The determinant's fraction-free (Bareiss) division is checked: a
    pivot planted off by one, reached through `det_poly` over Q and over
    F_5, names the step, divisor and remainder."""
    f5 = PrimeField(5)
    runs = {
        "det_poly over Q": (lambda: det_poly(QQ, [SymMatrix.from_rows(_PLANTED_ROWS).map(Fraction)]), [Fraction(1)]),
        "det_poly over F_5": (lambda: det_poly(f5, [SymMatrix.from_rows(_PLANTED_ROWS)]), [1]),
    }
    _assert_planted_pivot_is_named(monkeypatch, runs)


def test_inexact_inertia_division_names_the_step_divisor_and_remainder(monkeypatch):
    """The signatures share the determinant's checked division: a pivot
    planted off by one, reached through `signature_pair`, is named by the
    same identity, step, divisor and remainder."""
    runs = {"signature_pair": (lambda: signature_pair(_PLANTED_ROWS), (3, 0))}
    _assert_planted_pivot_is_named(monkeypatch, runs)


def test_map_and_indexing():
    g = SymMatrix.diagonal(QQ, [Fraction(1), Fraction(-2)])
    h = g.map(lambda e: 2 * e)
    assert h[0, 0] == 2 and h[1, 1] == -4
    assert g.to_lists() == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-2)]]


def test_congruent_identity_is_noop():
    g = SymMatrix.diagonal(QQ, [Fraction(3), Fraction(7), Fraction(-1)])
    assert congruent(QQ, g, identity(QQ, 3)) == g


def test_mat_mul_associative_spot():
    f5 = PrimeField(5)
    a = [[1, 2], [3, 4]]
    b = [[0, 1], [1, 1]]
    c = [[2, 0], [0, 3]]
    assert mat_mul(f5, mat_mul(f5, a, b), c) == mat_mul(f5, a, mat_mul(f5, b, c))
