import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qpencil.errors import PrecondError
from qpencil.fields import QQ, PrimeField, is_prime, legendre, sqrt_mod
from qpencil.linalg import rank, rref
from qpencil.projections import project_from_line
from qpencil.samples import random_pencil_through_line


def test_prime_field_rejects_composites_and_two():
    with pytest.raises(PrecondError):
        PrimeField(9)
    with pytest.raises(PrecondError):
        PrimeField(1)
    with pytest.raises(PrecondError):
        PrimeField(2)


def test_is_prime_small():
    primes = [p for p in range(2, 60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def _trial_division(m):
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division_below_1e5():
    assert [m for m in range(-3, 10**5) if is_prime(m)] == [
        m for m in range(-3, 10**5) if _trial_division(m)
    ]


def test_is_prime_on_hard_cases():
    assert is_prime(2**61 - 1)
    assert not is_prime(8191 * (2**61 - 1))
    # Carmichael numbers fool the Fermat test but not Miller-Rabin
    for carmichael in (561, 1105, 41041, 825265):
        assert not is_prime(carmichael)
    for p in (3, 41, 43, 65537, 2**31 - 1, 1000000007):
        assert not is_prime(p * p)
    # strong pseudoprime to the bases 2..37, caught by the base 41
    assert not is_prime(318665857834031151167461)
    with pytest.raises(PrecondError, match="not decided"):
        is_prime(10**25)


@given(st.sampled_from([3, 5, 11, 13]), st.integers(-50, 50), st.integers(-50, 50))
def test_prime_field_ring_laws(p, a, b):
    f = PrimeField(p)
    x, y = f.from_int(a), f.from_int(b)
    assert f.add(x, y) == (a + b) % p
    assert f.mul(x, y) == (a * b) % p
    assert f.sub(x, y) == f.add(x, f.neg(y))


@given(st.sampled_from([3, 5, 11, 13]), st.integers(1, 200))
def test_prime_field_inverse(p, a):
    f = PrimeField(p)
    x = f.from_int(a)
    if x == 0:
        with pytest.raises(PrecondError):
            f.inv(x)
    else:
        assert f.mul(x, f.inv(x)) == 1


def test_legendre_multiplicative_mod_7():
    for a in range(1, 7):
        for b in range(1, 7):
            assert legendre(a * b, 7) == legendre(a, 7) * legendre(b, 7)
    assert legendre(0, 7) == 0


def test_sqrt_mod_is_the_smaller_root_for_every_residue_below_102():
    for p in range(3, 102):
        if not is_prime(p):
            continue
        roots = {}
        for x in range(p):
            roots.setdefault(x * x % p, x)  # the smaller root comes first
        for a in range(p):
            if a in roots:
                assert sqrt_mod(a, p) == roots[a], (a, p)
            else:
                with pytest.raises(PrecondError, match="not a square"):
                    sqrt_mod(a, p)


@pytest.mark.parametrize("p, two_adic", [(998244353, 23), (10**9 + 7, 1)])
def test_sqrt_mod_at_large_primes(p, two_adic):
    """998244353 = 119 * 2^23 + 1 runs the Tonelli-Shanks loop through 23
    levels of the 2-Sylow subgroup; 10^9 + 7 = 3 mod 4 needs none."""
    assert (p - 1) % 2**two_adic == 0 and (p - 1) // 2**two_adic % 2 == 1
    rng = random.Random(p)
    for x in [1, 2, p - 1, p // 2] + [rng.randrange(1, p) for _ in range(200)]:
        assert sqrt_mod(x * x, p) == min(x, p - x)
        assert sqrt_mod(x * x + p, p) == min(x, p - x)
    non_residue = next(z for z in range(2, p) if legendre(z, p) == -1)
    with pytest.raises(PrecondError, match="not a square"):
        sqrt_mod(non_residue, p)
    assert sqrt_mod(0, p) == 0


def test_quadratic_character():
    f = PrimeField(11)
    squares = {(x * x) % 11 for x in range(1, 11)}
    for a in range(1, 11):
        assert f.chi(a) == (1 if a in squares else -1)
    assert f.chi(0) == 0


def test_rational_parse():
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.parse(-2) == Fraction(-2)
    assert QQ.parse(" 5/7 ") == Fraction(5, 7)
    with pytest.raises(PrecondError):
        QQ.parse("1/0")
    with pytest.raises(PrecondError):
        QQ.parse(True)
    with pytest.raises(PrecondError, match="exact"):
        QQ.parse(0.5)


@pytest.mark.parametrize("raw", ["1e1000000", "1.5", "1_0", "+3", "0x10", "1/-2", "", "-", "3/", "1" * 101])
def test_coefficient_strings_outside_the_grammar_are_refused(raw):
    for field in (QQ, PrimeField(5)):
        with pytest.raises(PrecondError):
            field.parse(raw)


@given(st.text(alphabet="0123456789-/ .e_+", max_size=12))
def test_coefficient_grammar_is_exactly_signed_digits_over_digits(raw):
    text = raw.strip()
    sign, body = ("-", text[1:]) if text.startswith("-") else ("", text)
    parts = body.split("/")
    if len(parts) <= 2 and all(part.isdigit() for part in parts):
        den = int(parts[1]) if len(parts) == 2 else 1
        if den:
            assert QQ.parse(raw) == Fraction(int(sign + parts[0]), den)
            return
    with pytest.raises(PrecondError):
        QQ.parse(raw)


def test_prime_parse_fractions():
    f = PrimeField(5)
    assert f.parse("3/4") == f.div(3, 4)
    assert f.parse(Fraction(1, 2)) == f.inv(2)
    messages = []
    for raw in ("1/5", Fraction(1, 5)):  # denominator divisible by p
        with pytest.raises(PrecondError) as exc:
            f.parse(raw)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    with pytest.raises(PrecondError):
        f.parse("x")
    with pytest.raises(PrecondError, match="exact"):
        f.parse(0.5)
    with pytest.raises(PrecondError):
        f.parse(True)


def test_rational_elimination_on_int_rows_is_exact():
    """Over Q, int rows are eliminated in Fractions: rank and rref equal those
    of the same rows as Fractions, and every rref entry is a Fraction.  With
    1/a a float, the dependent rows (49, 1), (98, 2) had rank 2.  The
    projection from a line likewise does not depend on the row type."""
    rng = random.Random("exact-int-rows")
    cases = [[[49, 1], [98, 2]]]
    for _ in range(60):
        # no zero row: elimination leaves a zero input row as it is
        width = rng.randint(1, 5)
        rows = [
            [rng.choice([0, rng.randint(-60, 60)]) for _ in range(width)] + [rng.randint(1, 9)]
            for _ in range(rng.randint(1, 4))
        ]
        if len(rows) > 1 and rng.random() < 0.5:  # plant a dependent row
            rows[-1] = [rng.choice([-3, 2, 7]) * x for x in rows[0]]
        cases.append(rows)
    for rows in cases:
        as_fractions = [[Fraction(x) for x in r] for r in rows]
        reduced, pivots = rref(QQ, rows)
        assert (reduced, pivots) == rref(QQ, as_fractions)
        assert rank(QQ, rows) == rank(QQ, as_fractions) == len(pivots)
        assert all(type(c) is Fraction for r in reduced for c in r)
    assert rank(QQ, [[49, 1], [98, 2]]) == 1

    pencil = random_pencil_through_line(QQ, 4, random.Random(3))
    int_rows = [[1, 0, 0, 0, 0], [3, 1, 0, 0, 0]]
    runs = [project_from_line(pencil, rows) for rows in (int_rows, [[Fraction(x) for x in r] for r in int_rows])]
    assert runs[0].inverse == runs[1].inverse
    assert all(type(c) is Fraction for r in runs[0].inverse for c in r)
    assert [str(e) for e in runs[0].curve_equations] == [str(e) for e in runs[1].curve_equations]
