"""Exact coefficient fields.

Field arithmetic is kept out of the element values themselves: a field object
is a small strategy bundle operating on plain Python values (``Fraction`` for
the rationals, ``int`` in ``range(p)`` for a prime field).  This keeps hot
loops allocation-light and lets the same univariate/matrix code run over
either.  No extension field is needed: counts over F_{p^k} are read off F_p
through the norm (see ``curvecounts``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Any, Iterator

from .errors import PrecondError
from .records import record

# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981

# string coefficients: an integer or a fraction of integers, each at most
# _MAX_DIGITS digits, so parsing cost is bounded before any arithmetic
_MAX_DIGITS = 100
_COEFF_RE = re.compile(rf"-?[0-9]{{1,{_MAX_DIGITS}}}(/[0-9]{{1,{_MAX_DIGITS}}})?")


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin primality test for m < 3.3e24."""
    if m >= _MR_EXACT_BELOW:
        raise PrecondError(f"primality of {m} is not decided above {_MR_EXACT_BELOW}")
    if m < 2:
        return False
    for b in _MR_BASES:
        if m % b == 0:
            return m == b
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _exact_value(raw: Any) -> int | Fraction:
    """The one reader of coefficients from outside: an int, a ``Fraction``, or
    a string ``-?d+(/d+)?`` (surrounding blanks ignored).  Floats are refused
    as inexact, bools and every other type as not coefficients."""
    if isinstance(raw, (int, Fraction)) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, float):
        raise PrecondError(f"coefficient {raw!r} must be exact (an integer or a 'num/den' string)")
    if not isinstance(raw, str):
        raise PrecondError(f"not a coefficient: {raw!r}")
    text = raw.strip()
    if not _COEFF_RE.fullmatch(text):
        raise PrecondError(
            f"cannot parse coefficient {raw!r}: expected an integer or a fraction "
            f"n/d of integers with at most {_MAX_DIGITS} digits each"
        )
    num, _, den = text.partition("/")
    if den and int(den) == 0:
        raise PrecondError(f"cannot parse coefficient {raw!r}: zero denominator")
    return Fraction(int(num), int(den or 1))


def exact_int(value: Any, where: str) -> int:
    """`value` itself when it is an int and not a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise PrecondError(f"{where}: expected an integer, got {value!r}")
    return value


def parse_at(field: Field, raw: Any, where: str) -> Any:
    """`field.parse(raw)`, a refusal prefixed with `where`."""
    try:
        return field.parse(raw)
    except PrecondError as exc:
        raise PrecondError(f"{where}: {exc}") from exc


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1} for an odd prime p."""
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def sqrt_mod(a: int, p: int) -> int:
    """The smaller square root of a modulo an odd prime p, by Tonelli-Shanks
    with the least quadratic non-residue; a non-square is refused."""
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        raise PrecondError(f"{a} is not a square mod {p}")
    # p - 1 = q 2^s with q odd; t = a^q lies in the 2-Sylow subgroup, whose
    # generator c = z^q comes from the non-residue z, and r^2 = a t throughout
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = next(z for z in range(2, p) if legendre(z, p) == -1)
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:  # t has order 2^i, i < s
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


@record
class Rationals:
    """The field of rational numbers; elements are ``Fraction`` values."""

    characteristic = 0

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, m: int) -> Fraction:
        return Fraction(m)

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def sub(self, a: Fraction, b: Fraction) -> Fraction:
        return a - b

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def neg(self, a: Fraction) -> Fraction:
        return -a

    def inv(self, a: Fraction) -> Fraction:
        if a == 0:
            raise PrecondError("division by zero")
        return Fraction(1, a)

    def div(self, a: Fraction, b: Fraction) -> Fraction:
        if b == 0:
            raise PrecondError("division by zero")
        return Fraction(a, b)

    def is_zero(self, a: Fraction) -> bool:
        return a == 0

    def eq(self, a: Fraction, b: Fraction) -> bool:
        return a == b

    def parse(self, raw: Any) -> Fraction:
        """An exact value (see `_exact_value`) as a rational."""
        return Fraction(_exact_value(raw))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "QQ"


@record
class PrimeField:
    """F_p for an odd prime p; elements are ints in ``range(p)``."""

    p: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise PrecondError(f"{self.p} is not prime")
        if self.p == 2:
            raise PrecondError("characteristic 2 is not supported")

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def from_int(self, m: int) -> int:
        return m % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise PrecondError("division by zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def is_zero(self, a: int) -> bool:
        return a % self.p == 0

    def eq(self, a: int, b: int) -> bool:
        return (a - b) % self.p == 0

    def parse(self, raw: Any) -> int:
        """An exact value (see `_exact_value`) reduced into F_p."""
        if type(raw) is int:  # the common case, first: toric_pencil parses per op
            return raw % self.p
        v = _exact_value(raw)
        if v.denominator % self.p == 0:
            raise PrecondError(f"coefficient {v} has denominator divisible by {self.p}")
        return self.div(v.numerator % self.p, v.denominator % self.p)

    def elements(self) -> Iterator[int]:
        return iter(range(self.p))

    def chi(self, a: int) -> int:
        """Quadratic character of a (0 on 0)."""
        return legendre(a, self.p)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GF({self.p})"


QQ = Rationals()

Field = Any  # duck-typed strategy object: ``Rationals`` or ``PrimeField``
