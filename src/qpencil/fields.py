"""Exact coefficient fields.

Field arithmetic is kept out of the element values themselves: a field object
is a small strategy bundle operating on plain Python values (``Fraction`` for
the rationals, ``int`` in ``range(p)`` for a prime field, coefficient pairs
for a quadratic extension).  This keeps hot loops allocation-light and lets
the same univariate/matrix code run over any of them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterator

from .errors import InternalCheckError, PrecondError

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


def _parse_fraction(raw: str) -> Fraction:
    """A coefficient string ``-?d+(/d+)?`` (surrounding blanks ignored)."""
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


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1} for an odd prime p."""
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


@dataclass(frozen=True)
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
        return 1 / a

    def div(self, a: Fraction, b: Fraction) -> Fraction:
        if b == 0:
            raise PrecondError("division by zero")
        return a / b

    def is_zero(self, a: Fraction) -> bool:
        return a == 0

    def eq(self, a: Fraction, b: Fraction) -> bool:
        return a == b

    def parse(self, raw: Any) -> Fraction:
        """Accept int, Fraction, or a string like ``-3`` / ``5/7``."""
        if isinstance(raw, bool):
            raise PrecondError(f"not a rational coefficient: {raw!r}")
        if isinstance(raw, (int, Fraction)):
            return Fraction(raw)
        if isinstance(raw, str):
            return _parse_fraction(raw)
        raise PrecondError(f"not a rational coefficient: {raw!r}")

    def fmt(self, a: Fraction) -> str:
        return str(a)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "QQ"


@dataclass(frozen=True)
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
        if isinstance(raw, bool):
            raise PrecondError(f"not a coefficient: {raw!r}")
        if isinstance(raw, int):
            return raw % self.p
        if isinstance(raw, str):
            frac = _parse_fraction(raw)
            if frac.denominator % self.p == 0:
                raise PrecondError(
                    f"coefficient {raw!r} has denominator divisible by {self.p}"
                )
            return self.div(frac.numerator % self.p, frac.denominator % self.p)
        if isinstance(raw, Fraction):
            if raw.denominator % self.p == 0:
                raise PrecondError(f"denominator of {raw} divisible by {self.p}")
            return self.div(raw.numerator % self.p, raw.denominator % self.p)
        raise PrecondError(f"not a coefficient: {raw!r}")

    def fmt(self, a: int) -> str:
        return str(a % self.p)

    def elements(self) -> Iterator[int]:
        return iter(range(self.p))

    def chi(self, a: int) -> int:
        """Quadratic character of a (0 on 0)."""
        return legendre(a, self.p)

    def least_nonresidue(self) -> int:
        for a in range(2, self.p):
            if legendre(a, self.p) == -1:
                return a
        raise InternalCheckError(f"no quadratic non-residue mod {self.p}")  # pragma: no cover

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GF({self.p})"


@dataclass(frozen=True)
class QuadraticExtension:
    """F_{p^2} = F_p[w] / (w^2 - nu); elements are pairs (a, b) meaning a + b*w.

    nu defaults to the least quadratic non-residue mod p, so w really does
    generate a degree-2 extension.
    """

    base: PrimeField
    nu: int

    @classmethod
    def of(cls, base: PrimeField) -> "QuadraticExtension":
        return cls(base, base.least_nonresidue())

    def __post_init__(self) -> None:
        if legendre(self.nu, self.base.p) != -1:
            raise PrecondError(f"{self.nu} is a square mod {self.base.p}")

    @property
    def characteristic(self) -> int:
        return self.base.p

    @property
    def order(self) -> int:
        return self.base.p ** 2

    @property
    def zero(self) -> tuple[int, int]:
        return (0, 0)

    @property
    def one(self) -> tuple[int, int]:
        return (1, 0)

    def embed(self, a: int) -> tuple[int, int]:
        return (a % self.base.p, 0)

    def from_int(self, m: int) -> tuple[int, int]:
        return (m % self.base.p, 0)

    def add(self, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        p = self.base.p
        return ((x[0] + y[0]) % p, (x[1] + y[1]) % p)

    def sub(self, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        p = self.base.p
        return ((x[0] - y[0]) % p, (x[1] - y[1]) % p)

    def mul(self, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        p = self.base.p
        a, b = x
        c, d = y
        return ((a * c + self.nu * b * d) % p, (a * d + b * c) % p)

    def neg(self, x: tuple[int, int]) -> tuple[int, int]:
        p = self.base.p
        return ((-x[0]) % p, (-x[1]) % p)

    def norm(self, x: tuple[int, int]) -> int:
        """Norm to F_p: (a + bw)(a - bw) = a^2 - nu b^2."""
        p = self.base.p
        a, b = x
        return (a * a - self.nu * b * b) % p

    def inv(self, x: tuple[int, int]) -> tuple[int, int]:
        n = self.norm(x)
        if n == 0:
            raise PrecondError("division by zero")
        ninv = self.base.inv(n)
        p = self.base.p
        return ((x[0] * ninv) % p, ((-x[1]) * ninv) % p)

    def div(self, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        return self.mul(x, self.inv(y))

    def is_zero(self, x: tuple[int, int]) -> bool:
        return x[0] % self.base.p == 0 and x[1] % self.base.p == 0

    def eq(self, x: tuple[int, int], y: tuple[int, int]) -> bool:
        return self.is_zero(self.sub(x, y))

    def fmt(self, x: tuple[int, int]) -> str:
        return f"{x[0]}+{x[1]}w"

    def chi(self, x: tuple[int, int]) -> int:
        """Quadratic character of F_{p^2}; factors through the norm."""
        return legendre(self.norm(x), self.base.p)

    def elements(self) -> Iterator[tuple[int, int]]:
        p = self.base.p
        return ((a, b) for a in range(p) for b in range(p))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GF({self.base.p}^2)"


QQ = Rationals()

Field = Any  # duck-typed strategy object; one of the three classes above
