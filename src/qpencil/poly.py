"""Sparse multivariate polynomials over an exact field.

A ``Poly`` is a dict from exponent tuples to nonzero coefficients, tagged
with the field and an ordered tuple of variable names.  Arithmetic stays
exact; there is no attempt at asymptotic cleverness — the polynomials here
have few variables and low degree.  Determinants are not taken over this
type: ``matrices.det_poly`` takes a matrix over F[t] as its coefficient
matrices.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from .errors import PrecondError
from .fields import Field


def _grlex_key(exp: tuple[int, ...]) -> tuple:
    return (sum(exp), exp)


class Poly:
    __slots__ = ("field", "vars", "terms")

    def __init__(self, field: Field, vars: Sequence[str], terms: Mapping[tuple, Any]):
        nv = len(vars)
        clean: dict[tuple, Any] = {}
        for exp, coeff in terms.items():
            exp = tuple(exp)
            if len(exp) != nv or any(e < 0 for e in exp):
                raise PrecondError(f"bad exponent {exp} for {nv} variables")
            # the sum also reduces an F_p coefficient into range(p)
            coeff = field.add(clean.get(exp, field.zero), coeff)
            if field.is_zero(coeff):
                clean.pop(exp, None)
            else:
                clean[exp] = coeff
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "vars", tuple(vars))
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_: Any) -> None:  # immutability guard
        raise AttributeError("Poly is immutable")

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through __init__
        return Poly, (self.field, self.vars, self.terms)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field: Field, vars: Sequence[str]) -> "Poly":
        return cls(field, vars, {})

    @classmethod
    def const(cls, field: Field, vars: Sequence[str], c: Any) -> "Poly":
        return cls(field, vars, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, field: Field, vars: Sequence[str], name: str) -> "Poly":
        vars = tuple(vars)
        if name not in vars:
            raise PrecondError(f"unknown variable {name!r}")
        exp = tuple(1 if v == name else 0 for v in vars)
        return cls(field, vars, {exp: field.one})

    # -- basic protocol -----------------------------------------------

    def _coerce(self, other: Any) -> "Poly":
        if isinstance(other, Poly):
            if other.vars != self.vars or other.field != self.field:
                raise PrecondError("polynomials live in different rings")
            return other
        if isinstance(other, int):
            return Poly.const(self.field, self.vars, self.field.from_int(other))
        return Poly.const(self.field, self.vars, other)

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, int):
            other = self._coerce(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.field == other.field
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.field, self.vars, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: Any) -> "Poly":
        other = self._coerce(other)
        merged = dict(self.terms)
        fld = self.field
        for exp, c in other.terms.items():
            if exp in merged:
                s = fld.add(merged[exp], c)
                if fld.is_zero(s):
                    del merged[exp]
                else:
                    merged[exp] = s
            else:
                merged[exp] = c
        out = Poly.zero(fld, self.vars)
        object.__setattr__(out, "terms", merged)
        return out

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        fld = self.field
        out = Poly.zero(fld, self.vars)
        object.__setattr__(out, "terms", {e: fld.neg(c) for e, c in self.terms.items()})
        return out

    def __sub__(self, other: Any) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Any) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other: Any) -> "Poly":
        other = self._coerce(other)
        fld = self.field
        acc: dict[tuple, Any] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                prod = fld.mul(c1, c2)
                if exp in acc:
                    s = fld.add(acc[exp], prod)
                    if fld.is_zero(s):
                        del acc[exp]
                    else:
                        acc[exp] = s
                else:
                    acc[exp] = prod
        out = Poly.zero(fld, self.vars)
        object.__setattr__(out, "terms", acc)
        return out

    __rmul__ = __mul__

    # -- queries ------------------------------------------------------

    def coeff(self, exp: Sequence[int]) -> Any:
        return self.terms.get(tuple(exp), self.field.zero)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_bihomogeneous(self, group1: Iterable[str], group2: Iterable[str]) -> tuple[bool, tuple[int, int] | None]:
        """Check bihomogeneity in two variable groups; return (flag, bidegree)."""
        i1 = [self.vars.index(n) for n in group1]
        i2 = [self.vars.index(n) for n in group2]
        if not self.terms:
            return True, None
        pairs = {(sum(e[i] for i in i1), sum(e[i] for i in i2)) for e in self.terms}
        if len(pairs) != 1:
            return False, None
        return True, pairs.pop()

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Any]]:
        """Terms in descending graded-lex order (canonical for display/JSON)."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    # -- calculus & evaluation ----------------------------------------

    def derivative(self, name: str) -> "Poly":
        i = self.vars.index(name)
        fld = self.field
        acc: dict[tuple, Any] = {}
        for exp, c in self.terms.items():
            if exp[i] == 0:
                continue
            new = list(exp)
            new[i] -= 1
            acc[tuple(new)] = fld.mul(c, fld.from_int(exp[i]))
        return Poly(fld, self.vars, acc)

    def evaluate(self, values: Sequence[Any]) -> Any:
        if len(values) != len(self.vars):
            raise PrecondError("wrong number of values")
        fld = self.field
        total = fld.zero
        for exp, c in self.terms.items():
            term = c
            for v, e in zip(values, exp):
                for _ in range(e):
                    term = fld.mul(term, v)
            total = fld.add(total, term)
        return total

    # -- display ------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for exp, c in self.sorted_terms():
            factors = [
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.vars, exp)
                if e
            ]
            cs = str(c)
            if factors and cs == "1":
                body = "*".join(factors)
            elif factors and cs == "-1":
                body = "-" + "*".join(factors)
            else:
                body = "*".join([cs] + factors)
            chunks.append(body)
        out = chunks[0]
        for ch in chunks[1:]:
            out += " - " + ch[1:] if ch.startswith("-") else " + " + ch
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Poly({self})"
