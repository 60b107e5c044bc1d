"""Exception hierarchy shared across the package.

Two failure families matter to callers (and to the CLI exit-code contract):
bad inputs / violated preconditions, and internal consistency checks that a
correct build should never trip.  This module is the one place that words a
failed consistency check, where callers name the identity and pass the
values, and the one place that words a refused budget: every named
implementation limit is enforced by `within`, whose `BudgetError` names the
bound, so a caller that can do without the work catches it and reports the
bound as skipped.
"""

from typing import Any


class QPencilError(Exception):
    """Base class for all package errors."""


class PrecondError(QPencilError):
    """Invalid input or violated precondition (CLI exit code 2)."""


class BudgetError(PrecondError):
    """Work over a named implementation limit, refused before it starts.

    Keeps what was counted (`.what`), how much of it the input needs
    (`.needed`) and the bound, by the name of its constant (`.name`) and
    value (`.limit`); `.bound` reads ``NAME = limit``.
    """

    def __init__(self, what: str, needed: int, name: str, limit: int) -> None:
        self.what, self.needed, self.name, self.limit = what, needed, name, limit
        super().__init__(f"{what}: {needed} over {self.bound}")

    @property
    def bound(self) -> str:
        return f"{self.name} = {self.limit}"


def within(what: str, needed: int, /, **bound: int) -> None:
    """Raise BudgetError unless `needed` is at most the limit.  The one
    keyword is the bound, ``NAME=NAME``: the constant's name and its value,
    read when the caller runs, so a patched module constant takes effect."""
    ((name, limit),) = bound.items()
    if needed > limit:
        raise BudgetError(what, needed, name, limit)


class InternalCheckError(QPencilError):
    """An internal cross-check failed; indicates a bug, not bad input (CLI exit 3).

    `InternalCheckError(identity, **values)` keeps the name of the identity
    that failed (`.identity`) and the values it compared, with any that
    locate the failure (`.values`); the message reads
    ``identity: label = value, label = value`` with each value in str form,
    so a Fraction prints as 1/2.
    """

    def __init__(self, identity: str, **values: Any) -> None:
        self.identity, self.values = identity, values
        shown = ", ".join(f"{label} = {_show(value)}" for label, value in values.items())
        super().__init__(f"{identity}: {shown}" if values else identity)


def _show(value: Any) -> str:
    """str of a value, reaching into lists and tuples so that their items
    print as str (a Fraction as 1/2), not as repr."""
    if isinstance(value, list):
        return f"[{', '.join(map(_show, value))}]"
    if isinstance(value, tuple):
        return f"({', '.join(map(_show, value))}{',' if len(value) == 1 else ''})"
    return str(value)


def check(identity: str, /, *, where: dict[str, Any] | None = None, **values: Any) -> None:
    """Raise InternalCheckError(identity, **values, **where) unless all the
    keyword `values` are equal.  `where` holds values that locate a failure
    but are not compared.  A passing check formats nothing."""
    first, *rest = values.values()
    if any(value != first for value in rest):
        raise InternalCheckError(identity, **values, **(where or {}))
