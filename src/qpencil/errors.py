"""Exception hierarchy shared across the package.

Two failure families matter to callers (and to the CLI exit-code contract):
bad inputs / violated preconditions, and internal consistency checks that a
correct build should never trip.  This module is the one place that words a
failed consistency check: callers name the identity and pass the values.
"""

from typing import Any


class QPencilError(Exception):
    """Base class for all package errors."""


class PrecondError(QPencilError):
    """Invalid input or violated precondition (CLI exit code 2)."""


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
