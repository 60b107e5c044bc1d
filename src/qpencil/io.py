"""Pencil input files and the report envelope.

Input files are UTF-8 JSON of the shape

    {"field": {"kind": "rationals"},
     "n": 5,
     "q0": [[0, 1, 1], [2, 3, "-1"], ...],
     "q1": [[2, 3, 1], [4, 5, "-1/2"], ...]}

where ``field`` is either ``{"kind": "rationals"}`` or
``{"kind": "prime", "p": 11}``, and each term ``[i, j, c]`` with ``i <= j``
gives the coefficient of ``x_i x_j``.  Coefficients are read by `fields`:
integers or exact ``"num/den"`` strings, never floats or booleans.  The
dimension n runs from 2 to `MAX_N`, checked before any matrix is allocated.
Parse diagnostics name the offending field (and the line for malformed JSON).

Everything that leaves the program is written here too.  `jsonable` turns a
payload of library values into JSON with one rule per type: a ``Fraction``
becomes ``"num/den"`` text, an F_p element stays an int, a `Poly` becomes
its text, a field becomes the spec `parse_field_spec` reads back, and a tuple
becomes a list.  `Report` renders that JSON value as JSON (sorted keys, no
timestamps, so a fixed input produces byte-identical output across runs) or
as indented text.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from .errors import InternalCheckError, PrecondError, within
from .fields import QQ, Field, PrimeField, Rationals, exact_int
from .records import record

if TYPE_CHECKING:
    from .pencil import Pencil

# the largest n an input may declare: an in-process analyze over Q of a
# random pencil at n = 24 with entries in [-9, 9] took 0.06-0.07 s (median of
# 5 seeded pencils, best of 3 runs each; 2-core Intel Xeon, CPython 3.11.7),
# and the dense (n+1)x(n+1) Grams are built only below this bound
MAX_N = 24


def parse_field_spec(spec: Any, where: str = "field") -> Field:
    if not isinstance(spec, dict):
        raise PrecondError(f"{where}: expected an object, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind == "rationals":
        if set(spec) != {"kind"}:
            raise PrecondError(f"{where}: unexpected keys {sorted(set(spec) - {'kind'})}")
        return QQ
    if kind == "prime":
        if set(spec) != {"kind", "p"}:
            raise PrecondError(f"{where}: expected exactly the keys 'kind' and 'p'")
        return PrimeField(exact_int(spec["p"], f"{where}.p"))
    raise PrecondError(f"{where}.kind: expected 'rationals' or 'prime', got {kind!r}")


def _term_list(raw: Any, where: str) -> list[list[Any]]:
    """The JSON shape of a term list; ranges, duplicates and coefficients are
    checked where the terms become a Gram matrix."""
    if not isinstance(raw, list):
        raise PrecondError(f"{where}: expected a list of [i, j, coefficient] terms")
    for k, term in enumerate(raw):
        spot = f"{where}[{k}]"
        if not isinstance(term, list) or len(term) != 3:
            raise PrecondError(f"{spot}: expected [i, j, coefficient]")
        exact_int(term[0], f"{spot}: index i")
        exact_int(term[1], f"{spot}: index j")
    return raw


def parse_pencil(doc: Any) -> Pencil:
    """Build a pencil from a decoded input document."""
    from .pencil import Pencil, _gram_from_terms  # torus and hpt read JSON but no pencil

    if not isinstance(doc, dict):
        raise PrecondError(f"top level: expected an object, got {type(doc).__name__}")
    missing = [k for k in ("field", "n", "q0", "q1") if k not in doc]
    if missing:
        raise PrecondError(f"top level: missing keys {missing}")
    extra = sorted(set(doc) - {"field", "n", "q0", "q1"})
    if extra:
        raise PrecondError(f"top level: unexpected keys {extra}")
    field = parse_field_spec(doc["field"])
    n = exact_int(doc["n"], "n")
    if n < 2:
        raise PrecondError(f"n: need n >= 2, got {n}")
    within("n", n, MAX_N=MAX_N)
    g0, g1 = (_gram_from_terms(field, n, _term_list(doc[k], k), k) for k in ("q0", "q1"))
    return Pencil(field, n, g0, g1)


def load_pencil(path: str) -> tuple[Pencil, str]:
    """Read a pencil file; returns the pencil and the sha256 of the raw bytes."""
    doc, digest = load_json(path)
    return parse_pencil(doc), digest


def load_json(path: str) -> tuple[Any, str]:
    """Read any JSON input file; returns the document and its sha256."""
    import hashlib  # only file input is hashed; OpenSSL is a few MB of RSS

    data = _read_input(path)
    return decode(data, path), hashlib.sha256(data).hexdigest()


def _read_input(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise PrecondError(f"cannot read {path}: {exc}") from exc


def decode(data: bytes | str, where: str) -> Any:
    """The one JSON decoder for outside input, file bytes or inline text such
    as ``--point``; diagnostics start with `where`, the path or the flag."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError as exc:
        raise PrecondError(f"{where}: not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PrecondError(f"{where}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal beyond the int conversion limit
        raise PrecondError(f"{where}: an integer literal has more than {sys.get_int_max_str_digits()} digits") from exc


# -- report envelope -----------------------------------------------------


def jsonable(value: Any) -> Any:
    """The one writer: a report value as JSON, by the rules in the module
    docstring.  Any other type is a program error, not bad input."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, PrimeField):
        return {"kind": "prime", "p": value.p}
    if isinstance(value, Rationals):
        return {"kind": "rationals"}
    from .poly import Poly  # last, so that a report without polynomials never loads poly

    if isinstance(value, Poly):
        return str(value)
    raise InternalCheckError("every report value has a writer rule", type=type(value).__name__)


@record
class Report:
    """Envelope for one CLI invocation: command echo, input hash, and the
    payload as a JSON value (the output of `jsonable`).

    ``timing`` is filled only in human-readable output; JSON reports keep it
    null so identical inputs give byte-identical bytes.
    """

    command: tuple[str, ...]
    input_sha256: str | None
    payload: dict
    timing: float | None = None

    def to_json(self) -> str:
        doc = {
            "command": list(self.command),
            "input_sha256": self.input_sha256,
            "status": "ok",
            "payload": self.payload,
            "timing": None,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"qpencil {self.command[1]}: ok"]
        if self.input_sha256:
            lines.append(f"input sha256: {self.input_sha256}")
        _text_block(self.payload, 0, lines)
        if self.timing is not None:
            lines.append(f"elapsed: {self.timing:.3f}s")
        return "\n".join(lines) + "\n"


def _text_block(value: dict | list, indent: int, lines: list[str]) -> None:
    """Append the indented text of a JSON object or array to `lines`.  A key
    whose value holds an object or array, and an item that is one, opens a
    block one level deeper; every other value is written as JSON after its
    key or ``-``."""
    pad = "  " * indent
    if isinstance(value, dict):
        for k, v in value.items():
            items = v.values() if isinstance(v, dict) else v
            if isinstance(v, (dict, list)) and any(isinstance(x, (dict, list)) for x in items):
                lines.append(f"{pad}{k}:")
                _text_block(v, indent + 1, lines)
            else:
                lines.append(f"{pad}{k}: {json.dumps(v)}")
    else:
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                _text_block(v, indent + 1, lines)
            else:
                lines.append(f"{pad}- {json.dumps(v)}")
