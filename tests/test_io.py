"""Input parsing diagnostics and the report envelope."""

import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qpencil.errors import InternalCheckError, PrecondError
from qpencil.fields import QQ, PrimeField
from qpencil.io import MAX_N, Report, jsonable, load_json, load_pencil, parse_field_spec, parse_pencil
from qpencil.pencil import Pencil
from qpencil.poly import Poly

GOOD_DOC = {
    "field": {"kind": "rationals"},
    "n": 2,
    "q0": [[0, 0, 1], [1, 1, "-1/2"]],
    "q1": [[0, 1, 1], [2, 2, 3]],
}


def test_parse_field_spec():
    assert parse_field_spec({"kind": "rationals"}) is QQ
    assert parse_field_spec({"kind": "prime", "p": 11}) == PrimeField(11)
    with pytest.raises(PrecondError, match="kind"):
        parse_field_spec({"kind": "complex"})
    with pytest.raises(PrecondError, match="unexpected keys"):
        parse_field_spec({"kind": "rationals", "p": 5})
    with pytest.raises(PrecondError, match="field.p"):
        parse_field_spec({"kind": "prime", "p": "11"})
    with pytest.raises(PrecondError, match="field.p"):
        parse_field_spec({"kind": "prime", "p": True})


def test_parse_pencil_happy_path():
    p = parse_pencil(GOOD_DOC)
    assert p.field is QQ
    assert p.n == 2
    assert p.g0[1, 1] == Fraction(-1, 2)
    assert p.g0[0, 1] == 0
    assert p.g1[0, 1] == Fraction(1, 2)  # cross term halved into the Gram matrix


def test_parse_pencil_diagnostics_name_the_spot():
    doc = dict(GOOD_DOC, q0=[[0, 0, 1], [0, 0, 2]])
    with pytest.raises(PrecondError, match=r"q0\[1\]: duplicate term \(0, 0\)"):
        parse_pencil(doc)
    doc = dict(GOOD_DOC, q1=[[0, 5, 1]])
    with pytest.raises(PrecondError, match=r"q1\[0\]"):
        parse_pencil(doc)
    doc = dict(GOOD_DOC, q0=[[0, 0, 0.5]])
    with pytest.raises(PrecondError, match="exact"):
        parse_pencil(doc)
    doc = dict(GOOD_DOC, q0=[[0, 0]])
    with pytest.raises(PrecondError, match="coefficient"):
        parse_pencil(doc)
    doc = dict(GOOD_DOC, q0=[[True, 0, 1]])
    with pytest.raises(PrecondError, match="index i"):
        parse_pencil(doc)


def test_parse_pencil_top_level_shape():
    with pytest.raises(PrecondError, match="missing keys"):
        parse_pencil({"field": {"kind": "rationals"}})
    with pytest.raises(PrecondError, match="unexpected keys"):
        parse_pencil(dict(GOOD_DOC, comment="hi"))
    with pytest.raises(PrecondError, match="expected an object"):
        parse_pencil([1, 2, 3])
    with pytest.raises(PrecondError, match="n >= 2"):
        parse_pencil(dict(GOOD_DOC, n=1))
    with pytest.raises(PrecondError, match="n:"):
        parse_pencil(dict(GOOD_DOC, n="2"))


@pytest.mark.parametrize("n", [MAX_N + 1, 10**12])
def test_parse_pencil_bounds_n_before_allocating(n):
    start = time.perf_counter()
    with pytest.raises(PrecondError, match=f"over MAX_N = {MAX_N}"):
        parse_pencil(dict(GOOD_DOC, n=n))
    assert time.perf_counter() - start < 0.5
    assert parse_pencil(dict(GOOD_DOC, n=MAX_N)).g0.size == MAX_N + 1


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
_COEFF = st.integers(-(10**30), 10**30) | st.sampled_from(["-3", "1/2", " 5/7 ", "1/0", "21/7", "0.5", "1e3", ""])
_TERMS = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), _COEFF).map(lambda t: [min(t[:2]), max(t[:2]), t[2]]),
    max_size=5,
    unique_by=lambda t: (t[0], t[1]),
)
# well-formed documents, whose indices may still leave the range for n < 4
_GOOD = st.fixed_dictionaries(
    {
        "field": st.sampled_from([{"kind": "rationals"}, {"kind": "prime", "p": 3}, {"kind": "prime", "p": 7}]),
        "n": st.integers(2, 4),
        "q0": _TERMS,
        "q1": _TERMS,
    }
)
_WILD = (
    _JSON
    | st.fixed_dictionaries({"kind": st.just("prime"), "p": st.integers(-3, 10**26)})
    | st.sampled_from([-1, 1, MAX_N + 1, 10**12])
    | st.lists(st.lists(st.integers(-1, 4) | _COEFF, max_size=4), max_size=4)
)
# one key replaced by an arbitrary value, dropped, or joined by an extra key
_DOCS = (
    _GOOD
    | st.tuples(_GOOD, st.sampled_from(["field", "n", "q0", "q1", "comment"]), _WILD).map(lambda t: {**t[0], t[1]: t[2]})
    | st.tuples(_GOOD, st.sampled_from(["field", "n", "q0", "q1"])).map(lambda t: {k: v for k, v in t[0].items() if k != t[1]})
    | _JSON
)


@given(_DOCS)
@settings(max_examples=300, deadline=None)
def test_parse_pencil_fuzz_parses_or_raises_precond_error(doc):
    """Any JSON-shaped document is either a pencil or a PrecondError."""
    try:
        pencil = parse_pencil(doc)
    except PrecondError:
        return
    assert isinstance(pencil, Pencil) and 2 <= pencil.n <= MAX_N


def test_load_pencil_rejects_an_overlong_integer(tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"n": 1' + "0" * 5000 + "}")
    with pytest.raises(PrecondError, match="long.json"):
        load_pencil(str(path))


def test_parse_pencil_rejects_bad_prime_coefficient():
    doc = {
        "field": {"kind": "prime", "p": 3},
        "n": 2,
        "q0": [[0, 0, "1/3"]],
        "q1": [[1, 1, 1]],
    }
    with pytest.raises(PrecondError, match=r"q0\[0\]"):
        parse_pencil(doc)


def test_load_pencil_hashes_the_input(tmp_path):
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(GOOD_DOC))
    p, digest = load_pencil(str(path))
    assert p.n == 2
    assert len(digest) == 64
    # same bytes, same digest
    _, digest2 = load_pencil(str(path))
    assert digest == digest2


def test_load_pencil_diagnostics(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"field":\n!')
    with pytest.raises(PrecondError, match="line 2, column 1"):
        load_pencil(str(path))
    with pytest.raises(PrecondError, match="cannot read"):
        load_pencil(str(tmp_path / "missing.json"))


def test_load_json(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("[1, 2, 3]")
    doc, digest = load_json(str(path))
    assert doc == [1, 2, 3]
    assert len(digest) == 64


def test_jsonable():
    assert jsonable(Fraction(1, 2)) == "1/2"
    assert jsonable({"a": (1, Fraction(3))}) == {"a": [1, "3"]}
    assert jsonable(None) is None
    assert jsonable(True) is True
    assert jsonable(PrimeField(7)) == {"kind": "prime", "p": 7}
    assert jsonable(QQ) == {"kind": "rationals"}
    # F_p coefficients are written as the ints they are, as elsewhere
    assert jsonable(Poly(PrimeField(7), ("x", "y"), {(1, 0): 1, (0, 2): 6})) == "6*y^2 + x"
    assert jsonable([Poly(QQ, ("x",), {(1,): Fraction(-1, 2)})]) == ["-1/2*x"]
    # a type with no rule is a program error (exit 3), not bad input
    with pytest.raises(InternalCheckError, match="every report value has a writer rule: type = object"):
        jsonable(object())


def test_report_json_is_deterministic():
    rep = Report(
        command=("qpencil", "analyze", "x.json"),
        input_sha256="ab" * 32,
        payload=jsonable({"z": 1, "a": Fraction(1, 3)}),
        timing=1.25,
    )
    out = rep.to_json()
    assert out == rep.to_json()
    doc = json.loads(out)
    assert doc["timing"] is None  # timing never reaches the JSON output
    assert doc["payload"] == {"z": 1, "a": "1/3"}
    assert list(doc) == sorted(doc)
    assert out.endswith("\n")


def test_report_text_walks_the_json_value():
    rep = Report(
        command=("qpencil", "toric"),
        input_sha256=None,
        payload=jsonable({"n": 5, "rows": [(1, Fraction(1, 2))], "flat": (1, 2)}),
    )
    assert rep.to_text() == 'qpencil toric: ok\nn: 5\nrows:\n  -\n    - 1\n    - "1/2"\nflat: [1, 2]\n'


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(101)])
def test_field_doc_round_trips(field):
    assert parse_field_spec(jsonable(field)) == field
