"""Every record class behaves as a frozen value: construction by position and
by keyword with its defaults, the `__post_init__` refusals, equality and
hashing over the fields, the ``Name(field=value, ...)`` repr, refused
assignment and deletion, and copying."""

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import qpencil
from qpencil import records
from qpencil.circle import JumpPoint
from qpencil.classes import OddDecomposition
from qpencil.errors import PrecondError
from qpencil.fields import PrimeField
from qpencil.matrices import SymMatrix
from qpencil.pencil import BinaryForm, Pencil
from qpencil.poly import Poly
from qpencil.projections import RationalMap

F = PrimeField(3)
ID3 = SymMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
LINEAR = RationalMap(("x", "y"), (Poly(F, ("x", "y"), {(1, 0): 1}), Poly(F, ("x", "y"), {(0, 1): 2})))

# one valid argument tuple per record class, in field order
EXAMPLES = {
    "bundlecalc.BundleParameterCounts": (14, 14, (0, 0)),
    "bundlecalc.FiberTangency": ("t0", (1, 0, 1), -4, False, True),
    "bundlecalc.HptReport": (None, (4, 4), (("c", (2, 2), 1),), (4, 4), (4, 4), (), True),
    "circle.JumpPoint": ("+", False, (Fraction(0), Fraction(1, 2))),
    "circle.IndexCircle": (3, (), ((2, 2),), ()),
    "classes.OddDecomposition": ((2, 1, 1),),
    "classes.RealVerdict": (OddDecomposition((2,)), (2, 3, 4, 3), True, True, True, "contains a real line", None),
    "curvecounts.CurveData": (3, (1, 0, 0, 0, 0, 1), 4, 10, (1, 0, 1, 0, 9)),
    "fields.Rationals": (),
    "fields.PrimeField": (5,),
    "fqgeom.TorsorReport": (3, 10, 10, (4, 10), (1, 0, 1, 0, 9)),
    "io.Report": (("analyze",), None, {"n": 3}, 0.5),
    "isotropy.AmerReport": (3, 4, 2, (0, 0, 0, 1), 1, None, 81),
    "latticegroups.IntMatrixGroup": ((ID3.entries,), (ID3.entries,)),
    "latticegroups.TorusVerdict": (True, 1, "trivial", None, None, 0, False),
    "matrices.SymMatrix": (((1, 2), (2, 0)),),
    "pencil.BinaryForm": (F, (1, 2, 0, 1)),
    "pencil.Pencil": (F, 2, ID3, ID3),
    "pencil.SmoothnessReport": (True, BinaryForm(F, (1, 0, 1)), (1,), (1,), None, ((1, 0, 1), (0, 2))),
    "projections.RationalMap": (LINEAR.source_vars, LINEAR.components),
    "projections.LineProjection": (None, ((1, 0), (0, 1)), (), (), LINEAR, LINEAR, ()),
    "projections.DoubleProjection": (None, ID3, None, None, 1, True, False, None),
    "toric.ToricLineCensus": (3, 108, 54, 54, {(0, 1, 2): 18}, 108, 54, 54, 18),
    "toric.ComponentBookkeeping": (6, 1, 1, 6),
}
OWN_REPR = {"fields.Rationals": "QQ", "fields.PrimeField": "GF(5)"}
DEFAULTS = {"io.Report": (None,), "pencil.SmoothnessReport": (None, None)}


def _record_classes():
    found = {}
    for info in pkgutil.iter_modules(qpencil.__path__):
        module = importlib.import_module(f"qpencil.{info.name}")
        for name, obj in vars(module).items():
            made = isinstance(obj, type) and vars(obj).get("__setattr__") is records._assign
            if made and obj.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = obj
    return found


RECORDS = _record_classes()


def test_every_record_class_has_an_example():
    assert sorted(RECORDS) == sorted(EXAMPLES) and len(RECORDS) == 24


def _hashable(values):
    try:
        hash(values)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("key", sorted(EXAMPLES))
def test_record_behaves_as_a_frozen_value(key):
    cls, values = RECORDS[key], EXAMPLES[key]
    names = cls.__slots__
    assert len(names) == len(values)

    by_position, by_keyword = cls(*values), cls(**dict(zip(names, values)))
    assert [getattr(by_position, n) for n in names] == list(values)
    assert by_position == by_keyword and not by_position != by_keyword
    required = len(names) - len(DEFAULTS.get(key, ()))
    shortest = cls(*values[:required])
    assert tuple(getattr(shortest, n) for n in names[required:]) == DEFAULTS.get(key, ())
    if required:
        with pytest.raises(TypeError):
            cls(*values[: required - 1])
    assert by_position.__eq__(object()) is NotImplemented
    if names and not hasattr(cls, "__post_init__"):
        assert cls(*values[:-1], object()) != by_position

    if _hashable(values):
        assert hash(by_position) == hash(by_keyword)
    else:  # a dict field makes the record unhashable, as it would a tuple
        with pytest.raises(TypeError):
            hash(by_position)

    expected = OWN_REPR.get(key, f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})")
    assert repr(by_position) == expected

    for name in names + ("unknown_field",):
        with pytest.raises(AttributeError):
            setattr(by_position, name, None)
        with pytest.raises(AttributeError):
            delattr(by_position, name)
    assert [getattr(by_position, n) for n in names] == list(values)

    assert copy.copy(by_position) == by_position
    assert copy.deepcopy(by_position) == by_position
    assert pickle.loads(pickle.dumps(by_position)) == by_position


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: PrimeField(9), "9 is not prime"),
        (lambda: PrimeField(2), "characteristic 2"),
        (lambda: JumpPoint("0", False, (0, 1)), "half must be"),
        (lambda: JumpPoint("+", True, (0, 1)), "exactly the infinite jumps"),
        (lambda: OddDecomposition((1, 1)), "odd number of parts"),
        (lambda: OddDecomposition((2, 0, 1)), "parts must be positive"),
        (lambda: OddDecomposition((1, 1, 2)), "not in canonical form"),
        (lambda: BinaryForm(F, ()), "at least one coefficient"),
        (lambda: Pencil(F, 1, ID3, ID3), r"n >= 2"),
        (lambda: Pencil(F, 3, ID3, ID3), "must be 4x4"),
        (lambda: Pencil(F, n=2, g0=ID3, g1=SymMatrix(((1, 0), (0, 1)))), "must be 3x3"),
        (lambda: SymMatrix(((1, 2), (0, 1))), r"not symmetric at \(1,0\)"),
        (lambda: SymMatrix(((1, 2), (2,))), "must be square"),
        (lambda: RationalMap(("x",), LINEAR.components), "wrong ring"),
    ],
)
def test_post_init_refusals_raise_precond_error(make, message):
    with pytest.raises(PrecondError, match=message):
        make()
