"""Frozen value records built from a class's annotations.

``@record`` turns each annotated name of a class body into a field of a
frozen ``__slots__`` class, much as ``dataclass(frozen=True)`` does, but
without importing ``dataclasses`` (and through it ``inspect``) or building a
dozen methods per class, which every ``qpencil`` process would pay at start-up.
The class gets:

- an ``__init__`` with the fields in order and the class body's trailing
  defaults, which calls ``__post_init__`` if the class defines one;
- ``__eq__`` (same class and equal fields) and ``__hash__`` over the fields;
- the ``Name(field=value, ...)`` repr, unless the class defines its own;
- ``__setattr__`` and ``__delattr__`` that raise ``AttributeError``.

``__init__``, ``__eq__`` and ``__hash__`` are generated from source for each
class, as ``collections.namedtuple`` generates ``__new__``: a code object
shared by two classes would see both types at its attribute caches and run
slower for each (``F == QQ`` compares a `PrimeField` with `Rationals`).
"""

from operator import attrgetter

_EQ_HASH = """
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return _fields(self) == _fields(other)
    return NotImplemented

def __hash__(self):
    return hash(_fields(self))
"""


def _assign(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _repr(self):
    return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__slots__)})"


def _reduce(self):  # copy and pickle rebuild through __init__
    return type(self), tuple(getattr(self, n) for n in self.__slots__)


def record(cls):
    names = tuple(cls.__dict__.get("__annotations__", ()))
    body = {k: v for k, v in cls.__dict__.items() if k not in names and k not in ("__dict__", "__weakref__")}
    body.setdefault("__repr__", _repr)
    body.update(__slots__=names, __setattr__=_assign, __delattr__=_delete, __reduce__=_reduce)
    new = type(cls.__name__, cls.__bases__, body)

    lines = [f"def __init__(self, {', '.join(names)}):", " pass"]
    lines += [f" _set_{n}(self, {n})" for n in names]
    lines += [" self.__post_init__()"] if "__post_init__" in body else []
    scope = {f"_set_{n}": getattr(new, n).__set__ for n in names}
    scope["_fields"] = attrgetter(*names) if names else (lambda self: ())
    exec("\n".join(lines) + "\n" + _EQ_HASH, scope)
    scope["__init__"].__defaults__ = tuple(cls.__dict__[n] for n in names if n in cls.__dict__) or None
    for name in ("__init__", "__eq__", "__hash__"):
        if name not in body:
            scope[name].__qualname__ = f"{new.__qualname__}.{name}"
            setattr(new, name, scope[name])
    return new
