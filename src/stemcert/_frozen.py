"""Immutable value classes without ``dataclasses``.

``dataclasses`` imports ``inspect`` (and with it ``ast``, ``dis`` and
``tokenize``) and ``exec``s generated code for every decorated class, which
a short CLI run pays at start-up.  :class:`Frozen` gives the same value
semantics from ordinary methods.
"""

from __future__ import annotations


class Frozen:
    """Base of the package's immutable value classes.

    A subclass lists its fields in ``__slots__``, in constructor order, and
    its ``__init__`` validates the arguments and stores them with
    :meth:`_set`.  Instances compare and hash field by field, an instance of
    another class never compares equal, ``repr`` shows ``Name(field=value,
    ...)``, assigning or deleting an attribute raises ``AttributeError``, and
    ``copy`` and ``pickle`` rebuild an instance by calling ``__init__`` with
    the fields in order.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return (type(self), self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen value")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen value")
