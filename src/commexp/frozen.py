"""``Frozen``, the base of the package's validated parameter records.

A record is a plain class whose fields are its ``__slots__``, in order.  Its
own ``__init__`` runs the record's checks and stores the fields with
``_store``.  ``Frozen`` gives it what a frozen dataclass would: assigning or
deleting a field raises ``AttributeError``, two records of one class compare
and hash as the tuples of their fields, the repr reads ``Name(field=value,
...)``, and copy and pickle rebuild a record through its ``__init__``, so
through its checks.

Records with no checks are ``typing.NamedTuple``s instead.  Building a
six-field class at import takes ~0.005 ms as a slots class, ~0.05 ms as a
NamedTuple and ~0.42 ms as a frozen dataclass (median of 200 builds in one
process on a 2-vCPU VM), and a process that builds no dataclass need not
import ``dataclasses``: ~4 ms with the ``inspect`` it loads, where numpy
(which loads ``inspect`` too) is not imported.
"""


class Frozen:
    __slots__ = ()

    def _store(self, *values) -> None:
        """Set the fields, in ``__slots__`` order, past ``__setattr__``."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
