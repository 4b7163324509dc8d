"""``Frozen``, the base of the package's validated parameter records.

A record is a plain class whose fields are its ``_fields``, in order: its
``__slots__`` unless it names them.  Its own ``__init__`` runs the record's
checks and stores the fields with ``_store``.  ``Frozen`` gives it what a
frozen dataclass would: assigning or deleting a field raises
``AttributeError``, two records of one class compare and hash as the tuples
of their fields, the repr reads ``Name(field=value, ...)``, and copy and
pickle rebuild a record through its ``__init__``, so through its checks.  A slot that is not a field holds what the record
derives from its fields (``relations.TScanConfig`` keeps its scan plan
there); a copy derives it again.

Records with no checks are ``typing.NamedTuple``s instead.  Building a
six-field class at import takes ~0.005 ms as a slots class, ~0.05 ms as a
NamedTuple and ~0.42 ms as a frozen dataclass (median of 200 builds in one
process on a 2-vCPU VM), and a process that builds no dataclass need not
import ``dataclasses``: ~4 ms with the ``inspect`` it loads, where numpy
(which loads ``inspect`` too) is not imported.
"""


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__

    def _store(self, *values) -> None:
        """Set the fields, in ``_fields`` order, past ``__setattr__``."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

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
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
