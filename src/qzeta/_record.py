"""Bases of the package's record classes: plain ``__slots__`` classes whose
fields are named, in order, by ``__match_args__``.

A record compares equal to a record of its own class with equal fields and
lists its fields in its repr; a ``Value`` is also immutable and hashable.
Each class writes its own ``__init__`` (a ``Value`` sets its fields through
``object.__setattr__``), so importing one generates no code.
"""


class Record:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    __hash__ = None  # mutable: equal records may stop being equal

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class Value(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
