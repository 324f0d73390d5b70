"""Frozen records: the base of the package's immutable value classes."""

from __future__ import annotations

from operator import attrgetter


class Record:
    """An immutable value with named fields, compared and hashed by them.

    A subclass names its fields by annotating them in its own class body,
    in constructor order; a class attribute of the same name is the
    field's default.  The constructor takes the fields positionally or by
    keyword, then calls ``__post_init__``.  Records of one class are equal
    when their fields are, hash by their fields, and refuse assignment and
    deletion with ``AttributeError``.  A subclass may define its own
    ``__eq__``, ``__hash__`` or ``__init__``.  Instances keep their fields
    in ``__dict__``, so ``functools.cached_property`` works on them and
    they pickle without help.

    ``_trusted`` is the one way in that skips the constructor's checks,
    for every record but the two built elsewhere by design:
    ``GroupElement``, whose constructor is the hot path of every product,
    is checked by ``element`` and ``parse_element``, and
    ``GroupDescriptor`` by its factories.  ``_trusted`` is for values the
    package builds from parts that are already checked, such as the steps
    of a path a move rewrote or a flat connection, and never for a value
    given at an input boundary: a file, or an argument given in code.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))
        cls._field_values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            # a field not given reads as the class attribute of its name: its default
            rest = fields[len(args) :]
            if len(args) > len(fields) or kwargs.keys() - rest or not all(f in kwargs or hasattr(self, f) for f in rest):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}, each once")
            args += tuple(kwargs[f] if f in kwargs else getattr(self, f) for f in rest)
        # one object.__setattr__ per field: writing to __dict__ would turn the
        # instance's compact attribute storage into a full dict, slower to read
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _trusted(cls, *values):
        """A record of the leading fields' values, already known to be valid: no ``__post_init__`` runs.

        A field left out stays unset, for a ``cached_property`` of its name
        to fill on first read.
        """
        record = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            object.__setattr__(record, name, value)
        return record

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._field_values(self) == other._field_values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._field_values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"
