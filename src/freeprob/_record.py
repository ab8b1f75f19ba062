"""Immutable records with value equality, the base of the package's types.

``dataclasses`` would do the same, but importing it and building each
frozen class at import time costs more than the rest of a closed-form
command's import.  A ``Record`` subclass lists its fields in
``__slots__`` and their defaults in ``_defaults``; nothing is generated.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """Fields in ``__slots__`` order, set once by ``__init__``.

    Positional and keyword arguments fill the fields; a missing field
    takes its ``_defaults`` entry, and a callable default is a factory
    called once per instance (``dict`` for an empty mapping).  Instances
    are immutable, compare equal when their classes and fields are,
    hash by their fields, repr as ``Name(field=value, ...)``, convert to
    a dict by ``_asdict()``, and pickle and copy through their fields.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        name = type(self).__name__
        if len(args) > len(names):
            raise TypeError(f"{name} takes {len(names)} fields, "
                            f"got {len(args)} positional arguments")
        values = dict(zip(names, args))
        for key, value in kwargs.items():
            if key not in names or key in values:
                raise TypeError(f"{name} got an unexpected or repeated "
                                f"field {key!r}")
            values[key] = value
        for key in names:
            if key in values:
                value = values[key]
            elif key in self._defaults:
                value = self._defaults[key]
                if callable(value):
                    value = value()
            else:
                raise TypeError(f"{name} is missing the field {key!r}")
            object.__setattr__(self, key, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, key) for key in self.__slots__)

    def _asdict(self) -> dict:
        """The fields by name, in ``__slots__`` order."""
        return dict(zip(self.__slots__, self._fields()))

    def __setattr__(self, key, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, key):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        body = ", ".join(f"{key}={getattr(self, key)!r}"
                         for key in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._fields()
