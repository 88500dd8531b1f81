"""The base of qtab's immutable value classes.

A subclass names its fields, in order, in ``__match_args__`` (which also
lets ``match`` read them positionally) and sets them in its own
``__init__``, with ``_set`` or, in the few hot constructors, one
``object.__setattr__`` per field.  The base refuses every later
assignment or deletion, makes an instance equal only to an instance of the
very same class with equal fields, hashes it as the tuple of its fields and
shows it as ``Name(field=value, ...)``.  Copies and pickles are rebuilt
through ``__init__`` from the fields, so they pass its checks again.  The
classes are written out by hand: a class decorator that generates these
methods compiles them with ``exec`` at every import and loads ``inspect``,
a large share of the start-up of every qtab process.

``cached``, the attribute cache of these classes and of ``Poset``, is a
``functools.cached_property`` without the lock.
"""

from __future__ import annotations

from typing import Any, Callable


class _Frozen:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _set(self, *values: object) -> None:
        """Set the fields to ``values``, given in ``__match_args__`` order."""
        for name, value in zip(self.__match_args__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self) -> tuple:
        return type(self), self._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class cached:
    """A method read as an attribute and computed on the first read only.

    The value goes into the instance ``__dict__`` under the method's name,
    where every later read finds it before this descriptor, which defines no
    ``__set__``.  Unlike ``functools.cached_property`` it takes no lock, the
    larger part of that one's cost per first read; two threads reading the
    attribute at once may both compute it, and the values are equal.
    """

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, instance: object, owner: type | None = None) -> Any:
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.fn(instance)
        return value
