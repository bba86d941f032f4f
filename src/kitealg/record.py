"""Plain record classes, in place of dataclasses, whose import (inspect,
ast) and generated methods would cost every command-line start.

A Record names its fields in _fields: == compares them between objects of
the same class (NotImplemented against any other class) and repr lists
them. A Frozen record also hashes them and refuses assignment and deletion,
so its __init__ writes each field with setfield. The hot records (Window,
KiteShape, KiteElement) write their own __eq__ and __hash__, and
Verdict, whose witness need not hash, keeps its hash once it is asked for.
"""

from __future__ import annotations

setfield = object.__setattr__


class Record:
    _fields: tuple = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__name__}({args})"


class Frozen(Record):
    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    __delattr__ = __setattr__
