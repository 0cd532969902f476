"""`Record`: the base of cdfeat's frozen types that hold numpy arrays.

A record type is a `@dataclass(frozen=True, eq=False)` subclass that names its
array fields and their dtypes once, in the class attribute `ARRAYS`.
Construction stores a read-only view of each, so nothing writes through the
record while the caller's own array stays writable (a view, not a copy: a
later write to that array shows through), and refuses, with a ValueError
naming the field, a value numpy cannot convert to such an array or whose
own elements are strings, bytes, booleans or None (numpy kinds U, S, b, O),
so "12" and true are not read as 12 and 1. Two records are
equal when they are of the same type and every field is equal, arrays by
shape and content. Records are unhashable. A subclass runs its own checks in
`__post_init__`, after `super().__post_init__()`.

This module imports nothing from cdfeat, so every layer can use it.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np


class Record:
    """Base of a frozen dataclass that holds numpy arrays; see the module doc."""

    ARRAYS = {}  # array field name -> dtype

    def __post_init__(self):
        for name, dtype in self.ARRAYS.items():
            try:
                value = np.asarray(getattr(self, name))
                if value.dtype.kind in "USbO":
                    raise TypeError(f"elements of dtype {value.dtype}")
                view = np.asarray(value, dtype=dtype).view()
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{name} must be an array of numbers: {exc}") from None
            view.setflags(write=False)
            object.__setattr__(self, name, view)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if not (np.array_equal(a, b) if f.name in self.ARRAYS else a == b):
                return False
        return True

    __hash__ = None
