"""The one rule for config fields, checked once when a config is built.

JSON ``true`` loads as a Python int and ``1 == True``, so a number rejects
booleans and a flag accepts nothing but a ``bool``.
"""

import math
import numbers
import operator

_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt}


def number(name: str, value, kind=float, *bounds: str) -> None:
    """A finite ``kind`` (``int`` or ``float``; numpy scalars count) that
    meets every bound, each written like ``">= 1"``."""
    ok = (isinstance(value, numbers.Integral if kind is int else numbers.Real)
          and not isinstance(value, bool)
          and -math.inf < value < math.inf  # unlike isfinite, never overflows an int
          and all(_COMPARE[op](value, float(limit)) for op, limit in map(str.split, bounds)))
    if not ok:
        what = " ".join(("an integer" if kind is int else "a number", " and ".join(bounds)))
        raise ValueError(f"{name} must be {what.strip()}, got {value!r}")


def choice(name: str, value, options: tuple) -> None:
    if value not in options:
        raise ValueError(f"{name} must be one of {options}, got {value!r}")


def flag(name: str, value) -> None:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
