"""One declarative rule per config field.

A field states its rule in its `dataclasses.field` metadata through `rule`.
A config subclasses `Validated`, whose `__post_init__` runs `validate` before
the class's own checks that relate two fields. Each numeric kind is a half-open interval
tested as `lo <= v < hi`, so NaN fails every kind; an open lower or a closed
upper bound moves to the adjacent float when the kind is made. A value with
a NaN or an infinity is reported as not finite, any other as not its kind.
"""

from __future__ import annotations

import math
from dataclasses import field, fields
from typing import NamedTuple

import numpy as np


class Kind(NamedTuple):
    text: str  # completes "<key> must be ..."
    lo: float = -math.inf
    hi: float = math.inf


def interval(text: str, lo: float, hi: float, lo_closed=False, hi_closed=False) -> Kind:
    return Kind(text, lo if lo_closed else math.nextafter(lo, math.inf),
                math.nextafter(hi, math.inf) if hi_closed else hi)


FINITE = interval("finite", -math.inf, math.inf)
NON_NEGATIVE = interval("non-negative and finite", 0.0, math.inf, lo_closed=True)
POSITIVE = interval("positive and finite", 0.0, math.inf)
UNIT = interval("in [0, 1)", 0.0, 1.0, lo_closed=True)
BOOL = Kind("true or false")  # an exact bool
COUNT = Kind("a non-negative integer")  # an int or numpy integer >= 0, not a bool


def rule(kind: Kind | None = None, shape=None, *, coerce=None, optional=False, **kwargs):
    """A dataclass field (`kwargs` go to `dataclasses.field`) that `validate`
    passes through `check`; with `shape` dict, each value of a dict. An
    optional field may be None."""
    return field(**kwargs, metadata={"rule": (kind, shape, coerce, optional)})


class Validated:
    """Base of a dataclass with ruled fields: construction validates them.
    A subclass's own `__post_init__` calls this one first."""

    def __post_init__(self):
        validate(self)


def validate(obj) -> None:
    """Coerce and check each ruled field of `obj` in place, through
    `object.__setattr__` so that frozen configs work too."""
    for f in (f for f in fields(obj) if "rule" in f.metadata):
        kind, shape, coerce, optional = f.metadata["rule"]
        value = getattr(obj, f.name)
        if value is None and optional:
            continue
        if shape is dict:
            value = {k: check(f"{f.name}[{k!r}]", v, kind) for k, v in value.items()}
        else:
            value = check(f.name, value, kind, shape, coerce)
        object.__setattr__(obj, f.name, value)


def check(key: str, value, kind: Kind | None, shape=None, coerce=None):
    """`value` coerced, to a float, to a float array of `shape` or with
    `coerce`, and checked against `kind`; else ValueError naming `key`."""
    if kind is BOOL or kind is COUNT:
        integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        if not (isinstance(value, bool) if kind is BOOL else integer and 0 <= value):
            raise ValueError(f"{key} must be {kind.text}: {value!r}")
        return value
    try:
        if coerce is None:
            coerce = float if shape is None else lambda v: np.asarray(v, float).reshape(shape)
        v = coerce(value)
    except (TypeError, ValueError, OverflowError):
        what = kind.text if kind else f"a {coerce.__name__}"
        what = what if shape is None else f"{shape} values, each {what}"
        raise ValueError(f"{key} must be {what}: {value!r}") from None
    if kind is not None and not np.all((kind.lo <= v) & (v < kind.hi)):
        text = kind.text if np.isfinite(v).all() else FINITE.text
        raise ValueError(f"{key} must be {text}: {value}")
    return v
