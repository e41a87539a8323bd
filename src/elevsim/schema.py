"""One declarative rule per config field.

A field states its rule in its `dataclasses.field` metadata through `rule`.
A config subclasses `Validated`, whose `__post_init__` runs `validate` before
the class's own checks that relate two fields. `build` makes a config and its
sections from a mapping, checking each one's keys by `section`. Each numeric
kind is a half-open interval tested as `lo <= v < hi`, so NaN fails every
kind; an open lower or a closed upper bound moves to the adjacent float when
the kind is made. A value with a NaN or an infinity is reported as not
finite, any other as not its kind.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, field, fields, is_dataclass
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
PAIRS = "(a, b) pairs of"  # a shape: a list of two-number lists, kept as float pairs


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
    """`value` coerced, to a float, to a float array of `shape`, to a tuple of
    float pairs or with `coerce`, and checked against `kind`; else ValueError
    naming `key`."""
    if kind is BOOL or kind is COUNT:
        integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        if not (isinstance(value, bool) if kind is BOOL else integer and 0 <= value):
            raise ValueError(f"{key} must be {kind.text}: {value!r}")
        return value
    try:
        if shape is PAIRS:
            coerce = _pairs
        elif coerce is None:
            coerce = float if shape is None else lambda v: np.asarray(v, float).reshape(shape)
        v = coerce(value)
    except (TypeError, ValueError, OverflowError):
        what = kind.text if kind else f"a {coerce.__name__}"
        what = what if shape is None else f"{shape} values, each {what}"
        raise ValueError(f"{key} must be {what}: {value!r}") from None
    a = np.asarray(v)
    if kind is not None and not np.all((kind.lo <= a) & (a < kind.hi)):
        text = kind.text if np.isfinite(a).all() else FINITE.text
        raise ValueError(f"{key} must be {text}: {value}")
    return v


def _pairs(value) -> tuple[tuple[float, float], ...]:
    """A list of two-number lists as float pairs; a flat list is not one."""
    if not (isinstance(value, (list, tuple)) and all(isinstance(p, (list, tuple)) for p in value)):
        raise TypeError(f"not a list of pairs: {value!r}")
    return tuple((float(a), float(b)) for a, b in value)


def section(value, name: str, keys, error=ValueError) -> dict:
    """A copy of config section `name`: a mapping whose keys are among `keys`,
    names or a dataclass whose fields without a default (but for a list of
    sections) are required. A fault is `error`, naming the section and keys."""
    if not isinstance(value, dict):
        raise error(f"{name} must be a mapping, got {value!r}")
    required = []
    if isinstance(keys, type):
        required = [f.name for f in fields(keys)
                    if f.default is f.default_factory is MISSING and "sections" not in f.metadata]
        keys = [f.name for f in fields(keys)]
    unknown = sorted(set(value) - set(keys), key=str)  # YAML keys need not be strings
    if unknown:
        raise error(f"unknown {name} keys: {unknown}")
    missing = [key for key in required if key not in value]
    if missing:
        raise error(f"missing {name} keys: {missing}")
    return dict(value)


def build(cls, value, path: str = "", error=None):
    """Config dataclass `cls` (for a dict of them, the one that `value`'s
    `type` picks) from section `path`, the whole config if empty. A field whose
    default factory is a dataclass is sub-section `path.name`, and one with
    `sections` metadata (such a dict) a list of them, none if left out. A fault
    here or in a nested build is an `error` (`cls.error` or ValueError) whose
    text starts with its key path."""
    error = error or getattr(cls, "error", ValueError)
    if isinstance(cls, dict):
        names = sorted(cls)  # a list, so an unhashable type is not in it
        if not isinstance(value, dict) or value.get("type") not in names:
            raise error(f"{path} must be a mapping with a type in {names}: {value!r}")
        cls, value = cls[value["type"]], {k: v for k, v in value.items() if k != "type"}
    kwargs = section(value, path or "config", cls, error)
    for f in fields(cls):
        key = f"{path}.{f.name}" if path else f.name
        if is_dataclass(f.default_factory) and f.name in kwargs:
            kwargs[f.name] = build(f.default_factory, kwargs[f.name], key, error)
        elif "sections" in f.metadata:
            items = kwargs.get(f.name, [])
            if not isinstance(items, list):
                raise error(f"{key} must be a list: {items!r}")
            kwargs[f.name] = [build(f.metadata["sections"], item, f"{key}[{i}]", error)
                              for i, item in enumerate(items)]
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise (error(f"{path}.{e}") if path else e) from None
