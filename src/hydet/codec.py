"""Type-directed JSON codec: config files and every saved payload.

A value is read off its dataclass's fields and type hints, so each key is
written once, on the dataclass. Unknown keys are rejected at every nesting
level and a field without a default must be present. A finite JSON number
is accepted for a ``float`` (``NaN`` and ``Infinity`` are not); an ``int``,
``str`` or ``bool`` needs exactly that JSON type; a list reads as a tuple (a
list of numbers, or of number lists, in one pass), an object as a mapping
or a dataclass, and for a union of dataclasses as the member whose field
names are its keys; ``null`` only where the hint allows ``None``. A
``ClassLabel``, as a mapping key or as a value, is written as its display
name and read via ``ClassLabel.from_name``. Any bad value, or
``TypeError``/``ValueError`` from a dataclass's own checks, is a
``ConfigError`` naming its key path as written; ``from_file`` reports it as
a ``ModelFormatError`` that names the file too.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import MISSING, fields, is_dataclass
from itertools import chain
from types import NoneType, UnionType
from typing import Any, Union, get_args, get_origin, get_type_hints

from .dataset.model import ClassLabel
from .errors import ConfigError, ModelFormatError

_JSON_NAMES = {tuple: "a list", Mapping: "an object", float: "a number",
               int: "an integer", str: "a string", bool: "true or false"}
_NUMBER_TYPES = {float: {int, float}, int: {int}}  # hint -> JSON value types


def to_json(value: Any) -> Any:
    """JSON form of a dataclass value; ``from_json`` reads it back. numpy
    arrays and scalars write through ``.tolist()``."""
    if is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, ClassLabel):
        return value.display_name
    if isinstance(value, Mapping):
        return {to_json(k): to_json(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [to_json(v) for v in value]
    return value.tolist() if hasattr(value, "tolist") else value


def from_json(hint: Any, value: Any, path: str) -> Any:
    """The value of type ``hint`` spelled by the JSON ``value`` at key ``path``
    (``""`` for the top of a file)."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType):
        if value is None and NoneType in args:
            return None
        members = [a for a in args if a is not NoneType]
        if len(members) > 1:  # dataclasses: the one whose fields are the keys
            keys = [sorted(f.name for f in fields(m)) for m in members]
            if not isinstance(value, dict) or sorted(value) not in keys:
                got = sorted(value) if isinstance(value, dict) else value
                raise _error(path, f"expected an object with keys "
                                   f"{' or '.join(map(str, keys))}, got {got!r}")
            members = [members[keys.index(sorted(value))]]
        hint = members[0]
        origin, args = get_origin(hint), get_args(hint)
    if is_dataclass(hint):
        return _build(hint, _fields_from_json(hint, value, path,
                                              {f.name: f.name for f in fields(hint)}),
                      path)
    if origin is tuple and isinstance(value, list):
        numbers = _numbers(args, value)
        if numbers is not None:
            return numbers
        hints = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(hints) != len(value):
            raise _error(path, f"expected {len(hints)} items, got {value!r}")
        return tuple(from_json(h, v, f"{path}[{i}]")
                     for i, (h, v) in enumerate(zip(hints, value)))
    if origin is Mapping and isinstance(value, dict):
        key_hint, value_hint = args
        return {_key(key_hint, k, path): from_json(value_hint, v, _at(path, k))
                for k, v in value.items()}
    if hint is float and type(value) in (int, float):
        try:
            number = float(value)
        except OverflowError:  # an integer literal beyond float range
            pass
        else:
            if math.isfinite(number):
                return number
            raise _error(path, f"expected a finite number, got {value!r}")
    if hint in (int, str, bool) and type(value) is hint:
        return value
    if hint is ClassLabel:
        return _key(hint, value, path)
    raise _error(path, f"expected {_JSON_NAMES[origin or hint]}, got {value!r}")


def from_file(hint: Any, value: Any, file: Any, path: str = "") -> Any:
    """``from_json`` of the JSON ``value`` read from ``file``: a bad value is
    a data error, ``ModelFormatError`` "<file>: <key path>: <message>"."""
    try:
        return from_json(hint, value, path)
    except ConfigError as exc:
        raise ModelFormatError(f"{file}: {exc}") from None


def _numbers(args: tuple, value: list) -> tuple | None:
    """``value`` as ``tuple[N, ...]`` or ``tuple[tuple[N, ...], ...]`` for N
    ``float`` or ``int``, checked in one pass; None where that does not
    apply or an item is bad, which the item-by-item path then names.  A sum
    of floats is finite only if every float is, so one ``sum`` checks that
    no item is ``NaN`` or infinite; finite items whose sum overflows take
    the item-by-item path too."""
    inner = get_args(args[0])
    rows = inner[-1:] == (Ellipsis,)
    kind = inner[0] if rows else args[0]
    if args[-1] is not Ellipsis or kind not in _NUMBER_TYPES \
            or rows and not {type(r) for r in value} <= {list}:
        return None
    if {type(v) for v in (chain.from_iterable(value) if rows else value)} \
            <= _NUMBER_TYPES[kind]:
        try:
            numbers = tuple(tuple(map(kind, r)) for r in value) if rows \
                else tuple(map(kind, value))
        except OverflowError:
            return None
        if kind is int or math.isfinite(sum(map(sum, numbers)) if rows
                                        else sum(numbers)):
            return numbers
    return None


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _error(path: str, message: str) -> ConfigError:
    return ConfigError(f"{path}: {message}" if path else message)


def _key(hint: Any, key: str, path: str) -> Any:
    if hint is not ClassLabel:
        return key
    try:
        return ClassLabel.from_name(key)
    except ValueError as exc:
        raise _error(path, str(exc)) from None


def _fields_from_json(cls: type, value: Any, path: str,
                      keys: Mapping[str, str]) -> dict:
    """Constructor arguments of ``cls`` from the JSON object ``value``, whose
    keys name fields through ``keys``."""
    if not isinstance(value, dict):
        raise _error(path, f"expected an object, got {value!r}")
    unknown = sorted(_at(path, k) for k in set(value) - set(keys))
    if unknown:
        raise ConfigError(f"unknown keys {unknown}")
    hints = get_type_hints(cls)
    return {keys[k]: from_json(hints[keys[k]], v, _at(path, k))
            for k, v in value.items()}


def _build(cls: type, kwargs: dict, path: str) -> Any:
    missing = [f.name for f in fields(cls) if f.name not in kwargs
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise _error(path, f"missing required keys {missing}")
    try:
        return cls(**kwargs)
    except (ConfigError, TypeError, ValueError) as exc:
        raise _error(path, str(exc)) from None
