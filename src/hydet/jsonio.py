"""Canonical JSON rendering for report and model files.

Output directories must be byte-identical across reruns, so every JSON
artifact is written with sorted keys, fixed separators and floats rendered
at 17 significant digits (the shortest width that round-trips any IEEE-754
double).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from .errors import HydetError


def format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def _render(obj: Any, indent: int) -> str:
    pad = " " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"non-string JSON key: {key!r}")
            items.append(f'{pad}  {json.dumps(key, ensure_ascii=False)}: '
                         f"{_render(obj[key], indent + 2)}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{pad}  {_render(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    # numpy scalars and arrays funnel through item()/tolist() upstream;
    # anything else here is a bug in the caller.
    raise TypeError(f"unsupported JSON value type: {type(obj).__name__}")


def dumps(obj: Any) -> str:
    return _render(obj, 0) + "\n"


def dump(obj: Any, path: str | Path) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8", newline="\n")


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load(path: str | Path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise HydetError(f"{path}: invalid JSON: {exc}") from None
        except ValueError as exc:  # a duplicate key, an over-long integer, bad UTF-8
            raise HydetError(f"{path}: {exc}") from None
