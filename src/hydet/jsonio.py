"""Canonical JSON rendering for report and model files.

Output directories must be byte-identical across reruns, so every JSON
artifact is written with sorted keys, fixed separators and floats rendered
at 17 significant digits (the shortest width that round-trips any IEEE-754
double).
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path
from typing import Any

from .errors import HydetError


def format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def _render(obj: Any, pad: str, out: list[str]) -> None:
    """Append the text of ``obj``, nested at indent ``pad``, to ``out``."""
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n"
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"non-string JSON key: {key!r}")
            out.append(f"{sep}{inner}{json.dumps(key, ensure_ascii=False)}: ")
            _render(obj[key], inner, out)
            sep = ",\n"
        out.append(f"\n{pad}}}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
        elif not _render_float_rows(obj, pad, out):
            inner = pad + "  "
            sep = "[\n"
            for value in obj:
                out.append(sep + inner)
                _render(value, inner, out)
                sep = ",\n"
            out.append(f"\n{pad}]")
    else:
        # numpy scalars and arrays funnel through item()/tolist() upstream;
        # anything else here is a bug in the caller.
        raise TypeError(f"unsupported JSON value type: {type(obj).__name__}")


def _render_float_rows(rows: list | tuple, pad: str, out: list[str]) -> bool:
    """Render a list of equal-length lists of finite floats with one ``%``
    template, as ``_render`` would; returns False for anything else.

    ``%.17g`` gives ``format_float``'s digits for every finite double.
    """
    if not set(map(type, rows)) <= {list, tuple}:
        return False
    widths = set(map(len, rows))
    if len(widths) != 1 or 0 in widths:
        return False
    values = list(chain.from_iterable(rows))
    if set(map(type, values)) != {float} or not math.isfinite(sum(values)):
        return False  # a sum that overflows only costs the fast path
    cell = f"\n{pad}    %.17g"
    row = f"{pad}  [" + ",".join([cell] * widths.pop()) + f"\n{pad}  ]"
    out.append("[\n" + ",\n".join([row] * len(rows)) % tuple(values) + f"\n{pad}]")
    return True


def dumps(obj: Any) -> str:
    out: list[str] = []
    _render(obj, "", out)
    out.append("\n")
    return "".join(out)


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
        except RecursionError:
            raise HydetError(f"{path}: invalid JSON: nested too deeply") from None
        except ValueError as exc:  # a duplicate key, an over-long integer, bad UTF-8
            raise HydetError(f"{path}: {exc}") from None
