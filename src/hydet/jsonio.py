"""Canonical JSON rendering for report and model files.

Output directories must be byte-identical across reruns, so every JSON
artifact is written with sorted keys, fixed separators and floats rendered
at 17 significant digits (the shortest width that round-trips any IEEE-754
double).  A numpy array is written as its ``.tolist()`` would be; a 2-D
float64 array is written one block of rows at a time, so that ``dump`` never
holds a large array as text.  No value is an array unless numpy is loaded,
so this module never imports it.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Any, Callable

from .errors import HydetError

#: rows of a float array rendered and written at once
_ROW_BLOCK = 1 << 12


def format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def _render(obj: Any, pad: str, write: Callable[[str], Any]) -> None:
    """Write the text of ``obj``, nested at indent ``pad``, with ``write``."""
    if obj is None:
        write("null")
    elif obj is True:
        write("true")
    elif obj is False:
        write("false")
    elif isinstance(obj, str):
        write(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, int):
        write(str(obj))
    elif isinstance(obj, float):
        write(format_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner = pad + "  "
        sep = "{\n"
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"non-string JSON key: {key!r}")
            write(f"{sep}{inner}{json.dumps(key, ensure_ascii=False)}: ")
            _render(obj[key], inner, write)
            sep = ",\n"
        write(f"\n{pad}}}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            write("[]")
            return
        inner = pad + "  "
        sep = "[\n"
        for value in obj:
            write(sep + inner)
            _render(value, inner, write)
            sep = ",\n"
        write(f"\n{pad}]")
    elif (np := sys.modules.get("numpy")) and isinstance(obj, np.ndarray):
        if obj.ndim == 2 and obj.dtype == np.float64:
            _render_float_matrix(obj, pad, write)
        else:
            _render(obj.tolist(), pad, write)
    else:
        # numpy scalars funnel through item() upstream; anything else here
        # is a bug in the caller.
        raise TypeError(f"unsupported JSON value type: {type(obj).__name__}")


def _render_float_matrix(rows, pad: str,
                         write: Callable[[str], Any]) -> None:
    """Write ``rows`` as ``_render`` writes ``rows.tolist()``, ``_ROW_BLOCK``
    rows at a time, so that no more than one block is ever text.  A block of
    finite values is rendered with one ``%`` template: ``%.17g`` gives
    ``format_float``'s digits for every finite double.  A block with a NaN or
    an infinite cell is rendered value by value."""
    if not rows.size:
        _render(rows.tolist(), pad, write)
        return
    inner = pad + "  "
    cell = f"\n{inner}  %.17g"
    row = f"{inner}[" + ",".join([cell] * rows.shape[1]) + f"\n{inner}]"
    sep = "[\n"
    for first in range(0, len(rows), _ROW_BLOCK):
        block = rows[first:first + _ROW_BLOCK]
        if sys.modules["numpy"].isfinite(block).all():
            write(sep)
            write(",\n".join([row] * len(block)) % tuple(block.ravel().tolist()))
        else:
            for values in block.tolist():
                write(sep + inner)
                _render(values, inner, write)
                sep = ",\n"
        sep = ",\n"
    write(f"\n{pad}]")


def dumps(obj: Any) -> str:
    out: list[str] = []
    _render(obj, "", out.append)
    out.append("\n")
    return "".join(out)


def dump(obj: Any, path: str | Path) -> None:
    """Write ``dumps(obj)`` to ``path``, streamed: a 2-D float array is
    rendered and written a block of rows at a time.  If rendering or
    writing fails, the partial file is removed before the error goes on."""
    fh = open(path, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            _render(obj, "", fh.write)
            fh.write("\n")
    except BaseException:
        Path(path).unlink()
        raise


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
