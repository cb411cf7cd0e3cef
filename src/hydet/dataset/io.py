"""Instance CSV ingestion/serialization and directory manifests.

Instance files are UTF-8 CSV with header ``timestamp,<var1>,...[,class]``.
Timestamps are either integer epoch seconds, read into an int64 array, or
ISO-8601 strings, read into a tuple of ``datetime``; the kind is auto-detected
per file and required to be uniform within a file. Empty cells and the
literal tokens ``NaN``/``nan`` are missing readings; any other cell must parse
to a finite float.

Reading a file takes one ``np.loadtxt`` call. The header is read with
``csv.reader`` as always; the body below it is parsed in one pass (empty
cells filled with ``nan``) when it holds only the characters
``0123456789.,-+eE`` and LF line ends, without a blank line. Any other
character (letters, spaces, quotes, CR), a blank line, a parse error, a
timestamp or class cell that is not an integer, an infinite value such as
``1e999``, a class column that changes, or a label that does not check sends
the file to the row loop, which parses it cell by cell and raises the error
that names file, row and column. That loop is only the error path: it gives
the same instance as the one-pass parse wherever both accept a file.

Writing renders every row with one ``%`` template and then blanks the NaN
cells, so the floats have ``jsonio.format_float``'s 17 significant digits.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import warnings
from datetime import datetime
from pathlib import Path
from typing import BinaryIO, Mapping

import numpy as np

from ..errors import CsvFormatError, EmptyDataError, HydetError, LabelConflictError
from .model import ClassLabel, DatasetManifest, ManifestEntry, TimeSeriesInstance

logger = logging.getLogger(__name__)

#: directory name -> class label, the on-disk corpus layout
CLASS_DIRS = {
    "0_normal": ClassLabel.NORMAL,
    "1_rapid_loss": ClassLabel.RAPID_LOSS,
    "2_hydrate": ClassLabel.HYDRATE,
}

_MISSING_TOKENS = {"", "NaN", "nan"}

_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1

Timestamp = int | datetime

#: any other character in a file body sends it to the row loop
_TABLE_CHARS = b"0123456789.,-+eE\n"

#: what ends the one-pass parse: numpy's parse errors (numpy 1.x warns,
#: made an error here, where it reads an integer column through a float)
#: and every error of the checks that follow it
_NOT_A_TABLE = (HydetError, ValueError, Warning)


def _parse_timestamp(token: str, where: str) -> tuple[Timestamp, str]:
    """Returns (value, kind) with kind in {'epoch', 'iso'}."""
    try:
        value = int(token)
    except ValueError:
        pass
    else:
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise CsvFormatError(f"{where}: timestamp {token!r} is outside the "
                                 "int64 range")
        return value, "epoch"
    try:
        return datetime.fromisoformat(token.replace("Z", "+00:00")), "iso"
    except ValueError:
        raise CsvFormatError(f"{where}: bad timestamp {token!r} "
                             "(need integer epoch seconds or ISO-8601)") from None


def _parse_label_token(token: str, label_map: Mapping[int, ClassLabel] | None,
                       where: str) -> ClassLabel:
    try:
        code = int(token)
    except ValueError:
        raise CsvFormatError(f"{where}: class cell {token!r} is not an integer") from None
    if label_map is not None:
        if code not in label_map:
            raise CsvFormatError(f"{where}: class code {code} not in label map")
        return label_map[code]
    try:
        return ClassLabel(code)
    except ValueError:
        raise CsvFormatError(f"{where}: class code {code} outside 0..2 and no "
                             "label map supplied") from None


def load_instance_csv(source: str | Path | BinaryIO,
                      instance_id: str,
                      label: ClassLabel | None = None,
                      label_map: Mapping[int, ClassLabel] | None = None,
                      ) -> TimeSeriesInstance:
    """Parse one instance file.

    ``label`` may be omitted when the file carries a ``class`` column; if
    both are present they must agree. ``label_map`` translates foreign class
    codes in the file to the local labels.
    """
    if isinstance(source, (str, Path)):
        name = str(source)
        with open(source, "rb") as fh:
            raw = fh.read()
    else:
        name = instance_id
        raw = source.read()

    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{name}: not valid UTF-8 ({exc})") from None
    # Freed early, as is the filled text in _load_table: reading the
    # 615,000-row benchmark corpus otherwise left ~1.5 MiB more heap in holes.
    del raw

    try:
        return _load_table(name, text, instance_id, label, label_map)
    except _NOT_A_TABLE:
        # the row loop reads the file again and raises the error that names
        # its row and column, or accepts what the one-pass parse would not
        return _load_rows(name, text, instance_id, label, label_map)


def _load_table(name: str, text: str, instance_id: str,
                label: ClassLabel | None,
                label_map: Mapping[int, ClassLabel] | None) -> TimeSeriesInstance:
    """Parse the whole body with one ``np.loadtxt``; raise where unsure.

    Only a body of digits, signs, points, exponents, commas and LF line ends
    is tried, so every token numpy accepts but the row loop rejects (``NAN``,
    ``inf``, ISO timestamps) stays out; ``1e999`` reads as infinite, which
    ``TimeSeriesInstance`` rejects. Empty cells are filled with ``nan``.
    """
    stream = io.StringIO(text, newline="")
    var_names, has_class = _read_header(name, csv.reader(stream))
    body = text[stream.tell():]
    if not body or not body.isascii() or body.encode().translate(None, _TABLE_CHARS):
        raise ValueError("not a plain numeric table")
    if ",," in body:
        body = body.replace(",,", ",nan,").replace(",,", ",nan,")
    body = body.replace(",\n", ",nan\n")
    if body[-1] == ",":
        body += "nan"
    # One row per line: a blank line, which loadtxt skips, fails the row
    # count below. Allocated before the parse, below its buffers: a copy made
    # after it sat above the freed table, and the heap kept ~19 MiB of such
    # holes after reading the 615,000-row benchmark corpus.
    values = np.empty((body.count("\n") + (body[-1] != "\n"), len(var_names)))
    stamps = np.empty(len(values), dtype=np.int64)
    fields = [("t", np.int64), ("v", np.float64, (len(var_names),))]
    if has_class:
        fields.append(("c", np.int64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = np.loadtxt(io.StringIO(body), dtype=np.dtype(fields), delimiter=",",
                           ndmin=1)
    del body
    if table.shape != values.shape[:1]:
        raise ValueError("row count")
    values[...] = table["v"]
    stamps[...] = table["t"]
    file_label = None
    if has_class:
        codes = table["c"]
        if (codes != codes[0]).any():
            raise ValueError("class column changes")
        file_label = _parse_label_token(str(codes[0]), label_map, name)
    return _instance(name, instance_id, label, file_label,
                     stamps, var_names, values)


def _load_rows(name: str, text: str, instance_id: str,
               label: ClassLabel | None,
               label_map: Mapping[int, ClassLabel] | None) -> TimeSeriesInstance:
    """Parse the file row by row and cell by cell, naming any bad cell."""
    reader = csv.reader(io.StringIO(text, newline=""))
    var_names, has_class = _read_header(name, reader)
    width = len(var_names) + 1 + has_class

    timestamps: list[Timestamp] = []
    rows: list[list[float]] = []
    file_label: ClassLabel | None = None
    ts_kind: str | None = None

    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != width:
            raise CsvFormatError(f"{name} row {row_no}: {len(row)} fields, "
                                 f"expected {width}")
        where = f"{name} row {row_no}"
        ts, kind = _parse_timestamp(row[0].strip(), where)
        if ts_kind is None:
            ts_kind = kind
        elif kind != ts_kind:
            raise CsvFormatError(f"{where}: timestamp format changes mid-file "
                                 f"({ts_kind} then {kind})")
        timestamps.append(ts)

        cells = []
        for j, cell in enumerate(row[1:len(var_names) + 1]):
            cell = cell.strip()
            if cell in _MISSING_TOKENS:
                cells.append(math.nan)
                continue
            try:
                value = float(cell)
            except ValueError:
                raise CsvFormatError(f"{where}, column {var_names[j]!r}: "
                                     f"bad numeric cell {cell!r}") from None
            if not math.isfinite(value):
                raise CsvFormatError(f"{where}, column {var_names[j]!r}: "
                                     f"non-finite numeric cell {cell!r}")
            cells.append(value)
        rows.append(cells)

        if has_class:
            row_label = _parse_label_token(row[-1].strip(), label_map, where)
            if file_label is None:
                file_label = row_label
            elif row_label != file_label:
                raise CsvFormatError(f"{where}: class column changes from "
                                     f"{file_label.name} to {row_label.name}")

    if not timestamps:
        raise EmptyDataError(f"{name}: header but zero data rows")
    stamps = np.array(timestamps, dtype=np.int64) if ts_kind == "epoch" \
        else tuple(timestamps)
    return _instance(name, instance_id, label, file_label, stamps, var_names,
                     np.array(rows, dtype=np.float64))


def _read_header(name: str, reader) -> tuple[list[str], bool]:
    """Read the header row; returns the variable names and whether a
    ``class`` column ends it."""
    try:
        header = next(reader)
    except StopIteration:
        raise CsvFormatError(f"{name}: empty file") from None

    header = [h.strip() for h in header]
    if not header or header[0] != "timestamp":
        raise CsvFormatError(f"{name}: first header column must be 'timestamp', "
                             f"got {header[0] if header else '<none>'!r}")
    has_class = bool(header) and header[-1] == "class"
    var_names = header[1:-1] if has_class else header[1:]
    if not var_names:
        raise CsvFormatError(f"{name}: no sensor variable columns in header")
    dupes = {v for v in var_names if var_names.count(v) > 1}
    if dupes:
        raise CsvFormatError(f"{name}: duplicate channel names {sorted(dupes)}")
    return var_names, has_class


def _instance(name: str, instance_id: str, label: ClassLabel | None,
              file_label: ClassLabel | None,
              timestamps: np.ndarray | tuple[datetime, ...],
              var_names: list[str], values: np.ndarray) -> TimeSeriesInstance:
    if label is not None and file_label is not None and label != file_label:
        raise LabelConflictError(f"{name}: class column says {file_label.name} "
                                 f"but caller passed {label.name}")
    final_label = label if label is not None else file_label
    if final_label is None:
        raise LabelConflictError(f"{name}: no class column and no label argument")

    return TimeSeriesInstance(
        instance_id=instance_id,
        label=final_label,
        timestamps=timestamps,
        variable_names=tuple(var_names),
        values=values,
    )


def write_instance_csv(instance: TimeSeriesInstance, dest: str | Path,
                       include_class: bool = True) -> None:
    """Write an instance so that re-loading reproduces it exactly.

    Floats are rendered at 17 significant digits (bit round-trip); missing
    cells are empty fields.
    """
    header = ("timestamp," + ",".join(instance.variable_names)
              + (",class" if include_class else ""))
    stamps = instance.timestamps
    if isinstance(stamps[0], datetime):  # a file's timestamps are all of one kind
        stamps = [ts.isoformat() for ts in stamps]
    rows = _format_rows(stamps, instance.values,
                        int(instance.label) if include_class else None)
    Path(dest).write_text(header + "\n" + rows, encoding="utf-8", newline="\n")


def write_matrix_csv(matrix, dest: str | Path) -> None:
    """Labeled flattened rows as CSV (plot-ready scatter-point export).

    Columns: instance_id, t_index, one column per channel, label.
    """
    header = "instance_id,t_index," + ",".join(matrix.column_names) + ",label\n"
    rows = _format_rows(matrix.origin[:, 1], matrix.values, matrix.labels)
    ids = [matrix.instance_ids[i] for i in matrix.origin[:, 0].tolist()]
    # the ids join last, so that blanking NaN cells cannot reach into them
    Path(dest).write_text(
        header + "".join(f"{i},{row}\n" for i, row in zip(ids, rows.split("\n"))),
        encoding="utf-8", newline="\n")


def _format_rows(first, values: np.ndarray, last=None) -> str:
    """CSV lines ``<first>,<value>,...[,<last>]`` from one ``%`` template.

    ``first`` and ``last`` are columns (``last`` may be one value for every
    row) written with ``str``. Values are written as ``jsonio.format_float``
    writes them: ``%.17g`` gives its digits for every finite double, a NaN
    cell is left empty and an infinite one is spelled ``Infinity``.
    """
    n_rows, n_cols = values.shape
    cells = np.empty((n_rows, n_cols + 1 + (last is not None)), dtype=object)
    cells[:, 0] = first
    cells[:, 1:n_cols + 1] = values
    if last is not None:
        cells[:, -1] = last
    line = "%s" + ",%.17g" * n_cols + (",%s" if last is not None else "") + "\n"
    text = (line * n_rows) % tuple(cells.ravel().tolist())
    text = text.replace(",nan", ",")
    if np.isinf(values).any():
        text = text.replace(",inf", ",Infinity").replace(",-inf", ",-Infinity")
    return text


def build_manifest(root: str | Path) -> DatasetManifest:
    """Inventory a folder-per-class corpus.

    ``root`` holds ``0_normal/``, ``1_rapid_loss/`` and ``2_hydrate/`` with
    one CSV per instance; unknown subdirectories are skipped with a warning.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"dataset root {root} does not exist")

    entries: list[ManifestEntry] = []
    counts = {label: 0 for label in ClassLabel}

    for sub in sorted(p for p in root.iterdir() if p.is_dir()):
        label = CLASS_DIRS.get(sub.name)
        if label is None:
            logger.warning("skipping unknown class directory %s", sub)
            continue
        for path in sorted(sub.glob("*.csv")):
            rel = path.relative_to(root).as_posix()
            entries.append(ManifestEntry(
                id=f"{sub.name}/{path.stem}", path=rel, label=label))
            counts[label] += 1

    return DatasetManifest(instances=tuple(entries), class_counts=counts)


def load_instances(root: str | Path, manifest: DatasetManifest,
                   label_map: Mapping[int, ClassLabel] | None = None,
                   ) -> list[TimeSeriesInstance]:
    """Load every instance listed in a manifest, labeled by its directory."""
    root = Path(root)
    return [
        load_instance_csv(root / e.path, e.id, e.label, label_map)
        for e in manifest.instances
    ]
