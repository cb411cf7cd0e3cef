"""Instance CSV ingestion/serialization and directory manifests.

Instance files are UTF-8 CSV with header ``timestamp,<var1>,...[,class]``.
Timestamps are either integer epoch seconds or ISO-8601 strings, auto-detected
per file and required to be uniform within a file. Empty cells and the
literal tokens ``NaN``/``nan`` are missing readings; any other cell must parse
to a finite float.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from datetime import datetime
from pathlib import Path
from typing import BinaryIO, Mapping

import numpy as np

from ..errors import (CsvFormatError, EmptyDataError, LabelConflictError)
from ..jsonio import format_float
from .model import ClassLabel, DatasetManifest, ManifestEntry, TimeSeriesInstance, Timestamp

logger = logging.getLogger(__name__)

#: directory name -> class label, the on-disk corpus layout
CLASS_DIRS = {
    "0_normal": ClassLabel.NORMAL,
    "1_rapid_loss": ClassLabel.RAPID_LOSS,
    "2_hydrate": ClassLabel.HYDRATE,
}

_MISSING_TOKENS = {"", "NaN", "nan"}


def _parse_timestamp(token: str, where: str) -> tuple[Timestamp, str]:
    """Returns (value, kind) with kind in {'epoch', 'iso'}."""
    try:
        return int(token), "epoch"
    except ValueError:
        pass
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

    reader = csv.reader(io.StringIO(text, newline=""))
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

    timestamps: list[Timestamp] = []
    rows: list[list[float]] = []
    file_label: ClassLabel | None = None
    ts_kind: str | None = None

    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise CsvFormatError(f"{name} row {row_no}: {len(row)} fields, "
                                 f"expected {len(header)}")
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

    if label is not None and file_label is not None and label != file_label:
        raise LabelConflictError(f"{name}: class column says {file_label.name} "
                                 f"but caller passed {label.name}")
    final_label = label if label is not None else file_label
    if final_label is None:
        raise LabelConflictError(f"{name}: no class column and no label argument")

    return TimeSeriesInstance(
        instance_id=instance_id,
        label=final_label,
        timestamps=tuple(timestamps),
        variable_names=tuple(var_names),
        values=np.array(rows, dtype=np.float64),
    )


def write_instance_csv(instance: TimeSeriesInstance, dest: str | Path,
                       include_class: bool = True) -> None:
    """Write an instance so that re-loading reproduces it exactly.

    Floats are rendered at 17 significant digits (bit round-trip); missing
    cells are empty fields.
    """
    lines = ["timestamp," + ",".join(instance.variable_names)
             + (",class" if include_class else "")]
    label = f",{int(instance.label)}" if include_class else ""
    for ts, row in zip(instance.timestamps, instance.values.tolist()):
        ts_txt = ts.isoformat() if isinstance(ts, datetime) else str(ts)
        lines.append(",".join([ts_txt, *_format_cells(row)]) + label)
    Path(dest).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_matrix_csv(matrix, dest: str | Path) -> None:
    """Labeled flattened rows as CSV (plot-ready scatter-point export).

    Columns: instance_id, t_index, one column per channel, label.
    """
    lines = ["instance_id,t_index," + ",".join(matrix.column_names) + ",label"]
    for (inst, t), row, label in zip(matrix.origin.tolist(), matrix.values.tolist(),
                                     matrix.labels.tolist()):
        lines.append(",".join([matrix.instance_ids[inst], str(t),
                               *_format_cells(row), str(label)]))
    Path(dest).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _format_cells(values: list[float]) -> list[str]:
    return ["" if math.isnan(v) else format_float(v) for v in values]


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
