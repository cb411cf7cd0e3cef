"""Instance CSV ingestion/serialization and directory manifests.

Instance files are UTF-8 CSV with header ``timestamp,<var1>,...[,class]``.
Timestamps are either integer epoch seconds, read into an int64 array, or
ISO-8601 strings, read into a tuple of ``datetime``; the kind is auto-detected
per file and required to be uniform within a file (ISO stamps with a UTC
offset are a kind apart from those without). Empty cells and the
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
that names file, row and column. That loop also reads every file the one-pass
parse does not try, ISO-stamped files among them, and it gives the same
instance as the one-pass parse wherever both accept a file.

Writing renders every row with one ``%`` template and then blanks the NaN
cells, so the floats have ``jsonio.format_float``'s 17 significant digits.

``load_matrix`` and ``write_instances`` run their per-file loop on every
CPU this process may use once the files are large enough (``_fan_out``): one
process per CPU, but none for less than ``_SHARE_FLOOR_BYTES`` (8 MiB) of CSV
text, a file to write being sized at 23 bytes per value. A reading child
sends each file's selected values and label as the result's pickle, then the
raw bytes of its array, which this process reads into an array it allocates;
results are handed on in file order. The outcome is always the serial
loop's: after a failure anywhere, that loop runs on from the first file whose
result was not handed on. ``load_instances`` reads its files serially.

``load_matrix`` is how the CLI reads a corpus: ``flatten``'s fill copies each
file's selected channels into the matrix as they come, so no instance
outlives its file; on the long dirty corpus ingest ends at ~57 MiB peak RSS
where loading the instances and then flattening them reached ~80 MiB.

The floor comes from ``hydet pipeline --models dt,nb`` and ``hydet synth``
forced to fork, against the serial loop, in alternating runs on a 2-CPU VM:
reading lost 0.12-0.14 s on the 5.7 MB default corpus, was even to 0.12 s
ahead at 11.2 MB and 0.05-0.17 s ahead at 22 MB; writing lost 0.07 s at
5.7 MB and gained 0.17 s at 11.2 MB. So the default corpus stays serial.
On the benchmark's 53.8 MB long dirty corpus (two processes), the medians of
10 alternating pairs took ``hydet synth`` from 3.02 to 1.67 s and ``hydet
pipeline`` from 4.64 to 3.97 s. Fixed contiguous shares, one per process,
left this process waiting up to 0.5 s for a child whose CPU other work was
using. Instances sent as whole pickles, arrays in them, raised that
pipeline's peak RSS from 104.8 to ~111 MiB when the CLI still held every
instance before flattening them.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import os
import pickle
import sys
import warnings
from datetime import datetime
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import CsvFormatError, EmptyDataError, HydetError, LabelConflictError
from .model import (ClassLabel, DatasetManifest, FeatureMatrix, ManifestEntry,
                    TimeSeriesInstance, check_header_names)
from .transform import _MatrixRows

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

#: the per-file loops take one process per CPU, but one only for each this
#: many bytes of CSV text (the break-even is in the module docstring)
_SHARE_FLOOR_BYTES = 8 << 20

#: CSV text per value when a written file is sized for the floor: the
#: default corpus writes 5.7 MB for its 246,000 values
_TEXT_BYTES_PER_VALUE = 23

#: any other character in a file body sends it to the row loop
_TABLE_CHARS = b"0123456789.,-+eE\n"

#: what ends the one-pass parse: numpy's parse errors (numpy 1.x warns,
#: made an error here, where it reads an integer column through a float)
#: and every error of the checks that follow it
_NOT_A_TABLE = (HydetError, ValueError, Warning)


def _parse_timestamp(token: str, where: str) -> tuple[Timestamp, str]:
    """Returns (value, kind) with kind in {'epoch', 'iso', 'iso-offset'}:
    ISO stamps with and without a UTC offset cannot be ordered together."""
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
        stamp = datetime.fromisoformat(token.replace("Z", "+00:00"))
    except ValueError:
        raise CsvFormatError(f"{where}: bad timestamp {token!r} "
                             "(need integer epoch seconds or ISO-8601)") from None
    return stamp, "iso" if stamp.utcoffset() is None else "iso-offset"


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
    body = _fill_missing(body)
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


def _fill_missing(body: str) -> str:
    """``body`` with ``nan`` in every empty cell.

    Three ``str.replace`` scans (the second fills every other cell of a run
    of empty cells), which give what one ``re.sub`` of ``,(?=,|\\n|\\Z)``
    gives. The ``re.sub`` takes half the CPU (0.15 against 0.31 s over the
    long dirty corpus's bodies), but it raised that pipeline's peak RSS in 8
    of 10 paired benchmark runs (median +0.055 MiB), so the scans stay.
    """
    if ",," in body:
        body = body.replace(",,", ",nan,").replace(",,", ",nan,")
    body = body.replace(",\n", ",nan\n")
    if body.endswith(","):
        body += "nan"
    return body


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
    try:  # a channel that the CSV writers would refuse
        check_header_names(var_names, CsvFormatError)
    except CsvFormatError as exc:
        raise CsvFormatError(f"{name}: {exc}") from None
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


def write_instance_csv(instance: TimeSeriesInstance, dest: str | Path) -> None:
    """Write an instance so that re-loading reproduces it exactly.

    Floats are rendered at 17 significant digits (bit round-trip); missing
    cells are empty fields.
    """
    check_header_names(instance.variable_names)
    header = "timestamp," + ",".join(instance.variable_names) + ",class"
    stamps = instance.timestamps
    if isinstance(stamps[0], datetime):  # a file's timestamps are all of one kind
        stamps = [ts.isoformat() for ts in stamps]
    rows = _format_rows(stamps, instance.values, int(instance.label))
    Path(dest).write_text(header + "\n" + rows, encoding="utf-8", newline="\n")


def write_matrix_csv(matrix, dest: str | Path) -> None:
    """Labeled flattened rows as CSV (plot-ready scatter-point export).

    Columns: instance_id, t_index, one column per channel, label. An id
    that holds a comma, a double quote, CR or LF is quoted as RFC 4180 says,
    its quotes doubled; every other id is written as it is.
    """
    check_header_names(matrix.column_names)
    header = "instance_id,t_index," + ",".join(matrix.column_names) + ",label\n"
    origin = matrix._origin_for("the points export")
    rows = _format_rows(origin[:, 1], matrix.values, matrix.labels)
    fields = ['"' + i.replace('"', '""') + '"' if any(c in i for c in ',"\r\n') else i
              for i in matrix.instance_ids]
    ids = [fields[i] for i in origin[:, 0].tolist()]
    # the ids join last, so that blanking NaN cells cannot reach into them
    Path(dest).write_text(
        header + "".join(f"{i},{row}\n" for i, row in zip(ids, rows.split("\n"))),
        encoding="utf-8", newline="\n")


def _format_rows(first, values: np.ndarray, last) -> str:
    """CSV lines ``<first>,<value>,...,<last>`` from one ``%`` template.

    ``first`` and ``last`` are columns (``last`` may be one value for every
    row) written with ``str``. Values are written as ``jsonio.format_float``
    writes them: ``%.17g`` gives its digits for every finite double, a NaN
    cell is left empty and an infinite one is spelled ``Infinity``.
    """
    n_rows, n_cols = values.shape
    cells = np.empty((n_rows, n_cols + 2), dtype=object)
    cells[:, 0] = first
    cells[:, 1:n_cols + 1] = values
    cells[:, -1] = last
    line = "%s" + ",%.17g" * n_cols + ",%s\n"
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
    """Load every instance listed in a manifest, labeled by its directory,
    one file after another."""
    root = Path(root)
    return [load_instance_csv(root / e.path, e.id, e.label, label_map)
            for e in manifest.instances]


def load_matrix(root: str | Path, manifest: DatasetManifest,
                variables: Sequence[str]) -> FeatureMatrix:
    """``flatten(load_instances(root, manifest), variables)``, bit for bit
    and with its errors, by ``flatten``'s fill, without holding the
    instances. The arrays start sized at the rows per byte of the files read
    so far, with a tenth to spare. Only each file's selected values and label
    cross the fan-out's pipe."""
    root, entries = Path(root), manifest.instances
    sizes = [os.path.getsize(root / e.path) for e in entries]
    rows = _MatrixRows(variables, tuple(e.id for e in entries),
                       lambda n_rows, placed:
                       n_rows * sum(sizes) // sum(sizes[:placed]) * 11 // 10 + 1)

    def read(index: int):
        entry = entries[index]
        return rows.channels(load_instance_csv(root / entry.path, entry.id, entry.label))

    _fan_out(read, range(len(entries)), sizes.__getitem__, rows.place)
    return rows.matrix()


def header_channels(root: str | Path, manifest: DatasetManifest) -> Iterator[list[str]]:
    """Each file's channels, read off its header alone, in manifest order;
    where a header does not read, ``[]`` ends them, since loading that file
    then raises the error that names it."""
    root = Path(root)
    for entry in manifest.instances:
        try:
            with open(root / entry.path, encoding="utf-8", newline="") as fh:
                names = _read_header(entry.path, csv.reader(fh))[0]
        except (HydetError, ValueError):
            yield []
            return
        yield names


def write_instances(instances: Sequence[TimeSeriesInstance],
                    root: str | Path) -> None:
    """Write a corpus in the layout ``build_manifest`` reads: each instance
    to ``<root>/<its class directory>/<last part of its id>.csv``.

    Before writing anything, raises ``HydetError`` if two instances map to
    one file or a class directory holds a ``.csv`` that this would not write.
    """
    root = Path(root)
    dir_of = {label: root / name for name, label in CLASS_DIRS.items()}
    jobs = [(inst, dir_of[inst.label] / f"{inst.instance_id.split('/')[-1]}.csv")
            for inst in instances]
    id_of: dict[Path, str] = {}
    for inst, path in jobs:
        if path in id_of:
            raise HydetError(f"{path}: instances {id_of[path]} and "
                             f"{inst.instance_id} would both be written here")
        id_of[path] = inst.instance_id
    stale = sorted(p for d in dir_of.values() for p in d.glob("*.csv") if p not in id_of)
    if stale:
        raise HydetError(f"{stale[0]}: this corpus would not write this file; "
                         "write the corpus to a new directory")
    for path in dir_of.values():
        path.mkdir(parents=True, exist_ok=True)
    _fan_out(lambda job: write_instance_csv(*job), jobs,
             lambda job: job[0].values.size * _TEXT_BYTES_PER_VALUE)


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where the platform cannot say (and
    where, as on Windows, it cannot fork either)."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _fan_out(work: Callable, items: Sequence, size_of: Callable[..., int],
             consume: Callable[[Any], Any] = lambda result: None) -> None:
    """``for item in items: consume(work(item))``, on every CPU when that pays.

    One process per CPU works, but none for less than ``_SHARE_FLOOR_BYTES``
    by ``size_of``: this one and forked children. Each takes the next item
    from a shared counter, so that none waits on one slowed by a busy CPU. A
    child streams back over a pipe each result with its index; this process
    reads what is waiting between its own items and hands each result to
    ``consume`` once every earlier one has been handed on, so ``consume``
    sees the results in item order. Once an item fails anywhere, or a child
    exits with a code other than 0, no process takes another item, every
    child is joined and the serial loop runs on from the first item not yet
    consumed: its error, or the results it consumes, are the outcome. An
    error that is not an ``Exception``, such as ``KeyboardInterrupt``,
    propagates.
    """
    cpus = _cpu_count()
    n_workers = 1 if cpus == 1 else min(
        cpus, len(items), sum(map(size_of, items)) // _SHARE_FLOOR_BYTES)
    if n_workers <= 1:
        for item in items:
            consume(work(item))
        return

    import multiprocessing  # here: a serial run never loads it
    from multiprocessing.connection import wait
    context = multiprocessing.get_context("fork")
    counter = context.Value("q", 0)  # the next item's index
    early: dict[int, Any] = {}  # results that came before an earlier one
    consumed = 0
    children: dict[int, Any] = {}  # by the read end of its pipe
    failed = False

    def hand_on(index: int, result: Any) -> None:
        nonlocal consumed
        early[index] = result
        while consumed in early:
            consume(early.pop(consumed))
            consumed += 1

    def receive(timeout: float | None) -> None:
        nonlocal failed
        while children and (ready := wait(list(children), timeout)):
            for fd in ready:
                frame = _read_frame(fd)
                if frame is not None:
                    hand_on(*frame)
                    continue
                os.close(fd)  # end of file: the child has exited
                process = children.pop(fd)
                process.join()
                if process.exitcode:  # 1: an item failed
                    failed = True
                    counter.value = len(items)
                    if process.exitcode != 1:
                        logger.warning("a forked process exited with code %d; "
                                       "the serial loop runs", process.exitcode)

    try:
        for _ in range(n_workers - 1):
            fd, write_end = os.pipe()
            children[fd] = context.Process(
                target=_work_share, args=(work, items, counter, write_end), daemon=True)
            try:
                children[fd].start()
            finally:
                os.close(write_end)  # before the next fork, so that EOF means exit
        while (i := _take(counter)) < len(items):
            try:
                result = work(items[i])
            except Exception:  # the serial loop raises it again
                failed = True
                counter.value = len(items)  # no process takes another item
            else:
                hand_on(i, result)
            receive(0)
        receive(None)
    finally:
        for fd, process in children.items():
            if process.pid is not None:  # started
                process.terminate()
                process.join()
            os.close(fd)
    if failed:
        early.clear()  # before the serial loop makes its own
        for item in items[consumed:]:
            consume(work(item))


def _take(counter: Any) -> int:
    """The next item's index from the shared ``counter``."""
    with counter.get_lock():
        counter.value += 1
        return counter.value - 1


def _work_share(work: Callable, items: Sequence, counter: Any, write_end: int) -> None:
    """Body of a forked child: write each result as a frame; exit quietly
    with code 1 once an item fails."""
    with open(write_end, "wb") as out:
        while (i := _take(counter)) < len(items):
            try:
                result = work(items[i])
            except Exception:  # the serial loop raises it again
                counter.value = len(items)  # no process takes another item
                sys.exit(1)
            _write_frame(out, i, result)


def _write_frame(out: BinaryIO, index: int, result: Any) -> None:
    """``(index, result)`` as a frame: the length of its pickle, the pickle,
    in which each plain array that holds no Python objects is only its shape
    and dtype, then the bytes of those arrays in C order, so that the reader
    fills arrays it allocated itself and no copy of them is made."""
    arrays = []

    def persistent_id(obj: Any) -> tuple | None:  # None: pickled as it is
        if type(obj) is np.ndarray and not obj.dtype.hasobject:
            arrays.append(obj)
            return obj.shape, obj.dtype

    head = io.BytesIO()
    pickler = pickle.Pickler(head)
    pickler.persistent_id = persistent_id
    pickler.dump((index, result))
    out.write(np.array(head.tell(), "<u8"))
    out.write(head.getbuffer())
    for array in arrays:  # as uint8: a datetime64 array is no buffer
        out.write(np.ascontiguousarray(array).reshape(-1).view(np.uint8))
    out.flush()


def _read_frame(fd: int) -> tuple[int, Any] | None:
    """The next ``(index, result)`` that ``_write_frame`` wrote to pipe
    ``fd``; None where the pipe ends before a whole frame, as it does when
    its writer has exited."""
    def persistent_load(placeholder: tuple) -> np.ndarray:
        return _read_into(fd, np.empty(*placeholder))

    try:
        length = _read_into(fd, np.empty((), "<u8"))
        head = _read_into(fd, np.empty(int(length), np.uint8))
        unpickler = pickle.Unpickler(io.BytesIO(head))
        unpickler.persistent_load = persistent_load
        return unpickler.load()
    except EOFError:
        return None


def _read_into(fd: int, array: np.ndarray) -> np.ndarray:
    """``array`` filled from ``fd`` with raw bytes, through a ``uint8`` view;
    ``EOFError`` if the pipe ends first."""
    view = memoryview(array.reshape(-1).view(np.uint8))
    got = 0
    while got < len(view):
        n = os.readv(fd, [view[got:]])
        if not n:
            raise EOFError
        got += n
    return array
