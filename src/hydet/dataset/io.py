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
that names file, row and column. That loop is only the error path: it gives
the same instance as the one-pass parse wherever both accept a file.

Writing renders every row with one ``%`` template and then blanks the NaN
cells, so the floats have ``jsonio.format_float``'s 17 significant digits.

``load_instances`` and ``write_instances`` run their per-file loop on every
CPU this process may use, once the files are large enough: one process per
CPU, but none for less than ``_SHARE_FLOOR_BYTES`` (8 MiB) of CSV text; a
file to write is sized at 23 bytes per value. This process and children
forked by ``multiprocessing`` take the next file from a shared counter, so
that none idles while another, slowed by a busy CPU, still holds a long
share. A reading child streams each instance back over a pipe as a small
pickled head and the raw bytes of its arrays; this process reads them
between its own files straight into arrays it allocates, and returns the
instances in manifest order. A writing child sends back only an error.
Either way the first failing file in order raises what the serial loop
raises. On one CPU, or below the floor, the loop runs serially.

The floor comes from ``hydet pipeline --models dt,nb`` and ``hydet synth``
forced to fork, against the serial loop, in alternating runs on a 2-CPU VM:
reading lost 0.12-0.14 s on the 5.7 MB default corpus, was even to 0.12 s
ahead at 11.2 MB and 0.05-0.17 s ahead at 22 MB; writing lost 0.07 s at
5.7 MB and gained 0.17 s at 11.2 MB. So the default corpus stays serial.
On the benchmark's 53.8 MB long dirty corpus (two processes), the medians of
10 alternating pairs took ``hydet synth`` from 3.02 to 1.67 s and ``hydet
pipeline`` from 4.64 to 3.97 s. Fixed contiguous shares, one per process,
left this process waiting up to 0.5 s for a child whose CPU other work was
using. Instances sent as pickles, not raw arrays, raised that pipeline's
peak RSS from 104.8 to ~111 MiB: the message buffers left holes among the
instance arrays, so the freed corpus no longer held one block as large as
``split``'s train array.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import mmap
import os
import pickle
import select
import struct
import warnings
from datetime import datetime
from pathlib import Path
from typing import Any, BinaryIO, Callable, Mapping, Sequence

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
    of empty cells) and not one ``re.sub``: that is ~0.2 s faster on the
    benchmark's long dirty corpus, but it builds each body from ~50 slices
    of about 1 KB, which glibc keeps in its per-thread cache among the
    instance arrays. The freed corpus then no longer holds one block as
    large as ``split``'s train array, and peak RSS rose by 8-12 MiB.
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
    return _fan_out(
        lambda e: load_instance_csv(root / e.path, e.id, e.label, label_map),
        manifest.instances, lambda e: os.path.getsize(root / e.path))


def write_instances(instances: Sequence[TimeSeriesInstance],
                    root: str | Path) -> None:
    """Write a corpus in the layout ``build_manifest`` reads: each instance
    to ``<root>/<its class directory>/<last part of its id>.csv``."""
    root = Path(root)
    dir_of = {label: root / name for name, label in CLASS_DIRS.items()}
    for path in dir_of.values():
        path.mkdir(parents=True, exist_ok=True)
    _fan_out(
        lambda inst: write_instance_csv(
            inst, dir_of[inst.label] / f"{inst.instance_id.split('/')[-1]}.csv"),
        instances, lambda inst: inst.values.size * _TEXT_BYTES_PER_VALUE)


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where the platform cannot say (and
    where, as on Windows, it cannot fork either)."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _fan_out(work: Callable, items: Sequence, size_of: Callable[..., int]) -> list:
    """``[work(item) for item in items]``, on every CPU when that pays.

    One process per CPU works, but none for less than ``_SHARE_FLOOR_BYTES``
    by ``size_of``: this one and forked children. Each takes the next item
    from a shared counter, so that none waits while another, slowed by a
    busy CPU, still holds a long share. A child streams back over a pipe
    each result that is not None (``work`` returns a ``TimeSeriesInstance``
    for every item or None for every item) with its index, or the error that
    stopped it. Between its own items this process reads what is waiting, so
    that no child waits long on a full pipe. The error raised is the one the
    serial loop would raise: that of the first failing item, or a
    ``HydetError`` for a child that died. Every child is joined.
    """
    cpus = _cpu_count()
    n_workers = 1 if cpus == 1 else min(
        cpus, len(items), sum(map(size_of, items)) // _SHARE_FLOOR_BYTES)
    if n_workers <= 1:
        return [work(item) for item in items]

    import multiprocessing  # here: a serial run never loads it
    context = multiprocessing.get_context("fork")
    counter = mmap.mmap(-1, _INDEX.size)  # shared: the next item's index
    lock = context.Lock()

    def take(stop: bool = False) -> int:
        """The next item's index; ``stop`` ends the taking (after an error:
        every item before it has been taken, and no later one matters)."""
        with lock:
            i, = _INDEX.unpack_from(counter)
            _INDEX.pack_into(counter, 0, len(items) if stop else i + 1)
        return i

    results: list = [None] * len(items)
    errors: dict[int, BaseException] = {}
    children: dict[int, Any] = {}  # by the read end of its pipe
    poller = select.poll()

    def receive(timeout: float | None) -> None:
        while children and (ready := poller.poll(timeout)):
            for fd, _ in ready:
                frame = _read_frame(fd)
                if frame is None:  # end of file: the child has exited
                    poller.unregister(fd)
                    os.close(fd)
                    children.pop(fd).join()
                elif isinstance(frame[1], BaseException):
                    errors[frame[0]] = frame[1]
                else:
                    results[frame[0]] = frame[1]

    try:
        for _ in range(n_workers - 1):
            fd, write_end = os.pipe()
            children[fd] = context.Process(
                target=_work_share, args=(work, items, take, write_end), daemon=True)
            poller.register(fd, select.POLLIN)
            try:
                children[fd].start()
            finally:
                os.close(write_end)  # before the next fork, so that EOF means exit
        started = list(children.values())
        while (i := take()) < len(items):
            try:
                results[i] = work(items[i])
            except Exception as exc:  # raised below, once no earlier item can fail
                errors[i] = exc
                take(stop=True)
            receive(0)
        receive(None)
        died = [p.exitcode for p in started if p.exitcode != 0]
        if died:
            raise HydetError(f"a forked process working on {len(items)} items "
                             f"exited with code {died[0]}")
        if errors:
            raise errors[min(errors)]
    finally:
        for fd, process in children.items():
            if process.pid is not None:  # started
                process.terminate()
                process.join()
            os.close(fd)
        counter.close()
    return results


def _work_share(work: Callable, items: Sequence, take: Callable[..., int],
                write_end: int) -> None:
    """Body of a forked child: ``work`` each item it takes and write every
    result that is not None, or the first error, as a frame."""
    with open(write_end, "wb") as out:
        while (i := take()) < len(items):
            try:
                result = work(items[i])
            except Exception as exc:  # raised again, in item order, by the parent
                take(stop=True)
                _write_frame(out, i, exc)
                return
            if result is not None:
                _write_frame(out, i, result)


#: a frame starts with the length of its pickled head
_FRAME_LENGTH = struct.Struct("<Q")

#: the shared index of the next item to take
_INDEX = struct.Struct("q")


def _write_frame(out: BinaryIO, index: int,
                 result: TimeSeriesInstance | BaseException) -> None:
    """The result of item ``index``. An error is a frame of the pickle of
    ``(index, error)`` alone. An instance's head is the pickle of ``(index,
    id, label, variable names, rows, ISO stamps or None)``; its values, then
    its epoch stamps, follow as raw bytes, so that the reader fills arrays it
    allocated itself and no copy of them is made."""
    arrays = []
    head = (index, result)
    if isinstance(result, TimeSeriesInstance):
        stamps = result.timestamps
        iso = stamps if isinstance(stamps, tuple) else None
        head = (index, result.instance_id, result.label, result.variable_names,
                len(result), iso)
        arrays = [result.values] + ([stamps] if iso is None else [])
    head = pickle.dumps(head)
    out.write(_FRAME_LENGTH.pack(len(head)))
    out.write(head)
    for array in arrays:
        out.write(np.ascontiguousarray(array).data)
    out.flush()


def _read_frame(fd: int) -> tuple[int, TimeSeriesInstance | BaseException] | None:
    """The next ``(index, result)`` that ``_write_frame`` wrote to pipe
    ``fd``; None where the pipe ends before a whole frame, as it does when
    its writer has exited."""
    length = bytearray(_FRAME_LENGTH.size)
    if not _read_into(fd, length):
        return None
    head = bytearray(_FRAME_LENGTH.unpack(length)[0])
    if not _read_into(fd, head):
        return None
    head = pickle.loads(head)
    if len(head) == 2:
        return head
    index, instance_id, label, variable_names, n_rows, iso = head
    values = np.empty((n_rows, len(variable_names)))
    stamps = iso
    arrays = [values]
    if iso is None:
        stamps = np.empty(n_rows, dtype=np.int64)
        arrays.append(stamps)
    if not all(_read_into(fd, array) for array in arrays):
        return None
    return index, TimeSeriesInstance(instance_id, label, stamps, variable_names,
                                     values)


def _read_into(fd: int, buffer) -> bool:
    """Fill ``buffer`` from ``fd``; False if the pipe ends first."""
    view = memoryview(buffer).cast("B")
    got = 0
    while got < len(view):
        n = os.readv(fd, [view[got:]])
        if not n:
            return False
        got += n
    return True
