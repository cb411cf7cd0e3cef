"""The per-file loops on several CPUs: ``load_matrix`` and
``write_instances`` forced to 1, 2 and 3 processes on small corpora must give
what the serial loop gives, raise what it raises, and leave no process; and
``load_matrix`` must give what ``reference_flatten`` gives over the
instances."""

import io
import logging
import multiprocessing
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

from hydet.cli import EXIT_OK, main
from hydet.dataset import (DatasetManifest, build_manifest, default_config, flatten,
                           load_instances, synth_generate, write_instances)
from hydet.dataset import io as dataset_io
from hydet.dataset.transform import shared_channels
from hydet.errors import CsvFormatError, HydetError
from oracles import reference_flatten


@pytest.fixture(autouse=True)
def no_process_left():
    yield
    assert multiprocessing.active_children() == []


def force_shares(monkeypatch, n):
    """Every size is worth a process; ``n`` CPUs. This process takes 10 ms
    longer over each file, so that the children, which start later, take
    files too."""
    monkeypatch.setattr(dataset_io, "_cpu_count", lambda: n)
    monkeypatch.setattr(dataset_io, "_SHARE_FLOOR_BYTES", 1)
    parent = os.getpid()
    for name in ("load_instance_csv", "write_instance_csv"):
        monkeypatch.setattr(dataset_io, name, slow_in(parent, getattr(dataset_io, name)))


def slow_in(pid, fn):
    def slow(*args):
        if os.getpid() == pid:
            time.sleep(0.01)
        return fn(*args)
    return slow


@pytest.fixture
def corpus(tmp_path):
    """12 synth episodes with missing cells, and one ISO-stamped file."""
    config = default_config(n_normal=5, n_rapid_loss=4, n_hydrate=3, length=9,
                            missing_fraction=0.1)
    root = tmp_path / "corpus"
    write_instances(synth_generate(config, 3), root)
    (root / "2_hydrate" / "iso.csv").write_text(
        "timestamp,P-TPT\n2024-01-01T00:00:00Z,1.5\n2024-01-01T00:00:09Z,\n",
        encoding="utf-8")
    return root


def load_matrix(root: Path, manifest: DatasetManifest):
    """The corpus over the one channel that every file of ``corpus`` holds."""
    return dataset_io.load_matrix(root, manifest, ["P-TPT"])


def matrix_fields(matrix):
    return (matrix.column_names, matrix.instance_ids,
            *((a.shape, a.dtype, a.tobytes())
              for a in (matrix.values, matrix.labels, matrix.origin)))


def read_tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("shares", [1, 2, 3])
def test_forked_load_equals_the_serial_load(corpus, monkeypatch, shares):
    manifest = build_manifest(corpus)
    serial = load_matrix(corpus, manifest)
    force_shares(monkeypatch, shares)
    parent, taken_here, received = os.getpid(), [], []
    load, read_frame = dataset_io.load_instance_csv, dataset_io._read_frame

    def counted_load(*args):
        if os.getpid() == parent:
            taken_here.append(args)
        return load(*args)

    def counted_frame(fd):
        frame = read_frame(fd)
        received.extend([frame] * (frame is not None))
        return frame

    monkeypatch.setattr(dataset_io, "load_instance_csv", counted_load)
    monkeypatch.setattr(dataset_io, "_read_frame", counted_frame)
    forked = load_matrix(corpus, manifest)
    # every file was loaded once, by this process or by a child
    assert len(taken_here) + len(received) == len(manifest.instances)
    assert (len(received) > 0) == (shares > 1)
    assert len(forked.instance_ids) == len(manifest.instances)
    assert matrix_fields(forked) == matrix_fields(serial)
    for array in (forked.values, forked.labels, forked.origin):
        assert array.flags.owndata and not array.flags.writeable


@pytest.mark.parametrize("shares", [1, 2, 3])
def test_forked_synth_writes_the_serial_tree(tmp_path, monkeypatch, shares):
    config = tmp_path / "synth.json"
    config.write_text('{"data": {"synth": {"counts": {"NormalCondition": 7, '
                      '"RapidProductivityLoss": 4, "Hydrate": 2}, "length": 11, '
                      '"missing_fraction": 0.05}}}', encoding="utf-8")
    argv = ["synth", "--config", str(config), "--seed", "4", "--out", "corpus"]
    for side in ("serial", "forked"):
        (tmp_path / side).mkdir()
        monkeypatch.chdir(tmp_path / side)
        assert main(argv) == EXIT_OK
        force_shares(monkeypatch, shares)
    serial = read_tree(tmp_path / "serial" / "corpus")
    assert read_tree(tmp_path / "forked" / "corpus") == serial
    assert len(serial) == 13 + 2  # the CSV files, manifest.json and config.json


def corrupt(root: Path, entry) -> None:
    path = root / entry.path
    path.write_text(path.read_text(encoding="utf-8").replace("\n", "\nx,", 2),
                    encoding="utf-8")


@pytest.mark.parametrize("bad", [(5, 11), (9, 11), (0, 9), (2, 6)])
def test_the_first_bad_file_raises_the_serial_error(corpus, monkeypatch, bad):
    # 13 files taken one at a time by this process and two children
    manifest = build_manifest(corpus)
    for i in bad:
        corrupt(corpus, manifest.instances[i])
    with pytest.raises(CsvFormatError) as serial:
        load_matrix(corpus, manifest)
    assert manifest.instances[bad[0]].path in str(serial.value)
    force_shares(monkeypatch, 3)
    with pytest.raises(CsvFormatError, match=f"^{re.escape(str(serial.value))}$"):
        load_matrix(corpus, manifest)


def test_an_earlier_file_that_fails_later_still_raises(corpus, monkeypatch):
    # file 1 fails 0.2 s after file 2 does, in another child
    manifest = build_manifest(corpus)
    for i in (1, 2):
        corrupt(corpus, manifest.instances[i])
    with pytest.raises(CsvFormatError) as serial:
        load_matrix(corpus, manifest)
    force_shares(monkeypatch, 3)
    load, slow = dataset_io.load_instance_csv, manifest.instances[1].id

    def slow_to_fail(source, instance_id, *args):
        if instance_id == slow:
            time.sleep(0.2)
        return load(source, instance_id, *args)

    monkeypatch.setattr(dataset_io, "load_instance_csv", slow_to_fail)
    with pytest.raises(CsvFormatError, match=f"^{re.escape(str(serial.value))}$"):
        load_matrix(corpus, manifest)


def test_a_failed_write_raises_the_first_error_in_order(tmp_path, monkeypatch):
    instances = synth_generate(default_config(n_normal=6, n_rapid_loss=0, n_hydrate=0,
                                              length=5), 1)
    write = dataset_io.write_instance_csv

    def failing(inst, dest):
        if inst.instance_id.endswith(("-00003", "-00005")):
            raise OSError(f"cannot write {inst.instance_id}")
        write(inst, dest)

    monkeypatch.setattr(dataset_io, "write_instance_csv", failing)
    force_shares(monkeypatch, 3)
    with pytest.raises(OSError, match="^cannot write synth-normal-00003$"):
        write_instances(instances, tmp_path)


def test_a_child_that_dies_hands_the_load_to_the_serial_loop(corpus, monkeypatch,
                                                             caplog):
    manifest = build_manifest(corpus)
    serial = load_matrix(corpus, manifest)
    parent = os.getpid()
    load = dataset_io.load_instance_csv

    def dies_in_a_child(*args):
        if os.getpid() != parent:
            os._exit(3)
        return load(*args)

    monkeypatch.setattr(dataset_io, "load_instance_csv", dies_in_a_child)
    force_shares(monkeypatch, 3)
    with caplog.at_level(logging.WARNING, logger="hydet.dataset.io"):
        forked = load_matrix(corpus, manifest)
    assert matrix_fields(forked) == matrix_fields(serial)
    # one warning for each child that took a file (the second may start late)
    assert set(caplog.messages) == {"a forked process exited with code 3; "
                                    "the serial loop runs"}


def test_an_interrupt_here_propagates_without_a_serial_rerun(corpus, monkeypatch):
    manifest = build_manifest(corpus)
    force_shares(monkeypatch, 2)
    parent, taken_here, interrupt = os.getpid(), [], KeyboardInterrupt()
    load = dataset_io.load_instance_csv

    def interrupted_here(*args):
        if os.getpid() != parent:
            time.sleep(0.05)  # so that this process takes a second file
        else:
            taken_here.append(args)
            if len(taken_here) == 2:
                raise interrupt
        return load(*args)

    monkeypatch.setattr(dataset_io, "load_instance_csv", interrupted_here)
    with pytest.raises(KeyboardInterrupt) as raised:
        load_matrix(corpus, manifest)
    assert raised.value is interrupt
    assert len(taken_here) == 2
    assert multiprocessing.active_children() == []


def test_small_corpora_and_one_cpu_stay_serial(corpus, monkeypatch):
    def no_fork(*args, **kwargs):
        raise AssertionError("forked")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    manifest = build_manifest(corpus)
    assert len(load_matrix(corpus, manifest).instance_ids) == 13  # under the size floor
    force_shares(monkeypatch, 1)
    assert len(load_matrix(corpus, manifest).instance_ids) == 13


def arrays_of_every_kind() -> dict[str, np.ndarray]:
    """Most above 1,000 bytes, which a plain pickle would bring back as
    views of its bytes, not as arrays that own their memory."""
    grid = np.arange(600.0).reshape(20, 30) / 7
    return {
        "c_order": grid,
        "f_order": np.asfortranarray(grid),
        "int64": np.arange(-100, 100, dtype=np.int64),
        "datetime64": np.datetime64("2024-01-01", "us") + np.arange(200) * 1_000_003,
        "zero_size": np.empty((0, 3)),
        "zero_d": np.array(2.5),
        "structured": np.array([(i, i / 3) for i in range(100)],
                               dtype=[("code", "<i4"), ("value", "<f8")]),
        "objects": np.array([{"x": 1}, "s", None, (2, 3)], dtype=object),
    }


def test_a_frame_carries_its_result_and_its_arrays_back():
    sent = arrays_of_every_kind()
    result = {"arrays": sent, "nested": (None, [sent["int64"], "text"], 1.5)}
    read_end, write_end = os.pipe()
    try:
        with open(write_end, "wb") as out:
            dataset_io._write_frame(out, 7, result)
        index, back = dataset_io._read_frame(read_end)
        assert dataset_io._read_frame(read_end) is None  # the writer has closed
    finally:
        os.close(read_end)
    assert index == 7
    assert back["nested"][0] is None and back["nested"][1][1:] == ["text"]
    assert back["nested"][2] == 1.5
    got = back["arrays"]
    assert list(got) == list(sent)
    for name, want in sent.items():
        array = got[name]
        assert type(array) is np.ndarray, name
        assert (array.dtype, array.shape) == (want.dtype, want.shape), name
        if name == "objects":  # pickled as it is
            assert array.tolist() == want.tolist()
            continue
        assert array.tobytes() == want.tobytes(), name
        assert array.flags.owndata and array.flags.c_contiguous, name
    assert got["structured"].dtype.names == ("code", "value")
    assert back["nested"][1][0].tobytes() == sent["int64"].tobytes()


def test_a_frame_cut_short_reads_as_none():
    buffer = io.BytesIO()
    dataset_io._write_frame(buffer, 3, {"arrays": arrays_of_every_kind()})
    frame = buffer.getvalue()
    # in the length, in the pickle and in the arrays' bytes
    for cut in (0, 5, 8, 40, len(frame) // 2, len(frame) - 1):
        read_end, write_end = os.pipe()
        try:
            with open(write_end, "wb") as out:
                out.write(frame[:cut])
            assert dataset_io._read_frame(read_end) is None, cut
        finally:
            os.close(read_end)


@pytest.mark.parametrize("shares", [1, 2, 3])
def test_the_direct_matrix_equals_the_flattened_instances(corpus, monkeypatch, shares):
    manifest = build_manifest(corpus)
    instances = load_instances(corpus, manifest)
    reference = matrix_fields(reference_flatten(instances, ["P-TPT"]))
    assert matrix_fields(flatten(instances, ["P-TPT"])) == reference
    force_shares(monkeypatch, shares)
    direct = load_matrix(corpus, manifest)
    assert matrix_fields(direct) == reference
    for array in (direct.values, direct.labels, direct.origin):
        assert array.flags.owndata and not array.flags.writeable


@pytest.mark.parametrize("shares", [1, 2, 3])
def test_the_direct_matrix_grows_past_its_first_estimate(tmp_path, monkeypatch, shares):
    # the first file has few rows for its bytes, so the arrays sized from it
    # grow twice
    root = tmp_path / "corpus"
    (root / "0_normal").mkdir(parents=True)
    (root / "0_normal" / "a.csv").write_text(
        "timestamp,P-TPT,T-TPT\n0,1.25,-0.0\n1,,2.5e300\n", encoding="utf-8")
    for name, n in (("b", 40), ("c", 400)):
        rows = "".join(f"{t},{t % 7},{t / 3}\n" for t in range(n))
        (root / "0_normal" / f"{name}.csv").write_text("timestamp,P-TPT,T-TPT\n" + rows,
                                                       encoding="utf-8")
    manifest = build_manifest(root)
    instances = load_instances(root, manifest)
    reference = matrix_fields(reference_flatten(instances, ["T-TPT", "P-TPT"]))
    assert matrix_fields(flatten(instances, ["T-TPT", "P-TPT"])) == reference
    force_shares(monkeypatch, shares)
    assert matrix_fields(dataset_io.load_matrix(root, manifest, ["T-TPT", "P-TPT"])) \
        == reference


@pytest.mark.parametrize("shares", [1, 3])
@pytest.mark.parametrize("bad, variables", [
    ((5, 11), ["P-TPT"]), ((0, 9), ["P-TPT"]),
    ((), ["P-TPT", "T-TPT"]),  # the ISO file lacks T-TPT
    ((7,), ["P-TPT", "T-TPT"]),  # a bad file after the first that lacks a channel
    ((), ["P-TPT", "NOPE"]),
    ((), []),
])
def test_the_direct_matrix_raises_the_flattened_error(corpus, monkeypatch, shares, bad,
                                                      variables):
    manifest = build_manifest(corpus)
    entries = list(manifest.instances)
    entries.insert(3, entries.pop())  # the ISO file among the others
    manifest = DatasetManifest(tuple(entries), manifest.class_counts)
    for i in bad:
        corrupt(corpus, manifest.instances[i])
    with pytest.raises(HydetError) as flattened:
        reference_flatten(load_instances(corpus, manifest), variables)
    with pytest.raises(type(flattened.value),
                       match=f"^{re.escape(str(flattened.value))}$"):
        flatten(load_instances(corpus, manifest), variables)
    force_shares(monkeypatch, shares)
    with pytest.raises(type(flattened.value),
                       match=f"^{re.escape(str(flattened.value))}$"):
        dataset_io.load_matrix(corpus, manifest, variables)


def test_shared_header_channels_read_the_headers_alone(tmp_path):
    root = tmp_path / "corpus"
    (root / "0_normal").mkdir(parents=True)
    headers = {"a": "timestamp,T-TPT,P-TPT,QGL,class", "b": "timestamp,P-TPT,QGL,T-TPT",
               "c": "timestamp,QGL,T-TPT,P-TPT"}
    for name, header in headers.items():
        (root / "0_normal" / f"{name}.csv").write_text(header + "\nbody, not read\n",
                                                       encoding="utf-8")
    manifest = build_manifest(root)
    assert shared_channels(dataset_io.header_channels(root, manifest)) \
        == ("T-TPT", "P-TPT", "QGL")
    (root / "0_normal" / "b.csv").write_text("timestamp,P-TPT,P-TPT\n", encoding="utf-8")
    assert shared_channels(dataset_io.header_channels(root, manifest)) == ()
