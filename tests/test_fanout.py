"""The per-file loops on several CPUs: ``load_instances`` and
``write_instances`` forced to 1, 2 and 3 processes on small corpora must give
what the serial loop gives, raise what it raises, and leave no process."""

import multiprocessing
import os
import re
import time
from pathlib import Path

import pytest

from hydet.cli import EXIT_OK, main
from hydet.dataset import (build_manifest, default_config, load_instances,
                           synth_generate, write_instances)
from hydet.dataset import io as dataset_io
from hydet.errors import CsvFormatError, HydetError


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


def read_tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("shares", [1, 2, 3])
def test_forked_load_equals_the_serial_load(corpus, monkeypatch, shares):
    manifest = build_manifest(corpus)
    serial = load_instances(corpus, manifest)
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
    forked = load_instances(corpus, manifest)
    # every file was loaded once, by this process or by a child
    assert len(taken_here) + len(received) == len(manifest.instances)
    assert (len(received) > 0) == (shares > 1)
    assert len(forked) == len(serial) == len(manifest.instances)
    for got, want in zip(forked, serial):
        assert (got.instance_id, got.label, got.variable_names) == \
            (want.instance_id, want.label, want.variable_names)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.values.flags.owndata and not got.values.flags.writeable
        assert type(got.timestamps) is type(want.timestamps)
        if isinstance(want.timestamps, tuple):
            assert got.timestamps == want.timestamps
        else:
            assert got.timestamps.tobytes() == want.timestamps.tobytes()
            assert got.timestamps.base is None and not got.timestamps.flags.writeable


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
        load_instances(corpus, manifest)
    assert manifest.instances[bad[0]].path in str(serial.value)
    force_shares(monkeypatch, 3)
    with pytest.raises(CsvFormatError, match=f"^{re.escape(str(serial.value))}$"):
        load_instances(corpus, manifest)


def test_an_earlier_file_that_fails_later_still_raises(corpus, monkeypatch):
    # file 1 fails 0.2 s after file 2 does, in another child
    manifest = build_manifest(corpus)
    for i in (1, 2):
        corrupt(corpus, manifest.instances[i])
    with pytest.raises(CsvFormatError) as serial:
        load_instances(corpus, manifest)
    force_shares(monkeypatch, 3)
    load, slow = dataset_io.load_instance_csv, manifest.instances[1].id

    def slow_to_fail(source, instance_id, *args):
        if instance_id == slow:
            time.sleep(0.2)
        return load(source, instance_id, *args)

    monkeypatch.setattr(dataset_io, "load_instance_csv", slow_to_fail)
    with pytest.raises(CsvFormatError, match=f"^{re.escape(str(serial.value))}$"):
        load_instances(corpus, manifest)


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


def test_a_child_that_dies_raises_instead_of_hanging(corpus, monkeypatch):
    manifest = build_manifest(corpus)
    parent = os.getpid()
    load = dataset_io.load_instance_csv

    def dies_in_a_child(*args):
        if os.getpid() != parent:
            os._exit(3)
        return load(*args)

    monkeypatch.setattr(dataset_io, "load_instance_csv", dies_in_a_child)
    force_shares(monkeypatch, 3)
    with pytest.raises(HydetError, match="^a forked process working on 13 items "
                                         "exited with code 3$"):
        load_instances(corpus, manifest)


def test_small_corpora_and_one_cpu_stay_serial(corpus, monkeypatch):
    def no_fork(*args, **kwargs):
        raise AssertionError("forked")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    manifest = build_manifest(corpus)
    assert len(load_instances(corpus, manifest)) == 13  # under the size floor
    force_shares(monkeypatch, 1)
    assert len(load_instances(corpus, manifest)) == 13
