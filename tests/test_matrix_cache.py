"""The matrix cache at a corpus root: ``cached_matrix`` gives what
``load_matrix`` parses, byte for byte, and the CLI parses again whenever a
key field changes, with the same outputs, errors and cache bytes."""

import os
import shutil
import tempfile
import tracemalloc
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydet.cli import EXIT_DATA, EXIT_OK, main
from hydet.dataset import build_manifest, default_config, synth_generate, write_instances
from hydet.dataset import io as dataset_io
from hydet.dataset.io import CLASS_DIRS, MATRIX_CACHE, cached_matrix

_NAMES = ["P-TPT", "T-TPT", "P-MON-CKP", "T-JUS-CKP", "QGL", "P-PDG", "T-PDG", "P-JUS"]


def matrix_fields(matrix):
    return (matrix.column_names, matrix.instance_ids,
            *((a.shape, a.dtype, a.tobytes())
              for a in (matrix.values, matrix.labels, matrix.origin)))


def refuse_to_parse(*args):
    raise AssertionError("load_matrix was called")


def _cell(value):
    return "" if np.isnan(value) else repr(value)


@st.composite
def corpora(draw):
    """(files as {relative path: text}, variables): 1-8 channels, NaN cells,
    epoch or naive ISO stamps, LF or CRLF line ends."""
    n_channels = draw(st.integers(1, 8))
    channels = _NAMES[:n_channels]
    values = st.floats(allow_infinity=False, allow_nan=True, width=64)
    files = {}
    for k in range(draw(st.integers(1, 6))):
        class_dir = draw(st.sampled_from(sorted(CLASS_DIRS)))
        n_rows = draw(st.integers(1, 5))
        iso, end = draw(st.booleans()), draw(st.sampled_from(["\n", "\r\n"]))
        lines = ["timestamp," + ",".join(channels)]
        for t in range(n_rows):
            stamp = (datetime(2020, 1, 1) + timedelta(seconds=t)).isoformat() if iso \
                else str(1_600_000_000 + t)
            row = [_cell(draw(values)) for _ in channels]
            lines.append(stamp + "," + ",".join(row))
        files[f"{class_dir}/f{k}.csv"] = end.join(lines) + end
    variables = draw(st.permutations(channels).flatmap(
        lambda order: st.integers(1, len(order)).map(lambda n: order[:n])))
    return files, variables


@given(corpora())
@settings(max_examples=60, deadline=None)
def test_the_cached_matrix_equals_the_parsed_one_byte_for_byte(corpus):
    files, variables = corpus
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for rel, text in files.items():
            (root / rel).parent.mkdir(exist_ok=True)
            (root / rel).write_bytes(text.encode())
        manifest = build_manifest(root)
        parsed = dataset_io.load_matrix(root, manifest, variables)
        cold = cached_matrix(root, manifest, variables)
        assert (root / MATRIX_CACHE).is_file()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataset_io, "load_matrix", refuse_to_parse)
            warm = cached_matrix(root, manifest, variables)
    assert matrix_fields(cold) == matrix_fields(parsed) == matrix_fields(warm)
    for array in (warm.values, warm.labels, warm.origin):
        assert array.flags.owndata and not array.flags.writeable


def write_corpus(root):
    """26 synth episodes with missing cells, labelled by their directory
    alone: no class column, so that a file may move to another class."""
    config = default_config(n_normal=14, n_rapid_loss=8, n_hydrate=4, length=12,
                            missing_fraction=0.1)
    write_instances(synth_generate(config, 3), root)
    for path in root.glob("*/*.csv"):
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines),
                        encoding="utf-8")


def test_eval_after_train_parses_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_corpus(Path("corpus"))
    assert main(["train", "--data", "corpus", "--out", "out"]) == EXIT_OK
    monkeypatch.setattr(dataset_io, "load_matrix", refuse_to_parse)
    assert main(["eval", "--data", "corpus", "--out", "out"]) == EXIT_OK
    assert not (Path("out") / "INCOMPLETE").exists()


def read_tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _edit_a_byte(corpus):
    path = next(iter(sorted((corpus / "1_rapid_loss").glob("*.csv"))))
    text = path.read_bytes()
    at = text.index(b".") + 1  # the first fraction digit of the first value
    path.write_bytes(text[:at] + bytes([(text[at] - 47) % 10 + 48]) + text[at + 1:])


def _move_a_file(corpus):
    path = next(iter(sorted((corpus / "0_normal").glob("*.csv"))))
    path.rename(corpus / "2_hydrate" / path.name)


def _rewrite_cache(corpus, edit):
    cache = corpus / MATRIX_CACHE
    data = cache.read_bytes()
    assert edit(data) != data
    cache.write_bytes(edit(data))


@pytest.mark.parametrize("change", [
    "edit", "move", "variables", "truncated", "cut short", "magic", "version",
    "flipped"])
def test_a_changed_key_or_a_damaged_cache_forces_a_parse(tmp_path, monkeypatch, change):
    # the run over a corpus whose cache was written before the change gives
    # the outputs and the cache of a run over a copy that never had one
    monkeypatch.chdir(tmp_path)
    write_corpus(Path("corpus"))
    assert main(["train", "--data", "corpus", "--out", "first", "--models", "dt"]) \
        == EXIT_OK
    corpus = Path("corpus")
    # the four channels reordered: a cache of the same size
    args = ["--variables", "T-TPT,P-TPT,T-JUS-CKP,P-MON-CKP"] if change == "variables" \
        else []
    if change == "edit":
        _edit_a_byte(corpus)
    elif change == "move":
        _move_a_file(corpus)
    elif change == "truncated":
        _rewrite_cache(corpus, lambda data: data[:-1])
    elif change == "cut short":
        _rewrite_cache(corpus, lambda data: data[:len(data) // 2])
    elif change == "magic":
        _rewrite_cache(corpus, lambda data: b"H" + data[1:])
    elif change == "version":
        _rewrite_cache(corpus, lambda data: data.replace(b" 1\n", b" 2\n", 1))
    elif change == "flipped":  # one bit of a value, at the same size
        _rewrite_cache(corpus, lambda data: data[:len(data) // 2]
                       + bytes([data[len(data) // 2] ^ 1]) + data[len(data) // 2 + 1:])
    fresh = tmp_path / "fresh"
    shutil.copytree(corpus, fresh / "corpus", ignore=shutil.ignore_patterns(MATRIX_CACHE))
    calls = []
    parse = dataset_io.load_matrix
    monkeypatch.setattr(dataset_io, "load_matrix",
                        lambda *a: calls.append(a) or parse(*a))
    assert main(["pipeline", "--data", "corpus", "--out", "out", *args]) == EXIT_OK
    assert len(calls) == 1
    monkeypatch.chdir(fresh)
    assert main(["pipeline", "--data", "corpus", "--out", "out", *args]) == EXIT_OK
    assert len(calls) == 2
    assert read_tree(tmp_path / "out") == read_tree(fresh / "out")
    assert (tmp_path / "corpus" / MATRIX_CACHE).read_bytes() \
        == (fresh / "corpus" / MATRIX_CACHE).read_bytes()


def test_all_channel_qc_parses_and_leaves_the_cache_to_the_other_commands(
        tmp_path, monkeypatch):
    # eight channels, not in the canonical order: plain qc reads all eight,
    # pipeline the canonical four, and only pipeline's matrix is cached
    monkeypatch.chdir(tmp_path)
    corpus = Path("corpus")
    write_corpus(corpus)
    order = ["T-PDG", "T-JUS-CKP", "QGL", "P-TPT", "P-JUS", "T-TPT", "P-PDG", "P-MON-CKP"]
    for path in corpus.glob("*/*.csv"):
        rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
        index = {name: k for k, name in enumerate(rows[0])}
        index.update(dict.fromkeys(_NAMES[4:], index["P-TPT"]))  # four more channels
        path.write_text("timestamp," + ",".join(order) + "\n" + "".join(
            ",".join([row[0]] + [row[index[name]] for name in order]) + "\n"
            for row in rows[1:]), encoding="utf-8")
    parsed = []
    parse = dataset_io.load_matrix
    monkeypatch.setattr(dataset_io, "load_matrix",
                        lambda *a: parsed.append(list(a[2])) or parse(*a))
    pipeline = ["pipeline", "--data", "corpus", "--out", "out", "--models", "dt"]
    assert main(pipeline) == EXIT_OK
    Path("out").rename("first")
    cache = (corpus / MATRIX_CACHE).read_bytes()
    assert main(["qc", "--data", "corpus", "--out", "qc"]) == EXIT_OK
    assert len(list(Path("qc").glob("boxplot_*.svg"))) == 8
    assert (corpus / MATRIX_CACHE).read_bytes() == cache
    assert main(pipeline) == EXIT_OK
    assert parsed == [_NAMES[:4], order]
    assert read_tree(Path("out")) == read_tree(Path("first"))


def test_a_corpus_that_takes_no_cache_runs_quietly(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise PermissionError("read-only file system")

    monkeypatch.chdir(tmp_path)
    write_corpus(Path("corpus"))
    monkeypatch.setattr(os, "replace", refuse)
    assert main(["pipeline", "--data", "corpus", "--out", "out", "--models", "dt"]) \
        == EXIT_OK
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in Path("corpus").iterdir()) == sorted(CLASS_DIRS)


def test_a_corrupted_file_fails_alike_with_and_without_a_stale_cache(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    corpus = Path("corpus")
    write_corpus(corpus)
    assert main(["train", "--data", "corpus", "--out", "first", "--models", "dt"]) \
        == EXIT_OK
    stale = (corpus / MATRIX_CACHE).read_bytes()
    path = sorted((corpus / "1_rapid_loss").glob("*.csv"))[2]
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[4] = lines[4].replace(",", ",x", 1)
    path.write_text("\n".join(lines), encoding="utf-8")
    errors = []
    for cached in (True, False):
        capsys.readouterr()
        assert main(["pipeline", "--data", "corpus", "--out", "out"]) == EXIT_DATA
        errors.append(capsys.readouterr().err)
        if cached:
            assert (corpus / MATRIX_CACHE).read_bytes() == stale
            (corpus / MATRIX_CACHE).unlink()
        else:
            assert not (corpus / MATRIX_CACHE).exists()
    assert errors[0] == errors[1]
    assert "row 5" in errors[0] and path.name in errors[0]
    assert sorted(p.name for p in corpus.iterdir()) == sorted(CLASS_DIRS)


def traced_peak(run):
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_warm_ingest_peaks_no_higher_than_a_cold_one(tmp_path):
    config = default_config(n_normal=20, n_rapid_loss=10, n_hydrate=5, length=300,
                            missing_fraction=0.02)
    write_instances(synth_generate(config, 1), tmp_path)
    manifest, variables = build_manifest(tmp_path), config.variables
    cold, cold_peak = traced_peak(lambda: cached_matrix(tmp_path, manifest, variables))
    warm, warm_peak = traced_peak(lambda: cached_matrix(tmp_path, manifest, variables))
    assert matrix_fields(warm) == matrix_fields(cold)
    assert warm_peak <= cold_peak
