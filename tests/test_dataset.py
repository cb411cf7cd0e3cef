import csv
import io
import math
import pickle
import re
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hydet.codec import to_json
from hydet.dataset import (ClassLabel, SplitSpec, build_manifest, default_config,
                           flatten, load_instance_csv, split, synth_generate,
                           write_instance_csv, write_instances)
from hydet.dataset import io as dataset_io
from hydet.dataset import transform as dataset_transform
from hydet.dataset.io import _fill_missing, _load_rows, write_matrix_csv
from hydet.dataset.model import (DatasetManifest, FeatureMatrix, ManifestEntry,
                                 TimeSeriesInstance)
from hydet.jsonio import format_float
from hydet.quality import quality_report
from hydet.errors import (CsvFormatError, EmptyDataError, HydetError,
                          LabelConflictError, MissingVariableError, NonFiniteError,
                          SplitError, TimestampOrderError)
from oracles import reference_fill_missing, reference_flatten


def _stream(text):
    return io.BytesIO(text.encode("utf-8"))


def make_instance(instance_id="i0", label=ClassLabel.NORMAL, n=5, channels=None):
    channels = channels or {"P-TPT": [float(i) for i in range(n)],
                            "T-TPT": [10.0 + i for i in range(n)]}
    return TimeSeriesInstance(instance_id=instance_id, label=label,
                              timestamps=tuple(range(n)),
                              variable_names=tuple(channels),
                              values=np.array(list(channels.values())).T)


def assert_epoch_stamps(stamps, expected):
    """``stamps`` is the read-only int64 array of the epoch seconds ``expected``."""
    assert type(stamps) is np.ndarray and stamps.dtype == np.int64
    assert stamps.shape == (len(expected),) and not stamps.flags.writeable
    assert stamps.base is None  # not a view that keeps a parse table alive
    assert stamps.tolist() == list(expected)


def assert_iso_stamps(stamps, expected):
    """``stamps`` is the tuple of the ``datetime`` values ``expected``."""
    assert type(stamps) is tuple and stamps == tuple(expected)
    assert {type(ts) for ts in stamps} == {datetime}


def same_bits(actual, expected):
    """Bitwise equality of float arrays: NaN positions, signed zeros and all."""
    expected = np.asarray(expected, dtype=np.float64)
    return actual.shape == expected.shape and actual.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# CSV loading


def test_load_single_row_with_missing_cell():
    inst = load_instance_csv(_stream("timestamp,a,b,c,d\n0,10.0,,5.0,3.0\n"),
                             "one", ClassLabel.NORMAL)
    assert len(inst) == 1
    assert inst.variable_names == ("a", "b", "c", "d")
    assert same_bits(inst.values, [[10.0, np.nan, 5.0, 3.0]])


def test_class_column_supplies_label():
    text = "timestamp,x,class\n0,1.0,2\n1,2.0,2\n"
    inst = load_instance_csv(_stream(text), "i")
    assert inst.label is ClassLabel.HYDRATE


def test_missing_count_matches_cell_scan_oracle():
    rows = []
    missing_at = {1, 4, 7}
    for i in range(10):
        cell = "" if i in missing_at else f"{i}.5"
        rows.append(f"{i},{cell},1.0")
    text = "timestamp,P-TPT,T-TPT\n" + "\n".join(rows) + "\n"
    inst = load_instance_csv(_stream(text), "i", ClassLabel.NORMAL)
    # independent oracle: recount empty cells in the raw text
    raw_missing = sum(1 for line in text.splitlines()[1:]
                      if line.split(",")[1] == "")
    assert raw_missing == 3
    assert np.isnan(inst.values[:, 0]).sum() == raw_missing


def test_nan_tokens_and_iso_timestamps():
    text = ("timestamp,x\n2024-01-01T00:00:00,NaN\n"
            "2024-01-01T00:00:01,nan\n2024-01-01T00:00:02,3.5\n")
    inst = load_instance_csv(_stream(text), "i", ClassLabel.NORMAL)
    assert same_bits(inst.values, [[np.nan], [np.nan], [3.5]])


def test_load_errors():
    with pytest.raises(CsvFormatError):  # wrong first header column
        load_instance_csv(_stream("time,x\n0,1\n"), "i", ClassLabel.NORMAL)
    with pytest.raises(TimestampOrderError):
        load_instance_csv(_stream("timestamp,x\n5,1.0\n3,2.0\n"), "i",
                          ClassLabel.NORMAL)
    with pytest.raises(LabelConflictError):
        load_instance_csv(_stream("timestamp,x,class\n0,1.0,2\n"), "i",
                          ClassLabel.NORMAL)
    with pytest.raises(EmptyDataError):
        load_instance_csv(_stream("timestamp,x\n"), "i", ClassLabel.NORMAL)
    with pytest.raises(CsvFormatError):  # ragged row names the row
        load_instance_csv(_stream("timestamp,x,y\n0,1.0\n"), "i", ClassLabel.NORMAL)
    with pytest.raises(CsvFormatError):  # bad numeric cell
        load_instance_csv(_stream("timestamp,x\n0,abc\n"), "i", ClassLabel.NORMAL)
    with pytest.raises(LabelConflictError):  # no label anywhere
        load_instance_csv(_stream("timestamp,x\n0,1.0\n"), "i")
    # non-finite cells other than the missing tokens name file, row and column
    for cell in ("inf", "-inf", "Infinity", "NAN", "+nan", "1e999"):
        message = f"f.csv row 3, column 'y': non-finite numeric cell '{cell}'"
        with pytest.raises(CsvFormatError, match=f"^{re.escape(message)}$"):
            load_instance_csv(_stream(f"timestamp,x,y\n0,1.0,2.0\n1,3.0, {cell}\n"),
                              "f.csv", ClassLabel.NORMAL)


def test_label_map_translates_foreign_codes():
    inst = load_instance_csv(_stream("timestamp,x,class\n0,1.0,107\n"), "i",
                             label_map={107: ClassLabel.HYDRATE})
    assert inst.label is ClassLabel.HYDRATE


def test_crlf_line_endings_accepted():
    text = "timestamp,x\r\n0,1.5\r\n1,2.5\r\n"
    inst = load_instance_csv(_stream(text), "i", ClassLabel.NORMAL)
    assert same_bits(inst.values, [[1.5], [2.5]])


@pytest.mark.parametrize("cell, name", [('q"x', 'q"x'), ('"a,b"', "a,b"),
                                        ('"a\nb"', "a\nb"), ('"a\rb"', "a\rb")],
                         ids=["quote", "comma", "lf", "cr"])
def test_channel_that_no_writer_reads_back_is_refused_naming_the_file(cell, name):
    # ingest accepted q"x, and a later --points export refused it
    message = f"f.csv: channel {name!r} would not read back from a CSV header"
    with pytest.raises(CsvFormatError, match=f"^{re.escape(message)}$"):
        load_instance_csv(_stream(f"timestamp,x,{cell}\n0,1.0,2.0\n"), "f.csv",
                          ClassLabel.NORMAL)


def test_duplicate_channel_names_rejected():
    with pytest.raises(CsvFormatError):
        load_instance_csv(_stream("timestamp,x,x\n0,1.0,2.0\n"), "i",
                          ClassLabel.NORMAL)


def test_csv_round_trip_bit_identical(tmp_path):
    inst = make_instance("rt", ClassLabel.RAPID_LOSS, channels={
        "P-TPT": [0.1, np.nan, 1 / 3, 2.5e-7, -1.23456789012345e10],
        "T-TPT": [1.0, 2.0, 3.0, 4.0, 5.0]})
    path = tmp_path / "rt.csv"
    write_instance_csv(inst, path)
    back = load_instance_csv(path, "rt")
    assert back.label is inst.label
    assert_epoch_stamps(inst.timestamps, range(5))
    assert_epoch_stamps(back.timestamps, inst.timestamps)
    assert back.variable_names == inst.variable_names
    assert same_bits(back.values, inst.values)  # bit-identical floats and missing


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                1e308, -1e308, 1.7976931348623157e308])


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_csv_round_trip_property(tmp_path_factory, data):
    shape = data.draw(st.tuples(st.integers(1, 12), st.integers(1, 4)))
    values = data.draw(arrays(np.float64, shape, elements=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False), _EDGE_FLOATS)))
    values[data.draw(arrays(np.bool_, shape))] = np.nan
    timestamps = tuple(sorted(data.draw(st.lists(
        st.integers(0, 2**40), min_size=shape[0], max_size=shape[0]))))
    inst = TimeSeriesInstance("p", data.draw(st.sampled_from(ClassLabel)), timestamps,
                              tuple(f"c{j}" for j in range(shape[1])), values)
    path = tmp_path_factory.mktemp("round_trip") / "p.csv"
    write_instance_csv(inst, path)
    back = load_instance_csv(path, "p")
    assert back.values.tobytes() == inst.values.tobytes()
    assert back.variable_names == inst.variable_names
    assert_epoch_stamps(back.timestamps, timestamps)


def test_csv_round_trip_iso_timestamps(tmp_path):
    from datetime import datetime
    stamps = tuple(datetime(2024, 1, 1, 0, 0, s) for s in range(3))
    inst = TimeSeriesInstance(instance_id="iso", label=ClassLabel.HYDRATE,
                              timestamps=stamps, variable_names=("T-TPT",),
                              values=[[4.5], [np.nan], [5.5]])
    path = tmp_path / "iso.csv"
    write_instance_csv(inst, path)
    back = load_instance_csv(path, "iso")
    assert_iso_stamps(inst.timestamps, stamps)
    assert_iso_stamps(back.timestamps, stamps)
    assert back.variable_names == inst.variable_names
    assert same_bits(back.values, inst.values)


def test_instance_values_are_a_checked_read_only_grid():
    inst = make_instance(n=3)
    assert not hasattr(inst, "channels")
    assert inst.values.dtype == np.float64 and inst.values.shape == (3, 2)
    with pytest.raises(ValueError):
        inst.values[0, 0] = 1.0
    with pytest.raises(ValueError):  # one row short
        TimeSeriesInstance("i", ClassLabel.NORMAL, (0, 1, 2), ("x",), [[1.0], [2.0]])
    with pytest.raises(ValueError):  # names must be unique
        TimeSeriesInstance("i", ClassLabel.NORMAL, (0,), ("x", "x"), [[1.0, 2.0]])


def test_instance_rejects_infinite_value(tmp_path):
    # the CSV writer spells it Infinity, which the loader rejects, so an
    # instance holding one could not round-trip through its own file
    with pytest.raises(NonFiniteError,
                       match=r"instance 'w': infinite value at row 1, channel 'x'"):
        inst = TimeSeriesInstance("w", ClassLabel.NORMAL, (0, 1), ("x",),
                                  [[1.0], [math.inf]])
        write_instance_csv(inst, tmp_path / "w.csv")
    with pytest.raises(NonFiniteError, match="row 0, channel 'y'"):
        TimeSeriesInstance("w", ClassLabel.NORMAL, (0,), ("x", "y"), [[1.0, -math.inf]])


def test_write_matrix_csv_labeled_points(tmp_path):
    m = flatten([make_instance("a", ClassLabel.HYDRATE, 2,
                               channels={"x": [1.5, np.nan]})], ("x",))
    path = tmp_path / "points.csv"
    write_matrix_csv(m, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "instance_id,t_index,x,label"
    assert lines[1] == "a,0,1.5,2"
    assert lines[2] == "a,1,,2"


def test_write_matrix_csv_ids_read_back_at_the_header_width(tmp_path):
    # an id with a comma, a quote or a line break is one quoted field; a
    # plain id stays as it is
    ids = ("0_normal/a,b", '2_hydrate/q"x', "1_rapid_loss/c\r\nd", "0_normal/w")
    m = flatten([make_instance(i, ClassLabel.HYDRATE, 2, channels={"x": [1.5, 2.5]})
                 for i in ids], ("x",))
    path = tmp_path / "points.csv"
    write_matrix_csv(m, path)
    assert path.read_text(encoding="utf-8").endswith("\n0_normal/w,1,2.5,2\n")
    with open(path, encoding="utf-8", newline="") as f:
        header, *rows = csv.reader(f)
    assert all(len(row) == len(header) for row in rows)
    assert [row[0] for row in rows] == [i for i in ids for _ in range(2)]


# ---------------------------------------------------------------------------
# the one-pass parse against the row loop


def _stamps_key(stamps):
    """Timestamps as a comparable key: their container, type and values."""
    if isinstance(stamps, np.ndarray):
        return (type(stamps), stamps.dtype, stamps.shape, stamps.flags.writeable,
                stamps.flags.c_contiguous, stamps.tolist())
    return type(stamps), stamps, tuple(map(type, stamps))


def _outcome(load):
    """What a load gives: the instance's fields bit for bit, or its error."""
    try:
        inst = load()
    except Exception as exc:  # the type and message must match, whatever they are
        return type(exc), str(exc)
    values = inst.values
    return (inst.label, inst.variable_names, _stamps_key(inst.timestamps),
            values.shape, values.tobytes(),
            values.dtype, values.flags.c_contiguous, values.base is None)


def _assert_loads_like_the_row_loop(text, label=None, label_map=None):
    expected = _outcome(lambda: _load_rows("d.csv", text, "d.csv", label, label_map))
    actual = _outcome(lambda: load_instance_csv(_stream(text), "d.csv", label, label_map))
    assert actual == expected


_CELLS = st.one_of(
    st.integers(-2**65, 2**65).map(str),
    st.floats().map(repr),
    st.floats(allow_nan=False).map(lambda x: "%.17g" % x),
    st.sampled_from(["", "", "nan", "NaN", "NAN", "+nan", "inf", "-Infinity", "1e999",
                     "-0", "+2", "02", "0", "1", "2", "107", "1.0", "1e3", "1_0", " 1",
                     '"1"', "2024-01-01T00:00:00"]),
    st.text(alphabet="0123456789.,-+eE\n \r\"anNfiIZ", max_size=6))


@st.composite
def _csv_texts(draw):
    width = draw(st.integers(1, 3))
    has_class = draw(st.booleans())
    header = ",".join(["timestamp", *(f"v{j}" for j in range(width))]
                      + ["class"] * has_class)
    n_rows = draw(st.integers(0, 5))
    start = draw(st.integers(0, 2**40))
    rows = []
    for i in range(n_rows):
        cells = [str(start + i) if draw(st.booleans()) else draw(_CELLS)]
        cells += [draw(_CELLS) for _ in range(width)]
        if has_class:
            cells.append(draw(st.sampled_from(["2", "2", "0", "+2", "02", "107"]) | _CELLS))
        rows.append(",".join(cells))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\n\n"]))
    body = newline.join(rows) + draw(st.sampled_from(["", newline]))
    if draw(st.booleans()):  # an unstructured body over the same characters
        body = draw(st.text(alphabet="0123456789.,-+eE\n \r\"nNa", max_size=40))
    return header + "\n" + body


@given(text=_csv_texts(),
       label=st.sampled_from([None, ClassLabel.NORMAL, ClassLabel.HYDRATE]),
       label_map=st.sampled_from([None, {107: ClassLabel.HYDRATE, 2: ClassLabel.NORMAL}]))
@settings(max_examples=400, deadline=None)
def test_load_equals_the_row_loop_property(text, label, label_map):
    _assert_loads_like_the_row_loop(text, label, label_map)


@pytest.mark.parametrize("text, label, label_map", [
    *[(f"timestamp,x,y\n0,1.0,2.0\n1,3.0,{cell}\n", ClassLabel.NORMAL, None)
      for cell in ("NAN", "+nan", "inf", "Infinity", "1e999", "-1e999")],
    *[(f"timestamp,x\n{ts},1.0\n", ClassLabel.NORMAL, None)
      for ts in ("1700000000.0", "1e9", "1_0", "12345678901234567890", "+5", "-0")],
    ("timestamp,x,class\n0,1.0,+2\n1,2.0,2\n", None, None),
    ("timestamp,x,class\n0,1.0,02\n", ClassLabel.HYDRATE, None),
    ("timestamp,x,class\n0,1.0,2\n1,2.0,1\n", None, None),
    ("timestamp,x,class\n0,1.0,107\n1,2.0,107\n", None, {107: ClassLabel.HYDRATE}),
    ("timestamp,x,class\n0,1.0,107\n", None, None),
    ("timestamp,x,class\n0,1.0,107\n", ClassLabel.NORMAL, {107: ClassLabel.HYDRATE}),
    ('"timestamp","x y",class\n0,1.5,1\n', None, None),
    ('timestamp,"x\ny"\n0,1.5\n', ClassLabel.NORMAL, None),
    ('timestamp,"x\n0,1.5\n', ClassLabel.NORMAL, None),
    ("timestamp,x\r\n0,1.5\r\n1,2.5\r\n", ClassLabel.NORMAL, None),
    ("timestamp,x\r0,1.5\n", ClassLabel.NORMAL, None),
    ("timestamp,x\n0,1.5\n\n1,2.5\n", ClassLabel.NORMAL, None),
    ("timestamp,x\n\n0,1.5\n", ClassLabel.NORMAL, None),
    ("timestamp,x\n0,1.5\n\n", ClassLabel.NORMAL, None),
    ("timestamp,x,y\n0,1.5,2.5", None, None),
    ("timestamp,x,y\n0,1.5,2.5", ClassLabel.NORMAL, None),
    ("timestamp,x,y\n,1.5,2.5\n", ClassLabel.NORMAL, None),
    ("timestamp,x,y\n0,1.5,\n1,,\n2,,2", ClassLabel.NORMAL, None),
    ("timestamp,x,y,z\n0,,,\n1,,,\n", ClassLabel.NORMAL, None),
    ("timestamp,x,class\n0,1.5,\n", None, None),
    ("timestamp,x,y\n0,1.5\n", ClassLabel.NORMAL, None),
    ("timestamp,x,y\n0,1.5,2,3\n", ClassLabel.NORMAL, None),
    ("timestamp,x\n5,1.0\n3,2.0\n", ClassLabel.NORMAL, None),
    ("timestamp,x\n", ClassLabel.NORMAL, None),
    ("", ClassLabel.NORMAL, None),
])
def test_load_equals_the_row_loop(text, label, label_map):
    _assert_loads_like_the_row_loop(text, label, label_map)


def test_plain_numeric_files_never_reach_the_row_loop(tmp_path, monkeypatch):
    inst = make_instance("fast", ClassLabel.HYDRATE, channels={
        "P-TPT": [0.1, np.nan, -0.0, 5e-324, np.nan],
        "T-TPT": [np.nan, 2.0, 3.0, 4.0, np.nan]})
    path = tmp_path / "fast.csv"
    write_instance_csv(inst, path)
    expected = _outcome(lambda: load_instance_csv(path, "fast"))

    def no_row_loop(*args):
        raise AssertionError("the row loop ran")

    monkeypatch.setattr(dataset_io, "_load_rows", no_row_loop)
    assert _outcome(lambda: load_instance_csv(path, "fast")) == expected
    assert same_bits(load_instance_csv(path, "fast").values, inst.values)


@st.composite
def _bodies(draw):
    """CSV bodies with runs of empty cells, empty first and last cells and,
    sometimes, a last line without its line end."""
    lines = draw(st.lists(st.lists(st.sampled_from(["", "", "1", "-2.5e3"]),
                                   min_size=1, max_size=6), min_size=1, max_size=5))
    body = "\n".join(",".join(cells) for cells in lines)
    return body + draw(st.sampled_from(["", "\n"]))


@given(body=_bodies())
@settings(max_examples=300, deadline=None)
def test_fill_missing_equals_the_one_pass_regex(body):
    assert _fill_missing(body) == reference_fill_missing(body)


@pytest.mark.parametrize("body", [",,,\n", "1,,,,2\n", ",1,\n,", "1,", "1,,"])
def test_fill_missing_fills_runs_and_ends(body):
    assert _fill_missing(body) == reference_fill_missing(body)


# ---------------------------------------------------------------------------
# timestamps: one read-only int64 array for epoch seconds, datetimes for ISO


def test_epoch_timestamps_are_one_int64_array_on_every_path(tmp_path):
    inst, = synth_generate(default_config(n_normal=1, n_rapid_loss=0, n_hydrate=0,
                                          length=7), 3)
    assert_epoch_stamps(inst.timestamps, range(1_700_000_000, 1_700_000_007))
    path = tmp_path / "s.csv"
    write_instance_csv(inst, path)
    text = path.read_text(encoding="utf-8")
    one_pass = load_instance_csv(path, "s")
    row_loop = _load_rows("s.csv", text, "s", None, None)
    for loaded in (one_pass, row_loop):
        assert_epoch_stamps(loaded.timestamps, inst.timestamps.tolist())
        assert same_bits(loaded.values, inst.values)
    # a tuple or an integer array given to the constructor becomes the same
    for given_stamps in (tuple(range(3)), np.arange(3, dtype=np.int32), [0, 1, 2]):
        made = TimeSeriesInstance("m", ClassLabel.NORMAL, given_stamps, ("x",),
                                  [[0.0], [1.0], [2.0]])
        assert_epoch_stamps(made.timestamps, range(3))


def test_iso_timestamps_stay_a_tuple_of_datetimes():
    text = "timestamp,x\n2024-01-01T00:00:00Z,1.0\n2024-01-01T00:00:07+00:00,2.0\n"
    expected = tuple(map(datetime.fromisoformat, ("2024-01-01T00:00:00+00:00",
                                                  "2024-01-01T00:00:07+00:00")))
    for inst in (load_instance_csv(_stream(text), "iso", ClassLabel.NORMAL),
                 _load_rows("iso", text, "iso", ClassLabel.NORMAL, None)):
        assert_iso_stamps(inst.timestamps, expected)


def test_instance_keeps_a_float64_array_it_is_given():
    # an unpickled dtype equals float64 but is another object
    given = pickle.loads(pickle.dumps(np.zeros((3, 1)))).copy()
    inst = TimeSeriesInstance("i", ClassLabel.NORMAL, np.arange(3), ("x",), given)
    assert inst.values is given and not given.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        given[0, 0] = np.inf


@pytest.mark.parametrize("stamps, shown", [
    ((0, 5, 3, 9), "3"),
    (np.array([0, 5, 3, 9]), "3"),
    (tuple(datetime(2024, 1, 1, 0, 0, s) for s in (0, 5, 3, 9)), "2024-01-01 00:00:03"),
])
def test_both_order_checks_name_the_same_row(stamps, shown):
    message = f"instance 'o': timestamp at row 2 ({shown}) precedes row 1"
    with pytest.raises(TimestampOrderError, match=f"^{re.escape(message)}$"):
        TimeSeriesInstance("o", ClassLabel.NORMAL, stamps, ("x",), [[0.0]] * 4)


def test_order_checks_of_csv_files_name_the_same_row():
    epoch = "timestamp,x\n0,1.0\n5,1.0\n3,1.0\n"
    iso = ("timestamp,x\n2024-01-01T00:00:00,1.0\n2024-01-01T00:00:05,1.0\n"
           "2024-01-01T00:00:03,1.0\n")
    for text, shown in ((epoch, "3"), (iso, "2024-01-01 00:00:03")):
        message = f"instance 'o': timestamp at row 2 ({shown}) precedes row 1"
        for load in (lambda: load_instance_csv(_stream(text), "o", ClassLabel.NORMAL),
                     lambda: _load_rows("o", text, "o", ClassLabel.NORMAL, None)):
            with pytest.raises(TimestampOrderError, match=f"^{re.escape(message)}$"):
                load()


def test_timestamps_outside_int64_are_rejected():
    for stamps in ((0, 2**63), (0.0, 1.0), np.arange(2.0), np.zeros((2, 1), np.int64)):
        with pytest.raises(TypeError, match="int64 epoch seconds or datetimes"):
            TimeSeriesInstance("t", ClassLabel.NORMAL, stamps, ("x",), [[0.0], [1.0]])
    for token in (str(2**63), str(-2**63 - 1)):
        message = f"t.csv row 3: timestamp '{token}' is outside the int64 range"
        with pytest.raises(CsvFormatError, match=f"^{re.escape(message)}$"):
            load_instance_csv(_stream(f"timestamp,x\n0,1.0\n{token},2.0\n"), "t.csv",
                              ClassLabel.NORMAL)
    inst = load_instance_csv(_stream(f"timestamp,x\n{-2**63},1.0\n{2**63 - 1},2.0\n"),
                             "t", ClassLabel.NORMAL)
    assert_epoch_stamps(inst.timestamps, [-2**63, 2**63 - 1])


# ---------------------------------------------------------------------------
# the one-template writers against per-value writers


def _cells(row):
    return ["" if math.isnan(v) else format_float(v) for v in row]


def reference_instance_csv(inst):
    lines = ["timestamp," + ",".join(inst.variable_names) + ",class"]
    for ts, row in zip(inst.timestamps, inst.values.tolist()):
        ts_txt = ts.isoformat() if isinstance(ts, datetime) else str(ts)
        lines.append(",".join([ts_txt, *_cells(row), str(int(inst.label))]))
    return "\n".join(lines) + "\n"


def reference_matrix_csv(matrix):
    lines = ["instance_id,t_index," + ",".join(matrix.column_names) + ",label"]
    for (inst, t), row, label in zip(matrix.origin.tolist(), matrix.values.tolist(),
                                     matrix.labels.tolist()):
        instance_id = matrix.instance_ids[inst]
        if set(instance_id) & set(',"\r\n'):  # RFC 4180
            instance_id = '"' + instance_id.replace('"', '""') + '"'
        lines.append(",".join([instance_id, str(t), *_cells(row), str(label)]))
    return "\n".join(lines) + "\n"


_WRITTEN_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                     -1.7976931348623157e308, math.inf, -math.inf, math.nan]))


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_writers_equal_per_value_writers(tmp_path_factory, data):
    shape = data.draw(st.tuples(st.integers(1, 8), st.integers(1, 4)))
    values = data.draw(arrays(np.float64, shape, elements=_WRITTEN_FLOATS))
    if data.draw(st.booleans()):
        start = datetime(2024, 1, 1)
        timestamps = tuple(start + timedelta(seconds=7 * i) for i in range(shape[0]))
    else:
        timestamps = tuple(sorted(data.draw(st.lists(
            st.integers(-2**63, 2**63 - 1), min_size=shape[0], max_size=shape[0]))))
    # an instance holds no infinite value; the matrix below does
    inst = TimeSeriesInstance("w", data.draw(st.sampled_from(ClassLabel)), timestamps,
                              tuple(f"c{j}" for j in range(shape[1])),
                              np.where(np.isinf(values), np.nan, values))
    path = tmp_path_factory.mktemp("writers") / "w.csv"
    write_instance_csv(inst, path)
    assert path.read_text(encoding="utf-8") == reference_instance_csv(inst)

    ids = ("a,nan", "nan", "b")
    matrix = FeatureMatrix(
        inst.variable_names, values,
        data.draw(arrays(np.int64, shape[0], elements=st.integers(0, 2))),
        np.array([(data.draw(st.integers(0, 2)), t) for t in range(shape[0])]), ids)
    write_matrix_csv(matrix, path)
    assert path.read_text(encoding="utf-8") == reference_matrix_csv(matrix)


@given(name=st.text(st.sampled_from('ab. ,"\r\n\t&<'), min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_writers_write_only_channel_names_that_read_back(tmp_path_factory, name):
    inst = TimeSeriesInstance("w", ClassLabel.HYDRATE, (1, 2), ("P-TPT", name),
                              np.array([[1.0, 2.0], [3.0, np.nan]]))
    matrix = flatten([inst], inst.variable_names)
    path = tmp_path_factory.mktemp("names") / "w.csv"
    if name == name.strip() and not any(c in name for c in ',"\r\n'):
        write_instance_csv(inst, path)
        assert load_instance_csv(path, "w").variable_names == ("P-TPT", name)
        write_matrix_csv(matrix, path)
        return
    for write in (write_instance_csv, write_matrix_csv):
        with pytest.raises(ValueError, match=re.escape(
                f"channel {name!r} would not read back from a CSV header")):
            write(inst if write is write_instance_csv else matrix, path)
    assert not path.exists()


def test_write_instances_refuses_two_instances_for_one_file(tmp_path):
    first, second = synth_generate(default_config(n_normal=2, n_rapid_loss=0,
                                                  n_hydrate=0, length=5), 1)
    twin = TimeSeriesInstance(f"elsewhere/{first.instance_id}", second.label,
                              second.timestamps, second.variable_names, second.values)
    path = tmp_path / "0_normal" / f"{first.instance_id}.csv"
    with pytest.raises(HydetError, match=f"^{re.escape(str(path))}: instances "
                       f"{first.instance_id} and elsewhere/{first.instance_id} "
                       "would both be written here$"):
        write_instances([first, second, twin], tmp_path)
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# manifest


def test_build_manifest_counts_and_skips(tmp_path, caplog):
    for sub, n in (("0_normal", 2), ("1_rapid_loss", 1), ("2_hydrate", 0)):
        (tmp_path / sub).mkdir()
        for i in range(n):
            write_instance_csv(make_instance(f"{sub}-{i}"),
                               tmp_path / sub / f"w{i}.csv")
    (tmp_path / "9_unknown").mkdir()
    manifest = build_manifest(tmp_path)
    assert manifest.class_counts == {ClassLabel.NORMAL: 2,
                                     ClassLabel.RAPID_LOSS: 1,
                                     ClassLabel.HYDRATE: 0}
    assert "skipping unknown class directory" in caplog.text
    assert "9_unknown" in caplog.text
    assert not [e for e in manifest.instances if e.path.startswith("9_unknown")]
    data = to_json(manifest)
    assert set(data) == {"instances", "class_counts"}
    assert data["class_counts"]["NormalCondition"] == 2
    assert data["instances"][0] == {"id": "0_normal/w0", "path": "0_normal/w0.csv",
                                    "label": "NormalCondition"}


def test_build_manifest_empty_root(tmp_path):
    manifest = build_manifest(tmp_path)
    assert manifest.instances == ()
    assert sum(manifest.class_counts.values()) == 0


def test_build_manifest_missing_root(tmp_path):
    with pytest.raises(FileNotFoundError):
        build_manifest(tmp_path / "nope")


# ---------------------------------------------------------------------------
# flatten


def test_flatten_row_count_additivity():
    i1, i2 = make_instance("a", n=3), make_instance("b", n=4)
    m = flatten([i1, i2], ("P-TPT", "T-TPT"))
    assert m.n_rows == 7


def test_flatten_single_variable_is_identity():
    inst = make_instance("a", n=6)
    m = flatten([inst], ("P-TPT",))
    assert np.array_equal(m.values[:, 0], np.arange(6.0))


def test_flatten_labels_match_enumeration_oracle():
    instances = [make_instance("a", ClassLabel.NORMAL, 3),
                 make_instance("b", ClassLabel.HYDRATE, 2),
                 make_instance("c", ClassLabel.RAPID_LOSS, 4)]
    m = flatten(instances, ("P-TPT",))
    expected = []
    for inst in instances:  # brute-force loop over (instance, t)
        for t in range(len(inst)):
            expected.append((inst.instance_id, t, int(inst.label)))
    assert m.origin.dtype == np.int32 and m.origin.shape == (9, 2)
    got = [(m.instance_ids[i], t, int(lab))
           for (i, t), lab in zip(m.origin.tolist(), m.labels)]
    assert got == expected


def test_flatten_fills_columns_in_the_requested_order():
    # instances whose channels come in the requested order, in another order
    # or with extra channels; each row must be the instance's cells, bit for bit
    instances = [
        make_instance("a", n=3, channels={"P-TPT": [0.5, np.nan, -0.0],
                                          "T-TPT": [1.0, 2.0, 3.0]}),
        make_instance("b", ClassLabel.HYDRATE, 2, channels={"T-TPT": [4.0, 5e-324],
                                                            "P-TPT": [6.0, -7.5]}),
        make_instance("c", n=4, channels={"x": [9.0] * 4, "P-TPT": [1.0, 2.0, 3.0, 4.0],
                                          "T-TPT": [np.nan] * 4}),
    ]
    for variables in (("P-TPT", "T-TPT"), ("T-TPT", "P-TPT"), ("T-TPT",)):
        m = flatten(instances, variables)
        expected = np.concatenate([
            inst.values[:, [inst.variable_names.index(v) for v in variables]]
            for inst in instances])
        assert same_bits(m.values, expected)
        assert m.values.flags.c_contiguous and not m.values.flags.writeable
        assert m.labels.tolist() == [0] * 3 + [2] * 2 + [0] * 4


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_flatten_equals_the_reference_flatten(data):
    # instances holding the requested channels and others, in any order,
    # NaN, -0.0 and subnormal cells among their values; now and then there
    # is no instance, or one lacks a channel, and the reference's error is
    # raised
    names = ("a", "b", "c", "d")
    cells = st.sampled_from([0.5, -0.0, np.nan, 5e-324, -1e300, 3.0])
    variables = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=3,
                                   unique=True))
    instances = []
    for k in range(data.draw(st.integers(0, 5))):
        extra = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=2))
        held = data.draw(st.permutations(sorted(set(variables) | set(extra))))
        if data.draw(st.integers(0, 9)) == 0:
            held = held[1:] or held
        n = data.draw(st.integers(1, 6))
        instances.append(make_instance(
            f"i{k}", data.draw(st.sampled_from(list(ClassLabel))), n,
            {v: data.draw(st.lists(cells, min_size=n, max_size=n)) for v in held}))
    try:
        want = reference_flatten(instances, variables)
    except HydetError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            flatten(instances, variables)
        return
    got = flatten(instances, variables)
    assert (got.column_names, got.instance_ids) == (want.column_names, want.instance_ids)
    for array, expected in zip((got.values, got.labels, got.origin),
                               (want.values, want.labels, want.origin)):
        assert (array.shape, array.dtype) == (expected.shape, expected.dtype)
        assert array.tobytes() == expected.tobytes()
        assert array.flags.owndata and not array.flags.writeable


def test_flatten_missing_variable():
    with pytest.raises(MissingVariableError):
        flatten([make_instance()], ("P-TPT", "NOPE"))


def test_flatten_refuses_no_instances_and_no_variables():
    with pytest.raises(EmptyDataError, match="flatten: no instances"):
        flatten([], ("P-TPT",))
    with pytest.raises(EmptyDataError, match="flatten: no variables requested"):
        flatten([make_instance()], ())


@pytest.mark.parametrize("stamps, names, values, message", [
    ((), ("P-TPT",), np.zeros((0, 1)), "instance 'i0' has zero rows"),
    ((0, 1), (), np.zeros((2, 0)), "instance 'i0' has no channels"),
], ids=["zero-rows", "no-channels"])
def test_instance_refuses_zero_rows_and_no_channels(stamps, names, values, message):
    with pytest.raises(EmptyDataError, match=re.escape(message)):
        TimeSeriesInstance("i0", ClassLabel.NORMAL, stamps, names, values)


@pytest.mark.parametrize("values, labels, origin, message", [
    (np.ones(4), np.zeros(4), np.zeros((4, 2)),
     "values shape (4,) does not match 1 columns"),
    (np.ones((4, 1)), np.zeros(3), np.zeros((4, 2)),
     "labels length does not match row count"),
    (np.ones((4, 1)), np.zeros(4), np.zeros((4, 3)),
     "origin shape (4, 3) is not (rows, 2)"),
], ids=["values-1d", "labels-short", "origin-three-columns"])
def test_feature_matrix_refuses_arrays_of_other_shapes(values, labels, origin, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        FeatureMatrix(("P-TPT",), values, labels, origin, ("a",))


@pytest.mark.parametrize("paths, counts, message", [
    (("a.csv",), 2, "class_counts does not sum to the entry count"),
    (("a.csv", "a.csv"), 2, "manifest contains duplicate paths"),
], ids=["counts-disagree", "duplicate-paths"])
def test_manifest_refuses_counts_or_paths_that_disagree(paths, counts, message):
    entries = tuple(ManifestEntry(f"i{k}", path, ClassLabel.NORMAL)
                    for k, path in enumerate(paths))
    with pytest.raises(ValueError, match=message):
        DatasetManifest(entries, {ClassLabel.NORMAL: counts})


def test_flatten_preserves_missing_cells():
    inst = make_instance(n=3, channels={"x": [1.0, np.nan, 3.0]})
    m = flatten([inst], ("x",))
    assert np.isnan(m.values[1, 0]) and not np.isnan(m.values[0, 0])


@pytest.mark.parametrize("origin, message", [
    ([[5, 0], [5, 1], [-1, 0], [0, 0]], "row 0 is [5, 0]"),
    ([[0, 0], [0, 1], [-1, 0], [0, 2]], "row 2 is [-1, 0]"),
    ([[0, 0], [0, 1], [0, 2], [0, -3]], "row 3 is [0, -3]"),
    ([[0, 0], [1, 0], [0, 1], [1, 1]], "row 1 is [1, 0]"),
])
def test_feature_matrix_refuses_an_origin_outside_its_instances(origin, message):
    with pytest.raises(ValueError, match=re.escape(
            f"origin {message}: its instance must be in 0..0 and its time step "
            "not negative")):
        FeatureMatrix(("P-TPT",), np.ones((4, 1)), np.zeros(4), origin, ("a",))
    # every row in range, in any order, is accepted
    m = FeatureMatrix(("P-TPT",), np.ones((4, 1)), np.zeros(4),
                      [[1, 7], [0, 0], [1, 0], [0, 3]], ("a", "b"))
    assert m.take([3, 0]).origin.tolist() == [[0, 3], [1, 7]]
    assert m.take([]).n_rows == 0
    assert FeatureMatrix(("P-TPT",), np.ones((0, 1)), np.zeros(0), np.zeros((0, 2)),
                         ()).n_rows == 0


@pytest.mark.parametrize("labels, origin, message", [
    ([0, 1, 128, 0], [[0, 0]] * 4, "label row 2 is 128: outside int8 -128..127"),
    ([0, -129, 0, 0], [[0, 0]] * 4, "label row 1 is -129: outside int8 -128..127"),
    ([0] * 4, [[0, 0], [0, 1], [0, 2], [0, 2**31]],
     "origin row 3 is [0, 2147483648]: its instance must be in 0..0 and its time step "
     "not negative and at most 2147483647"),
], ids=["label-128", "label-minus-129", "origin-2-31"])
def test_feature_matrix_refuses_a_label_or_origin_that_a_cast_would_wrap(
        labels, origin, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        FeatureMatrix(("P-TPT",), np.ones((4, 1)), np.array(labels, dtype=np.int64),
                      np.array(origin, dtype=np.int64), ("a",))


def test_a_matrix_without_origin_keeps_none_and_its_readers_refuse_it(tmp_path):
    # rows past the split need no episode; the audit, the instance split and
    # the points export trace rows to episodes, so they refuse such a matrix
    m = FeatureMatrix(("P-TPT",), np.arange(4.0)[:, None], [0, 0, 1, 1], None, ("a",))
    assert m.origin is None and m.labels.dtype == np.int8
    assert m.take([3, 0]).origin is None and m.with_values(m.values * 2).origin is None
    assert [part.n_rows for part in split(m, SplitSpec(test_fraction=0.5))] == [2, 2]
    for reader, run in [
            ("the quality audit", lambda: quality_report(m)),
            ("the instance split", lambda: split(m, SplitSpec(mode="instance"))),
            ("the points export", lambda: write_matrix_csv(m, tmp_path / "p.csv"))]:
        with pytest.raises(ValueError, match=f"^{reader} traces each row to its "
                                             f"episode, but this matrix has no origin$"):
            run()
    assert not (tmp_path / "p.csv").exists()
    # given an origin, flatten, take and split keep returning it
    traced = flatten([make_instance("i0", n=3), make_instance("i1", n=3)], ("P-TPT",))
    assert [part.origin.tolist() for part in split(traced, SplitSpec(mode="instance"))] \
        in ([[[0, 0], [0, 1], [0, 2]], [[1, 0], [1, 1], [1, 2]]],
            [[[1, 0], [1, 1], [1, 2]], [[0, 0], [0, 1], [0, 2]]])


@given(lengths=st.lists(st.integers(1, 5), min_size=2, max_size=8), data=st.data())
@settings(max_examples=100, deadline=None)
def test_labels_and_origins_survive_flatten_take_and_split_bitwise(lengths, data):
    # flatten: int8 labels and int32 origins equal the (instance, step)
    # enumeration; take and split: the int8/int32 range edges pass unchanged
    codes = data.draw(st.lists(st.sampled_from(list(ClassLabel)), min_size=len(lengths),
                               max_size=len(lengths)))
    m = flatten([make_instance(f"i{k}", code, n) for k, (code, n)
                 in enumerate(zip(codes, lengths))], ("P-TPT",))
    assert (m.labels.dtype, m.origin.dtype) == (np.int8, np.int32)
    assert m.labels.tolist() == [int(c) for c, n in zip(codes, lengths) for _ in range(n)]
    assert m.origin.tolist() == [[k, t] for k, n in enumerate(lengths) for t in range(n)]

    n = sum(lengths)
    labels = np.array(data.draw(st.lists(st.integers(-128, 127), min_size=n, max_size=n)))
    steps = data.draw(st.lists(st.integers(0, 2**31 - 1), min_size=n, max_size=n,
                               unique=True))  # each row's key below
    origin = np.column_stack((np.array(data.draw(st.lists(
        st.integers(0, len(lengths) - 1), min_size=n, max_size=n))), steps))
    wide = FeatureMatrix(("P-TPT",), np.zeros((n, 1)), labels, origin, m.instance_ids)
    assert wide.labels.tobytes() == labels.astype(np.int8).tobytes()
    assert wide.origin.tolist() == origin.tolist()
    idx = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    part = wide.take(idx)
    assert part.labels.tobytes() == labels.astype(np.int8)[idx].tobytes()
    assert part.origin.tobytes() == origin.astype(np.int32)[idx].tobytes()
    row_of = {step: row for row, step in enumerate(steps)}
    rows = []
    for part in split(wide, SplitSpec(test_fraction=0.5, stratified=False)):
        idx = [row_of[step] for step in part.origin[:, 1].tolist()]
        assert part.labels.tobytes() == wide.labels[idx].tobytes()
        assert part.origin.tobytes() == wide.origin[idx].tobytes()
        rows += idx
    assert sorted(rows) == list(range(n))


# ---------------------------------------------------------------------------
# split


def _matrix(labels):
    instances = []
    for i, lab in enumerate(labels):
        instances.append(make_instance(f"i{i}", ClassLabel(lab), n=1))
    return flatten(instances, ("P-TPT",))


def test_split_7_3():
    m = _matrix([0] * 10)
    train, test = split(m, SplitSpec(test_fraction=0.3, seed=5, stratified=False))
    assert (train.n_rows, test.n_rows) == (7, 3)
    origins = set(map(tuple, train.origin.tolist() + test.origin.tolist()))
    assert len(origins) == 10  # disjoint and exhaustive


def test_split_deterministic():
    m = _matrix([0, 0, 1, 1, 2, 2, 0, 1, 2, 0])
    s = SplitSpec(test_fraction=0.4, seed=77)
    t1 = split(m, s)
    t2 = split(m, s)
    assert t1[0].origin.tobytes() == t2[0].origin.tobytes()
    assert t1[1].origin.tobytes() == t2[1].origin.tobytes()
    t3 = split(m, SplitSpec(test_fraction=0.4, seed=78))
    assert t1[1].origin.tobytes() != t3[1].origin.tobytes()


def test_stratified_split_counts_by_label_oracle():
    m = _matrix([0] * 60 + [1] * 30 + [2] * 10)
    _, test = split(m, SplitSpec(test_fraction=0.3, seed=1, stratified=True))
    counts = np.bincount(test.labels, minlength=3)
    assert counts.tolist() == [18, 9, 3]


def test_split_partition_preserves_multiset():
    m = _matrix([0, 1, 2, 0, 1, 2, 0, 0])
    train, test = split(m, SplitSpec(test_fraction=0.25, seed=3))

    def rows_of(part):
        return [(tuple(part.origin[i].tolist()), tuple(part.values[i]),
                 int(part.labels[i]))
                for i in range(part.n_rows)]

    assert sorted(rows_of(train) + rows_of(test)) == sorted(rows_of(m))


def test_instance_mode_never_splits_an_episode():
    instances = [make_instance(f"i{k}", ClassLabel(k % 3), n=4) for k in range(12)]
    m = flatten(instances, ("P-TPT",))
    for stratified in (True, False):
        train, test = split(m, SplitSpec(test_fraction=0.34, seed=9,
                                         mode="instance", stratified=stratified))
        train_ids = {train.instance_ids[i] for i in train.origin[:, 0]}
        test_ids = {test.instance_ids[i] for i in test.origin[:, 0]}
        assert not (train_ids & test_ids)
        assert train.n_rows + test.n_rows == m.n_rows


def test_stratified_instance_split_proportions_within_one():
    instances = []
    for label, count in ((ClassLabel.NORMAL, 12), (ClassLabel.RAPID_LOSS, 6),
                         (ClassLabel.HYDRATE, 4)):
        for k in range(count):
            instances.append(make_instance(f"{label.name}-{k}", label, n=3))
    m = flatten(instances, ("P-TPT",))
    _, test = split(m, SplitSpec(test_fraction=0.5, seed=2, mode="instance"))
    test_instances = {test.instance_ids[i] for i in test.origin[:, 0]}
    per_class = {label: 0 for label in ClassLabel}
    for iid in test_instances:
        per_class[ClassLabel.from_name(iid.split("-")[0])] += 1
    for label, total in ((ClassLabel.NORMAL, 12), (ClassLabel.RAPID_LOSS, 6),
                         (ClassLabel.HYDRATE, 4)):
        assert abs(per_class[label] - 0.5 * total) <= 1


def test_split_degenerate_errors():
    with pytest.raises(SplitError):
        split(_matrix([0]), SplitSpec())
    with pytest.raises(SplitError, match="instance split needs at least 2 instances"):
        split(flatten([make_instance()], ("P-TPT",)), SplitSpec(mode="instance"))
    for unit in ("row", "instance"):  # class with a single unit
        with pytest.raises(SplitError, match=re.escape(
                f"class 1 has 1 {unit}(s); stratified {unit} split needs at least 2")):
            split(_matrix([0, 0, 1]), SplitSpec(test_fraction=0.5, mode=unit))
    with pytest.raises(SplitError):  # empty test part
        split(_matrix([0, 0, 0]), SplitSpec(test_fraction=0.01, stratified=False))


def test_split_modes_draw_alike_on_one_row_instances():
    # with one row per instance, an instance is a row: both modes draw the
    # same units with the same streams
    m = _matrix([0] * 13 + [1] * 7 + [2] * 5 + [0] * 4)
    for stratified in (True, False):
        for seed in (0, 1, 42, 99):
            row, inst = (split(m, SplitSpec(test_fraction=0.3, seed=seed, mode=mode,
                                            stratified=stratified))
                         for mode in ("row", "instance"))
            assert row[0].origin.tolist() == inst[0].origin.tolist()
            assert row[1].origin.tolist() == inst[1].origin.tolist()


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(test_fraction=0.0)
    with pytest.raises(ValueError):
        SplitSpec(mode="columns")


@given(lengths=st.lists(st.integers(1, 9), min_size=4, max_size=12), data=st.data())
@settings(max_examples=150, deadline=None)
def test_split_in_place_equals_split_bitwise(lengths, data):
    # the train rows move in blocks of 1 to 8 rows, and the matrix's arrays
    # then hold the train part
    codes = data.draw(st.lists(st.sampled_from(list(ClassLabel)), min_size=len(lengths),
                               max_size=len(lengths)))
    instances = [make_instance(f"i{k}", code, n, {"x": list(np.linspace(-1, k, n)),
                                                  "y": [float("nan")] * n})
                 for k, (code, n) in enumerate(zip(codes, lengths))]
    spec = SplitSpec(test_fraction=data.draw(st.sampled_from([0.2, 0.5, 0.75])),
                     seed=data.draw(st.integers(0, 99)),
                     mode=data.draw(st.sampled_from(["row", "instance"])),
                     stratified=data.draw(st.booleans()))
    matrix = flatten(instances, ("y", "x"))
    try:
        want = split(matrix, spec)
    except SplitError as exc:
        with pytest.raises(SplitError, match=f"^{re.escape(str(exc))}$"):
            dataset_transform._split_in_place(matrix, spec)
        return
    block = data.draw(st.integers(1, 8))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset_transform, "_MOVE_ROWS", block)
        got = dataset_transform._split_in_place(matrix, spec)
    for part, expected in zip(got, want):
        for name in ("values", "labels", "origin"):
            array = getattr(part, name)
            assert array.dtype == getattr(expected, name).dtype
            assert array.tobytes() == getattr(expected, name).tobytes()
            assert not array.flags.writeable
        assert part.instance_ids == expected.instance_ids
    assert matrix.values is got[0].values and matrix.n_rows == got[0].n_rows


def test_split_in_place_leaves_a_view_free_matrix_owned():
    matrix = flatten([make_instance(f"i{k}", ClassLabel(k % 3), 6) for k in range(9)],
                     ("P-TPT", "T-TPT"))
    before = matrix.values.copy()
    split(matrix, SplitSpec())
    assert matrix.values.tobytes() == before.tobytes()  # the library split copies
    train, test = dataset_transform._split_in_place(matrix, SplitSpec())
    assert train.values.flags.owndata and test.values.flags.owndata
    assert train.n_rows + test.n_rows == before.shape[0]
