import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydet import jsonio
from hydet.codec import to_json
from hydet.errors import HydetError
from oracles import reference_dumps


def test_floats_render_at_17_significant_digits():
    assert jsonio.format_float(0.1) == "0.10000000000000001"
    assert jsonio.format_float(1.0) == "1"
    assert jsonio.format_float(-2.5e-7) == "-2.4999999999999999e-07"


def test_17g_round_trips_doubles():
    for x in (0.1, 1/3, 1e300, -4.9e-324, 2.0**52 + 0.5, math.pi):
        assert float(jsonio.format_float(x)) == x


def test_dumps_sorted_keys_and_parseable():
    text = jsonio.dumps({"b": [1, 2.5], "a": {"y": None, "x": True}})
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"b": [1, 2.5], "a": {"y": None, "x": True}}


def test_dumps_deterministic():
    obj = {"k": [0.1, {"z": 3, "a": False}], "m": "text"}
    assert jsonio.dumps(obj) == jsonio.dumps(json.loads(jsonio.dumps(obj)))


def test_rejects_non_string_keys_and_unknown_types():
    with pytest.raises(TypeError):
        jsonio.dumps({1: "x"})
    with pytest.raises(TypeError):
        jsonio.dumps({"x": object()})


def test_load_names_the_file_for_duplicate_keys_and_bad_json(tmp_path):
    path = tmp_path / "r.json"
    for text, message in (('{"a": [{"x": 1, "y": 2, "x": 3}]}', "duplicate key 'x'"),
                          ('{"a": ', "invalid JSON")):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(HydetError) as info:
            jsonio.load(path)
        assert str(info.value).startswith(f"{path}: ")
        assert message in str(info.value)


def test_dump_and_load_file(tmp_path):
    path = tmp_path / "r.json"
    jsonio.dump({"v": 0.25}, path)
    assert jsonio.load(path) == {"v": 0.25}
    assert path.read_bytes().endswith(b"}\n")


def test_dump_leaves_no_partial_file_when_rendering_fails(tmp_path):
    # the rows before the bad value are rendered, and written, first
    path = tmp_path / "r.json"
    with pytest.raises(TypeError, match="unsupported JSON value type: object"):
        jsonio.dump({"a": np.zeros((jsonio._ROW_BLOCK * 2, 2)), "b": object()}, path)
    assert not path.exists()
    path.write_text("old", encoding="utf-8")
    with pytest.raises(TypeError, match="non-string JSON key"):
        jsonio.dump({"a": [1, {2: 3}]}, path)
    assert not path.exists()


_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1.7976931348623157e308, math.inf, -math.inf, math.nan]))
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70), _FLOATS,
                     st.text(max_size=5))


@st.composite
def _float_rows(draw):
    """A list of equal-length float lists, the shape of a k-NN model's rows."""
    width = draw(st.integers(1, 4))
    row = st.lists(_FLOATS, min_size=width, max_size=width)
    rows = draw(st.lists(row | st.tuples(*[_FLOATS] * width), min_size=1, max_size=6))
    if draw(st.booleans()):  # a row of another width or kind ends the fast path
        rows.insert(draw(st.integers(0, len(rows))),
                    draw(st.lists(st.one_of(_FLOATS, st.integers(), st.booleans()),
                                  max_size=5)))
    return rows


_JSON = st.recursive(
    _SCALARS | _float_rows(),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.tuples(children, children),
                               st.dictionaries(st.text(max_size=4), children, max_size=4)),
    max_leaves=30)


@given(_JSON)
@settings(max_examples=300, deadline=None)
def test_dumps_equals_the_recursive_reference_renderer(obj):
    assert jsonio.dumps(obj) == reference_dumps(obj)


def _chain(depth):
    node = {"counts": [3, 0]}
    for level in range(depth):
        node = {"feature": level % 4, "threshold": level + 0.5, "left": node,
                "right": {"counts": [0, 1]}}
    return node


def test_deep_chain_dumps_in_linear_time():
    assert jsonio.dumps(_chain(60)) == reference_dumps(_chain(60))
    chain = _chain(900)
    start = time.perf_counter()
    text = jsonio.dumps(chain)
    assert time.perf_counter() - start < 1.0
    assert text.count('"threshold"') == 900


# ---------------------------------------------------------------------------
# 2-D float arrays, written a block of rows at a time


def _spread_floats(rng, n_rows, width):
    return rng.normal(size=(n_rows, width)) * 10.0 ** rng.integers(-300, 300,
                                                                   size=(n_rows, width))


@pytest.mark.parametrize("n_rows", [jsonio._ROW_BLOCK - 1, jsonio._ROW_BLOCK,
                                    jsonio._ROW_BLOCK + 1])
def test_dump_writes_a_float_array_as_its_rows(tmp_path, n_rows):
    arr = _spread_floats(np.random.default_rng(n_rows), n_rows, 3)
    arr[0, 0], arr[-1, -1] = -0.0, 5e-324
    path = tmp_path / "rows.json"
    jsonio.dump(arr, path)
    assert path.read_bytes() == reference_dumps(arr.tolist()).encode("utf-8")
    nested = {"train": arr, "k": [arr[:2], 1]}
    jsonio.dump(nested, path)
    expected = reference_dumps({"train": arr.tolist(), "k": [arr[:2].tolist(), 1]})
    assert path.read_bytes() == expected.encode("utf-8")
    assert jsonio.dumps(nested) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("row", [0, jsonio._ROW_BLOCK - 1, jsonio._ROW_BLOCK + 5])
def test_dump_spells_non_finite_cells_as_before(tmp_path, bad, row):
    # the block holding the cell respells the template's nan, inf and -inf
    arr = _spread_floats(np.random.default_rng(row), jsonio._ROW_BLOCK + 9, 2)
    arr[row, 1] = bad
    path = tmp_path / "bad.json"
    jsonio.dump({"rows": arr}, path)
    expected = reference_dumps({"rows": arr.tolist()})
    assert path.read_bytes() == expected.encode("utf-8")
    assert jsonio.dumps({"rows": arr}) == expected


def test_dump_writes_empty_float_arrays_as_their_rows(tmp_path):
    path = tmp_path / "empty.json"
    for arr in (np.empty((0, 3)), np.empty((2, 0))):
        jsonio.dump({"a": arr}, path)
        assert path.read_text(encoding="utf-8") == reference_dumps({"a": arr.tolist()})


def test_to_json_passes_arrays_whole_and_dump_writes_them_as_lists(tmp_path):
    path = tmp_path / "arrays.json"
    for arr in (np.arange(6.0).reshape(3, 2), np.arange(3.0), np.arange(6).reshape(3, 2),
                np.arange(6.0, dtype=np.float32).reshape(3, 2), np.array(True),
                np.arange(8.0).reshape(2, 2, 2)):
        assert to_json(arr) is arr
        jsonio.dump({"a": arr}, path)
        assert path.read_text(encoding="utf-8") == reference_dumps({"a": arr.tolist()})
    for scalar in (np.float64(2.5), np.int32(-3), np.bool_(False)):
        out = to_json(scalar)
        assert type(out) is type(scalar.item()) and out == scalar.item()


@pytest.mark.parametrize("n", [1, jsonio._ROW_BLOCK - 1, jsonio._ROW_BLOCK,
                               2 * jsonio._ROW_BLOCK + 3])
@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint64])
def test_dump_writes_an_integer_array_as_its_items(tmp_path, n, dtype):
    # a block of items goes through one %d template
    info = np.iinfo(dtype)
    arr = np.random.default_rng(n).integers(info.min, info.max, size=n, dtype=dtype,
                                            endpoint=True)
    arr[0] = info.max
    path = tmp_path / "labels.json"
    jsonio.dump({"labels": arr, "k": [arr[:2], 1]}, path)
    expected = reference_dumps({"labels": arr.tolist(), "k": [arr[:2].tolist(), 1]})
    assert path.read_bytes() == expected.encode("utf-8")
    for empty in (np.empty(0, dtype), np.array([True, False])):
        assert jsonio.dumps({"a": empty}) == reference_dumps({"a": empty.tolist()})
