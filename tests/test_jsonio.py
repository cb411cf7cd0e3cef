import json
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydet import jsonio
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
