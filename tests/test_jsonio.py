import json
import math

import pytest

from hydet import jsonio
from hydet.errors import HydetError


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
