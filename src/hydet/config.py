"""End-to-end run configuration and its JSON codec.

A config file fully determines a run. Every section is read off its
dataclass's own fields and type hints, so each key and default is written
once, on the dataclass. Unknown keys are rejected at every nesting level so
typos fail loudly instead of silently using defaults. A JSON number is
accepted for a ``float``; an ``int``, ``str`` or ``bool`` needs exactly that
JSON type; a list reads as a tuple and an object as a mapping (class names
as keys read via ``ClassLabel.from_name``) or a nested section; ``null`` only
where the hint allows ``None``. Any bad value is a ``ConfigError`` naming
its key path as written in the file. CLI flags override file values, and the
effective configuration is echoed into the output directory.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from types import NoneType, UnionType
from typing import Any, Union, get_args, get_origin, get_type_hints

from .classifiers import MODELS, ClassifiersConfig
from .dataset.model import CANONICAL_VARIABLE_NAMES, ClassLabel, SplitSpec
from .dataset.synth import SynthConfig
from .errors import ConfigError
from .quality import PreprocessConfig
from .stats import TestConfig


_JSON_NAMES = {tuple: "a list", Mapping: "an object", float: "a number",
               int: "an integer", str: "a string", bool: "true or false"}


def to_json(value: Any) -> Any:
    """JSON form of a config value; ``from_json`` reads it back."""
    if is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Mapping):
        return {k.display_name if isinstance(k, ClassLabel) else k: to_json(v)
                for k, v in value.items()}
    if isinstance(value, tuple):
        return [to_json(v) for v in value]
    return value


def from_json(hint: Any, value: Any, path: str) -> Any:
    """The value of type ``hint`` spelled by the JSON ``value`` at key ``path``."""
    if is_dataclass(hint):
        return _build(hint, _fields_from_json(hint, value, path,
                                              {f.name: f.name for f in fields(hint)}),
                      path)
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType):  # X | None
        if value is None and NoneType in args:
            return None
        (hint,) = (a for a in args if a is not NoneType)
        return from_json(hint, value, path)
    if origin is tuple and isinstance(value, list):
        hints = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(hints) != len(value):
            raise ConfigError(f"{path}: expected {len(hints)} items, got {value!r}")
        return tuple(from_json(h, v, f"{path}[{i}]")
                     for i, (h, v) in enumerate(zip(hints, value)))
    if origin is Mapping and isinstance(value, dict):
        key_hint, value_hint = args
        return {_key(key_hint, k, path): from_json(value_hint, v, f"{path}.{k}")
                for k, v in value.items()}
    if hint is float and type(value) in (int, float):
        try:
            return float(value)
        except OverflowError:  # an integer literal beyond float range
            pass
    if hint in (int, str, bool) and type(value) is hint:
        return value
    raise ConfigError(f"{path}: expected {_JSON_NAMES[origin or hint]}, got {value!r}")


def _key(hint: Any, key: str, path: str) -> Any:
    if hint is not ClassLabel:
        return key
    try:
        return ClassLabel.from_name(key)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _fields_from_json(cls: type, value: Any, path: str,
                      keys: Mapping[str, str]) -> dict:
    """Constructor arguments of ``cls`` from the JSON object ``value``, whose
    keys name fields through ``keys``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {value!r}")
    unknown = sorted(f"{path}.{k}" for k in set(value) - set(keys))
    if unknown:
        raise ConfigError(f"unknown keys {unknown}")
    hints = get_type_hints(cls)
    return {keys[k]: from_json(hints[keys[k]], v, f"{path}.{k}")
            for k, v in value.items()}


def _build(cls: type, kwargs: dict, path: str) -> Any:
    missing = [f.name for f in fields(cls) if f.name not in kwargs
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{path}: missing required keys {missing}")
    try:
        return cls(**kwargs)
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


_DATA_KEYS = {"root": "data_root", "synth": "synth"}  # key under "data" -> field


@dataclass(frozen=True)
class RunConfig:
    seed: int = 42
    out_dir: str = "out"
    variables: tuple[str, ...] = CANONICAL_VARIABLE_NAMES
    models: tuple[str, ...] = tuple(MODELS)
    threads: int = 1
    data_root: str | None = None
    synth: SynthConfig | None = None
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    split: SplitSpec = field(default_factory=SplitSpec)
    classifiers: ClassifiersConfig = field(default_factory=ClassifiersConfig)
    stats: TestConfig = field(default_factory=TestConfig)

    def __post_init__(self):
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if not self.variables:
            raise ConfigError("variables list is empty")
        bad = [m for m in self.models if m not in MODELS]
        if bad:
            raise ConfigError(f"unknown models {bad}; choose from {', '.join(MODELS)}")
        if not self.models:
            raise ConfigError("models list is empty")

    def require_data(self) -> None:
        if self.data_root is None and self.synth is None:
            raise ConfigError("config needs a data source: data.root or data.synth")

    def to_json_dict(self) -> dict:
        out = to_json(self)
        sources = {key: out.pop(name) for key, name in _DATA_KEYS.items()}
        out["data"] = {k: v for k, v in sources.items() if v is not None}
        return out

    @classmethod
    def from_json_dict(cls, data: Any) -> "RunConfig":
        """Read a config file's JSON: ``data.root`` and ``data.synth`` fill
        ``data_root`` and ``synth``, every other key names its field."""
        if not isinstance(data, dict):
            raise ConfigError(f"config: expected an object, got {data!r}")
        top = {k: v for k, v in data.items() if k != "data"}
        kwargs = _fields_from_json(cls, top, "config", {
            f.name: f.name for f in fields(cls) if f.name not in _DATA_KEYS.values()})
        kwargs |= _fields_from_json(cls, data.get("data", {}), "config.data",
                                    _DATA_KEYS)
        if kwargs.get("data_root") is not None and kwargs.get("synth") is not None:
            raise ConfigError("config.data: give either root or synth, not both")
        return _build(cls, kwargs, "config")
