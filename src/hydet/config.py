"""End-to-end run configuration.

A config file fully determines a run. Every section is read off its
dataclass by the ``codec`` rules, so each key and default is written once,
on the dataclass, and any bad value is a ``ConfigError`` naming its key path
as written in the file. CLI flags override file values, and the effective
configuration is echoed into the output directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

from .classifiers import MODELS, ClassifiersConfig
from .codec import (_build, _fields_from_json, from_json,  # noqa: F401 (re-exported)
                    to_json)
from .dataset.model import CANONICAL_VARIABLE_NAMES, SplitSpec
from .dataset.synth import SynthConfig
from .errors import ConfigError
from .quality import PreprocessConfig
from .stats import TestConfig


_DATA_KEYS = {"root": "data_root", "synth": "synth"}  # key under "data" -> field


@dataclass(frozen=True)
class RunConfig:
    seed: int = 42
    out_dir: str = "out"
    variables: tuple[str, ...] = CANONICAL_VARIABLE_NAMES
    models: tuple[str, ...] = tuple(MODELS)
    data_root: str | None = None
    synth: SynthConfig | None = None
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    split: SplitSpec = field(default_factory=SplitSpec)
    classifiers: ClassifiersConfig = field(default_factory=ClassifiersConfig)
    stats: TestConfig = field(default_factory=TestConfig)

    def __post_init__(self):
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
