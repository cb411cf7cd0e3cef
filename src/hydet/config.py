"""End-to-end run configuration.

A config file fully determines a run. Every section is read off its
dataclass by the ``codec`` rules, so each key and default is written once,
on the dataclass, and any bad value is a ``ConfigError`` naming its key path
as written in the file. CLI flags override file values, and the effective
configuration is echoed into the output directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .codec import to_json
from .declarations import (CANONICAL_VARIABLE_NAMES, MODEL_SECTIONS, ClassifiersConfig,
                           PreprocessConfig, SplitSpec, SynthConfig)
from .errors import ConfigError
from .stats import TestConfig


@dataclass(frozen=True)
class DataConfig:
    """The corpus a run reads: a directory ``root`` or a ``synth`` config."""
    root: str | None = None
    synth: SynthConfig | None = None

    def __post_init__(self):
        if self.root is not None and self.synth is not None:
            raise ConfigError("give either root or synth, not both")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 42
    out_dir: str = "out"
    variables: tuple[str, ...] = CANONICAL_VARIABLE_NAMES
    models: tuple[str, ...] = tuple(MODEL_SECTIONS)
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    split: SplitSpec = field(default_factory=SplitSpec)
    classifiers: ClassifiersConfig = field(default_factory=ClassifiersConfig)
    stats: TestConfig = field(default_factory=TestConfig)
    data: DataConfig = field(default_factory=DataConfig)  # last in config.json

    def __post_init__(self):
        if not self.variables:
            raise ConfigError("variables list is empty")
        bad = [m for m in self.models if m not in MODEL_SECTIONS]
        if bad:
            raise ConfigError(f"unknown models {bad}; "
                              f"choose from {', '.join(MODEL_SECTIONS)}")
        if not self.models:
            raise ConfigError("models list is empty")
        for key, names in (("variables", self.variables), ("models", self.models)):
            for i, name in enumerate(names):
                if name in names[:i]:
                    raise ConfigError(f"{key} lists {name!r} more than once")

    def to_json_dict(self) -> dict:
        """``to_json`` with only the data source that is set under ``data``."""
        out = to_json(self)
        out["data"] = {k: v for k, v in out["data"].items() if v is not None}
        return out
