"""End-to-end run configuration with strict JSON round-trip.

A config file fully determines a run; unknown keys are rejected at every
nesting level so typos fail loudly instead of silently using defaults. CLI
flags override file values, and the effective configuration is echoed into
the output directory.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Mapping

from .classifiers import ClassifiersConfig
from .dataset.model import CANONICAL_VARIABLE_NAMES, SplitSpec
from .dataset.synth import SynthConfig, config_from_json, config_to_json
from .errors import ConfigError
from .quality import PreprocessConfig
from .stats import TestConfig


def _check_keys(data: Mapping, allowed: set[str], where: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 42
    out_dir: str = "out"
    variables: tuple[str, ...] = CANONICAL_VARIABLE_NAMES
    models: tuple[str, ...] = ("dt", "knn", "nb")
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
        bad = [m for m in self.models if m not in ("dt", "knn", "nb")]
        if bad:
            raise ConfigError(f"unknown models {bad}; choose from dt, knn, nb")
        if not self.models:
            raise ConfigError("models list is empty")

    def require_data(self) -> None:
        if self.data_root is None and self.synth is None:
            raise ConfigError("config needs a data source: data.root or data.synth")

    def to_json_dict(self) -> dict:
        data: dict = {}
        if self.data_root is not None:
            data["root"] = self.data_root
        if self.synth is not None:
            data["synth"] = config_to_json(self.synth)
        return {
            "seed": self.seed,
            "out_dir": self.out_dir,
            "variables": list(self.variables),
            "models": list(self.models),
            "threads": self.threads,
            "data": data,
            "preprocess": asdict(self.preprocess),
            "split": asdict(self.split),
            "classifiers": {
                "tree": {
                    "max_depth": self.classifiers.tree_max_depth,
                    "min_samples_split": self.classifiers.tree_min_samples_split,
                    "min_impurity_decrease": self.classifiers.tree_min_impurity_decrease,
                },
                "knn": {"k": self.classifiers.knn_k},
                "nb": {"eps_rel": self.classifiers.nb_eps_rel},
            },
            "stats": {"alpha": self.stats.alpha, "method": self.stats.method},
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "RunConfig":
        _check_keys(data, {"seed", "out_dir", "variables", "models", "threads",
                           "data", "preprocess", "split", "classifiers", "stats"},
                    "config")
        kwargs: dict = {}
        for key, conv in (("seed", int), ("out_dir", str), ("threads", int)):
            if key in data:
                kwargs[key] = conv(data[key])
        if "variables" in data:
            kwargs["variables"] = tuple(str(v) for v in data["variables"])
        if "models" in data:
            kwargs["models"] = tuple(str(m) for m in data["models"])

        if "data" in data:
            _check_keys(data["data"], {"root", "synth"}, "config.data")
            if "root" in data["data"] and "synth" in data["data"]:
                raise ConfigError("config.data: give either root or synth, not both")
            if "root" in data["data"]:
                kwargs["data_root"] = str(data["data"]["root"])
            if "synth" in data["data"]:
                kwargs["synth"] = config_from_json(data["data"]["synth"])

        if "preprocess" in data:
            src = data["preprocess"]
            _check_keys(src, {"tukey_multiplier", "quartile_method", "normalization"},
                        "config.preprocess")
            kwargs["preprocess"] = PreprocessConfig(
                tukey_multiplier=float(src.get("tukey_multiplier", 1.5)),
                quartile_method=str(src.get("quartile_method", "linear")),
                normalization=str(src.get("normalization", "zscore")))

        if "split" in data:
            src = data["split"]
            _check_keys(src, {"test_fraction", "seed", "mode", "stratified"},
                        "config.split")
            kwargs["split"] = SplitSpec(
                test_fraction=float(src.get("test_fraction", 0.25)),
                seed=int(src.get("seed", 42)),
                mode=str(src.get("mode", "row")),
                stratified=bool(src.get("stratified", True)))

        if "classifiers" in data:
            src = data["classifiers"]
            _check_keys(src, {"tree", "knn", "nb"}, "config.classifiers")
            tree = src.get("tree", {})
            _check_keys(tree, {"max_depth", "min_samples_split",
                               "min_impurity_decrease"}, "config.classifiers.tree")
            knn = src.get("knn", {})
            _check_keys(knn, {"k"}, "config.classifiers.knn")
            nb = src.get("nb", {})
            _check_keys(nb, {"eps_rel"}, "config.classifiers.nb")
            max_depth = tree.get("max_depth", 16)
            kwargs["classifiers"] = ClassifiersConfig(
                tree_max_depth=None if max_depth is None else int(max_depth),
                tree_min_samples_split=int(tree.get("min_samples_split", 2)),
                tree_min_impurity_decrease=float(tree.get("min_impurity_decrease", 0.0)),
                knn_k=int(knn.get("k", 5)),
                nb_eps_rel=float(nb.get("eps_rel", 1e-9)))

        if "stats" in data:
            src = data["stats"]
            _check_keys(src, {"alpha", "method"}, "config.stats")
            try:
                kwargs["stats"] = TestConfig(alpha=float(src.get("alpha", 0.05)),
                                             method=str(src.get("method", "auto")))
            except ValueError as exc:
                raise ConfigError(str(exc)) from None

        return cls(**kwargs)
