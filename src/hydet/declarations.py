"""Class labels, canonical channels, config sections and the eval report,
declared without numpy so that ``hydet compare`` and ``import hydet`` load
none; the modules that implement them re-export them under their old paths."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Mapping

from .errors import ConfigError


class ClassLabel(IntEnum):
    """Operational condition of a well episode. Codes are fixed: 0/1/2."""

    NORMAL = 0
    RAPID_LOSS = 1
    HYDRATE = 2

    @property
    def display_name(self) -> str:
        return _DISPLAY_NAMES[self]

    @classmethod
    def from_name(cls, name: str) -> "ClassLabel":
        for label, display in _DISPLAY_NAMES.items():
            if name in (display, label.name):
                return label
        raise ValueError(f"unknown class label name: {name!r}")


_DISPLAY_NAMES = {
    ClassLabel.NORMAL: "NormalCondition",
    ClassLabel.RAPID_LOSS: "RapidProductivityLoss",
    ClassLabel.HYDRATE: "Hydrate",
}


@dataclass(frozen=True)
class SensorVariable:
    """A named sensor channel with its physical unit."""

    name: str
    unit: str


#: The four process variables used for modeling, in canonical column order.
CANONICAL_VARIABLES = (
    SensorVariable("P-TPT", "Pa"),
    SensorVariable("T-TPT", "degC"),
    SensorVariable("P-MON-CKP", "Pa"),
    SensorVariable("T-JUS-CKP", "degC"),
)

CANONICAL_VARIABLE_NAMES = tuple(v.name for v in CANONICAL_VARIABLES)

_CANONICAL_BY_NAME = {v.name: v for v in CANONICAL_VARIABLES}


def variable_info(name: str) -> SensorVariable:
    """Registry lookup; non-canonical channels carry no unit guarantee."""
    return _CANONICAL_BY_NAME.get(name, SensorVariable(name, ""))


def check_header_names(names, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` naming the first of ``names`` that a CSV header cell would
    not read back: one with a comma, double quote, CR, LF or edge whitespace."""
    for name in names:
        if name != name.strip() or any(c in name for c in ',"\r\n'):
            raise error(f"channel {name!r} would not read back from a CSV header")


@dataclass(frozen=True)
class SplitSpec:
    """Parameters of the deterministic train/test partition."""

    test_fraction: float = 0.25
    seed: int = 42
    mode: str = "row"
    stratified: bool = True

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0,1), got {self.test_fraction}")
        if self.mode not in ("row", "instance"):
            raise ValueError(f"mode must be 'row' or 'instance', got {self.mode!r}")


@dataclass(frozen=True)
class PreprocessConfig:
    tukey_multiplier: float = 1.5
    quartile_method: str = "linear"
    normalization: str = "zscore"

    def __post_init__(self):
        if self.tukey_multiplier <= 0:
            raise ConfigError("tukey_multiplier must be > 0")
        if self.quartile_method not in ("linear", "nearest"):
            raise ConfigError(f"unknown quartile_method {self.quartile_method!r}")
        if self.normalization not in ("zscore", "minmax"):
            raise ConfigError(f"unknown normalization {self.normalization!r}")


@dataclass(frozen=True)
class TreeConfig:
    """Hyperparameters of ``DecisionTree``: the ``classifiers.tree`` section."""

    max_depth: int | None = 16
    min_samples_split: int = 2
    min_impurity_decrease: float = 0.0

    def __post_init__(self):
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be None or >= 0")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.min_impurity_decrease < 0:
            raise ValueError("min_impurity_decrease must be >= 0")


@dataclass(frozen=True)
class KnnConfig:
    """Hyperparameters of ``KnnClassifier``: the ``classifiers.knn`` section."""

    k: int = 5

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class NbConfig:
    """Hyperparameters of ``GaussianNb``: the ``classifiers.nb`` section."""

    eps_rel: float = 1e-9

    def __post_init__(self):
        if self.eps_rel <= 0:
            raise ValueError("eps_rel must be > 0")


#: model name -> ``ClassifiersConfig`` section; ``classifiers.MODELS`` adds the class
MODEL_SECTIONS = {"dt": "tree", "knn": "knn", "nb": "nb"}


@dataclass(frozen=True)
class ClassifiersConfig:
    tree: TreeConfig = field(default_factory=TreeConfig)
    knn: KnnConfig = field(default_factory=KnnConfig)
    nb: NbConfig = field(default_factory=NbConfig)


@dataclass(frozen=True)
class ChannelModel:
    """Generator parameters of one channel within a class regime."""

    start: float
    end: float | None = None
    latent_loading: float = 0.0
    noise_sd: float = 1.0
    clamp: tuple[float, float] | None = None

    def __post_init__(self):
        values = [self.start, self.latent_loading, self.noise_sd]
        if self.end is not None:
            values.append(self.end)
        if self.clamp is not None:
            values.extend(self.clamp)
        if not all(math.isfinite(v) for v in values):
            raise ConfigError("channel regime parameters must be finite")
        if self.noise_sd < 0:
            raise ConfigError("noise_sd must be >= 0")


@dataclass(frozen=True)
class SynthConfig:
    counts: Mapping[ClassLabel, int]
    length: int = 60
    regimes: Mapping[ClassLabel, Mapping[str, ChannelModel]] = field(
        default_factory=lambda: default_regimes())
    missing_fraction: float = 0.0
    frozen_fraction: float = 0.0
    outlier_fractions: Mapping[str, float] = field(default_factory=dict)
    epoch_start: int = 1_700_000_000

    def __post_init__(self):
        object.__setattr__(self, "counts", {label: self.counts.get(label, 0)
                                            for label in ClassLabel})
        if any(c < 0 for c in self.counts.values()):
            raise ConfigError("instance counts must be >= 0")
        if sum(self.counts.values()) == 0:
            raise ConfigError("zero total instances requested")
        if self.length < 1:
            raise ConfigError("length must be >= 1")
        if not -2**63 <= self.epoch_start <= 2**63 - self.length:
            raise ConfigError("epoch_start and the length must keep every "
                              "timestamp in the int64 range")
        for name, frac in (("missing_fraction", self.missing_fraction),
                           ("frozen_fraction", self.frozen_fraction),
                           *((f"outlier_fractions[{k}]", v)
                             for k, v in self.outlier_fractions.items())):
            if not 0.0 <= frac < 1.0:
                raise ConfigError(f"{name} must be in [0,1), got {frac}")
        for label, count in self.counts.items():
            if count > 0 and label not in self.regimes:
                raise ConfigError(f"no regime configured for class {label.display_name}")
        for label, count in self.counts.items():
            if count > 0:
                absent = set(self.variables) - set(self.regimes[label])
                if absent:
                    raise ConfigError(f"regime {label.display_name} lacks channels "
                                      f"{sorted(absent)}")
        for var in self.outlier_fractions:
            if var not in self.variables:
                raise ConfigError(f"outlier fraction for unknown channel {var!r}")
        check_header_names(self.variables, ConfigError)

    @property
    def variables(self) -> tuple[str, ...]:
        """Channel order: canonical names first, extras alphabetically.

        Independent of regime-dict key order, so a config that round-trips
        through sorted-key JSON generates an identical corpus. Every active
        regime must cover this union (enforced at construction).
        """
        names: set[str] = set()
        for regime in self.regimes.values():
            names.update(regime)
        ordered = [v for v in CANONICAL_VARIABLE_NAMES if v in names]
        ordered += sorted(names - set(CANONICAL_VARIABLE_NAMES))
        return tuple(ordered)


def default_regimes() -> dict[ClassLabel, dict[str, ChannelModel]]:
    """Tuned default regimes for the four canonical channels."""
    normal = {
        "P-TPT": ChannelModel(start=2.0e7, latent_loading=9.0e5, noise_sd=4.0e5),
        "T-TPT": ChannelModel(start=80.0, latent_loading=4.5, noise_sd=2.2),
        "P-MON-CKP": ChannelModel(start=1.7e7, latent_loading=6.5e5, noise_sd=3.0e5),
        "T-JUS-CKP": ChannelModel(start=42.0, latent_loading=4.4, noise_sd=2.1),
    }
    # head offset from the normal centre: +/- 1.9 total-sd per channel with
    # signs alternating against the latent axis (see ``dataset.synth``)
    rapid_loss = {
        "P-TPT": ChannelModel(start=2.19e7, end=0.75e7,
                              latent_loading=2.5e5, noise_sd=1.5e5),
        "T-TPT": ChannelModel(start=70.5, end=2.0,
                              latent_loading=1.6, noise_sd=1.0),
        "P-MON-CKP": ChannelModel(start=1.563e7, end=1.43e7,
                                  latent_loading=2.0e5, noise_sd=1.2e5),
        "T-JUS-CKP": ChannelModel(start=51.3, end=16.0,
                                  latent_loading=1.6, noise_sd=1.0),
    }
    hydrate = {
        "P-TPT": ChannelModel(start=0.9e7, latent_loading=1.8e5, noise_sd=1.0e5),
        "T-TPT": ChannelModel(start=5.0, latent_loading=2.6, noise_sd=1.5,
                              clamp=(0.0, 50.0)),
        "P-MON-CKP": ChannelModel(start=1.5e7, latent_loading=4.0e5, noise_sd=3.0e5),
        "T-JUS-CKP": ChannelModel(start=22.0, latent_loading=2.6, noise_sd=1.5),
    }
    return {ClassLabel.NORMAL: normal,
            ClassLabel.RAPID_LOSS: rapid_loss,
            ClassLabel.HYDRATE: hydrate}


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class EvalReport:
    """``eval_<model>.json``: ``matrix[i][j]`` counts rows of true class
    ``classes[i]`` predicted as ``classes[j]``. Every metric is the one its
    grid gives, so a report whose stored metric differs is refused."""

    model: str
    classes: tuple[ClassLabel, ...]
    matrix: tuple[tuple[int, ...], ...]
    accuracy: float
    per_class: Mapping[ClassLabel, ClassMetrics]
    macro_f1: float

    @classmethod
    def from_counts(cls, model: str, classes, matrix) -> "EvalReport":
        """The report of a grid laid out as ``evaluation.confusion`` returns
        it: accuracy, per-class precision, recall and F1 (0 where a
        denominator is 0), and macro F1, the mean F1 in class order."""
        classes, matrix = tuple(classes), tuple(map(tuple, matrix))
        return cls(model, classes, matrix, *_scores(classes, matrix))

    def __post_init__(self):
        accuracy, per_class, macro_f1 = _scores(self.classes, self.matrix)
        if sorted(self.per_class) != sorted(self.classes):
            raise ValueError(f"per_class: keys {_names(self.per_class)} do not "
                             f"match classes {_names(self.classes)}")
        checks = [("accuracy", self.accuracy, accuracy), *(
            (f"per_class.{c.display_name}.{key}", getattr(self.per_class[c], key),
             getattr(per_class[c], key))
            for c in self.classes for key in ("precision", "recall", "f1")),
            ("macro_f1", self.macro_f1, macro_f1)]
        for key, stored, value in checks:
            if stored != value:
                raise ValueError(f"{key}: {stored!r} is not {value!r}, "
                                 "which matrix gives")

    def f1_vector(self) -> tuple[float, ...]:
        """Per-class F1 in class order; the sample the statistical tests use."""
        return tuple(self.per_class[c].f1 for c in self.classes)

    def confusion_csv(self) -> str:
        """``eval_<model>_confusion.csv``: true classes down, predicted across."""
        names = _names(self.classes)
        lines = ["true\\predicted," + ",".join(names)]
        for name, row in zip(names, self.matrix):
            lines.append(name + "," + ",".join(map(str, row)))
        return "\n".join(lines) + "\n"


def _names(classes) -> list[str]:
    return [c.display_name for c in classes]


def _scores(classes, matrix) -> tuple[float, dict[ClassLabel, ClassMetrics], float]:
    """Accuracy, per-class metrics and macro F1 of a grid of integer counts,
    refused unless it is square in ``classes`` with no negative count and
    one count at least. Plain Python, so that ``hydet compare`` loads no
    numpy; the F1s are summed left to right, as ``numpy.mean`` sums three."""
    n = len(classes)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError(f"matrix: expected {n} rows of {n} counts")
    for i, row in enumerate(matrix):
        for j, count in enumerate(row):
            if count < 0:
                raise ValueError(f"matrix[{i}][{j}]: count {count} is negative")
    total = sum(map(sum, matrix))
    if total == 0:
        raise ValueError("matrix: every count is 0")
    per_class, f1_sum = {}, 0.0
    for j, cls in enumerate(classes):
        tp, row, col = matrix[j][j], sum(matrix[j]), sum(r[j] for r in matrix)
        precision = tp / col if col > 0 else 0.0
        recall = tp / row if row > 0 else 0.0
        f1 = 2.0 * precision * recall / (precision + recall) \
            if precision + recall > 0 else 0.0
        per_class[cls] = ClassMetrics(precision, recall, f1)
        f1_sum += f1
    return sum(matrix[i][i] for i in range(n)) / total, per_class, f1_sum / n
