"""The three supervised classifiers behind one fit/predict contract.

Every model exposes ``fit(X, y)``, ``predict(rows)`` and
``predict_scores(rows)``; prediction is a pure function of the fitted model
and the row, and ``predict`` equals argmax over scores under each model's
documented tie-break. Fitted models are immutable in use and serialize to
versioned JSON payloads.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ..errors import HydetError, ModelFormatError
from .. import jsonio
from ..dataset.model import FeatureMatrix
from .knn import KnnClassifier
from .nb import GaussianNb
from .tree import DecisionTree
from .validation import FORMAT_VERSION

MODEL_KINDS = ("dt", "knn", "nb")

_KIND_TO_CLS = {"decision_tree": DecisionTree, "knn": KnnClassifier,
                "gaussian_nb": GaussianNb}


@dataclass(frozen=True)
class TreeConfig:
    """Keyword arguments of ``DecisionTree``, checked by building one."""

    max_depth: int | None = 16
    min_samples_split: int = 2
    min_impurity_decrease: float = 0.0

    def __post_init__(self):
        DecisionTree(**asdict(self))


@dataclass(frozen=True)
class KnnConfig:
    """Keyword arguments of ``KnnClassifier``, checked by building one."""

    k: int = 5

    def __post_init__(self):
        KnnClassifier(**asdict(self))


@dataclass(frozen=True)
class NbConfig:
    """Keyword arguments of ``GaussianNb``, checked by building one."""

    eps_rel: float = 1e-9

    def __post_init__(self):
        GaussianNb(**asdict(self))


@dataclass(frozen=True)
class ClassifiersConfig:
    tree: TreeConfig = field(default_factory=TreeConfig)
    knn: KnnConfig = field(default_factory=KnnConfig)
    nb: NbConfig = field(default_factory=NbConfig)

    def make(self, name: str):
        if name == "dt":
            return DecisionTree(**asdict(self.tree))
        if name == "knn":
            return KnnClassifier(**asdict(self.knn))
        if name == "nb":
            return GaussianNb(**asdict(self.nb))
        raise ValueError(f"unknown model name {name!r}")


def train_all(matrix: FeatureMatrix, config: ClassifiersConfig | None = None,
              models: tuple[str, ...] = MODEL_KINDS) -> dict[str, object]:
    """Fit the requested models on a fully observed matrix."""
    config = config or ClassifiersConfig()
    X = np.asarray(matrix.values, dtype=np.float64)
    y = np.asarray(matrix.labels, dtype=np.int64)
    return {name: config.make(name).fit(X, y) for name in models}


def save_model(model, path: str | Path) -> None:
    jsonio.dump(model.to_json_dict(), path)


def load_model(path: str | Path):
    data = jsonio.load(path)
    if not isinstance(data, dict) or data.get("format") != "hydet-model":
        raise ModelFormatError(f"{path}: not a model file")
    if data.get("version") != FORMAT_VERSION:
        raise ModelFormatError(f"{path}: unsupported model version "
                               f"{data.get('version')!r}")
    kind = data.get("kind")
    cls = _KIND_TO_CLS.get(kind)
    if cls is None:
        raise ModelFormatError(f"{path}: unknown model kind {kind!r}")
    try:
        return cls.from_json_dict(data)
    except (KeyError, TypeError, ValueError, HydetError) as exc:
        raise ModelFormatError(f"{path}: malformed {kind} model: {exc!r}") from None


__all__ = ["ClassifiersConfig", "DecisionTree", "GaussianNb", "KnnClassifier",
           "KnnConfig", "MODEL_KINDS", "NbConfig", "TreeConfig", "load_model",
           "save_model", "train_all"]
