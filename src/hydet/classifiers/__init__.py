"""The three supervised classifiers behind one fit/predict contract.

Every model exposes ``fit(X, y)``, ``predict(rows)`` and
``predict_scores(rows)``; prediction is a pure function of the fitted model
and the row, and ``predict`` equals argmax over scores under each model's
documented tie-break. Fitted models are immutable in use and serialize to
versioned JSON payloads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

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
class ClassifiersConfig:
    tree_max_depth: int | None = 16
    tree_min_samples_split: int = 2
    tree_min_impurity_decrease: float = 0.0
    knn_k: int = 5
    nb_eps_rel: float = 1e-9

    def make(self, name: str):
        if name == "dt":
            return DecisionTree(self.tree_max_depth, self.tree_min_samples_split,
                                self.tree_min_impurity_decrease)
        if name == "knn":
            return KnnClassifier(self.knn_k)
        if name == "nb":
            return GaussianNb(self.nb_eps_rel)
        raise ValueError(f"unknown model name {name!r}")


@dataclass(frozen=True)
class TrainResult:
    models: Mapping[str, object]
    seconds: Mapping[str, float]


def train_all(matrix: FeatureMatrix, config: ClassifiersConfig | None = None,
              models: tuple[str, ...] = MODEL_KINDS) -> TrainResult:
    """Fit the requested models on a fully observed matrix; wall-clock per
    model is reported for information only."""
    config = config or ClassifiersConfig()
    fitted: dict[str, object] = {}
    seconds: dict[str, float] = {}
    X = np.asarray(matrix.values, dtype=np.float64)
    y = np.asarray(matrix.labels, dtype=np.int64)
    for name in models:
        model = config.make(name)
        t0 = time.perf_counter()
        model.fit(X, y)
        seconds[name] = time.perf_counter() - t0
        fitted[name] = model
    return TrainResult(models=fitted, seconds=seconds)


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
           "MODEL_KINDS", "TrainResult", "load_model", "save_model", "train_all"]
