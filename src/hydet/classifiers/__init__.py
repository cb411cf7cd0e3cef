"""The three supervised classifiers behind one fit/predict contract.

Every model exposes ``fit(X, y)``, ``predict(rows)`` and
``predict_scores(rows)``; prediction is a pure function of the fitted model
and the row, and ``predict`` equals argmax over scores under each model's
documented tie-break. Fitted models are immutable in use and serialize to
versioned JSON payloads.

Each model class declares itself once: its ``Config`` dataclass (built from
the constructor's keywords) holds the checked hyperparameters, its
``Payload`` dataclass the saved fitted state (field ``x`` is the fitted
attribute ``x_``; ``from_payload`` restores it), ``kind`` names its payload
and ``display_name`` its reports. The ``MODELS`` registry maps each model
name (declared with its ``ClassifiersConfig`` section in ``declarations``)
to that section and the class whose ``Config`` it holds.
"""

from __future__ import annotations

from dataclasses import asdict, fields
from pathlib import Path

from ..codec import from_file, to_json
from ..declarations import MODEL_SECTIONS, ClassifiersConfig
from ..errors import HydetError, ModelFormatError
from .. import jsonio
from ..dataset.model import FeatureMatrix
from .knn import KnnClassifier, KnnConfig
from .nb import GaussianNb, NbConfig
from .tree import DecisionTree, TreeConfig

FORMAT_VERSION = 2

_CLASS_OF_CONFIG = {cls.Config: cls for cls in (DecisionTree, KnnClassifier, GaussianNb)}

MODELS = {name: (section, _CLASS_OF_CONFIG[type(getattr(ClassifiersConfig(), section))])
          for name, section in MODEL_SECTIONS.items()}

_KIND_TO_CLS = {cls.kind: cls for _, cls in MODELS.values()}


def train_all(matrix: FeatureMatrix, config: ClassifiersConfig | None = None,
              models: tuple[str, ...] = tuple(MODELS)) -> dict[str, object]:
    """Fit the requested models on a fully observed matrix."""
    config = config or ClassifiersConfig()
    fitted = {}
    for name in models:
        section, cls = MODELS[name]
        model = cls(**asdict(getattr(config, section)))
        fitted[name] = model.fit(matrix.values, matrix.labels)
    return fitted


_HEADER = ("format", "version", "kind", "params")


def payload(model):
    """A fitted model's ``Payload``: each field ``x`` is its attribute ``x_``,
    an array as its annotated tuples of Python numbers, but k-NN's per-row
    ``train`` and ``labels``, which ``to_json`` passes through whole."""
    values = {f.name: getattr(model, f"{f.name}_") for f in fields(model.Payload)}
    return model.Payload(**{k: _tuples(v.tolist()) if hasattr(v, "tolist") and k not in
                            ("train", "labels") else v for k, v in values.items()})


def _tuples(value):
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def save_model(model, path: str | Path) -> None:
    jsonio.dump({"format": "hydet-model", "version": FORMAT_VERSION, "kind": model.kind,
                 "params": to_json(model.params), **to_json(payload(model))}, path)


def load_model(path: str | Path):
    """Read a ``save_model`` file under the config-file type rules, so a bad
    value names its key path; ``params`` needs every key."""
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
        params = from_file(cls.Config, data.get("params"), path, "params")
        missing = [f"params.{k}" for k in asdict(params) if k not in data["params"]]
        if missing:  # save_model writes them all; a default could change the fit
            raise ModelFormatError(f"{path}: missing keys {missing}")
        fitted = from_file(cls.Payload,
                           {k: v for k, v in data.items() if k not in _HEADER}, path)
        return cls.from_payload(params, fitted)
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError, HydetError) as exc:
        raise ModelFormatError(f"{path}: malformed {kind} model: {exc!r}") from None


__all__ = ["ClassifiersConfig", "DecisionTree", "GaussianNb", "KnnClassifier",
           "KnnConfig", "MODELS", "NbConfig", "TreeConfig", "load_model",
           "payload", "save_model", "train_all"]
