"""Confusion matrices, accuracy and per-class precision/recall/F1.

Zero-denominator precision/recall/F1 are 0 by convention. Reports carry
full-precision values; any rounding is display-only. The ``codec`` writes
an ``EvalReport`` as ``eval_<model>.json`` and reads it back for ``compare``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import EmptyDataError
from .dataset.model import ClassLabel, FeatureMatrix


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[i][j] = rows with true class classes[i] predicted classes[j]."""

    classes: tuple[ClassLabel, ...]
    counts: np.ndarray

    def __post_init__(self):
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        c = len(self.classes)
        if counts.shape != (c, c):
            raise ValueError(f"counts shape {counts.shape} does not match "
                             f"{c} classes")
        if (counts < 0).any():
            raise ValueError("negative confusion counts")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion(true_labels: Sequence[int], predicted_labels: Sequence[int],
              classes: Sequence[ClassLabel] = tuple(ClassLabel)) -> ConfusionMatrix:
    y_true = np.asarray(true_labels, dtype=np.int64)
    y_pred = np.asarray(predicted_labels, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"length mismatch: {y_true.shape[0]} true vs "
                         f"{y_pred.shape[0]} predicted")
    if y_true.size == 0:
        raise EmptyDataError("confusion of empty label sequences")
    classes = tuple(classes)
    code_to_pos = {int(c): i for i, c in enumerate(classes)}
    counts = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for t, p in zip(y_true.tolist(), y_pred.tolist()):
        if t not in code_to_pos:
            raise ValueError(f"true label {t} not in classes")
        if p not in code_to_pos:
            raise ValueError(f"predicted label {p} not in classes")
        counts[code_to_pos[t], code_to_pos[p]] += 1
    return ConfusionMatrix(classes=classes, counts=counts)


def accuracy(matrix: ConfusionMatrix) -> float:
    if matrix.total == 0:
        raise EmptyDataError("accuracy of an empty confusion matrix")
    return float(np.trace(matrix.counts)) / matrix.total


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float


def f1_per_class(matrix: ConfusionMatrix) -> dict[ClassLabel, ClassMetrics]:
    if matrix.total == 0:
        raise EmptyDataError("metrics of an empty confusion matrix")
    out = {}
    counts = matrix.counts
    for j, cls in enumerate(matrix.classes):
        col = int(counts[:, j].sum())
        row = int(counts[j, :].sum())
        tp = int(counts[j, j])
        precision = tp / col if col > 0 else 0.0
        recall = tp / row if row > 0 else 0.0
        f1 = 2.0 * precision * recall / (precision + recall) \
            if precision + recall > 0 else 0.0
        out[cls] = ClassMetrics(precision=precision, recall=recall, f1=f1)
    return out


@dataclass(frozen=True)
class EvalReport:
    """``eval_<model>.json``: ``matrix[i][j]`` counts rows of true class
    ``classes[i]`` predicted as ``classes[j]``."""

    model: str
    classes: tuple[ClassLabel, ...]
    matrix: tuple[tuple[int, ...], ...]
    accuracy: float
    per_class: Mapping[ClassLabel, ClassMetrics]
    macro_f1: float

    def __post_init__(self):
        n = len(self.classes)
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise ValueError(f"matrix: expected {n} rows of {n} counts")
        if sorted(self.per_class) != sorted(self.classes):
            raise ValueError(f"per_class: keys {_names(self.per_class)} do not "
                             f"match classes {_names(self.classes)}")

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


def report_from_confusion(matrix: ConfusionMatrix, model_name: str) -> EvalReport:
    per_class = f1_per_class(matrix)
    macro = float(np.mean([m.f1 for m in per_class.values()]))
    return EvalReport(model=model_name, classes=matrix.classes,
                      matrix=tuple(map(tuple, matrix.counts.tolist())),
                      accuracy=accuracy(matrix), per_class=per_class,
                      macro_f1=macro)


def evaluate(model, test: FeatureMatrix, model_name: str = "",
             classes: Sequence[ClassLabel] = tuple(ClassLabel)) -> EvalReport:
    """Predict on the test matrix and score against its labels."""
    if test.n_rows == 0:
        raise EmptyDataError("evaluate on empty test matrix")
    cm = confusion(test.labels, model.predict(test.values), classes)
    return report_from_confusion(cm, model_name or type(model).__name__)
