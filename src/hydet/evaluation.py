"""Confusion matrices, accuracy and per-class precision/recall/F1.

Zero-denominator precision/recall/F1 are 0 by convention. Reports carry
full-precision values; any rounding is display-only.
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

    def to_csv(self) -> str:
        names = [c.display_name for c in self.classes]
        lines = ["true\\predicted," + ",".join(names)]
        for i, name in enumerate(names):
            lines.append(name + "," + ",".join(str(int(v)) for v in self.counts[i]))
        return "\n".join(lines) + "\n"


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
    model_name: str
    matrix: ConfusionMatrix
    accuracy: float
    per_class: Mapping[ClassLabel, ClassMetrics]
    macro_f1: float

    def f1_vector(self) -> tuple[float, ...]:
        """Per-class F1 in class order; the sample the statistical tests use."""
        return tuple(self.per_class[c].f1 for c in self.matrix.classes)

    def to_json_dict(self) -> dict:
        return {
            "model": self.model_name,
            "classes": [c.display_name for c in self.matrix.classes],
            "matrix": [[int(v) for v in row] for row in self.matrix.counts],
            "accuracy": self.accuracy,
            "per_class": {
                c.display_name: {"precision": m.precision, "recall": m.recall,
                                 "f1": m.f1}
                for c, m in self.per_class.items()
            },
            "macro_f1": self.macro_f1,
        }


def report_from_confusion(matrix: ConfusionMatrix, model_name: str) -> EvalReport:
    per_class = f1_per_class(matrix)
    macro = float(np.mean([m.f1 for m in per_class.values()]))
    return EvalReport(model_name=model_name, matrix=matrix,
                      accuracy=accuracy(matrix), per_class=per_class,
                      macro_f1=macro)


def evaluate(model, test: FeatureMatrix, model_name: str = "",
             classes: Sequence[ClassLabel] = tuple(ClassLabel)) -> EvalReport:
    """Predict on the test matrix and score against its labels."""
    if test.n_rows == 0:
        raise EmptyDataError("evaluate on empty test matrix")
    cm = confusion(test.labels, model.predict(test.values), classes)
    return report_from_confusion(cm, model_name or type(model).__name__)
