"""Confusion matrices, accuracy and per-class precision/recall/F1.

Zero-denominator precision/recall/F1 are 0 by convention. Reports carry
full-precision values; any rounding is display-only. The ``codec`` writes
an ``EvalReport`` as ``eval_<model>.json`` and reads it back for ``compare``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .declarations import ClassLabel, ClassMetrics, EvalReport
from .errors import EmptyDataError
from .dataset.model import FeatureMatrix


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
    codes = np.array([int(c) for c in classes], dtype=np.int64)
    known_true, known_pred = np.isin(y_true, codes), np.isin(y_pred, codes)
    bad = np.flatnonzero(~(known_true & known_pred))
    if bad.size:  # the first offending row, its true label checked first
        i = bad[0]
        if not known_true[i]:
            raise ValueError(f"true label {int(y_true[i])} not in classes")
        raise ValueError(f"predicted label {int(y_pred[i])} not in classes")
    # a code listed twice counts at its last position
    order = np.argsort(codes, kind="stable")
    by_code = codes[order]

    def position(y):
        return order[np.searchsorted(by_code, y, side="right") - 1]

    m = len(classes)
    cells = position(y_true) * m + position(y_pred)
    counts = np.bincount(cells, minlength=m * m).reshape(m, m)
    return ConfusionMatrix(classes=classes, counts=counts)


def accuracy(matrix: ConfusionMatrix) -> float:
    if matrix.total == 0:
        raise EmptyDataError("accuracy of an empty confusion matrix")
    return float(np.trace(matrix.counts)) / matrix.total


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
