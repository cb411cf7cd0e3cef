"""One path from predictions to an ``EvalReport``, whose values keep full
precision: ``confusion`` counts labels into an int64 grid, and
``report_from_confusion`` reads accuracy, per-class precision/recall/F1 and
macro F1 off it. Zero-denominator precision/recall/F1 are 0 by convention, and
a class listed twice is refused. ``codec`` writes reports as ``eval_<model>.json``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .declarations import ClassLabel, ClassMetrics, EvalReport
from .errors import EmptyDataError
from .dataset.model import FeatureMatrix


def confusion(true_labels: Sequence[int], predicted_labels: Sequence[int],
              classes: Sequence[ClassLabel] = tuple(ClassLabel)) -> np.ndarray:
    """counts[i][j] = rows with true class classes[i] predicted classes[j]."""
    y_true = np.asarray(true_labels, dtype=np.int64)
    y_pred = np.asarray(predicted_labels, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"length mismatch: {y_true.shape[0]} true vs "
                         f"{y_pred.shape[0]} predicted")
    if y_true.size == 0:
        raise EmptyDataError("confusion of empty label sequences")
    classes = tuple(classes)
    for i, cls in enumerate(classes):
        if cls in classes[:i]:
            raise ValueError(f"class {cls.display_name} listed twice in classes")
    codes = np.array([int(c) for c in classes], dtype=np.int64)
    known_true, known_pred = np.isin(y_true, codes), np.isin(y_pred, codes)
    bad = np.flatnonzero(~(known_true & known_pred))
    if bad.size:  # the first offending row, its true label checked first
        i = bad[0]
        side, label = ("predicted", y_pred[i]) if known_true[i] else ("true", y_true[i])
        raise ValueError(f"{side} label {int(label)} not in classes")
    order = np.argsort(codes)
    m = len(classes)
    cells = (order[np.searchsorted(codes, y_true, sorter=order)] * m
             + order[np.searchsorted(codes, y_pred, sorter=order)])
    return np.bincount(cells, minlength=m * m).reshape(m, m)


def report_from_confusion(
        counts, model_name: str,
        classes: Sequence[ClassLabel] = tuple(ClassLabel)) -> EvalReport:
    """Score a grid laid out as ``confusion`` returns it."""
    counts, classes = np.asarray(counts, dtype=np.int64), tuple(classes)
    if counts.shape != (len(classes),) * 2:
        raise ValueError(f"counts shape {counts.shape} does not match "
                         f"{len(classes)} classes")
    if (counts < 0).any():
        raise ValueError("negative confusion counts")
    total = int(counts.sum())
    if total == 0:
        raise EmptyDataError("metrics of an empty confusion matrix")
    per_class = {}
    for j, cls in enumerate(classes):
        tp, row, col = int(counts[j, j]), int(counts[j].sum()), int(counts[:, j].sum())
        precision = tp / col if col > 0 else 0.0
        recall = tp / row if row > 0 else 0.0
        f1 = 2.0 * precision * recall / (precision + recall) \
            if precision + recall > 0 else 0.0
        per_class[cls] = ClassMetrics(precision=precision, recall=recall, f1=f1)
    return EvalReport(model=model_name, classes=classes,
                      matrix=tuple(map(tuple, counts.tolist())),
                      accuracy=float(np.trace(counts)) / total, per_class=per_class,
                      macro_f1=float(np.mean([m.f1 for m in per_class.values()])))


def evaluate(model, test: FeatureMatrix, model_name: str = "",
             classes: Sequence[ClassLabel] = tuple(ClassLabel)) -> EvalReport:
    """Predict on the test matrix and score against its labels."""
    if test.n_rows == 0:
        raise EmptyDataError("evaluate on empty test matrix")
    counts = confusion(test.labels, model.predict(test.values), classes)
    return report_from_confusion(counts, model_name or type(model).__name__, classes)
