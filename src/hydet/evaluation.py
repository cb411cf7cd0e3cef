"""One path from predictions to an ``EvalReport``: ``confusion`` counts
labels into an int64 grid, refusing a class listed twice, and ``evaluate``
scores a model's predictions through it with ``EvalReport.from_counts``, which
owns the metric math and its full-precision values. ``codec`` writes reports
as ``eval_<model>.json``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .declarations import ClassLabel, EvalReport
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


def evaluate(model, test: FeatureMatrix, model_name: str = "",
             classes: Sequence[ClassLabel] = tuple(ClassLabel)) -> EvalReport:
    """Predict on the test matrix and score against its labels."""
    if test.n_rows == 0:
        raise EmptyDataError("evaluate on empty test matrix")
    counts = confusion(test.labels, model.predict(test.values), classes)
    return EvalReport.from_counts(model_name or type(model).__name__, classes,
                                  counts.tolist())
