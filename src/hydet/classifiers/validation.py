"""Input checks shared by the three classifiers."""

from __future__ import annotations

import numpy as np

from ..errors import (EmptyDataError, MissingCellsError, NonFiniteError,
                      WidthMismatchError)


def validate_training_inputs(X: np.ndarray, y: np.ndarray,
                             what: str) -> tuple[np.ndarray, np.ndarray]:
    """``X`` as float64 and ``y`` in its integer dtype (else int64), checked to fit."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    y = y if y.dtype.kind in "iu" else y.astype(np.int64)
    if X.ndim != 2:
        raise ValueError(f"{what}: X must be 2-D, got shape {X.shape}")
    if X.shape[0] == 0:
        raise EmptyDataError(f"{what}: empty training set")
    if y.shape != (X.shape[0],):
        raise ValueError(f"{what}: labels shape {y.shape} does not match "
                         f"{X.shape[0]} rows")
    if np.isnan(X).any():
        raise MissingCellsError(f"{what}: training data contains missing cells")
    if not np.isfinite(X).all():
        raise NonFiniteError(f"{what}: training data contains non-finite values")
    return X, y


def validate_rows(X: np.ndarray, width: int, what: str) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != width:
        raise WidthMismatchError(f"{what}: rows have width "
                                 f"{X.shape[1] if X.ndim == 2 else '?'}, "
                                 f"model was fitted on {width}")
    if not np.isfinite(X).all():
        raise NonFiniteError(f"{what}: non-finite values in rows")
    return X
