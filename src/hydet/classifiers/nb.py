"""Gaussian naive Bayes scoring under conditional feature independence.

Per class c and feature j the model stores the class-conditional sample mean
and population variance; prediction maximizes the log-joint

    score(c | x) = log prior_c
                 + sum_j [ -0.5*log(2*pi*var_cj) - (x_j - mu_cj)^2 / (2*var_cj) ]

with argmax ties going to the lowest class code. Scores are log-joints, not
normalized probabilities. Variances are floored at

    eps = eps_rel * max_j population_variance(feature j over all rows)
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..declarations import NbConfig
from ..errors import EmptyDataError
from .validation import validate_rows, validate_training_inputs

_LOG_2PI = float(np.log(2.0 * np.pi))


#: training rows summed at once
_ROW_BLOCK = 1 << 14


def _row_slices(X: np.ndarray) -> list[slice]:
    """Slices of ``X``'s rows for ``_sum_rows``: ``_ROW_BLOCK`` rows each
    where numpy adds the rows of ``X`` one after another, as it does for a
    C-order matrix of two or more columns; else one slice, since numpy sums
    any other ``X`` pairwise."""
    step = _ROW_BLOCK if X.flags.c_contiguous and X.shape[1] > 1 else len(X)
    return [slice(first, first + step) for first in range(0, len(X), step)]


def _sum_rows(blocks) -> np.ndarray:
    """The column sums of the rows of the arrays ``blocks``, bit for bit
    those of ``np.sum(axis=0)`` over all of them in one matrix that
    ``_row_slices`` cut: each is summed with the running total as its
    first row."""
    total = None
    for block in blocks:
        if len(block):
            total = block.sum(axis=0) if total is None \
                else np.concatenate((total[None], block)).sum(axis=0)
    return total


@dataclass(frozen=True)
class NbPayload:
    """The ``nb.json`` payload after its header: one row per class."""

    classes: tuple[int, ...]
    priors: tuple[float, ...]
    means: tuple[tuple[float, ...], ...]
    variances: tuple[tuple[float, ...], ...]
    epsilon: float

    def __post_init__(self):
        n, width = len(self.classes), len(self.means[0]) if len(self.means) else 0
        if not (n and width):
            raise ValueError("classes and means[0] must not be empty")
        if any(a >= b for a, b in zip(self.classes, self.classes[1:])):
            raise ValueError(f"classes: {list(self.classes)} are not strictly ascending")
        if len(self.priors) != n:
            raise ValueError(f"priors: {len(self.priors)} entries for {n} classes")
        if not all(0 < p <= 1 for p in self.priors):
            raise ValueError(f"priors: {list(self.priors)} are not all in (0, 1]")
        for key in ("means", "variances"):
            rows = getattr(self, key)
            if len(rows) != n or any(len(row) != width for row in rows):
                raise ValueError(f"{key}: expected {n} rows of {width} values")
        if not all(v > 0 for row in self.variances for v in row):
            raise ValueError("variances: every variance must be > 0")


class GaussianNb:
    Config = NbConfig
    Payload = NbPayload
    kind = "gaussian_nb"
    display_name = "Naive Bayes"

    def __init__(self, **params):
        self.params = NbConfig(**params)
        self.means_: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianNb":
        X, y = validate_training_inputs(X, y, "naive Bayes fit")
        self.classes_ = np.unique(y).astype(np.int64)  # predict gives int64

        # np.mean((X - X.mean(axis=0)) ** 2, axis=0), a block of rows at a time
        slices, n = _row_slices(X), len(X)
        mean = _sum_rows(X[at] for at in slices) / n
        total_var = _sum_rows((X[at] - mean) ** 2 for at in slices) / n
        if total_var.max() == 0.0:
            raise ValueError("every training feature is constant; Gaussian "
                             "class-conditional densities are undefined")
        self.epsilon_ = float(self.params.eps_rel * total_var.max())

        priors, means, variances = [], [], []
        for c in self.classes_.tolist():  # Python ints: y == c keeps y's dtype
            n_c = int(np.count_nonzero(y == c))
            if n_c < 2:
                raise EmptyDataError(f"class {c} has {n_c} row(s); "
                                     "naive Bayes needs at least 2 per class")
            priors.append(n_c / X.shape[0])
            # rows.mean(axis=0) and np.mean((rows - mu) ** 2, axis=0) of
            # rows = X[y == c], without that copy
            mu = _sum_rows(X[at][y[at] == c] for at in slices) / n_c
            means.append(mu)
            variances.append(np.maximum(
                _sum_rows((X[at][y[at] == c] - mu) ** 2 for at in slices) / n_c,
                self.epsilon_))
        self.priors_ = np.asarray(priors)
        self.means_ = np.vstack(means)
        self.variances_ = np.vstack(variances)
        return self

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        """Per-class log-joints. A class whose squared term overflows scores
        -inf on that row, so it is not picked there; a row on which every
        class scores -inf is a ``ValueError``, since no class wins it."""
        if self.means_ is None:
            raise ValueError("model is not fitted")
        X = validate_rows(X, self.means_.shape[1], "naive Bayes predict")
        scores = np.empty((X.shape[0], len(self.classes_)), dtype=np.float64)
        with np.errstate(over="ignore"):
            for ci in range(len(self.classes_)):
                var = self.variances_[ci]
                log_norm = -0.5 * (_LOG_2PI + np.log(var))
                # log_norm - (X - mu) ** 2 / (2 * var), in one temporary
                terms = X - self.means_[ci]
                terms **= 2
                terms /= 2.0 * var
                np.subtract(log_norm, terms, out=terms)
                column = scores[:, ci]
                np.sum(terms, axis=1, out=column)
                column += np.log(self.priors_[ci])
                del terms  # before the next class's is made
        lost = np.flatnonzero(scores.max(axis=1) == -np.inf)
        if lost.size:
            raise ValueError(f"naive Bayes predict: row {lost[0]} scores -inf under "
                             f"every class: its squared distance to each class mean, "
                             f"over variances down to the floor {self.epsilon_:.6g}, "
                             f"overflows")
        return scores

    def predict(self, X: np.ndarray) -> np.ndarray:
        scores = self.predict_scores(X)
        return self.classes_[np.argmax(scores, axis=1)]  # first max: lowest code

    @classmethod
    def from_payload(cls, params: NbConfig, payload: NbPayload) -> "GaussianNb":
        model = cls(**asdict(params))
        model.classes_ = np.asarray(payload.classes, dtype=np.int64)
        model.priors_ = np.asarray(payload.priors, dtype=np.float64)
        model.means_ = np.asarray(payload.means, dtype=np.float64)
        model.variances_ = np.asarray(payload.variances, dtype=np.float64)
        model.epsilon_ = payload.epsilon
        return model
