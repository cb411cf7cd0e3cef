"""Exact brute-force k-nearest-neighbors classifier.

Neighbors are the k training rows with smallest Euclidean distance, distance
ties broken by lower training-row index. Vote ties go to the tied class
whose nearest member is closest, then to the lowest class code. No spatial
index: with a handful of features an exact blocked scan is both faster to
validate and easy to parallelize over query chunks without changing results.
Query blocks have a fixed size, so predictions are independent of the
worker-thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..errors import ModelFormatError
from .validation import FORMAT_VERSION, validate_rows, validate_training_inputs

_CHUNK = 512  # fixed query block size; results do not depend on thread count


class KnnClassifier:
    def __init__(self, k: int = 5):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.train_: np.ndarray | None = None
        self.labels_: np.ndarray | None = None
        self.classes_: np.ndarray | None = None
        self._train_sq: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KnnClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        validate_training_inputs(X, y, "k-NN fit")
        if self.k > X.shape[0]:
            raise ValueError(f"k={self.k} exceeds {X.shape[0]} training rows")
        self.train_ = X.copy()
        self.labels_ = y.copy()
        self.classes_ = np.unique(y)
        self._train_sq = np.sum(self.train_ ** 2, axis=1)
        return self

    def _distances(self, queries: np.ndarray) -> np.ndarray:
        """Squared Euclidean distances via the inner-product expansion.

        Bitwise-identical rows get bitwise-identical distances, so the
        (distance, index) tie contract holds for duplicates; rounding floor
        at 0 keeps self-distances from going negative."""
        d2 = (np.sum(queries ** 2, axis=1)[:, None]
              + self._train_sq[None, :]
              - 2.0 * (queries @ self.train_.T))
        np.maximum(d2, 0.0, out=d2)
        return d2

    def _chunk_votes(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d2 = self._distances(queries)
        k = self.k
        n_train = self.train_.shape[0]
        n_classes = len(self.classes_)
        enc = np.searchsorted(self.classes_, self.labels_)

        if k < n_train:
            part = np.argpartition(d2, k - 1, axis=1)[:, :k]
            kth = np.take_along_axis(d2, part, axis=1).max(axis=1)
            # rows whose k-th distance value repeats past the boundary need
            # the full (distance, index) candidate resolution
            n_le = np.count_nonzero(d2 <= kth[:, None], axis=1)
        else:
            part = np.broadcast_to(np.arange(n_train), d2.shape)
            kth = d2.max(axis=1)
            n_le = np.full(d2.shape[0], n_train)

        votes = np.zeros((queries.shape[0], n_classes), dtype=np.float64)
        picks = np.empty(queries.shape[0], dtype=np.int64)
        for i in range(queries.shape[0]):
            cand = part[i] if n_le[i] == k else np.flatnonzero(d2[i] <= kth[i])
            row = d2[i]
            nbrs = sorted(cand.tolist(), key=lambda j: (row[j], j))[:k]
            classes = enc[nbrs]
            counts = np.bincount(classes, minlength=n_classes)
            votes[i] = counts
            top = counts.max()
            tied = np.flatnonzero(counts == top)
            if len(tied) == 1:
                picks[i] = tied[0]
            else:
                # nbrs are (distance, index)-sorted, so the first member of a
                # class is its nearest one
                nearest = {c: row[nbrs[int(np.flatnonzero(classes == c)[0])]]
                           for c in tied}
                best = min(nearest.values())
                picks[i] = min(c for c in tied if nearest[c] == best)
        return votes, picks

    def _run_chunks(self, X: np.ndarray, threads: int):
        chunks = [X[s:s + _CHUNK] for s in range(0, X.shape[0], _CHUNK)]
        if threads > 1 and len(chunks) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                return list(pool.map(self._chunk_votes, chunks))
        return [self._chunk_votes(c) for c in chunks]

    def predict_scores(self, X: np.ndarray, threads: int = 1) -> np.ndarray:
        """Per-class vote counts among the k neighbors."""
        if self.train_ is None:
            raise ValueError("model is not fitted")
        X = validate_rows(X, self.train_.shape[1], "k-NN predict")
        if X.shape[0] == 0:
            return np.zeros((0, len(self.classes_)))
        return np.concatenate([v for v, _ in self._run_chunks(X, threads)])

    def predict(self, X: np.ndarray, threads: int = 1) -> np.ndarray:
        if self.train_ is None:
            raise ValueError("model is not fitted")
        X = validate_rows(X, self.train_.shape[1], "k-NN predict")
        if X.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        picks = np.concatenate([p for _, p in self._run_chunks(X, threads)])
        return self.classes_[picks]

    def to_json_dict(self) -> dict:
        if self.train_ is None:
            raise ValueError("model is not fitted")
        return {
            "format": "hydet-model", "version": FORMAT_VERSION, "kind": "knn",
            "params": {"k": self.k},
            "classes": [int(c) for c in self.classes_],
            "train": [[float(v) for v in row] for row in self.train_],
            "labels": [int(v) for v in self.labels_],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "KnnClassifier":
        if data.get("kind") != "knn":
            raise ModelFormatError(f"not a knn payload: {data.get('kind')!r}")
        model = cls(k=int(data["params"]["k"]))
        model.train_ = np.asarray(data["train"], dtype=np.float64)
        model.labels_ = np.asarray(data["labels"], dtype=np.int64)
        model.classes_ = np.unique(model.labels_)
        model._train_sq = np.sum(model.train_ ** 2, axis=1)
        return model
