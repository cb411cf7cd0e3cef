"""Exact k-nearest-neighbors classifier over a leaf-bucket k-d tree.

Neighbors are the k training rows with smallest Euclidean distance, distance
ties broken by lower training-row index. Vote ties go to the tied class
whose nearest member is closest, then to the lowest class code.

Squared distances are direct differences summed one feature at a time, left
to right: ``d = (q0-t0)**2; d += (q1-t1)**2; ...``. The search is exact, not
approximate. The tree (Friedman, Bentley & Finkel 1977) splits at the median
of the widest dimension down to leaves of ``max(k, 32)`` to ``2*max(k, 32)``
rows. A query's home leaf holds at least k rows, so its k-th smallest
distance there, tau, bounds the true k-th distance from above. Every leaf
whose box lower bound ``sum max(lo-q, q-hi, 0)**2``, summed in the same
order, is at most tau is scanned. IEEE rounding is monotone, so that bound
never exceeds a computed distance inside the box: every row at or within the
k-th distance, ties included, is scanned, and the scanned rows then decide
exactly as an all-pairs scan would. Queries are scored in blocks of at most
``_BLOCK`` that share a home leaf, so no array is larger than one block by
its scanned rows, and results do not depend on how the queries are ordered
or sliced. The tree is rebuilt on load and never serialised.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .validation import validate_rows, validate_training_inputs

_LEAF = 32     # smallest leaf when k is smaller
_BLOCK = 256   # queries scored together at most


def _squares_summed(terms):
    """Sum the squares of per-feature differences left to right."""
    total = None
    for diff in terms:
        np.multiply(diff, diff, out=diff)
        total = diff if total is None else np.add(total, diff, out=total)
    return total


def _box_bound(lo: np.ndarray, hi: np.ndarray, qlo: np.ndarray,
               qhi: np.ndarray) -> np.ndarray:
    """Squared-distance lower bound between boxes [lo, hi] and [qlo, qhi]."""
    return _squares_summed(
        np.maximum(np.maximum(lo[..., j] - qhi[..., j], qlo[..., j] - hi[..., j]),
                   0.0)
        for j in range(lo.shape[-1]))


@dataclass(frozen=True)
class KnnConfig:
    """Hyperparameters of ``KnnClassifier``: the ``classifiers.knn`` section."""

    k: int = 5

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class KnnPayload:
    """The ``knn.json`` payload after its header: the training rows."""

    classes: tuple[int, ...]
    train: tuple[tuple[float, ...], ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        if list(self.classes) != sorted(set(self.labels)):
            raise ValueError(f"classes: {list(self.classes)} are not the distinct "
                             f"labels {sorted(set(self.labels))}")


class KnnClassifier:
    Config = KnnConfig
    Payload = KnnPayload
    kind = "knn"
    display_name = "k-NN"

    def __init__(self, **params):
        self.params = KnnConfig(**params)
        self.train_: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KnnClassifier":
        X, y = validate_training_inputs(X, y, "k-NN fit")
        if self.params.k > X.shape[0]:
            raise ValueError(f"k={self.params.k} exceeds {X.shape[0]} training rows")
        self.train_ = X.copy()
        self.labels_ = y.copy()
        self._build_index()
        return self

    def _build_index(self) -> None:
        """Build the k-d tree as a complete binary tree in heap order.

        Halving every node of a level at its median keeps all leaf sizes
        within one of each other, so every leaf sits at the same depth: the
        largest one whose leaves still hold ``max(k, _LEAF)`` rows."""
        X = self.train_
        n = X.shape[0]
        leaf = max(self.params.k, _LEAF)
        depth = 0
        while n >> (depth + 1) >= leaf:
            depth += 1
        perm = np.arange(n)
        bounds = np.array([0, n])
        dims, vals = [], []
        for _ in range(depth):
            mids = bounds[:-1] + np.diff(bounds) // 2
            for s, m, e in zip(bounds[:-1].tolist(), mids.tolist(),
                               bounds[1:].tolist()):
                rows = X[perm[s:e]]
                dim = int(np.argmax(rows.max(axis=0) - rows.min(axis=0)))
                part = np.argpartition(rows[:, dim], m - s)
                perm[s:e] = perm[s:e][part]
                dims.append(dim)
                vals.append(X[perm[m], dim])
            bounds = np.sort(np.concatenate([bounds, mids]))
        self.classes_ = np.unique(self.labels_)
        self._codes = np.searchsorted(self.classes_, self.labels_)
        self._depth = depth
        self._dims = np.array(dims, dtype=np.intp)
        self._vals = np.array(vals, dtype=np.float64)
        self._perm = perm
        self._bounds = bounds
        self._lo = np.minimum.reduceat(X[perm], bounds[:-1], axis=0)
        self._hi = np.maximum.reduceat(X[perm], bounds[:-1], axis=0)
        self._columns = np.ascontiguousarray(X.T)

    def _home_leaves(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=np.intp)
        rows = np.arange(X.shape[0])
        for _ in range(self._depth):
            right = X[rows, self._dims[node]] >= self._vals[node]
            node = 2 * node + 1 + right
        return node - (2 ** self._depth - 1)

    def _leaf_rows(self, leaf: int) -> np.ndarray:
        return self._perm[self._bounds[leaf]:self._bounds[leaf + 1]]

    def _sq_distances(self, queries: np.ndarray, rows: np.ndarray) -> np.ndarray:
        cols = self._columns[:, rows]
        return _squares_summed(queries[:, j, None] - cols[j]
                               for j in range(cols.shape[0]))

    def _block_votes(self, queries: np.ndarray,
                     leaf: int) -> tuple[np.ndarray, np.ndarray]:
        """Votes and picked class codes for queries sharing a home leaf."""
        k = self.params.k
        tau = np.partition(self._sq_distances(queries, self._leaf_rows(leaf)),
                           k - 1, axis=1)[:, k - 1]
        near = np.flatnonzero(_box_bound(self._lo, self._hi, queries.min(axis=0),
                                         queries.max(axis=0)) <= tau.max())
        q = queries[:, None, :]
        keep = (_box_bound(self._lo[near], self._hi[near], q, q)
                <= tau[:, None]).any(axis=0)
        # candidate columns in training-index order, so that a stable sort
        # by distance is a (distance, index) sort
        cand = np.sort(np.concatenate([self._leaf_rows(i) for i in near[keep]]))
        d2 = self._sq_distances(queries, cand)

        nbrs = np.argpartition(d2, k - 1, axis=1)[:, :k]
        kth = np.take_along_axis(d2, nbrs, axis=1).max(axis=1)
        # rows whose k-th distance value repeats past the boundary need the
        # full (distance, index) resolution
        tied = np.flatnonzero(np.count_nonzero(d2 <= kth[:, None], axis=1) > k)
        if tied.size:
            nbrs[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :k]
        dist = np.take_along_axis(d2, nbrs, axis=1)
        codes = self._codes[cand[nbrs]]

        n_classes = len(self.classes_)
        votes = np.empty((queries.shape[0], n_classes), dtype=np.float64)
        nearest = np.empty_like(votes)
        for c in range(n_classes):
            member = codes == c
            votes[:, c] = np.count_nonzero(member, axis=1)
            nearest[:, c] = np.where(member, dist, np.inf).min(axis=1)
        contested = votes == votes.max(axis=1)[:, None]
        best = np.where(contested, nearest, np.inf).min(axis=1)
        picks = np.argmax(contested & (nearest == best[:, None]), axis=1)
        return votes, picks

    def _votes(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self.train_ is None:
            raise ValueError("model is not fitted")
        X = validate_rows(X, self.train_.shape[1], "k-NN predict")
        votes = np.zeros((X.shape[0], len(self.classes_)), dtype=np.float64)
        picks = np.zeros(X.shape[0], dtype=np.int64)
        home = self._home_leaves(X)
        order = np.argsort(home, kind="stable")
        leaves, starts = np.unique(home[order], return_index=True)
        stops = np.append(starts[1:], X.shape[0])
        for leaf, start, stop in zip(leaves.tolist(), starts.tolist(),
                                     stops.tolist()):
            for s in range(start, stop, _BLOCK):
                block = order[s:min(s + _BLOCK, stop)]
                votes[block], picks[block] = self._block_votes(X[block], leaf)
        return votes, picks

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        """Per-class vote counts among the k neighbors."""
        return self._votes(X)[0]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.classes_[self._votes(X)[1]]

    @classmethod
    def from_payload(cls, params: KnnConfig, payload: KnnPayload) -> "KnnClassifier":
        return cls(**asdict(params)).fit(payload.train, payload.labels)
