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
exactly as an all-pairs scan would.

Queries are searched in chunks of at most ``_CHUNK`` in home-leaf order.
A chunk walks ``(query, node)`` pairs down the tree one level at a time and
drops a pair whose node box bound exceeds the query's tau. A node's box
holds every box below it, so its bound is at most theirs: the leaves that
survive are exactly those the bound keeps. Queries that keep the same number
of leaves c are scored as one unpadded (queries, c) leaf matrix, in slices
of at most ``_CELLS`` candidate cells; only a leaf's own row in the leaf
table is padded, with a column that is +inf in every feature, so a pad is
never picked before a training row. Each query's result depends on that
query alone, so it does not change with how the queries are ordered or
sliced. The tree is rebuilt on load and never serialised.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..declarations import KnnConfig
from .validation import validate_rows, validate_training_inputs

_LEAF = 32         # smallest leaf when k is smaller
_CHUNK = 1024      # queries searched together at most
_CELLS = 2 ** 16   # queries times candidate rows scored together at most


def _squares_summed(terms):
    """Sum the squares of per-feature differences left to right."""
    total = None
    for diff in terms:
        np.multiply(diff, diff, out=diff)
        total = diff if total is None else np.add(total, diff, out=total)
    return total


def _box_bound(lo, hi, q):
    """Squared-distance lower bound between boxes [lo, hi] and points q,
    each given as one array per feature."""
    return _squares_summed(np.maximum(np.maximum(lo_j - q_j, q_j - hi_j), 0.0)
                           for lo_j, hi_j, q_j in zip(lo, hi, q))


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
        # the one copy of the training rows, feature-major as the search
        # reads them; train_ is a read-only view of it
        self._columns = np.concatenate([X.T, np.full((X.shape[1], 1), np.inf)],
                                       axis=1)
        self._columns.setflags(write=False)
        self.train_ = self._columns[:, :-1].T
        self.labels_ = y.copy()
        self._build_index(X)
        return self

    def _build_index(self, X: np.ndarray) -> None:
        """Build the k-d tree over the rows of ``X`` as a complete binary
        tree in heap order.

        Halving every node of a level at its median keeps all leaf sizes
        within one of each other, so every leaf sits at the same depth: the
        largest one whose leaves still hold ``max(k, _LEAF)`` rows."""
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
        self.classes_ = np.unique(self.labels_).astype(np.int64)  # predict gives int64
        self._depth = depth
        self._dims = np.array(dims, dtype=np.intp)
        self._vals = np.array(vals, dtype=np.float64)
        # node boxes in heap order: a leaf's box bounds its rows, and every
        # node above the leaves takes the min/max of its two children
        lo = [np.minimum.reduceat(X[perm], bounds[:-1], axis=0)]
        hi = [np.maximum.reduceat(X[perm], bounds[:-1], axis=0)]
        for _ in range(depth):
            lo.insert(0, np.minimum(lo[0][0::2], lo[0][1::2]))
            hi.insert(0, np.maximum(hi[0][0::2], hi[0][1::2]))
        # one row per feature, like ``_columns``
        self._lo = np.concatenate(lo).T.copy()
        self._hi = np.concatenate(hi).T.copy()
        # each leaf's rows; pads point at column n, +inf in every feature
        sizes = np.diff(bounds)
        self._table = np.full((sizes.size, sizes.max()), n, dtype=np.intp)
        self._table[np.arange(sizes.size).repeat(sizes),
                    np.arange(n) - bounds[:-1].repeat(sizes)] = perm

    def _home_leaves(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=np.intp)
        rows = np.arange(X.shape[0])
        for _ in range(self._depth):
            right = X[rows, self._dims[node]] >= self._vals[node]
            node = 2 * node + 1 + right
        return node - (2 ** self._depth - 1)

    def _sq_distances(self, queries: np.ndarray, cand: np.ndarray) -> np.ndarray:
        """Squared distances from each query to its row of candidate indices."""
        return _squares_summed(queries[:, j, None] - self._columns[j][cand]
                               for j in range(queries.shape[1]))

    def _kept_leaves(self, queries: np.ndarray,
                     tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(query, leaf) pairs whose leaf box bound is at most the query's tau,
        sorted by query, then leaf."""
        cols = queries.T.copy()
        who = np.arange(queries.shape[0])
        node = np.zeros_like(who)
        for level in range(self._depth + 1):
            keep = _box_bound((lo[node] for lo in self._lo),
                              (hi[node] for hi in self._hi),
                              (q[who] for q in cols)) <= tau[who]
            who, node = who[keep], node[keep]
            if level < self._depth:
                who = np.repeat(who, 2)
                node = (2 * node[:, None] + [1, 2]).ravel()
        return who, node - (2 ** self._depth - 1)

    def _block_votes(self, queries: np.ndarray,
                     cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Votes and picked class codes of queries over their candidate rows."""
        k = self.params.k
        d2 = self._sq_distances(queries, cand)
        nbrs = np.argpartition(d2, k - 1, axis=1)[:, :k]
        kth = np.take_along_axis(d2, nbrs, axis=1).max(axis=1)
        # rows whose k-th distance value repeats past the boundary take every
        # cell below it and then the lowest-index cells at it: the first k of
        # a (distance, index) sort
        tied = np.flatnonzero(np.count_nonzero(d2 <= kth[:, None], axis=1) > k)
        if tied.size:
            d, at = d2[tied], kth[tied, None]
            past = len(self.labels_) + 1  # above every index and the pads' n
            key = np.where(d < at, -1, np.where(d == at, cand[tied], past))
            nbrs[tied] = np.argpartition(key, k - 1, axis=1)[:, :k]
        dist = np.take_along_axis(d2, nbrs, axis=1)
        labels = self.labels_[np.take_along_axis(cand, nbrs, axis=1)]

        votes = np.empty((queries.shape[0], len(self.classes_)), dtype=np.float64)
        nearest = np.empty_like(votes)
        for c, label in enumerate(self.classes_.tolist()):
            member = labels == label
            votes[:, c] = np.count_nonzero(member, axis=1)
            nearest[:, c] = np.where(member, dist, np.inf).min(axis=1)
        contested = votes == votes.max(axis=1)[:, None]
        best = np.where(contested, nearest, np.inf).min(axis=1)
        picks = np.argmax(contested & (nearest == best[:, None]), axis=1)
        return votes, picks

    def _chunk_votes(self, queries: np.ndarray,
                     home: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Votes and picks of one chunk of queries with their home leaves."""
        k = self.params.k
        tau = np.partition(self._sq_distances(queries, self._table[home]),
                           k - 1, axis=1)[:, k - 1]
        who, leaf = self._kept_leaves(queries, tau)
        counts = np.bincount(who, minlength=queries.shape[0])
        kept = counts[who]
        votes = np.empty((queries.shape[0], len(self.classes_)))
        picks = np.empty(queries.shape[0], dtype=np.intp)
        for c in np.unique(counts).tolist():
            # the queries that keep c leaves; their pairs, sorted by query
            # then leaf, are one row of c leaves each
            group = np.flatnonzero(counts == c)
            leaves = leaf[kept == c].reshape(group.size, c)
            step = max(1, _CELLS // (c * self._table.shape[1]))
            for s in range(0, group.size, step):
                block, cand = group[s:s + step], self._table[leaves[s:s + step]]
                votes[block], picks[block] = self._block_votes(
                    queries[block], cand.reshape(block.size, -1))
        return votes, picks

    def _votes(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self.train_ is None:
            raise ValueError("model is not fitted")
        X = validate_rows(X, self.train_.shape[1], "k-NN predict")
        votes = np.empty((X.shape[0], len(self.classes_)))
        picks = np.empty(X.shape[0], dtype=np.intp)
        home = self._home_leaves(X)
        order = np.argsort(home, kind="stable")
        for s in range(0, X.shape[0], _CHUNK):
            chunk = order[s:s + _CHUNK]
            votes[chunk], picks[chunk] = self._chunk_votes(X[chunk], home[chunk])
        return votes, picks

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        """Per-class vote counts among the k neighbors."""
        return self._votes(X)[0]

    def predict(self, X: np.ndarray) -> np.ndarray:
        picks = self._votes(X)[1]  # first: it refuses an unfitted model
        return self.classes_[picks]

    @classmethod
    def from_payload(cls, params: KnnConfig, payload: KnnPayload) -> "KnnClassifier":
        return cls(**asdict(params)).fit(payload.train, payload.labels)
