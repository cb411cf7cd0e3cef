"""CART decision tree with Gini impurity, exact tie-breaks, no pruning.

Split search: candidate thresholds are midpoints between consecutive
distinct sorted feature values; the chosen split maximizes the impurity
decrease

    gain = gini(node) - (n_left/n) * gini(left) - (n_right/n) * gini(right)

with ties broken by lower feature index, then lower threshold. Growth stops
on purity, depth, node size, or a best gain below ``min_impurity_decrease``.
Routing sends ``value <= threshold`` left. The fitted tree is built of
``Leaf`` and ``Split`` nodes, which are also its ``dt.json`` payload.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .validation import validate_rows, validate_training_inputs


def _gini(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - np.sum(p * p))


@dataclass(frozen=True)
class TreeConfig:
    """Hyperparameters of ``DecisionTree``: the ``classifiers.tree`` section."""

    max_depth: int | None = 16
    min_samples_split: int = 2
    min_impurity_decrease: float = 0.0

    def __post_init__(self):
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be None or >= 0")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.min_impurity_decrease < 0:
            raise ValueError("min_impurity_decrease must be >= 0")


@dataclass(frozen=True)
class Leaf:
    counts: tuple[int, ...]  # training rows per class, in ``classes`` order


@dataclass(frozen=True)
class Split:
    feature: int
    threshold: float
    left: Leaf | Split
    right: Leaf | Split


@dataclass(frozen=True)
class TreePayload:
    """The ``dt.json`` payload after its header."""

    classes: tuple[int, ...]
    n_features: int
    tree: Leaf | Split

    def __post_init__(self):
        for node, path in _walk(self.tree, "tree"):
            if isinstance(node, Leaf) and len(node.counts) != len(self.classes):
                raise ValueError(f"{path}.counts: {len(node.counts)} counts "
                                 f"for {len(self.classes)} classes")
            if isinstance(node, Split) and not 0 <= node.feature < self.n_features:
                raise ValueError(f"{path}.feature: {node.feature} is outside "
                                 f"0..{self.n_features - 1}")


def _walk(node: Leaf | Split, path: str):
    """Every node under ``node`` with its key path, parents first."""
    yield node, path
    if isinstance(node, Split):
        yield from _walk(node.left, f"{path}.left")
        yield from _walk(node.right, f"{path}.right")


class DecisionTree:
    """Binary CART classifier over integer class codes."""

    Config = TreeConfig
    Payload = TreePayload
    kind = "decision_tree"
    display_name = "Decision Tree"

    def __init__(self, **params):
        self.params = TreeConfig(**params)
        self.tree_: Leaf | Split | None = None

    # -- fitting -----------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTree":
        X, y = validate_training_inputs(X, y, "decision tree fit")
        self.classes_ = np.unique(y)
        self.n_features_ = X.shape[1]
        y_enc = np.searchsorted(self.classes_, y)
        self.tree_ = self._build(X, y_enc, np.arange(X.shape[0]), depth=0)
        return self

    def _build(self, X: np.ndarray, y: np.ndarray, idx: np.ndarray,
               depth: int) -> Leaf | Split:
        counts = np.bincount(y[idx], minlength=len(self.classes_))
        leaf = Leaf(tuple(counts.tolist()))
        if (counts > 0).sum() <= 1:
            return leaf
        params = self.params
        if params.max_depth is not None and depth >= params.max_depth:
            return leaf
        if len(idx) < params.min_samples_split:
            return leaf

        best = self._best_split(X, y, idx, counts)
        if best is None or best[0] < params.min_impurity_decrease:
            return leaf
        _, feature, threshold = best

        mask = X[idx, feature] <= threshold
        return Split(feature, threshold, self._build(X, y, idx[mask], depth + 1),
                     self._build(X, y, idx[~mask], depth + 1))

    def _best_split(self, X: np.ndarray, y: np.ndarray, idx: np.ndarray,
                    counts: np.ndarray) -> tuple[float, int, float] | None:
        n = len(idx)
        n_classes = len(self.classes_)
        parent_gini = _gini(counts)
        best: tuple[float, int, float] | None = None

        for feature in range(X.shape[1]):
            col = X[idx, feature]
            order = np.argsort(col, kind="stable")
            xs = col[order]
            boundaries = np.flatnonzero(xs[:-1] != xs[1:])
            if boundaries.size == 0:
                continue

            one_hot = np.zeros((n, n_classes), dtype=np.float64)
            one_hot[np.arange(n), y[idx][order]] = 1.0
            cum = np.cumsum(one_hot, axis=0)

            left_counts = cum[boundaries]
            right_counts = counts[None, :] - left_counts
            n_left = (boundaries + 1).astype(np.float64)
            n_right = n - n_left
            gini_left = 1.0 - np.sum((left_counts / n_left[:, None]) ** 2, axis=1)
            gini_right = 1.0 - np.sum((right_counts / n_right[:, None]) ** 2, axis=1)
            gains = parent_gini - (n_left / n) * gini_left - (n_right / n) * gini_right

            pos = int(np.argmax(gains))  # first max: lowest threshold wins ties
            gain = float(gains[pos])
            if best is None or gain > best[0]:  # strict: lowest feature wins ties
                b = boundaries[pos]
                threshold = (xs[b] + xs[b + 1]) / 2.0
                best = (gain, feature, float(threshold))
        return best

    # -- prediction --------------------------------------------------------

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        """Leaf class-count vector per row (columns follow ``classes_``)."""
        if self.tree_ is None:
            raise ValueError("model is not fitted")
        X = validate_rows(X, self.n_features_, "decision tree predict")
        out = np.zeros((X.shape[0], len(self.classes_)), dtype=np.float64)
        self._route(self.tree_, X, np.arange(X.shape[0]), out)
        return out

    def _route(self, node: Leaf | Split, X: np.ndarray, idx: np.ndarray,
               out: np.ndarray) -> None:
        if idx.size == 0:
            return
        if isinstance(node, Leaf):
            out[idx] = node.counts
            return
        mask = X[idx, node.feature] <= node.threshold
        self._route(node.left, X, idx[mask], out)
        self._route(node.right, X, idx[~mask], out)

    def predict(self, X: np.ndarray) -> np.ndarray:
        scores = self.predict_scores(X)
        # first argmax = lowest class code on leaf-count ties
        return self.classes_[np.argmax(scores, axis=1)]

    # -- introspection and serialization ------------------------------------

    def depth(self) -> int:
        if self.tree_ is None:
            return 0
        return max(path.count(".") for _, path in _walk(self.tree_, ""))

    def n_leaves(self) -> int:
        if self.tree_ is None:
            return 0
        return sum(isinstance(node, Leaf) for node, _ in _walk(self.tree_, ""))

    @classmethod
    def from_payload(cls, params: TreeConfig, payload: TreePayload) -> "DecisionTree":
        model = cls(**asdict(params))
        model.classes_ = np.asarray(payload.classes, dtype=np.int64)
        model.n_features_ = payload.n_features
        model.tree_ = payload.tree
        return model
