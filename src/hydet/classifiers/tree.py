"""CART decision tree with Gini impurity, exact tie-breaks, no pruning.

Split search: candidate thresholds are midpoints between consecutive
distinct sorted feature values, or the lower value where the midpoint rounds
up to the upper one (``1+2**-52`` and ``1+2**-51``) or overflows to an
infinity (scikit-learn's rule), so that a split always separates them; the
chosen split maximizes the impurity decrease

    gain = gini(node) - (n_left/n) * gini(left) - (n_right/n) * gini(right)

with ties broken by lower feature index, then lower threshold. Growth stops
on purity, depth, node size, or a best gain below ``min_impurity_decrease``.
Routing sends ``value <= threshold`` left. The fitted tree is flat preorder
node lists, also its ``dt.json`` payload (``TreePayload``).

The search runs over presorted attribute lists (SLIQ: Mehta, Agrawal &
Rissanen 1996): a node holds one int32 ``(features, rows)`` order matrix,
and ``fit`` fills the root's row by row with stable argsorts of ``X.T``, a
view. A split's left rows are the first ``n_left`` of the split feature's
order (the threshold lies between the ``n_left``-th value and the next);
one gather of their marks over the matrix splits it into the children's.
Every order row holds each node row once and keeps its order, so each
child's rows are a stable argsort of its own rows, and the candidates and
their class counts are those of a per-node sort. Only the open path's
matrices stay alive.

Per feature, the search keeps one int32 ``cumsum`` of each class over the
node's order and does the float gain arithmetic ``_BLOCK`` sorted positions
at a time: each block's values, candidates and gains are its only other
arrays, so the search holds no float temporary as long as the node. A
block's first maximum wins within it, and a later block or feature replaces
the best only with a strictly larger gain, so ties still go to the lowest
feature, then the lowest threshold, as one ``argmax`` over all candidates.

Gains are bitwise those of summing the ``(m, C)`` squared-proportion matrix
with ``np.sum(axis=1)``: numpy adds a row of fewer than 8 items left to
right, so below 8 classes the squares are added one class column at a time,
``(p0**2 + p1**2) + p2**2``, from integer ``cumsum`` counts; from 8 classes
on numpy unrolls the row sum into partial sums, so there the matrix is built
and summed by numpy. ``tests/oracles.py`` keeps the per-node search, and the
tests compare the two fits node for node. On the x10 corpus (461,250
training rows, 4 features, 1,256 leaves) the fit takes 1.6-1.8 s against
8.2-8.8 s for the per-node search, and traces a 19.5 MiB peak (tracemalloc)
for a 14.1 MiB matrix, against 77.6 MiB when it held a copy of ``X.T`` and
node-long float temporaries; on the default corpus (46,125 rows) it takes
0.10-0.13 s against 0.42-0.54 s (2-CPU Xeon VM, numpy 2.4).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from ..declarations import TreeConfig
from .validation import validate_rows, validate_training_inputs

#: sorted positions whose split gains are computed at once: the float
#: temporaries of one feature's search are at most this long
_BLOCK = 1 << 15


def _gini(counts: np.ndarray) -> float:
    p = counts / counts.sum()
    return float(1.0 - np.sum(p * p))


@dataclass(frozen=True)
class TreePayload:
    """The ``dt.json`` payload after its header: one entry per node, in
    preorder. A split node i sends ``value <= threshold[i]`` to node i + 1
    and the rest to node ``right[i]``; a leaf has ``feature == right == -1``
    and ``threshold == 0.0``."""

    classes: tuple[int, ...]
    n_features: int
    feature: tuple[int, ...]
    threshold: tuple[float, ...]
    right: tuple[int, ...]
    counts: tuple[tuple[int, ...], ...]  # training rows per class, in ``classes`` order

    def __post_init__(self):  # one reverse pass: exactly one preorder tree
        n = len(self.feature)
        if n == 0:
            raise ValueError("feature: a tree needs at least one node")
        for key in ("threshold", "right", "counts"):
            if len(values := getattr(self, key)) != n:
                raise ValueError(f"{key}: {len(values)} entries for {n} nodes")
        ends = [0] * n + [n]  # ends[i]: one past the last node of i's subtree
        for i in reversed(range(n)):
            feature, right = self.feature[i], self.right[i]
            if len(self.counts[i]) != len(self.classes):
                raise ValueError(f"counts[{i}]: {len(self.counts[i])} counts "
                                 f"for {len(self.classes)} classes")
            if feature == -1:
                if (right, self.threshold[i]) != (-1, 0.0):
                    raise ValueError(f"right[{i}], threshold[{i}]: a leaf has -1 and "
                                     f"0.0, got {right} and {self.threshold[i]!r}")
                ends[i] = i + 1
            elif not 0 <= feature < self.n_features:
                raise ValueError(f"feature[{i}]: {feature} is outside "
                                 f"0..{self.n_features - 1}")
            elif right != ends[i + 1] or right == n:
                raise ValueError(f"right[{i}]: {right} is not a right child: the "
                                 f"left subtree of node {i} ends at {ends[i + 1]}")
            else:
                ends[i] = ends[right]
        if ends[0] != n:
            raise ValueError(f"feature[{ends[0]}]: node {ends[0]} is not reached "
                             f"from the root")


class DecisionTree:
    """Binary CART classifier over integer class codes."""

    Config = TreeConfig
    Payload = TreePayload
    kind = "decision_tree"
    display_name = "Decision Tree"

    def __init__(self, **params):
        self.params = TreeConfig(**params)
        self.feature_: tuple[int, ...] | None = None

    # -- fitting -----------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTree":
        X, y = validate_training_inputs(X, y, "decision tree fit")
        self.classes_ = np.unique(y)
        self.n_features_ = X.shape[1]
        self.feature_, self.threshold_, self.right_, self.counts_ = _Grower(
            self.params, X, np.searchsorted(self.classes_, y), len(self.classes_)).grow()
        return self

    # -- prediction --------------------------------------------------------

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        """Leaf class-count vector per row (columns follow ``classes_``)."""
        if self.feature_ is None:
            raise ValueError("model is not fitted")
        X = validate_rows(X, self.n_features_, "decision tree predict")
        out = np.zeros((X.shape[0], len(self.classes_)), dtype=np.float64)
        pending = {0: np.arange(X.shape[0])}  # node -> rows; children follow parents
        for node, (feature, threshold, right) in enumerate(
                zip(self.feature_, self.threshold_, self.right_)):
            rows = pending.pop(node, None)
            if rows is None or not rows.size:
                continue
            if feature == -1:
                out[rows] = self.counts_[node]
                continue
            mask = X[rows, feature] <= threshold
            pending[node + 1] = rows[mask]
            pending[right] = rows[~mask]
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        scores = self.predict_scores(X)
        # first argmax = lowest class code on leaf-count ties
        return self.classes_[np.argmax(scores, axis=1)]

    # -- introspection and serialization ------------------------------------

    def depth(self) -> int:
        if self.feature_ is None:
            return 0
        depths = [0] * len(self.feature_)
        for node, right in enumerate(self.right_):
            if right != -1:
                depths[node + 1] = depths[right] = depths[node] + 1
        return max(depths)

    def n_leaves(self) -> int:
        return 0 if self.feature_ is None else self.feature_.count(-1)

    @classmethod
    def from_payload(cls, params: TreeConfig, payload: TreePayload) -> "DecisionTree":
        model = cls(**asdict(params))
        for f in fields(payload):
            setattr(model, f"{f.name}_", getattr(payload, f.name))
        model.classes_ = np.asarray(payload.classes, dtype=np.int64)
        return model


class _Grower:
    """One fit's tree growth over presorted attribute lists.

    A node holds one ``(features, rows)`` int32 order matrix: its row f lists
    the node's rows sorted by feature f's value, ties in ascending row order."""

    def __init__(self, params: TreeConfig, X: np.ndarray, y: np.ndarray,
                 n_classes: int):
        self.params = params
        self.columns = X.T  # a view: a column is strided, never copied
        # class indices in the smallest type: each feature's search gathers them
        self.y = y.astype(np.min_scalar_type(n_classes - 1))
        self.n_classes = n_classes
        self.goes_left = np.zeros(len(y), dtype=bool)

    def grow(self) -> tuple[tuple, tuple, tuple, tuple]:
        """The preorder ``feature``, ``threshold``, ``right`` and ``counts`` of
        the tree over every row. Open nodes wait on a stack, the next in
        preorder on top; ``parent`` is the split whose right child one is, or -1."""
        params = self.params
        nodes = []  # [feature, threshold, right, counts] per node, in preorder
        orders = np.empty(self.columns.shape, dtype=np.int32)
        for feature in range(len(orders)):  # one int64 argsort alive at a time
            orders[feature] = np.argsort(self.columns[feature], kind="stable")
        stack = [(orders, np.bincount(self.y, minlength=self.n_classes), 0, -1)]
        while stack:
            orders, counts, depth, parent = stack.pop()
            if parent != -1:
                nodes[parent][2] = len(nodes)
            nodes.append([-1, 0.0, -1, tuple(counts.tolist())])  # a leaf until split
            best = None
            if ((counts > 0).sum() > 1
                    and (params.max_depth is None or depth < params.max_depth)
                    and counts.sum() >= params.min_samples_split):
                best = self._best_split(orders, counts)
            if best is None or best[0] < params.min_impurity_decrease:
                continue
            _, feature, threshold, n_left = best
            left, right, left_counts = self._partition(orders, feature, n_left)
            nodes[-1][:2] = feature, threshold
            stack.append((right, counts - left_counts, depth + 1, len(nodes) - 1))
            stack.append((left, left_counts, depth + 1, -1))
            del left, right  # only the open path's orders stay alive
        return tuple(zip(*nodes))

    def _partition(self, orders: np.ndarray, feature: int, n_left: int):
        """The order matrix compressed to the rows routed left and to the
        rest, and the left rows' class counts. The left rows are the first
        ``n_left`` of the split feature's order (the threshold lies between
        its ``n_left``-th and next value), and every order row holds them."""
        rows = orders[feature, :n_left]
        goes_left = self.goes_left
        goes_left[rows] = True
        mask = goes_left[orders]
        goes_left[rows] = False
        left = orders[mask].reshape(len(orders), n_left)
        right = orders[~mask].reshape(len(orders), -1)
        return left, right, np.bincount(self.y[rows], minlength=self.n_classes)

    def _best_split(self, orders: np.ndarray,
                    counts: np.ndarray) -> tuple[float, int, float, int] | None:
        """The best ``(gain, feature, threshold, n_left)``, or None where no
        feature has two distinct values. Each order is searched ``_BLOCK``
        sorted positions at a time; only the class ``cumsum`` counts are as
        long as the node."""
        n = int(counts.sum())
        parent_gini = _gini(counts)
        # Absent classes add exact zeros, so the class-by-class sum skips
        # them; the matrix sum of 8 or more classes needs every column.
        classes = [c for c in range(self.n_classes)
                   if counts[c] or self.n_classes >= 8]
        best: tuple[float, int, float, int] | None = None

        for feature, order in enumerate(orders):
            column = self.columns[feature]
            ys = self.y[order]
            cums = [np.cumsum(ys == c, dtype=np.int32) for c in classes]
            del ys
            for first in range(0, n - 1, _BLOCK):
                # a candidate i splits sorted positions <= i from the rest
                xs = column[order[first:first + _BLOCK + 1]]
                local = np.flatnonzero(xs[:-1] != xs[1:])
                if not local.size:
                    continue
                block = local + first
                left = [cum[block] for cum in cums]
                n_left = (block + 1).astype(np.float64)
                n_right = n - n_left
                gini_left = _gini_rows(left, n_left)
                gini_right = _gini_rows(
                    [counts[c] - cum for c, cum in zip(classes, left)], n_right)
                gini_left *= n_left / n
                gini_right *= n_right / n
                gains = np.subtract(parent_gini, gini_left, out=gini_left)
                gains -= gini_right

                pos = int(np.argmax(gains))  # first max: lowest threshold wins ties
                gain = float(gains[pos])
                # strict: an earlier block or a lower feature wins ties
                if best is None or gain > best[0]:
                    i = int(local[pos])
                    lo, hi = float(xs[i]), float(xs[i + 1])
                    mid = (lo + hi) / 2.0  # in Python floats an overflow does not warn
                    best = (gain, feature,
                            mid if math.isfinite(mid) and mid < hi else lo, first + i + 1)
            del cums  # before the next feature's are built
        return best


def _gini_rows(class_counts: list[np.ndarray], n: np.ndarray) -> np.ndarray:
    """``1 - sum_c (count_c / n)**2`` per candidate, bit for bit as
    ``np.sum(..., axis=1)`` over the ``(m, C)`` proportion matrix.

    numpy adds a row of fewer than 8 items left to right, so the squares
    are added one class column at a time, in class order.  From 8 items on
    numpy unrolls the row sum into partial sums, an order a column loop
    would not reproduce, so there numpy sums the matrix itself."""
    if len(class_counts) >= 8:
        total = np.sum((np.stack(class_counts, axis=1) / n[:, None]) ** 2, axis=1)
    else:
        squares = ((counts / n) ** 2 for counts in class_counts)
        total = next(squares)
        for square in squares:
            total += square
    return np.subtract(1.0, total, out=total)
