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
Rissanen 1996): one int32 ``(features, rows)`` order matrix, which ``fit``
fills one feature's ``np.argsort`` at a time, and a node is a column range
of it. A split's left rows are the first ``n_left`` of the split feature's
order (the threshold lies between the ``n_left``-th value and the next); a
gather of their marks rewrites each other order row of the range stably as
left rows, then right rows, so the children are its two parts. Every order
row holds each node row once and keeps its order, so each child's rows stay
sorted by every feature.

The order of the rows within a tie block is the sort's and cannot change
the tree: the cuts and the class counts at them depend only on which values
are equal; ``_winnable`` keeps both cuts around a tie block of two classes,
wherever in it the class changes; a node's left rows are a set, those with
value <= ``lo``; and tied values differ at most as ``-0.0`` and ``0.0``, for
which ``(lo + hi) / 2`` and the ``mid < hi`` test give the same threshold.

Per feature, the search flags the cuts, the sorted positions whose value
differs from the next. Only a cut at a class boundary can hold the best Gini
or entropy gain (Fayyad & Irani 1992, *Machine Learning* 8; Elomaa & Rousu
1999, *Machine Learning* 36): along a run of tie blocks of one class the
weighted child impurity is concave, so in a node of more than one class an
interior cut's gain lies strictly below one of the run's ends. So every node
computes a gain only where the rows from the start of the cut's left tie
block to the end of its right one hold two classes (``_winnable``): at the
x10 root, 8-37% of a feature's cuts. Class counts there are one int32
``cumsum`` per class, gathered at the kept cuts. The kept gains are the same
elementwise float operations on a subset, so bitwise those of every cut. A
feature's gains are computed ``_CUT_BLOCK`` cuts at a time; a block's
first maximum wins within it, and a later block or feature replaces the
best only with a strictly larger gain, so ties still go to the lowest
feature, then the lowest threshold, as one ``argmax`` over all candidates.

Gains are bitwise those of summing the ``(m, C)`` squared-proportion matrix
with ``np.sum(axis=1)``: numpy adds a row of fewer than 8 items left to
right, so below 8 classes the squares are added one class column at a time,
``(p0**2 + p1**2) + p2**2``, from integer ``cumsum`` counts; from 8 classes
on numpy unrolls the row sum into partial sums, so there the matrix is built
and summed by numpy. ``tests/oracles.py`` keeps the per-node search, and the
tests compare the two fits node for node. On the x10 corpus (461,250
training rows, 4 features, 1,256 leaves) the fit takes 0.86-0.96 s (10
fresh-process fits) and traces a 15.0 MiB peak (tracemalloc) for a 14.1 MiB
matrix, set at the root's split search by the order matrix (7.0 MiB) and
one feature's gathered values; holding a second order matrix for the
children and the root's gains whole, it traced 23.5 MiB. On the default
corpus (46,125 rows) it takes 0.071-0.083 s, median 0.076 s (2-CPU Xeon VM,
numpy 2.4).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from ..declarations import TreeConfig
from .validation import validate_rows, validate_training_inputs


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
        if not len(self.classes):
            raise ValueError("classes: a tree needs at least one class")
        if any(a >= b for a, b in zip(self.classes, self.classes[1:])):
            raise ValueError(f"classes: {list(self.classes)} are not strictly ascending")
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
            if min(self.counts[i]) < 0 or not sum(self.counts[i]):
                raise ValueError(f"counts[{i}]: {list(self.counts[i])} has a negative "
                                 f"count or no training row")
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
        classes = np.unique(y)  # codes on y's own dtype; predict gives int64
        self.classes_ = classes.astype(np.int64)
        self.n_features_ = X.shape[1]
        # class indices in the smallest type: each feature's search gathers them
        y = np.searchsorted(classes, y).astype(np.min_scalar_type(len(classes) - 1))
        self.feature_, self.threshold_, self.right_, self.counts_ = _Grower(
            self.params, X, y, len(classes)).grow()
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

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_payload(cls, params: TreeConfig, payload: TreePayload) -> "DecisionTree":
        model = cls(**asdict(params))
        for f in fields(payload):
            setattr(model, f"{f.name}_", getattr(payload, f.name))
        model.classes_ = np.asarray(payload.classes, dtype=np.int64)
        return model


#: candidate cuts whose gains are computed at once
_CUT_BLOCK = 1 << 15


class _Grower:
    """One fit's tree growth over presorted attribute lists.

    ``orders`` is one ``(features, rows)`` int32 matrix: its row f lists the
    rows sorted by feature f's value. A node owns a column range of it, in
    which row f lists the node's rows in feature f's order."""

    def __init__(self, params: TreeConfig, X: np.ndarray, y: np.ndarray,
                 n_classes: int):
        self.params = params
        self.columns = X.T  # a view: a column is strided, never copied
        self.y = y
        self.n_classes = n_classes
        self.goes_left = np.zeros(len(y), dtype=bool)
        self.orders = np.empty(self.columns.shape, dtype=np.int32)
        for order, column in zip(self.orders, self.columns):
            order[...] = np.argsort(column)  # one feature's int64 order at a time

    def grow(self) -> tuple[tuple, tuple, tuple, tuple]:
        """The preorder ``feature``, ``threshold``, ``right`` and ``counts`` of
        the tree over every row. Open nodes wait on a stack as column ranges
        ``[lo, hi)``, the next in preorder on top; ``parent`` is the split
        whose right child one is, or -1."""
        params = self.params
        nodes = []  # [feature, threshold, right, counts] per node, in preorder
        stack = [(0, len(self.y), np.bincount(self.y, minlength=self.n_classes), 0, -1)]
        while stack:
            lo, hi, counts, depth, parent = stack.pop()
            if parent != -1:
                nodes[parent][2] = len(nodes)
            nodes.append([-1, 0.0, -1, tuple(counts.tolist())])  # a leaf until split
            best = None
            if ((counts > 0).sum() > 1
                    and (params.max_depth is None or depth < params.max_depth)
                    and counts.sum() >= params.min_samples_split):
                best = self._best_split(self.orders[:, lo:hi], counts)
            if best is None or best[0] < params.min_impurity_decrease:
                continue
            _, feature, threshold, n_left = best
            left_counts = self._partition(self.orders[:, lo:hi], feature, n_left)
            nodes[-1][:2] = feature, threshold
            stack.append((lo + n_left, hi, counts - left_counts, depth + 1,
                          len(nodes) - 1))
            stack.append((lo, lo + n_left, left_counts, depth + 1, -1))
        return tuple(zip(*nodes))

    def _partition(self, orders: np.ndarray, feature: int, n_left: int) -> np.ndarray:
        """Rewrite each row of a node's ``orders`` stably as the rows routed
        left, then the rest, and return the left rows' class counts. The left
        rows are the first ``n_left`` of the split feature's order, which
        stays as it is (the threshold lies between its ``n_left``-th and next
        value)."""
        rows = orders[feature, :n_left]
        goes_left = self.goes_left
        goes_left[rows] = True
        for f, order in enumerate(orders):
            if f != feature:
                mask = goes_left[order]
                right = order[~mask]
                order[:n_left] = order[mask]
                order[n_left:] = right
                del mask, right
        goes_left[rows] = False
        return np.bincount(self.y[rows], minlength=self.n_classes)

    def _best_split(self, orders: np.ndarray,
                    counts: np.ndarray) -> tuple[float, int, float, int] | None:
        """The best ``(gain, feature, threshold, n_left)``, or None where no
        feature has two distinct values."""
        parent_gini = _gini(counts)
        # Absent classes add exact zeros, so the class-by-class sum skips
        # them; the matrix sum of 8 or more classes needs every column.
        classes = [c for c in range(self.n_classes)
                   if counts[c] or self.n_classes >= 8]
        best: tuple[float, int, int] | None = None  # gain, feature, n_left

        for feature, order in enumerate(orders):
            ys = self.y[order]
            xs = self.columns[feature][order]
            is_cut = xs[:-1] != xs[1:]  # a cut i splits positions <= i off
            del xs
            cuts = np.flatnonzero(_winnable(is_cut, ys))
            del is_cut
            if not cuts.size:
                continue
            left = [np.cumsum(ys == c, dtype=np.int32)[cuts] for c in classes]
            del ys
            # a block's first max, and strict > across blocks and features:
            # the lowest feature, then the lowest threshold wins ties
            for first in range(0, cuts.size, _CUT_BLOCK):
                block = slice(first, first + _CUT_BLOCK)
                gains = _gains(cuts[block], [cum[block] for cum in left], counts,
                               classes, parent_gini)
                pos = int(np.argmax(gains))
                gain = float(gains[pos])
                if best is None or gain > best[0]:
                    best = (gain, feature, int(cuts[first + pos]) + 1)
                del gains
            del cuts, left  # before the next feature's arrays
        if best is None:
            return None
        gain, feature, n_left = best
        column, order = self.columns[feature], orders[feature]
        lo, hi = float(column[order[n_left - 1]]), float(column[order[n_left]])
        mid = (lo + hi) / 2.0  # in Python floats an overflow does not warn
        return gain, feature, mid if math.isfinite(mid) and mid < hi else lo, n_left


def _gains(cuts: np.ndarray, left: list[np.ndarray], counts: np.ndarray,
           classes: list[int], parent_gini: float) -> np.ndarray:
    """The Gini gain of each cut, given the class counts ``left`` of its
    left rows (one array per class of ``classes``) and the node's
    ``counts``."""
    n = int(counts.sum())
    n_left = (cuts + 1).astype(np.float64)
    n_right = n - n_left
    gini_left = _gini_rows(left, n_left)
    gini_right = _gini_rows([counts[c] - cum for c, cum in zip(classes, left)], n_right)
    gini_left *= n_left / n
    gini_right *= n_right / n
    gains = np.subtract(parent_gini, gini_left, out=gini_left)
    gains -= gini_right
    return gains


def _winnable(is_cut: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The cuts of ``is_cut`` that can hold a node's best gain, over the
    classes ``ys`` in sorted order: those where the class changes across
    the cut or next to a tie block that holds two classes."""
    wanted = ys[:-1] != ys[1:]
    mixed = wanted & ~is_cut  # a class change between equal values
    wanted &= is_cut
    if mixed.any():
        cuts = np.flatnonzero(is_cut)
        after = np.searchsorted(cuts, np.flatnonzero(mixed))
        wanted[cuts[after[after < len(cuts)]]] = True  # the cut ending its tie block
        wanted[cuts[after[after > 0] - 1]] = True  # the cut before it
    return wanted


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
