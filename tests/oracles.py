"""Independent brute-force oracles shared by the test modules.

The exact-test oracles use exact rational arithmetic (fractions.Fraction)
and plain enumeration, deliberately avoiding the library's integer-numerator
formulation so the two routes stay independent.  ``reference_tree`` is the
straightforward per-node CART search that the library's presorted one must
reproduce node for node.  ``reference_dumps`` renders JSON the plain recursive
way, one string per nested value, that ``hydet.jsonio.dumps`` must match byte
for byte.
"""

import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from hydet.classifiers.tree import Leaf, Split


def ks_d(a, b):
    points = sorted(set(a) | set(b))
    best = Fraction(0)
    for x in points:
        fa = Fraction(sum(1 for v in a if v <= x), len(a))
        fb = Fraction(sum(1 for v in b if v <= x), len(b))
        best = max(best, abs(fa - fb))
    return best


def ks_exact_p(a, b):
    pooled = list(a) + list(b)
    n1 = len(a)
    d_obs = ks_d(a, b)
    hits = total = 0
    for chosen in combinations(range(len(pooled)), n1):
        sample_a = [pooled[i] for i in chosen]
        rest = [pooled[i] for i in range(len(pooled)) if i not in chosen]
        total += 1
        if ks_d(sample_a, rest) >= d_obs:
            hits += 1
    return Fraction(hits, total)


def midranks(pooled):
    order = sorted(range(len(pooled)), key=lambda i: pooled[i])
    ranks = [Fraction(0)] * len(pooled)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        mid = Fraction(i + 1 + j + 1, 2)
        for k in range(i, j + 1):
            ranks[order[k]] = mid
        i = j + 1
    return ranks


def mwu_u(a, b):
    ranks = midranks(list(a) + list(b))
    r1 = sum(ranks[:len(a)])
    return r1 - Fraction(len(a) * (len(a) + 1), 2)


def mwu_exact_p(a, b):
    pooled = list(a) + list(b)
    n1, n2 = len(a), len(b)
    ranks = midranks(pooled)
    mu = Fraction(n1 * n2, 2)
    obs = abs(mwu_u(a, b) - mu)
    hits = total = 0
    for chosen in combinations(range(len(pooled)), n1):
        u_star = sum(ranks[i] for i in chosen) - Fraction(n1 * (n1 + 1), 2)
        total += 1
        if abs(u_star - mu) >= obs:
            hits += 1
    return Fraction(hits, total)


def reference_tree(X, y, max_depth=16, min_samples_split=2,
                   min_impurity_decrease=0.0):
    """The per-node CART builder the presorted ``DecisionTree.fit`` replaced:
    every node re-sorts each feature with a stable argsort and reduces a
    float one-hot ``cumsum`` row by row.  A threshold is the midpoint of two
    adjacent values, or the lower value where the midpoint is not below the
    upper one or not finite.  Returns the ``Leaf``/``Split`` tree, so the two
    fits compare with ``==``."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    classes = np.unique(y)
    n_classes = len(classes)

    def gini(counts):
        n = counts.sum()
        if n == 0:
            return 0.0
        p = counts / n
        return float(1.0 - np.sum(p * p))

    def best_split(y, idx, counts):
        n = len(idx)
        parent_gini = gini(counts)
        best = None

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
                lo, hi = float(xs[b]), float(xs[b + 1])
                threshold = (lo + hi) / 2.0
                if not (math.isfinite(threshold) and threshold < hi):
                    threshold = lo  # the midpoint rounded up to hi or overflowed
                best = (gain, feature, threshold)
        return best

    def build(y, idx, depth):
        counts = np.bincount(y[idx], minlength=n_classes)
        leaf = Leaf(tuple(counts.tolist()))
        if (counts > 0).sum() <= 1:
            return leaf
        if max_depth is not None and depth >= max_depth:
            return leaf
        if len(idx) < min_samples_split:
            return leaf

        best = best_split(y, idx, counts)
        if best is None or best[0] < min_impurity_decrease:
            return leaf
        _, feature, threshold = best

        mask = X[idx, feature] <= threshold
        return Split(feature, threshold, build(y, idx[mask], depth + 1),
                     build(y, idx[~mask], depth + 1))

    return build(np.searchsorted(classes, y), np.arange(X.shape[0]), 0)


def reference_dumps(obj):
    """Canonical JSON text: sorted keys, two-space indent, one value per line,
    floats at 17 significant digits, non-finite floats as NaN/Infinity."""
    def number(x):
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return format(float(x), ".17g")

    def render(value, indent):
        pad = " " * indent
        if value is None:
            return "null"
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, str):
            return json.dumps(value, ensure_ascii=False)
        if isinstance(value, int):
            return str(value)
        if isinstance(value, float):
            return number(value)
        if isinstance(value, dict):
            if not value:
                return "{}"
            items = [f"{pad}  {json.dumps(k, ensure_ascii=False)}: "
                     f"{render(value[k], indent + 2)}" for k in sorted(value)]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        if not value:
            return "[]"
        items = [f"{pad}  {render(v, indent + 2)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"

    return render(obj, 0) + "\n"
