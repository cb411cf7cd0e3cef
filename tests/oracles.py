"""Independent brute-force oracles shared by the test modules.

The exact-test oracles use exact rational arithmetic (fractions.Fraction)
and plain enumeration, deliberately avoiding the library's integer-numerator
formulation so the two routes stay independent.  ``reference_tree`` is the
straightforward per-node CART search that the library's presorted one must
reproduce node for node, and ``tree_replay`` routes one row down the saved
node lists.  ``reference_dumps`` renders JSON the plain recursive way, one
string per nested value, that ``hydet.jsonio.dumps`` must match byte for
byte.  ``reference_synth`` is the per-instance synth loop that the blocked
``synth_generate`` must match bit for bit: it draws each stream alone, one
Python ``_mix`` per draw, and picks damaged cells as ``permutation(n)[:k]``.
``reference_confusion`` tallies a confusion matrix row by row.
``reference_preprocess`` applies a fitted ``Preprocessor`` one column at a
time, each stage in place on a copy, which the library's whole-matrix
expressions must match bit for bit.  ``reference_fill_missing`` fills the
empty cells of a CSV body in one regex pass, which the loader's three
``str.replace`` scans must match character for character.
"""

import json
import math
import re
from fractions import Fraction
from itertools import combinations

import numpy as np

from hydet.dataset.model import ClassLabel, TimeSeriesInstance
from hydet.dataset.synth import _INSTANCE_LATENT_W, _STEP_LATENT_W
from hydet.dataset.transform import rounded_count
from hydet.rng import _PHI, CounterRng, _mix, _norm_ppf


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
    upper one or not finite.  Returns the preorder ``(feature, threshold,
    right, counts)`` node lists, so the two fits compare with ``==``."""
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

    feature, thresholds, right, node_counts = [], [], [], []

    def build(y, idx, depth):
        """Append the subtree over rows ``idx`` in preorder: the node, then
        its left subtree, then its right one."""
        counts = np.bincount(y[idx], minlength=n_classes)
        node = len(feature)
        feature.append(-1)
        thresholds.append(0.0)
        right.append(-1)
        node_counts.append(tuple(counts.tolist()))
        if (counts > 0).sum() <= 1:
            return
        if max_depth is not None and depth >= max_depth:
            return
        if len(idx) < min_samples_split:
            return

        best = best_split(y, idx, counts)
        if best is None or best[0] < min_impurity_decrease:
            return
        _, feature[node], thresholds[node] = best

        mask = X[idx, feature[node]] <= thresholds[node]
        build(y, idx[mask], depth + 1)
        right[node] = len(feature)
        build(y, idx[~mask], depth + 1)

    build(np.searchsorted(classes, y), np.arange(X.shape[0]), 0)
    return tuple(feature), tuple(thresholds), tuple(right), tuple(node_counts)


def tree_replay(saved, row):
    """The class index a saved tree (the JSON of its payload) predicts for
    ``row``: walk from the root, to node i + 1 when ``row[feature[i]] <=
    threshold[i]`` and else to ``right[i]``, until a leaf; its largest count
    wins, the lowest class index on ties."""
    node = 0
    while saved["feature"][node] != -1:
        if row[saved["feature"][node]] <= saved["threshold"][node]:
            node += 1
        else:
            node = saved["right"][node]
    counts = saved["counts"][node]
    return max(range(len(counts)), key=lambda c: (counts[c], -c))


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


def stream_normals(key, n):
    """Draws 0 .. n - 1 of the stream with ``key``: one Python ``_mix`` per
    counter, the open-interval uniform of its top 53 bits, then one
    ``_norm_ppf`` call on this stream alone."""
    top = [_mix(key + (i + 1) * _PHI) >> 11 for i in range(n)]
    return _norm_ppf((np.array(top, dtype=np.float64) + 0.5) * 2.0 ** -53)


def reference_synth(config, seed):
    """``synth_generate`` as one instance at a time and one stream at a time."""
    rng = CounterRng(seed)
    variables = config.variables
    n_ch = len(variables)
    length = config.length

    plan = []
    for label in ClassLabel:
        for k in range(config.counts.get(label, 0)):
            plan.append((label, k))
    n_inst = len(plan)

    values = np.empty((n_inst, n_ch, length), dtype=np.float64)
    for i, (label, k) in enumerate(plan):
        inst_rng = rng.derive(1, int(label), k)
        delta = stream_normals(inst_rng.derive(0).key, 1)[0]
        w = stream_normals(inst_rng.derive(1).key, length)
        z = _INSTANCE_LATENT_W * delta + _STEP_LATENT_W * w
        regime = config.regimes[label]
        for j, var in enumerate(variables):
            ch = regime[var]
            base = np.full(length, ch.start) if ch.end is None or length == 1 \
                else np.linspace(ch.start, ch.end, length)
            x = base + ch.latent_loading * z \
                + ch.noise_sd * stream_normals(inst_rng.derive(2 + j).key, length)
            if ch.clamp is not None:
                np.clip(x, ch.clamp[0], ch.clamp[1], out=x)
            values[i, j] = x

    _reference_corruption(values, config, rng)

    timestamps = tuple(config.epoch_start + t for t in range(length))
    return [TimeSeriesInstance(instance_id=f"synth-{label.name.lower()}-{k:05d}",
                               label=label, timestamps=timestamps,
                               variable_names=variables, values=values[i].T)
            for i, (label, k) in enumerate(plan)]


def _reference_corruption(values, config, rng):
    """The synth damage pass with every sample taken as ``permutation(n)[:k]``."""
    n_inst, n_ch, length = values.shape
    total_cells = n_inst * n_ch * length

    frozen_mask = np.zeros((n_inst, n_ch), dtype=bool)
    k_frozen = rounded_count(config.frozen_fraction, n_inst * n_ch)
    if k_frozen:
        chosen = rng.derive(2).permutation(n_inst * n_ch)[:k_frozen]
        for c in chosen:
            i, j = divmod(int(c), n_ch)
            values[i, j, :] = values[i, j, 0]
            frozen_mask[i, j] = True

    outlier_mask = np.zeros(values.shape, dtype=bool)
    for j, var in enumerate(config.variables):
        frac = config.outlier_fractions.get(var, 0.0)
        k_out = rounded_count(frac, n_inst * length)
        if not k_out:
            continue
        col = values[:, j, :]
        lo, hi = float(col.min()), float(col.max())
        spread = max(hi - lo, 1.0)
        eligible = np.flatnonzero(~np.repeat(frozen_mask[:, j], length))
        ch_rng = rng.derive(3, j)
        picks = eligible[ch_rng.permutation(len(eligible))[:k_out]]
        magnitudes = hi + (5.0 + 5.0 * ch_rng.derive(1).uniforms(k_out)) * spread
        rows, ts = np.divmod(picks, length)
        values[rows, j, ts] = magnitudes
        outlier_mask[rows, j, ts] = True

    k_missing = rounded_count(config.missing_fraction, total_cells)
    if k_missing:
        pool = np.flatnonzero(~outlier_mask)
        picks = pool[rng.derive(4).permutation(len(pool))[:k_missing]]
        values.reshape(-1)[picks] = np.nan


def reference_confusion(true_labels, predicted_labels, classes):
    """Counts tallied one row at a time; the first row holding an unknown
    label raises, naming its true label if that is unknown."""
    code_to_pos = {int(c): i for i, c in enumerate(classes)}
    counts = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for t, p in zip(np.asarray(true_labels).tolist(),
                    np.asarray(predicted_labels).tolist()):
        if t not in code_to_pos:
            raise ValueError(f"true label {t} not in classes")
        if p not in code_to_pos:
            raise ValueError(f"predicted label {p} not in classes")
        counts[code_to_pos[t], code_to_pos[p]] += 1
    return counts


def reference_impute(means, values):
    """Each missing cell set to its column's training mean."""
    values = values.copy()
    for j, mean in enumerate(means):
        col = values[:, j]
        col[np.isnan(col)] = mean
    return values


def reference_winsorize(fences, values):
    """Observed cells clamped into their column's fences; missing cells
    stay."""
    values = values.copy()
    for j, st in enumerate(fences):
        col = values[:, j]
        observed = ~np.isnan(col)
        col[observed] = np.clip(col[observed], st.lower_fence, st.upper_fence)
    return values


def reference_normalize(center, scale, values):
    """Each column centered, then divided by its scale unless that is 0."""
    values = values.copy()
    for j, (c, s) in enumerate(zip(center, scale)):
        values[:, j] -= c
        if s != 0.0:
            values[:, j] /= s
    return values


def reference_preprocess(prep, values):
    """``prep.transform`` of the value grid ``values``."""
    return reference_normalize(
        prep.normalizer.center, prep.normalizer.scale,
        reference_winsorize(prep.fences, reference_impute(prep.imputer.means, values)))


def reference_fill_missing(body):
    """``nan`` after every comma that ends a cell: one followed by another
    comma, a line end or the end of the body."""
    return re.sub(r",(?=,|\n|\Z)", ",nan", body)
