import json
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hydet.classifiers import (MODELS, ClassifiersConfig, DecisionTree, GaussianNb,
                               KnnClassifier, KnnConfig, NbConfig, TreeConfig,
                               load_model, payload, save_model, train_all)
from hydet import jsonio
from hydet.classifiers.nb import NbPayload
from hydet.classifiers.tree import _BLOCK, TreePayload, _gini_rows
from hydet.codec import to_json
from hydet.config import RunConfig
from hydet.dataset import default_config, flatten, split, synth_generate
from hydet.dataset.model import CANONICAL_VARIABLE_NAMES, SplitSpec
from hydet.errors import (EmptyDataError, MissingCellsError, ModelFormatError,
                          NonFiniteError, WidthMismatchError)
from hydet.quality import Preprocessor
from oracles import reference_tree, tree_replay


def fitted_tree(model):
    """A fitted tree's node lists, as ``reference_tree`` returns them."""
    return model.feature_, model.threshold_, model.right_, model.counts_


# ---------------------------------------------------------------------------
# decision tree


def test_tree_single_class_is_single_leaf():
    X = np.array([[1.0], [2.0], [3.0]])
    model = DecisionTree().fit(X, np.array([2, 2, 2]))
    assert model.n_leaves() == 1
    assert model.predict(np.array([[99.0]])).tolist() == [2]


def test_tree_1d_split_at_zero_matches_candidate_enumeration():
    X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    y = np.array([0, 0, 1, 1])
    model = DecisionTree().fit(X, y)
    assert model.feature_[0] == 0

    # oracle: enumerate every midpoint candidate and its gain directly
    def gini(labels):
        _, counts = np.unique(labels, return_counts=True)
        p = counts / len(labels)
        return 1.0 - np.sum(p * p)

    xs = np.sort(X[:, 0])
    best = None
    for lo, hi in zip(xs[:-1], xs[1:]):
        if lo == hi:
            continue
        thr = (lo + hi) / 2.0
        left, right = y[X[:, 0] <= thr], y[X[:, 0] > thr]
        gain = gini(y) - len(left) / 4 * gini(left) - len(right) / 4 * gini(right)
        if best is None or gain > best[0]:
            best = (gain, thr)
    assert model.threshold_[0] == best[1] == 0.0
    assert (model.predict(X) == y).all()


def test_tree_memorizes_conflict_free_data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(300, 4))
    y = rng.integers(0, 3, size=300)
    model = DecisionTree(max_depth=None).fit(X, y)
    assert (model.predict(X) == y).all()


def test_tree_predictions_match_replay_oracle():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(400, 3))
    y = (X[:, 0] + 0.3 * X[:, 1] > 0).astype(np.int64) + (X[:, 2] > 1)
    model = DecisionTree(max_depth=6).fit(X, y)
    queries = rng.normal(size=(200, 3))
    predicted = model.predict(queries)
    exported = json.loads(jsonio.dumps(to_json(payload(model))))
    replayed = [model.classes_[tree_replay(exported, q)] for q in queries]
    assert predicted.tolist() == replayed


def test_tree_depth_and_min_samples_limits():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(200, 2))
    y = rng.integers(0, 2, size=200)
    assert DecisionTree(max_depth=3).fit(X, y).depth() <= 3
    assert DecisionTree(max_depth=0).fit(X, y).n_leaves() == 1

    # no node smaller than min_samples_split is ever split: replay the
    # training rows through the exported tree and count arrivals
    model = DecisionTree(min_samples_split=40).fit(X, y)
    exported = json.loads(jsonio.dumps(to_json(payload(model))))
    arrivals = [0] * len(exported["feature"])
    for row in X:
        node = 0
        while exported["feature"][node] != -1:
            arrivals[node] += 1
            if row[exported["feature"][node]] <= exported["threshold"][node]:
                node += 1
            else:
                node = exported["right"][node]
    splits = [i for i, f in enumerate(exported["feature"]) if f != -1]
    assert splits and all(arrivals[i] >= 40 for i in splits)


def test_tree_split_tiebreak_prefers_lower_feature():
    # identical separating power on both features; feature 0 must win
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    y = np.array([0, 0, 1, 1])
    model = DecisionTree().fit(X, y)
    assert model.feature_[0] == 0


def test_tree_leaf_tie_breaks_to_lowest_code():
    X = np.array([[0.0], [0.0]])
    y = np.array([1, 2])  # no split possible, leaf counts tie
    model = DecisionTree().fit(X, y)
    assert model.predict(np.array([[0.0]])).tolist() == [1]


def test_tree_monotone_transform_invariance():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(150, 3))
    y = (X[:, 1] > 0.2).astype(np.int64)
    before = DecisionTree().fit(X, y).predict(X)
    X2 = X.copy()
    X2[:, 1] = np.exp(X2[:, 1])  # strictly increasing on one feature
    after = DecisionTree().fit(X2, y).predict(X2)
    assert np.array_equal(before, after)


def test_tree_input_validation():
    with pytest.raises(EmptyDataError):
        DecisionTree().fit(np.empty((0, 2)), np.empty(0, dtype=int))
    with pytest.raises(MissingCellsError):
        DecisionTree().fit(np.array([[np.nan]]), np.array([0]))
    with pytest.raises(NonFiniteError):
        DecisionTree().fit(np.array([[np.inf]]), np.array([0]))
    with pytest.raises(ValueError, match=re.escape("X must be 2-D, got shape (3,)")):
        DecisionTree().fit(np.zeros(3), np.zeros(3, dtype=int))
    with pytest.raises(ValueError, match=re.escape(
            "labels shape (2,) does not match 3 rows")):
        DecisionTree().fit(np.zeros((3, 1)), np.zeros(2, dtype=int))
    model = DecisionTree().fit(np.array([[0.0], [1.0]]), np.array([0, 1]))
    with pytest.raises(WidthMismatchError):
        model.predict(np.array([[0.0, 1.0]]))
    with pytest.raises(NonFiniteError, match="non-finite values in rows"):
        model.predict(np.array([[np.inf]]))


@pytest.mark.parametrize("cls", [DecisionTree, KnnClassifier, GaussianNb])
def test_predict_before_fit_is_refused(cls):
    with pytest.raises(ValueError, match="model is not fitted"):
        cls().predict(np.zeros((1, 2)))


@pytest.mark.parametrize("make, message", [
    (lambda: NbPayload(classes=(0,), priors=(1.0,), means=(), variances=(),
                       epsilon=1e-9),
     "classes and means[0] must not be empty"),
    (lambda: NbPayload(classes=(0, 1), priors=(0.5, 0.5), means=((0.0,), (1.0,)),
                       variances=((1.0,),), epsilon=1e-9),
     "variances: expected 2 rows of 1 values"),
    (lambda: TreePayload(classes=(0,), n_features=1, feature=(-1,), threshold=(0.0,),
                         right=(), counts=((1,),)),
     "right: 0 entries for 1 nodes"),
], ids=["nb-without-means", "nb-variances-short", "tree-right-short"])
def test_payload_lists_of_unequal_length_are_refused(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


_TIES = st.sampled_from([-1.5, -1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 3.0])


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_tree_equals_per_node_reference_fit(data):
    # the presorted fit against the per-node stable-sort search it
    # replaced: every split feature, threshold and leaf count equal
    width = data.draw(st.integers(1, 4))
    pool = data.draw(arrays(np.float64, (data.draw(st.integers(1, 30)), width),
                            elements=st.one_of(_TIES, st.floats(-1e3, 1e3, width=32))))
    n = data.draw(st.integers(1, 150))
    # rows drawn from a small pool repeat: duplicate rows and tied values
    X = pool[data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))]
    for j in range(width):
        shape = data.draw(st.sampled_from(["as drawn", "constant", "copy of 0"]))
        if shape == "constant":
            X[:, j] = X[0, j]
        elif shape == "copy of 0":  # equal values across features
            X[:, j] = X[:, 0]
    n_classes = data.draw(st.sampled_from([2, 3, 5, 8, 9]))
    codes = sorted(data.draw(st.sets(st.integers(-20, 60), min_size=n_classes,
                                     max_size=n_classes)))  # not 0..C-1
    y = np.array(data.draw(st.lists(st.sampled_from(codes), min_size=n, max_size=n)))
    params = {"max_depth": data.draw(st.sampled_from([0, 1, 2, 4, None])),
              "min_samples_split": data.draw(st.integers(2, 12)),
              "min_impurity_decrease": data.draw(st.sampled_from([0.0, 1e-3, 0.05, 0.3]))}
    model = DecisionTree(**params).fit(X, y)
    assert fitted_tree(model) == reference_tree(X, y, **params)


@pytest.mark.parametrize("n_classes", range(2, 11))
def test_tree_gini_rows_add_as_numpy_row_sum(n_classes):
    # the split search adds squared class proportions one class at a time
    # below 8 classes; every bit must equal numpy's row sum of the
    # (m, C) matrix, whose order changes at 8
    rng = np.random.default_rng(n_classes)
    counts = rng.integers(0, 1000, size=(20_000, n_classes))
    counts[::7, rng.integers(n_classes)] = 0
    n = counts.sum(axis=1).astype(np.float64) + (counts.sum(axis=1) == 0)
    expected = 1.0 - np.sum((counts.astype(np.float64) / n[:, None]) ** 2, axis=1)
    got = _gini_rows([counts[:, c] for c in range(n_classes)], n)
    assert got.tobytes() == expected.tobytes()


def test_tree_equals_reference_fit_on_dirty_corpus():
    cfg = default_config(n_normal=60, n_rapid_loss=34, n_hydrate=8, length=40,
                         missing_fraction=0.05, frozen_fraction=0.1,
                         outlier_fractions={"P-TPT": 0.05})
    matrix = flatten(synth_generate(cfg, 7), CANONICAL_VARIABLE_NAMES)
    train, _ = split(matrix, SplitSpec())
    train = Preprocessor.fit(train).transform(train)
    model = DecisionTree(max_depth=None).fit(train.values, train.labels)
    assert model.n_leaves() > 10
    assert fitted_tree(model) == reference_tree(train.values, train.labels, max_depth=None)


@pytest.mark.parametrize("max_depth", [16, None])
@pytest.mark.parametrize("pair", [(1 + 2**-52, 1 + 2**-51), (1.7e308, 1.79e308),
                                  (-1.79e308, -1.7e308)],
                         ids=["midpoint-rounds-up", "sum-overflows", "sum-overflows-below"])
def test_tree_threshold_separates_adjacent_values(pair, max_depth):
    # the midpoint of these two values is the upper one or an infinity, a
    # split that sends both rows one way; the lower value separates them
    X, y = np.array(pair)[:, None], np.array([0, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = DecisionTree(max_depth=max_depth).fit(X, y)
    assert (model.depth(), model.threshold_[0]) == (1, pair[0])
    assert model.predict(X).tolist() == [0, 1]
    assert fitted_tree(model) == reference_tree(X, y, max_depth=max_depth)


def test_tree_blocked_split_search_matches_the_per_node_search():
    # the root's candidates on feature 0 fill three blocks and part of a
    # fourth; feature 1 has ties, so its blocks hold fewer candidates
    n = 3 * _BLOCK + 100
    rng = np.random.default_rng(5)
    X = rng.normal(size=(n, 2))
    X[:, 1] = np.round(X[:, 1], 2)
    y = (X[:, 0] + 0.5 * X[:, 1] > 0.3).astype(np.int64) + (X[:, 1] > 1)
    flip = rng.random(n) < 0.05
    y[flip] = rng.integers(0, 3, size=int(flip.sum()))
    assert len(np.unique(X[:, 0])) - 1 > 3 * _BLOCK + 1
    model = DecisionTree(max_depth=3).fit(X, y)
    assert model.n_leaves() == 8
    assert fitted_tree(model) == reference_tree(X, y, max_depth=3)


def test_tree_equal_gains_across_a_block_border_keep_the_lower_threshold():
    # rows 0 | 1 | 0 by x, the two runs of 0 equally long: splitting off
    # either run gives bitwise the same gain, at candidates a - 1 (block 0)
    # and a + m - 1 (block 1)
    a, m = _BLOCK - 100, 300
    n = 2 * a + m
    X = np.arange(n, dtype=np.float64)[:, None]
    y = np.array([0] * a + [1] * m + [0] * a)
    n_left = np.array([a, a + m], dtype=np.float64)
    gini_left = _gini_rows([np.array([a, a]), np.array([0, m])], n_left)
    gini_right = _gini_rows([np.array([a, a]), np.array([m, 0])], n - n_left)
    gini_left *= n_left / n
    gini_right *= (n - n_left) / n
    gains = 1.0 - ((a + a) / n) ** 2 - (m / n) ** 2 - gini_left - gini_right
    assert gains[0] == gains[1]
    model = DecisionTree(max_depth=1).fit(X, y)
    assert model.threshold_[0] == a - 0.5
    assert fitted_tree(model) == reference_tree(X, y, max_depth=1)


def test_tree_deep_chain_fits_saves_and_loads(tmp_path):
    # alternating labels on one feature: each split peels off the lowest row,
    # a chain of n - 1 levels that fit, predict, save_model and load_model
    # walk with loops, into a file whose size per node does not grow
    bytes_per_node = []
    for n in (1_100, 2_200):
        X = np.arange(n, dtype=np.float64)[:, None]
        y = np.arange(n) % 2
        model = DecisionTree(max_depth=None).fit(X, y)
        assert (model.depth(), model.n_leaves()) == (n - 1, n)
        path = tmp_path / f"chain{n}.json"
        save_model(model, path)
        back = load_model(path)
        assert (back.depth(), back.n_leaves()) == (n - 1, n)
        queries = np.concatenate([X, X + 0.5])  # thresholds sit at i + 0.5
        assert np.array_equal(back.predict_scores(queries), model.predict_scores(queries))
        assert np.array_equal(back.predict(X), y)
        bytes_per_node.append(path.stat().st_size / (2 * n - 1))
        if n == 1_100:
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(10_000)  # the oracle recurses once per level
            try:
                assert fitted_tree(model) == reference_tree(X, y, max_depth=None)
            finally:
                sys.setrecursionlimit(limit)
    assert bytes_per_node[1] < 1.1 * bytes_per_node[0]


# ---------------------------------------------------------------------------
# k-NN


def test_knn_k1_recovers_training_labels():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(60, 4))
    y = rng.integers(0, 3, size=60)
    model = KnnClassifier(k=1).fit(X, y)
    assert (model.predict(X) == y).all()


def test_knn_majority_vote():
    X = np.array([[0.0], [0.1], [10.0]])
    y = np.array([0, 0, 1])
    model = KnnClassifier(k=3).fit(X, y)
    assert model.predict(np.array([[0.05]])).tolist() == [0]
    assert model.predict_scores(np.array([[0.05]])).tolist() == [[2.0, 1.0]]


def test_knn_distance_tie_prefers_lower_train_index():
    X = np.array([[1.0], [-1.0], [5.0]])
    y = np.array([0, 1, 2])
    model = KnnClassifier(k=1).fit(X, y)
    # the query is exactly between rows 0 and 1: row 0 wins the tie
    assert model.predict(np.array([[0.0]])).tolist() == [0]


def test_knn_vote_tie_nearest_member_then_code():
    X = np.array([[0.0], [3.0], [10.0, ], [11.0]])
    y = np.array([1, 0, 2, 2])
    model = KnnClassifier(k=2).fit(X, y)
    # neighborhood of 1.0 is {row0 (class 1, d=1), row1 (class 0, d=2)}:
    # votes tie 1-1, class 1 has the closer member
    assert model.predict(np.array([[1.0]])).tolist() == [1]
    # equidistant vote tie falls back to the lowest class code
    model2 = KnnClassifier(k=2).fit(np.array([[-1.0], [1.0]]), np.array([1, 0]))
    assert model2.predict(np.array([[0.0]])).tolist() == [0]


def test_knn_matches_exhaustive_all_pairs_oracle():
    rng = np.random.default_rng(5)
    Xtr = rng.normal(size=(120, 4))
    ytr = rng.integers(0, 3, size=120)
    Xte = rng.normal(size=(80, 4))
    Xte[:10] = Xtr[:10]  # exact-distance ties at zero
    model = KnnClassifier(k=5).fit(Xtr, ytr)
    predicted = model.predict(Xte)

    def oracle(q):
        d = sorted((sum((q[j] - t[j]) ** 2 for j in range(4)), i)
                   for i, t in enumerate(Xtr))
        nbrs = d[:5]
        counts = np.bincount([ytr[i] for _, i in nbrs], minlength=3)
        top = counts.max()
        tied = [c for c in range(3) if counts[c] == top]
        if len(tied) == 1:
            return tied[0]
        nearest = {c: next(dd for dd, i in nbrs if ytr[i] == c) for c in tied}
        best = min(nearest.values())
        return min(c for c in tied if nearest[c] == best)

    assert predicted.tolist() == [oracle(q) for q in Xte]


def knn_oracle(Xtr, ytr, k, Xte):
    """All-pairs k-NN over direct differences summed feature by feature, left
    to right; (distance, index) neighbor order; vote ties to the nearest
    member, then the lowest code."""
    train, labels = Xtr.tolist(), ytr.tolist()
    classes = sorted(set(labels))
    out = []
    for q in Xte.tolist():
        dists = []
        for i, t in enumerate(train):
            d = (q[0] - t[0]) * (q[0] - t[0])
            for a, b in zip(q[1:], t[1:]):
                d += (a - b) * (a - b)
            dists.append((d, i))
        votes = {c: 0 for c in classes}
        nearest = {}
        for d, i in sorted(dists)[:k]:
            votes[labels[i]] += 1
            nearest.setdefault(labels[i], d)
        top = max(votes.values())
        out.append(min((nearest[c], c) for c in classes if votes[c] == top)[1])
    return out


def test_knn_raw_scale_matches_all_pairs_oracle():
    # unnormalized rows: a large offset and a spread of 1, where an
    # inner-product expansion of the distance loses the differences
    rng = np.random.default_rng(9)
    center = np.array([2e7, 1.5e7, 90.0, 60.0])
    spread = np.array([1.0, 1.0, 0.5, 0.5])
    Xtr = center + spread * rng.normal(size=(400, 4))
    ytr = rng.integers(0, 3, size=400)
    Xte = center + spread * rng.normal(size=(300, 4))
    model = KnnClassifier(k=5).fit(Xtr, ytr)
    assert model.predict(Xte).tolist() == knn_oracle(Xtr, ytr, 5, Xte)


_GRID = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0])  # exact distance ties
_WIDE = st.floats(-1e150, 1e150)


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_knn_matches_all_pairs_oracle_property(data):
    width = data.draw(st.integers(1, 3))
    pool = data.draw(arrays(np.float64, (data.draw(st.integers(1, 40)), width),
                            elements=st.one_of(_GRID, _WIDE)))
    n_train = data.draw(st.integers(1, 160))
    # rows drawn from a small pool repeat: duplicates and tied distances
    Xtr = pool[data.draw(st.lists(st.integers(0, len(pool) - 1),
                                  min_size=n_train, max_size=n_train))]
    ytr = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n_train,
                                      max_size=n_train)))
    fresh = data.draw(arrays(np.float64, (data.draw(st.integers(0, 10)), width),
                             elements=st.one_of(_GRID, _WIDE)))
    Xte = np.concatenate([pool, fresh])
    k = data.draw(st.one_of(st.integers(1, n_train), st.just(n_train),
                            st.integers(min(33, n_train), n_train)))
    model = KnnClassifier(k=k).fit(Xtr, ytr)
    assert model.predict(Xte).tolist() == knn_oracle(Xtr, ytr, k, Xte)


def test_knn_query_partition_does_not_change_results():
    rng = np.random.default_rng(6)
    Xtr = rng.normal(size=(700, 4))
    ytr = rng.integers(0, 3, size=700)
    Xte = rng.normal(size=(1200, 4))
    # a dense cluster puts hundreds of queries in one home leaf, and they
    # are scored in many blocks
    Xte[:600] *= 0.01
    model = KnnClassifier(k=5).fit(Xtr, ytr)
    whole = model.predict(Xte)
    cuts = [0, 1, 2, 300, 301, 599, 957, 1200]
    assert np.array_equal(whole, np.concatenate(
        [model.predict(Xte[a:b]) for a, b in zip(cuts, cuts[1:])]))
    order = rng.permutation(len(Xte))
    shuffled = np.empty_like(whole)
    shuffled[order] = model.predict(Xte[order])
    assert np.array_equal(whole, shuffled)


@pytest.mark.parametrize("k", [1, 5, 33, 64])
def test_knn_deep_tree_matches_all_pairs_oracle(k):
    rng = np.random.default_rng(11)
    Xtr = rng.normal(size=(1100, 3))
    Xtr[::16] = Xtr[5]  # 70 copies of one row, more than any k here
    ytr = rng.integers(0, 3, size=1100)
    unique = np.concatenate([
        0.01 * rng.normal(size=(300, 3)),  # a dense cluster
        # far outliers: at 1e20 every distance and box bound rounds to the
        # same value, so every leaf is kept and every distance ties
        1e20 * rng.choice([-1.0, 1.0], size=(20, 3)),
        50.0 * rng.normal(size=(20, 3)),
        # distance-0 ties across the k boundary
        Xtr[[5, 16, 1088]], Xtr[rng.integers(0, 1100, size=60)]])
    # more queries than one search chunk holds
    pick = rng.permutation(np.tile(np.arange(len(unique)), 3))
    model = KnnClassifier(k=k).fit(Xtr, ytr)
    assert model._depth >= 4 and len(pick) > 1024
    expected = np.array(knn_oracle(Xtr, ytr, k, unique))
    assert model.predict(unique[pick]).tolist() == expected[pick].tolist()


def test_knn_blocks_carry_no_pad_leaf():
    rng = np.random.default_rng(3)
    Xtr = rng.normal(size=(3000, 3))
    model = KnnClassifier(k=5).fit(Xtr, rng.integers(0, 3, size=3000))
    n, width = len(Xtr), model._table.shape[1]
    blocks = []
    score = model._block_votes

    def spy(queries, cand):
        blocks.append(cand)
        return score(queries, cand)

    model._block_votes = spy
    model.predict(rng.normal(size=(2000, 3)))
    assert len(blocks) > 1
    for cand in blocks:
        # a kept leaf's rows pad to the widest leaf, which holds one row more
        assert ((cand == n).sum(axis=1) <= cand.shape[1] // width).all()


def test_knn_k_validation():
    with pytest.raises(ValueError):
        KnnClassifier(k=0)
    with pytest.raises(ValueError):
        KnnClassifier(k=5).fit(np.zeros((3, 2)), np.array([0, 1, 0]))


# ---------------------------------------------------------------------------
# Gaussian NB


def test_nb_two_point_class_stats():
    X = np.array([[0.0], [2.0], [5.0], [7.0]])
    y = np.array([0, 0, 1, 1])
    model = GaussianNb().fit(X, y)
    assert model.means_[0, 0] == 1.0
    assert model.variances_[0, 0] == 1.0
    assert model.priors_.tolist() == [0.5, 0.5]


def test_nb_parameters_match_two_pass_oracle():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(90, 3))
    y = rng.integers(0, 3, size=90)
    model = GaussianNb().fit(X, y)
    for ci, c in enumerate(model.classes_):
        rows = X[y == c]
        for j in range(3):
            mean = sum(rows[:, j]) / len(rows)
            var = sum((v - mean) ** 2 for v in rows[:, j]) / len(rows)
            assert model.means_[ci, j] == pytest.approx(mean, rel=1e-12)
            assert model.variances_[ci, j] == pytest.approx(var, rel=1e-12)


def test_nb_separated_gaussians():
    rng = np.random.default_rng(8)
    X = np.concatenate([rng.normal(0, 1, (50, 1)), rng.normal(10, 1, (50, 1))])
    y = np.array([0] * 50 + [1] * 50)
    model = GaussianNb().fit(X, y)
    assert model.predict(np.array([[1.0]])).tolist() == [0]
    assert model.predict(np.array([[9.0]])).tolist() == [1]


def test_nb_exact_score_tie_goes_to_lower_code():
    # symmetric classes around x=5 with equal priors and equal variances
    X = np.array([[0.0], [2.0], [8.0], [10.0]])
    y = np.array([0, 0, 1, 1])
    model = GaussianNb().fit(X, y)
    scores = model.predict_scores(np.array([[5.0]]))
    assert scores[0, 0] == scores[0, 1]
    assert model.predict(np.array([[5.0]])).tolist() == [0]


def test_nb_scores_match_formula_oracle():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(80, 4))
    y = rng.integers(0, 3, size=80)
    model = GaussianNb().fit(X, y)
    queries = rng.normal(size=(25, 4))
    scores = model.predict_scores(queries)
    for i, q in enumerate(queries):
        for ci in range(3):
            expected = math.log(model.priors_[ci])
            for j in range(4):
                var = model.variances_[ci, j]
                expected += -0.5 * math.log(2 * math.pi * var)
                expected += -((q[j] - model.means_[ci, j]) ** 2) / (2 * var)
            assert scores[i, ci] == pytest.approx(expected, abs=1e-12)


def test_nb_feature_permutation_invariance():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(100, 4))
    y = rng.integers(0, 2, size=100)
    queries = rng.normal(size=(30, 4))
    base = GaussianNb().fit(X, y).predict_scores(queries)
    perm = [2, 0, 3, 1]
    permuted = GaussianNb().fit(X[:, perm], y).predict_scores(queries[:, perm])
    assert np.allclose(base, permuted, rtol=0, atol=1e-10)


def test_nb_variance_floor_and_class_size():
    X = np.array([[1.0, 5.0], [1.0, 7.0], [2.0, 9.0], [2.0, 11.0]])
    y = np.array([0, 0, 1, 1])
    model = GaussianNb(eps_rel=1e-9).fit(X, y)
    assert (model.variances_ >= model.epsilon_).all()
    with pytest.raises(EmptyDataError):
        GaussianNb().fit(np.array([[1.0], [2.0], [3.0]]), np.array([0, 0, 1]))
    with pytest.raises(ValueError):  # all-constant features have no density
        GaussianNb().fit(np.full((4, 2), 3.0), np.array([0, 0, 1, 1]))


# ---------------------------------------------------------------------------
# the fan-out trainer and serialization


def _prepared_desk_matrices():
    cfg = default_config(n_normal=60, n_rapid_loss=34, n_hydrate=8, length=40)
    instances = synth_generate(cfg, 42)
    matrix = flatten(instances, CANONICAL_VARIABLE_NAMES)
    train, test = split(matrix, SplitSpec())
    prep = Preprocessor.fit(train)
    return prep.transform(train), prep.transform(test)


def test_train_all_equals_individual_fits():
    train, test = _prepared_desk_matrices()
    result = train_all(train, ClassifiersConfig())
    assert set(result) == {"dt", "knn", "nb"}
    individual = DecisionTree().fit(train.values, train.labels)
    assert np.array_equal(result["dt"].predict(test.values),
                          individual.predict(test.values))


def test_correlated_corpus_nb_below_tree():
    # the latent-correlated default corpus violates NB independence by design
    train, test = _prepared_desk_matrices()
    result = train_all(train, ClassifiersConfig())
    dt_acc = (result["dt"].predict(test.values) == test.labels).mean()
    nb_acc = (result["nb"].predict(test.values) == test.labels).mean()
    assert nb_acc < dt_acc


def test_model_json_round_trip(tmp_path):
    # the registry is the one list of models: the config default, one
    # ClassifiersConfig section of each model's Config type, and a payload
    # that load_model reads back to the same class, params and predictions
    from hydet import jsonio
    assert RunConfig().models == tuple(MODELS)
    train, test = _prepared_desk_matrices()
    config = ClassifiersConfig(tree=TreeConfig(max_depth=7, min_samples_split=3),
                               knn=KnnConfig(k=3), nb=NbConfig(eps_rel=1e-6))
    result = train_all(train, config)
    assert tuple(result) == tuple(MODELS)
    for name, (section, cls) in MODELS.items():
        model = result[name]
        assert type(model) is cls
        assert model.params == getattr(config, section)
        assert type(model.params) is cls.Config
        path = tmp_path / f"{name}.json"
        save_model(model, path)
        header = jsonio.load(path)
        assert (header["format"], header["version"], header["kind"]) == \
            ("hydet-model", 2, cls.kind)
        back = load_model(path)
        assert type(back) is cls and back.params == model.params
        assert np.array_equal(back.predict(test.values[:50]),
                              model.predict(test.values[:50]))


def test_load_model_rejects_unknown_version(tmp_path):
    from hydet import jsonio
    path = tmp_path / "m.json"
    jsonio.dump({"format": "hydet-model", "version": 99, "kind": "knn"}, path)
    with pytest.raises(ModelFormatError):
        load_model(path)
    jsonio.dump({"format": "hydet-model", "version": 2, "kind": "mystery"}, path)
    with pytest.raises(ModelFormatError, match="unknown model kind 'mystery'"):
        load_model(path)
    # a version 1 dt.json held a nested tree, not the node lists
    jsonio.dump({"format": "hydet-model", "version": 1, "kind": "decision_tree"}, path)
    with pytest.raises(ModelFormatError, match="unsupported model version 1"):
        load_model(path)


def test_determinism_identical_fits():
    train, _ = _prepared_desk_matrices()
    a = jsonio.dumps(to_json(payload(DecisionTree().fit(train.values, train.labels))))
    b = jsonio.dumps(to_json(payload(DecisionTree().fit(train.values, train.labels))))
    assert a == b
