import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hydet import jsonio
from hydet.dataset.model import ClassLabel, FeatureMatrix
from hydet.classifiers import DecisionTree
from hydet.codec import from_json, to_json
from hydet.errors import EmptyDataError
from hydet.evaluation import EvalReport, confusion, evaluate
from oracles import numpy_metrics, reference_confusion, reference_metrics

# Frozen reference confusion matrices (fixture data for the metric-math
# oracles below); class order Hydrate / RapidLoss / Normal.
CLASSES = (ClassLabel.HYDRATE, ClassLabel.RAPID_LOSS, ClassLabel.NORMAL)
DT_MATRIX = [[67926, 0, 0], [0, 298608, 24], [0, 25, 397209]]
KNN_MATRIX = [[67896, 0, 30], [0, 297682, 950], [85, 1088, 396061]]
NB_MATRIX = [[1244, 32462, 34220], [0, 298632, 0], [329, 396402, 503]]


def report(counts, classes=CLASSES):
    return EvalReport.from_counts("m", classes, np.asarray(counts).tolist())


def test_confusion_perfect_predictions_are_diagonal():
    counts = confusion([0, 1, 2, 1], [0, 1, 2, 1])
    assert np.array_equal(counts, np.diag([1, 2, 1]))


def test_confusion_all_predicted_first_class():
    counts = confusion([0, 1, 2], [0, 0, 0])
    assert counts[:, 0].tolist() == [1, 1, 1]
    assert counts[:, 1:].sum() == 0


def test_confusion_matches_pairwise_tally_oracle():
    rng = np.random.default_rng(0)
    y_true = rng.integers(0, 3, 500)
    y_pred = rng.integers(0, 3, 500)
    counts = confusion(y_true, y_pred)
    for i in range(3):
        for j in range(3):
            tally = sum(1 for t, p in zip(y_true, y_pred) if t == i and p == j)
            assert counts[i, j] == tally
    # row sums are true class frequencies; column sums predicted frequencies
    assert counts.sum(axis=1).tolist() == np.bincount(y_true, minlength=3).tolist()
    assert counts.sum(axis=0).tolist() == np.bincount(y_pred, minlength=3).tolist()


@pytest.mark.parametrize("classes", [tuple(ClassLabel), CLASSES,
                                     (ClassLabel.NORMAL, ClassLabel.HYDRATE)])
def test_confusion_matches_row_loop_oracle(classes):
    rng = np.random.default_rng(5)
    codes = np.array([int(c) for c in classes])
    y_true, y_pred = rng.choice(codes, 400), rng.choice(codes, 400)
    got = confusion(y_true, y_pred, classes)
    assert got.dtype == np.int64
    assert got.tolist() == reference_confusion(y_true, y_pred, classes).tolist()

    def message(fn, t, p):
        with pytest.raises(ValueError) as err:
            fn(t, p, classes)
        return str(err.value)

    # unknown labels mid-array: the first offending row decides the message
    for bad_true, bad_pred in ((200, None), (None, 150), (150, 200), (200, 150),
                               (180, 180)):
        t, p = y_true.copy(), y_pred.copy()
        if bad_true is not None:
            t[bad_true] = 9
        if bad_pred is not None:
            p[bad_pred] = -1
        want = message(reference_confusion, t, p)
        assert message(confusion, t, p) == want
    assert message(confusion, t, p) == "true label 9 not in classes"


def test_class_listed_twice_is_refused():
    classes = (ClassLabel.NORMAL, ClassLabel.HYDRATE, ClassLabel.NORMAL)
    named = re.escape("class NormalCondition listed twice in classes")
    with pytest.raises(ValueError, match=named):
        confusion([0, 2], [2, 0], classes)
    model = DecisionTree().fit(np.array([[0.0], [1.0]]), np.array([0, 2]))
    test = FeatureMatrix(("x",), np.array([[0.0], [1.0]]), np.array([0, 2]),
                         np.zeros((2, 2), dtype=np.int64), ("i",))
    with pytest.raises(ValueError, match=named):
        evaluate(model, test, "dt", classes)


def test_confusion_errors():
    with pytest.raises(ValueError, match=re.escape("length mismatch: 2 true vs 1 predicted")):
        confusion([0, 1], [0])
    with pytest.raises(ValueError, match="true label 9 not in classes"):
        confusion([0, 9], [0, 0])
    with pytest.raises(EmptyDataError, match="confusion of empty label sequences"):
        confusion([], [])
    model = DecisionTree().fit(np.array([[0.0], [1.0]]), np.array([0, 1]))
    no_rows = FeatureMatrix(("x",), np.zeros((0, 1)), np.zeros(0), np.zeros((0, 2)), ())
    with pytest.raises(EmptyDataError, match="evaluate on empty test matrix"):
        evaluate(model, no_rows)


def test_from_counts_refuses_bad_grids():
    for grid, message in (
            (np.zeros((2, 2), dtype=int), "matrix: expected 3 rows of 3 counts"),
            (-np.eye(3, dtype=int), "matrix[0][0]: count -1 is negative"),
            (np.zeros((3, 3), dtype=int), "matrix: every count is 0")):
        with pytest.raises(ValueError) as err:
            report(grid)
        assert str(err.value) == message


def test_accuracy_identity_matrix():
    assert report(np.eye(3, dtype=int) * 5).accuracy == 1.0


def display_3dp(x):
    # reference displays truncate accuracy at 3 decimals (0.99994 -> 0.999)
    return math.floor(x * 1000) / 1000


def test_accuracy_reference_decision_tree():
    acc = report(DT_MATRIX).accuracy
    assert acc == 763743 / 763792
    assert display_3dp(acc) == 0.999


def test_accuracy_reference_naive_bayes():
    acc = report(NB_MATRIX).accuracy
    assert acc == 300379 / 763792
    assert display_3dp(acc) == 0.393


def test_accuracy_reference_knn():
    acc = report(KNN_MATRIX).accuracy
    assert acc == 761639 / 763792
    assert display_3dp(acc) == 0.997


def test_f1_reference_naive_bayes_display_rounding():
    f1 = report(NB_MATRIX).f1_vector()
    assert round(f1[0], 2) == 0.04
    assert round(f1[1], 2) == 0.58
    assert round(f1[2], 2) == 0.00
    assert f1[0] == pytest.approx(0.0358, abs=5e-5)
    assert f1[2] == pytest.approx(0.0023, abs=5e-5)


def test_f1_reference_tree_and_knn_round_to_one():
    for matrix in (DT_MATRIX, KNN_MATRIX):
        for f1 in report(matrix).f1_vector():
            assert round(f1, 2) == 1.00


def test_f1_zero_division_convention():
    counts = [[0, 0, 0], [0, 5, 0], [0, 0, 5]]
    absent = report(counts).per_class[ClassLabel.HYDRATE]
    assert (absent.precision, absent.recall, absent.f1) == (0.0, 0.0, 0.0)


def test_class_permutation_leaves_metrics_invariant():
    base = report(NB_MATRIX)
    perm = [2, 0, 1]
    permuted = report(np.asarray(NB_MATRIX)[np.ix_(perm, perm)],
                      tuple(CLASSES[i] for i in perm))
    assert base.accuracy == permuted.accuracy
    assert sorted(base.f1_vector()) == pytest.approx(sorted(permuted.f1_vector()), abs=0)


@st.composite
def grids(draw, cells=st.integers(0, 9) | st.integers(0, 2**40)):
    """1-3 class grids, some rows (no true rows of a class) and some columns
    (no predictions of a class) zeroed, at least one count in all."""
    n = draw(st.integers(1, 3))
    grid = np.array(draw(st.lists(cells, min_size=n * n, max_size=n * n)),
                    dtype=np.int64).reshape(n, n)
    grid[sorted(draw(st.sets(st.integers(0, n - 1)))), :] = 0
    grid[:, sorted(draw(st.sets(st.integers(0, n - 1))))] = 0
    assume(grid.sum() > 0)
    return grid


def within_ulps(got, exact, ulps):
    want = float(exact)
    if exact == 0:
        return got == 0.0
    return abs(got - want) <= ulps * math.ulp(want)


@given(grid=grids())
@settings(max_examples=400, deadline=None)
def test_metrics_match_exact_rational_oracle(grid):
    n = len(grid)
    got = report(grid, tuple(ClassLabel)[:n])
    accuracy, per_class, macro_f1 = reference_metrics(grid.tolist())
    # each of these is one division of two integers: correctly rounded
    assert got.accuracy == float(accuracy)
    for cls, (precision, recall, f1) in zip(got.classes, per_class):
        metrics = got.per_class[cls]
        assert (metrics.precision, metrics.recall) == (float(precision), float(recall))
        assert within_ulps(metrics.f1, f1, 4), (metrics.f1, f1)
    assert within_ulps(got.macro_f1, macro_f1, 4), (got.macro_f1, macro_f1)


@given(grid=grids(st.integers(0, 9) | st.integers(0, 10**6)))
@settings(max_examples=400, deadline=None)
def test_from_counts_equals_the_numpy_formulas_bitwise(grid):
    # the formulas every recorded eval report was scored with
    got = report(grid, tuple(ClassLabel)[:len(grid)])
    accuracy, per_class, macro_f1 = numpy_metrics(grid)
    want = [accuracy, *(v for metrics in per_class for v in metrics), macro_f1]
    have = [got.accuracy, *(getattr(got.per_class[c], key) for c in got.classes
                            for key in ("precision", "recall", "f1")), got.macro_f1]
    assert list(map(float.hex, have)) == list(map(float.hex, want))


def test_evaluate_memorizing_tree_and_recomposition():
    rng = np.random.default_rng(1)
    values = rng.normal(size=(120, 3))
    labels = rng.integers(0, 3, size=120)
    matrix = FeatureMatrix(column_names=("a", "b", "c"), values=values,
                           labels=labels,
                           origin=np.column_stack((np.zeros(120, dtype=np.int64),
                                                   np.arange(120))),
                           instance_ids=("i",))
    model = DecisionTree(max_depth=None).fit(values, labels)
    scored = evaluate(model, matrix, "tree")
    assert scored.accuracy == 1.0
    # recomposition oracle
    assert scored == EvalReport.from_counts(
        "tree", tuple(ClassLabel), confusion(labels, model.predict(values)).tolist())
    assert scored.macro_f1 == 1.0


def test_eval_report_json_round_trip_preserves_counts():
    scored = EvalReport.from_counts("k-NN", CLASSES, KNN_MATRIX)
    back = from_json(EvalReport, json.loads(jsonio.dumps(to_json(scored))), "")
    assert back == scored
    assert back.matrix == tuple(map(tuple, KNN_MATRIX))


def test_confusion_csv_grid():
    text = report(DT_MATRIX).confusion_csv()
    lines = text.strip().split("\n")
    assert lines[0].split(",")[1] == "Hydrate"
    assert lines[1].split(",")[1:] == ["67926", "0", "0"]
