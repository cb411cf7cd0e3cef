import json
import math

import numpy as np
import pytest

from hydet import jsonio
from hydet.dataset.model import ClassLabel, FeatureMatrix
from hydet.classifiers import DecisionTree
from hydet.codec import from_json, to_json
from hydet.errors import EmptyDataError
from hydet.evaluation import (ConfusionMatrix, EvalReport, accuracy, confusion,
                              evaluate, f1_per_class, report_from_confusion)
from oracles import reference_confusion

# Frozen reference confusion matrices (fixture data for the metric-math
# oracles below); class order Hydrate / RapidLoss / Normal.
CLASSES = (ClassLabel.HYDRATE, ClassLabel.RAPID_LOSS, ClassLabel.NORMAL)
DT_MATRIX = [[67926, 0, 0], [0, 298608, 24], [0, 25, 397209]]
KNN_MATRIX = [[67896, 0, 30], [0, 297682, 950], [85, 1088, 396061]]
NB_MATRIX = [[1244, 32462, 34220], [0, 298632, 0], [329, 396402, 503]]


def cm(counts):
    return ConfusionMatrix(classes=CLASSES, counts=np.array(counts))


def test_confusion_perfect_predictions_are_diagonal():
    m = confusion([0, 1, 2, 1], [0, 1, 2, 1])
    assert np.array_equal(m.counts, np.diag([1, 2, 1]))


def test_confusion_all_predicted_first_class():
    m = confusion([0, 1, 2], [0, 0, 0])
    assert m.counts[:, 0].tolist() == [1, 1, 1]
    assert m.counts[:, 1:].sum() == 0


def test_confusion_matches_pairwise_tally_oracle():
    rng = np.random.default_rng(0)
    y_true = rng.integers(0, 3, 500)
    y_pred = rng.integers(0, 3, 500)
    m = confusion(y_true, y_pred)
    for i in range(3):
        for j in range(3):
            tally = sum(1 for t, p in zip(y_true, y_pred) if t == i and p == j)
            assert m.counts[i, j] == tally
    # row sums are true class frequencies; column sums predicted frequencies
    assert m.counts.sum(axis=1).tolist() == np.bincount(y_true, minlength=3).tolist()
    assert m.counts.sum(axis=0).tolist() == np.bincount(y_pred, minlength=3).tolist()


@pytest.mark.parametrize("classes", [tuple(ClassLabel), CLASSES,
                                     (ClassLabel.NORMAL, ClassLabel.HYDRATE),
                                     (ClassLabel.NORMAL, ClassLabel.HYDRATE,
                                      ClassLabel.NORMAL)])
def test_confusion_matches_row_loop_oracle(classes):
    rng = np.random.default_rng(5)
    codes = np.array([int(c) for c in classes])
    y_true, y_pred = rng.choice(codes, 400), rng.choice(codes, 400)
    got = confusion(y_true, y_pred, classes)
    assert got.counts.dtype == np.int64
    assert got.counts.tolist() == reference_confusion(y_true, y_pred, classes).tolist()

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


def test_confusion_errors():
    with pytest.raises(ValueError):
        confusion([0, 1], [0])
    with pytest.raises(ValueError):
        confusion([0, 9], [0, 0])
    with pytest.raises(EmptyDataError):
        confusion([], [])


def test_accuracy_identity_matrix():
    assert accuracy(cm(np.eye(3, dtype=int) * 5)) == 1.0


def display_3dp(x):
    # reference displays truncate accuracy at 3 decimals (0.99994 -> 0.999)
    return math.floor(x * 1000) / 1000


def test_accuracy_reference_decision_tree():
    acc = accuracy(cm(DT_MATRIX))
    assert acc == pytest.approx(763743 / 763792, abs=1e-15)
    assert display_3dp(acc) == 0.999


def test_accuracy_reference_naive_bayes():
    acc = accuracy(cm(NB_MATRIX))
    assert acc == pytest.approx(300379 / 763792, abs=1e-15)
    assert display_3dp(acc) == 0.393


def test_accuracy_reference_knn():
    acc = accuracy(cm(KNN_MATRIX))
    assert acc == pytest.approx(761639 / 763792, abs=1e-15)
    assert display_3dp(acc) == 0.997


def test_f1_reference_naive_bayes_display_rounding():
    metrics = f1_per_class(cm(NB_MATRIX))
    f1 = [metrics[c].f1 for c in CLASSES]
    assert round(f1[0], 2) == 0.04
    assert round(f1[1], 2) == 0.58
    assert round(f1[2], 2) == 0.00
    assert f1[0] == pytest.approx(0.0358, abs=5e-5)
    assert f1[2] == pytest.approx(0.0023, abs=5e-5)


def test_f1_reference_tree_and_knn_round_to_one():
    for matrix in (DT_MATRIX, KNN_MATRIX):
        metrics = f1_per_class(cm(matrix))
        for c in CLASSES:
            assert round(metrics[c].f1, 2) == 1.00


def test_f1_zero_division_convention():
    counts = [[0, 0, 0], [0, 5, 0], [0, 0, 5]]
    metrics = f1_per_class(cm(counts))
    absent = metrics[ClassLabel.HYDRATE]
    assert (absent.precision, absent.recall, absent.f1) == (0.0, 0.0, 0.0)


def test_class_permutation_leaves_metrics_invariant():
    base = cm(NB_MATRIX)
    perm = [2, 0, 1]
    permuted = ConfusionMatrix(
        classes=tuple(CLASSES[i] for i in perm),
        counts=np.asarray(NB_MATRIX)[np.ix_(perm, perm)])
    assert accuracy(base) == accuracy(permuted)
    f_base = sorted(m.f1 for m in f1_per_class(base).values())
    f_perm = sorted(m.f1 for m in f1_per_class(permuted).values())
    assert f_base == pytest.approx(f_perm, abs=0)


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
    report = evaluate(model, matrix, "tree")
    assert report.accuracy == 1.0
    # recomposition oracle
    recomputed = accuracy(confusion(labels, model.predict(values)))
    assert report.accuracy == recomputed
    assert report.macro_f1 == 1.0


def test_eval_report_json_round_trip_preserves_counts():
    report = report_from_confusion(cm(KNN_MATRIX), "k-NN")
    back = from_json(EvalReport, json.loads(jsonio.dumps(to_json(report))), "")
    assert back == report
    assert back.matrix == tuple(map(tuple, KNN_MATRIX))


def test_confusion_csv_grid():
    text = report_from_confusion(cm(DT_MATRIX), "dt").confusion_csv()
    lines = text.strip().split("\n")
    assert lines[0].split(",")[1] == "Hydrate"
    assert lines[1].split(",")[1:] == ["67926", "0", "0"]
