"""Structural memory gates: what a stage allocates beyond its result.

Peaks are read with ``tracemalloc``, which numpy reports its array buffers
to, so they count bytes the code asked for and do not depend on the machine
or its load. Each bound sits well above the stage's own arrays and well
below what holding a full-size temporary would cost.
"""

import os
import tracemalloc

import numpy as np
import pytest

from hydet.classifiers import (DecisionTree, GaussianNb, KnnClassifier, load_model, nb,
                               save_model)
from hydet.dataset import (FeatureMatrix, SplitSpec, default_config, flatten,
                           synth_generate)
from hydet.dataset import transform as dataset_transform
from hydet.quality import Preprocessor, fit_imputer, quality_report


def traced_peak(run):
    """``run()``'s result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tree_fit_peaks_within_two_and_a_half_times_its_matrix():
    # 1,025 episodes x 196 steps = 200,900 rows x 4 of the default corpus;
    # the search once held the matrix's transpose and node-long float
    # temporaries, about 5x the matrix
    matrix = flatten(synth_generate(default_config(length=196), 0),
                     default_config().variables)
    model, peak = traced_peak(lambda: DecisionTree().fit(matrix.values, matrix.labels))
    assert model.n_leaves() > 10
    assert peak <= 2.5 * matrix.values.nbytes


def test_tree_fit_peaks_within_one_and_a_quarter_times_its_matrix():
    # one int32 order matrix (0.5x) that nodes partition in place, one
    # feature's search arrays at a time and its gains in bounded blocks of
    # cuts; the fit held a second order matrix and the root's full-length
    # gains, about 2x
    matrix = flatten(synth_generate(default_config(length=196), 0),
                     default_config().variables)
    model, peak = traced_peak(lambda: DecisionTree().fit(matrix.values, matrix.labels))
    assert model.n_leaves() > 10
    assert peak <= 1.25 * matrix.values.nbytes


def _nbytes(matrix):
    return matrix.values.nbytes + matrix.labels.nbytes + matrix.origin.nbytes


@pytest.mark.parametrize("mode", ["row", "instance"])
def test_split_in_place_holds_the_test_part_and_one_block_beyond_its_matrix(
        monkeypatch, mode):
    # the library split copies every row (1.17x of this matrix beyond it);
    # in place, the test rows are copied out and the train rows moved 4,096
    # at a time. The test mask, drawn alike by both, is drawn untraced.
    matrix, spec = _dirty_matrix(), SplitSpec(mode=mode)
    mask = dataset_transform._test_mask(matrix, spec)
    monkeypatch.setattr(dataset_transform, "_test_mask", lambda *args: mask)
    monkeypatch.setattr(dataset_transform, "_MOVE_ROWS", 4096)

    def run():  # allocated under the trace, so that their shrinking is traced
        owned = FeatureMatrix(matrix.column_names, matrix.values.copy(),
                              matrix.labels.copy(), matrix.origin.copy(),
                              matrix.instance_ids)
        return dataset_transform._split_in_place(owned, spec)

    (train, test), peak = traced_peak(run)
    assert train.n_rows + test.n_rows == matrix.n_rows
    row_bytes = _nbytes(matrix) // matrix.n_rows
    assert peak <= _nbytes(matrix) + _nbytes(test) + 4096 * (row_bytes + 8 + 1)


def test_flatten_peaks_within_its_output():
    instances = synth_generate(default_config(n_normal=40, n_rapid_loss=20,
                                              n_hydrate=10, length=600), 1)
    variables = default_config().variables
    matrix, peak = traced_peak(lambda: flatten(instances, variables))
    output = matrix.values.nbytes + matrix.labels.nbytes + matrix.origin.nbytes
    assert matrix.n_rows == 70 * 600
    assert peak <= 1.3 * output


def test_quality_report_peaks_within_nine_tenths_of_its_matrix():
    # the long dirty corpus's corruption rates on 70 episodes; the audit
    # holds a missing-cell mask and one column's sort at a time (0.67x), and
    # a per-run count that casts the whole mask (np.add.reduceat with an
    # intp dtype) holds a full-size temporary on top
    variables = default_config().variables
    instances = synth_generate(default_config(
        n_normal=40, n_rapid_loss=20, n_hydrate=10, length=600, missing_fraction=0.02,
        frozen_fraction=0.02, outlier_fractions=dict.fromkeys(variables, 0.005)), 1)
    matrix = flatten(instances, variables)
    del instances
    report, peak = traced_peak(lambda: quality_report(matrix))
    assert report.n_instances == 70
    assert sum(c.n_frozen_instance_channels for c in report.channels) > 0
    assert peak <= 0.9 * matrix.values.nbytes


def test_knn_save_model_peaks_within_half_its_file(tmp_path):
    # the training rows are written a block at a time; rendering them whole
    # took about 4.5x the file
    rng = np.random.default_rng(3)
    model = KnnClassifier().fit(rng.normal(size=(40_000, 4)),
                                rng.integers(0, 3, size=40_000))
    path = tmp_path / "knn.json"
    _, peak = traced_peak(lambda: save_model(model, path))
    assert peak <= 0.5 * os.path.getsize(path)


def _held_bytes(model, kinds):
    """Bytes of the distinct buffers of dtype kind in ``kinds`` (``"f"``
    float, ``"iu"`` integer) that ``model``'s arrays view."""
    held = {}
    for value in vars(model).values():
        if isinstance(value, np.ndarray) and value.dtype.kind in kinds:
            while value.base is not None:
                value = value.base
            held[id(value)] = value.nbytes
    return sum(held.values())


def test_knn_holds_its_training_rows_once(tmp_path):
    # train_ is a read-only view of the feature-major rows the search reads;
    # a row-major copy beside them held 2.09x. The node boxes add 0.09x.
    rng = np.random.default_rng(5)
    X, y = rng.normal(size=(46_125, 4)), rng.integers(0, 3, size=46_125).astype(np.int8)
    model = KnnClassifier().fit(X, y)
    assert _held_bytes(model, "f") <= 1.2 * X.nbytes
    assert np.array_equal(model.train_, X) and not model.train_.flags.writeable
    save_model(model, tmp_path / "knn.json")  # written from the view
    loaded = load_model(tmp_path / "knn.json")  # through from_payload
    queries = rng.normal(size=(2_000, 4))
    assert np.array_equal(loaded.predict(queries), model.predict(queries))


def test_knn_keeps_no_integer_copy_of_its_labels():
    # the votes compare the gathered labels themselves; a class-code copy of
    # them as intp added 8 bytes a training row. Beside the labels and the
    # leaf table, the split dimensions hold one intp per tree node and
    # ``classes_`` one int64 per class.
    rng = np.random.default_rng(5)
    X, y = rng.normal(size=(46_125, 4)), rng.integers(0, 3, size=46_125).astype(np.int8)
    model = KnnClassifier().fit(X, y)
    assert _held_bytes(model, "iu") <= sum(
        a.nbytes for a in (model.labels_, model._table, model._dims, model.classes_))


def _dirty_matrix():
    """The long dirty corpus's corruption rates on 70 episodes of 600 steps."""
    variables = default_config().variables
    return flatten(synth_generate(default_config(
        n_normal=40, n_rapid_loss=20, n_hydrate=10, length=600, missing_fraction=0.02,
        frozen_fraction=0.02, outlier_fractions=dict.fromkeys(variables, 0.005)), 1),
        variables)


def test_preprocessor_fit_and_transform_peak_within_one_copy_and_a_column():
    # each works in place on one copy of the values; fit's peak is a boxplot
    # sorting one of the 4 columns beside it. Chaining the step functions
    # held two full copies at once (~2.05x in transform, ~2.3x in fit)
    matrix = _dirty_matrix()
    assert np.isnan(matrix.values).any()
    prep, fit_peak = traced_peak(lambda: Preprocessor.fit(matrix))
    ready, transform_peak = traced_peak(lambda: prep.transform(matrix))
    assert not np.isnan(ready.values).any()
    assert fit_peak <= 1.3 * matrix.values.nbytes
    assert transform_peak <= 1.3 * matrix.values.nbytes


def test_imputer_fit_peaks_within_one_column_copy_and_its_mask():
    # each column's observed copy goes before the next is taken: 0.28x of a
    # 4-column matrix, where holding two of them traced 0.52x
    matrix = _dirty_matrix()
    model, peak = traced_peak(lambda: fit_imputer(matrix))
    assert len(model.means) == matrix.n_cols
    assert peak <= 0.35 * matrix.values.nbytes


def test_tree_fit_with_int8_labels_peaks_no_higher_than_with_int64():
    # fit keeps integer labels in their own dtype: an int64 copy of int8
    # labels would add 8 bytes a row; a few hundred bytes of numpy's small
    # allocations may differ between the two dtypes
    matrix = _dirty_matrix()
    X = Preprocessor.fit(matrix).transform(matrix).values
    y8, y64 = matrix.labels.astype(np.int8), matrix.labels.astype(np.int64)
    DecisionTree().fit(X, y8)  # untraced: one-time allocations
    _, wide = traced_peak(lambda: DecisionTree().fit(X, y64))
    _, narrow = traced_peak(lambda: DecisionTree().fit(X, y8))
    assert narrow <= wide + 4096


def test_preprocessor_fit_transform_in_place_peaks_within_a_column():
    # the train part is imputed, clamped and normalized in its own values;
    # fitting then transforming a copy held one (1.3x above)
    matrix = _dirty_matrix()
    owned = FeatureMatrix(matrix.column_names, matrix.values.copy(), matrix.labels,
                          matrix.origin, matrix.instance_ids)
    (prep, ready), peak = traced_peak(lambda: Preprocessor.fit_transform(owned))
    assert ready.values is owned.values and not np.isnan(ready.values).any()
    assert peak <= 0.35 * matrix.values.nbytes


def test_preprocessor_transform_of_an_owned_matrix_makes_no_copy():
    # the CLI's test part is transformed in its own values; transform's copy
    # of them (1.13x above) is what this path saves
    matrix = _dirty_matrix()
    prep = Preprocessor.fit(matrix)
    owned = FeatureMatrix(matrix.column_names, matrix.values.copy(), matrix.labels,
                          None, matrix.instance_ids)
    ready, peak = traced_peak(lambda: prep._transform_owned(owned))
    assert ready.values is owned.values and not np.isnan(ready.values).any()
    assert peak <= 0.2 * matrix.values.nbytes


def test_naive_bayes_fit_and_scores_peak_within_their_blocks(monkeypatch):
    # the fit sums blocks of 1,024 rows; holding X - X.mean(0) or a class's
    # rows took 1.19x. Scoring holds one (rows, features) temporary beside the
    # scores, where the whole-array formula held 3.8x
    monkeypatch.setattr(nb, "_ROW_BLOCK", 1024)
    matrix = _dirty_matrix()
    X = Preprocessor.fit(matrix).transform(matrix).values
    GaussianNb().fit(X[:100], matrix.labels[:100]).predict_scores(X[:10])  # untraced
    model, fit_peak = traced_peak(lambda: GaussianNb().fit(X, matrix.labels))
    _, score_peak = traced_peak(lambda: model.predict_scores(X))
    assert fit_peak <= 0.35 * X.nbytes
    assert score_peak <= 2.0 * X.nbytes
