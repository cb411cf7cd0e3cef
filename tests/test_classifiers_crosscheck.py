"""Cross-validation of classifier behavior against scikit-learn and scipy,
when available (neither is a dependency; each test skips without its
library).

Comparisons stick to regimes where both implementations are forced to the
same answer: tie-free continuous data for k-NN (binary labels with odd k so
vote ties cannot occur), and parameter/prediction parity for Gaussian NB
(sklearn adds its variance smoothing where this package floors, so variances
are compared within one epsilon).
"""

import numpy as np
import pytest

from hydet.classifiers import GaussianNb, KnnClassifier


def test_gaussian_nb_parameters_and_predictions_match_sklearn():
    sklearn_nb = pytest.importorskip("sklearn.naive_bayes")
    rng = np.random.default_rng(50)
    X = rng.normal(size=(200, 4)) * np.array([1.0, 3.0, 0.5, 10.0])
    y = rng.integers(0, 3, 200)
    mine = GaussianNb(eps_rel=1e-9).fit(X, y)
    ref = sklearn_nb.GaussianNB(var_smoothing=1e-9).fit(X, y)
    assert np.array_equal(mine.priors_, ref.class_prior_)
    assert np.allclose(mine.means_, ref.theta_, atol=1e-14)
    assert np.allclose(mine.variances_, ref.var_, rtol=0, atol=2 * mine.epsilon_)
    queries = rng.normal(size=(300, 4)) * np.array([1.0, 3.0, 0.5, 10.0])
    assert np.array_equal(mine.predict(queries), ref.predict(queries))


def test_knn_predictions_match_sklearn_brute_force():
    sklearn_neighbors = pytest.importorskip("sklearn.neighbors")
    rng = np.random.default_rng(51)
    Xtr = rng.normal(size=(400, 4))
    Xte = rng.normal(size=(500, 4))

    y_binary = rng.integers(0, 2, 400)
    mine = KnnClassifier(k=5).fit(Xtr, y_binary)
    ref = sklearn_neighbors.KNeighborsClassifier(
        n_neighbors=5, algorithm="brute").fit(Xtr, y_binary)
    assert np.array_equal(mine.predict(Xte), ref.predict(Xte))

    y_three = rng.integers(0, 3, 400)
    mine1 = KnnClassifier(k=1).fit(Xtr, y_three)
    ref1 = sklearn_neighbors.KNeighborsClassifier(
        n_neighbors=1, algorithm="brute").fit(Xtr, y_three)
    assert np.array_equal(mine1.predict(Xte), ref1.predict(Xte))


def test_knn_predictions_match_scipy_kdtree_majority_vote():
    spatial = pytest.importorskip("scipy.spatial")
    rng = np.random.default_rng(52)
    Xtr = rng.normal(size=(5000, 4)) * np.array([1.0, 3.0, 0.5, 10.0])
    y = rng.integers(0, 2, 5000)
    Xte = rng.normal(size=(2000, 4)) * np.array([1.0, 3.0, 0.5, 10.0])
    tree = spatial.cKDTree(Xtr)
    for k in (1, 5, 35):
        _, nbrs = tree.query(Xte, k=k)
        majority = (y[nbrs.reshape(len(Xte), k)].sum(axis=1) * 2 > k).astype(np.int64)
        assert np.array_equal(KnnClassifier(k=k).fit(Xtr, y).predict(Xte), majority)
