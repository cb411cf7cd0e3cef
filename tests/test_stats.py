import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydet.codec import to_json
from hydet.errors import EmptyDataError, NonFiniteError
from hydet.stats import TestConfig, compare_models, ks_two_sample, mwu_two_sample
from oracles import (ks_d as oracle_ks_d, ks_exact_p as oracle_ks_exact_p,
                     mwu_exact_p as oracle_mwu_exact_p, mwu_u as oracle_mwu_u)

ONES = [1.00, 1.00, 1.00]
NB_F1 = [0.04, 0.58, 0.00]


# ---------------------------------------------------------------------------
# frozen reference results


def test_ks_identical_samples():
    res = ks_two_sample(ONES, ONES)
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_ks_fully_separated_small_samples_exact():
    res = ks_two_sample(ONES, NB_F1)
    assert res.statistic == 1.0
    assert res.method_used == "exact"
    assert res.p_value == pytest.approx(2 / 20, abs=1e-15)
    assert round(res.p_value, 3) == 0.100


def test_mwu_identical_samples():
    res = mwu_two_sample(ONES, ONES)
    assert res.u_statistic == 4.5
    assert res.p_value == 1.0
    assert res.method_used == "asymptotic-tie-corrected"


def test_mwu_tied_ones_vs_low_scores():
    res = mwu_two_sample(ONES, NB_F1)
    assert res.u_statistic == 9.0
    # sigma^2 = (9/12) * (7 - 24/30) = 4.65, z = 4/sqrt(4.65)
    assert res.z == pytest.approx(4.0 / math.sqrt(4.65), abs=1e-12)
    assert res.p_value == pytest.approx(0.0636, abs=5e-5)
    assert round(res.p_value, 3) == 0.064


def test_mwu_exact_method_gives_0_100():
    res = mwu_two_sample(ONES, NB_F1, TestConfig(method="exact"))
    assert res.u_statistic == 9.0
    assert res.z is None
    assert res.p_value == pytest.approx(2 / 20, abs=1e-15)


# ---------------------------------------------------------------------------
# exact enumeration equivalence


def test_ks_exact_matches_enumeration_oracle_small_cases():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n1 = int(rng.integers(1, 6))
        n2 = int(rng.integers(1, 6))
        # small integer values force plenty of ties
        a = rng.integers(0, 4, n1).astype(float).tolist()
        b = rng.integers(0, 4, n2).astype(float).tolist()
        res = ks_two_sample(a, b, TestConfig(method="exact"))
        assert res.p_value == float(oracle_ks_exact_p(a, b))
        assert res.statistic == pytest.approx(float(oracle_ks_d(a, b)), abs=1e-12)


def test_mwu_exact_matches_enumeration_oracle_small_cases():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n1 = int(rng.integers(1, 6))
        n2 = int(rng.integers(1, 6))
        a = rng.integers(0, 4, n1).astype(float).tolist()
        b = rng.integers(0, 4, n2).astype(float).tolist()
        res = mwu_two_sample(a, b, TestConfig(method="exact"))
        assert res.u_statistic == pytest.approx(float(oracle_mwu_u(a, b)), abs=0)
        assert res.p_value == float(oracle_mwu_exact_p(a, b))


@given(st.lists(st.integers(0, 5), min_size=1, max_size=6),
       st.lists(st.integers(0, 5), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_exact_pvalues_equal_brute_force_property(xs, ys):
    a = [float(v) for v in xs]
    b = [float(v) for v in ys]
    cfg = TestConfig(method="exact")
    assert ks_two_sample(a, b, cfg).p_value == float(oracle_ks_exact_p(a, b))
    assert mwu_two_sample(a, b, cfg).p_value == float(oracle_mwu_exact_p(a, b))


@pytest.mark.parametrize("n1", [20, 15])
def test_exact_closed_forms_beyond_enumeration(n1):
    # pooled 40: C(40, n1) >= 4e10 assignments, out of enumeration's reach
    n2 = 40 - n1
    cfg = TestConfig(method="exact")
    low = [float(v) for v in range(n1)]
    high = [100.0 + v for v in range(n2)]
    # only the two fully separated assignments reach D = 1 / the extreme U
    separated = 2 / math.comb(40, n1)
    ks = ks_two_sample(low, high, cfg)
    assert ks.statistic == 1.0 and ks.p_value == separated
    assert mwu_two_sample(low, high, cfg).p_value == separated
    if n1 == n2:
        assert ks_two_sample(low, low, cfg).p_value == 1.0
    tied_a, tied_b = [0.5] * n1, [0.5] * n2
    assert ks_two_sample(tied_a, tied_b, cfg).p_value == 1.0
    assert mwu_two_sample(tied_a, tied_b, cfg).p_value == 1.0


def test_exact_mwu_closed_form_at_pooled_120():
    cfg = TestConfig(method="exact")
    low = [float(v) for v in range(60)]
    high = [100.0 + v for v in range(60)]
    assert mwu_two_sample(low, high, cfg).p_value == 2 / math.comb(120, 60)


# ---------------------------------------------------------------------------
# invariances


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
       st.lists(st.floats(-50, 50), min_size=2, max_size=8))
@settings(max_examples=60, deadline=None)
def test_swap_symmetry(xs, ys):
    ks_ab = ks_two_sample(xs, ys)
    ks_ba = ks_two_sample(ys, xs)
    assert ks_ab.statistic == ks_ba.statistic
    assert ks_ab.p_value == ks_ba.p_value
    mwu_ab = mwu_two_sample(xs, ys)
    mwu_ba = mwu_two_sample(ys, xs)
    assert mwu_ab.u_statistic + mwu_ba.u_statistic == len(xs) * len(ys)
    assert mwu_ab.p_value == pytest.approx(mwu_ba.p_value, abs=1e-15)


@given(st.lists(st.integers(-20, 20), min_size=2, max_size=7),
       st.lists(st.integers(-20, 20), min_size=2, max_size=7))
@settings(max_examples=60, deadline=None)
def test_monotone_transform_invariance(xs, ys):
    a = [float(v) for v in xs]
    b = [float(v) for v in ys]
    ta = [2.0 * v + 1.0 for v in a]  # strictly increasing, tie-preserving
    tb = [2.0 * v + 1.0 for v in b]
    for cfg in (TestConfig(), TestConfig(method="exact"),
                TestConfig(method="asymptotic")):
        k1, k2 = ks_two_sample(a, b, cfg), ks_two_sample(ta, tb, cfg)
        assert (k1.statistic, k1.p_value) == (k2.statistic, k2.p_value)
        m1, m2 = mwu_two_sample(a, b, cfg), mwu_two_sample(ta, tb, cfg)
        assert (m1.u_statistic, m1.p_value) == (m2.u_statistic, m2.p_value)


@given(st.lists(st.floats(-10, 10), min_size=1, max_size=9),
       st.lists(st.floats(-10, 10), min_size=1, max_size=9))
@settings(max_examples=80, deadline=None)
def test_pvalues_in_unit_interval(xs, ys):
    for cfg in (TestConfig(), TestConfig(method="exact"),
                TestConfig(method="asymptotic")):
        assert 0.0 <= ks_two_sample(xs, ys, cfg).p_value <= 1.0
        assert 0.0 <= mwu_two_sample(xs, ys, cfg).p_value <= 1.0
    d = ks_two_sample(xs, ys).statistic
    assert 0.0 <= d <= 1.0


def test_asymptotic_ks_limit_values():
    # Kolmogorov limit: Q(lambda) for a moderately large two-sample case
    rng = np.random.default_rng(3)
    a = rng.normal(size=40).tolist()
    b = rng.normal(size=45).tolist()
    res = ks_two_sample(a, b)
    assert res.method_used == "asymptotic"
    lam = res.statistic * math.sqrt(40 * 45 / 85)
    expected = 2.0 * sum((-1) ** (k - 1) * math.exp(-2 * k * k * lam * lam)
                         for k in range(1, 60))
    assert res.p_value == pytest.approx(min(max(expected, 0.0), 1.0), abs=1e-12)


def test_validation_errors():
    with pytest.raises(EmptyDataError):
        ks_two_sample([], [1.0])
    with pytest.raises(NonFiniteError):
        mwu_two_sample([1.0, float("nan")], [2.0])
    for bad in ([[1.0, 2.0], [3.0, 4.0]], np.ones((2, 2)), "12", 3.0):
        with pytest.raises(ValueError, match="^sample a is not a flat sequence of numbers$"):
            ks_two_sample(bad, [1.0])
    with pytest.raises(ValueError, match="^sample b is not a flat sequence"):
        mwu_two_sample([1.0], [1.0, None])
    with pytest.raises(ValueError):
        TestConfig(alpha=0.0)
    with pytest.raises(ValueError):
        TestConfig(method="montecarlo")


# ---------------------------------------------------------------------------
# compare_models


def reference_vectors():
    return {"Decision Tree": ONES, "k-NN": ONES, "Naive Bayes": NB_F1}


def test_compare_models_reference_results():
    table = compare_models(reference_vectors())
    dt_knn = table.pairs["Decision Tree vs k-NN"]
    assert (round(dt_knn.ks_stat, 2), round(dt_knn.ks_p, 3)) == (0.00, 1.000)
    assert (dt_knn.u_stat, round(dt_knn.u_p, 3)) == (4.5, 1.000)
    for name in ("Decision Tree vs Naive Bayes", "k-NN vs Naive Bayes"):
        pc = table.pairs[name]
        assert (round(pc.ks_stat, 2), round(pc.ks_p, 3)) == (1.00, 0.100)
        assert (pc.u_stat, round(pc.u_p, 3)) == (9.0, 0.064)
        assert not pc.significant_at_alpha  # nothing clears alpha=0.05 here


def test_compare_model_with_itself_is_null():
    table = compare_models({"m1": NB_F1, "m2": NB_F1})
    pc = table.pairs["m1 vs m2"]
    assert pc.ks_stat == 0.0 and pc.ks_p == 1.0
    assert pc.u_p == 1.0


def test_compare_equals_individual_tests():
    vectors = reference_vectors()
    table = compare_models(vectors)
    assert list(table.pairs) == [f"{a} vs {b}" for a, b in combinations(vectors, 2)]
    for a, b in combinations(vectors, 2):
        pc = table.pairs[f"{a} vs {b}"]
        ks = ks_two_sample(vectors[a], vectors[b])
        assert (pc.ks_stat, pc.ks_p, pc.ks_method) == (
            ks.statistic, ks.p_value, ks.method_used)
        mwu = mwu_two_sample(vectors[a], vectors[b])
        assert (pc.u_stat, pc.u_p, pc.z, pc.mwu_method) == (
            mwu.u_statistic, mwu.p_value, mwu.z, mwu.method_used)


def test_compare_validation():
    with pytest.raises(ValueError):
        compare_models({"only": ONES})
    with pytest.raises(ValueError):
        compare_models({"a": ONES, "b": [1.0, 2.0]})


@pytest.mark.parametrize("vectors, error, text", [
    ({"Decision Tree": ONES, "k-NN": []}, EmptyDataError,
     "score vector of model 'k-NN' is empty"),
    ({"Decision Tree": ONES, "Naive Bayes": [0.1, math.nan, 0.2]}, NonFiniteError,
     "score vector of model 'Naive Bayes' contains non-finite values"),
    ({"Decision Tree": ONES, "k-NN": [1.0, 0.5]}, ValueError,
     "'Decision Tree' has 3, 'k-NN' has 2"),
    (dict.fromkeys(["a", "b vs c", "a vs b", "c"], ONES), ValueError,
     "model pairs [('a', 'b vs c'), ('a vs b', 'c')] share the key 'a vs b vs c'"),
])
def test_compare_errors_name_the_model(vectors, error, text):
    with pytest.raises(error) as info:
        compare_models(vectors)
    assert text in str(info.value)


def test_comparison_csv_and_json_agree():
    table = compare_models(reference_vectors())
    by_name = to_json(table)["pairs"]
    lines = table.to_csv().strip().split("\n")
    assert lines[0] == "comparison,ks_stat,ks_p,u_stat,u_p,significant_at_alpha"
    for line in lines[1:]:
        name, ks_stat, ks_p, u_stat, u_p, sig = line.split(",")
        entry = by_name[name]
        assert float(ks_stat) == entry["ks_stat"]
        assert float(ks_p) == entry["ks_p"]
        assert float(u_stat) == entry["u_stat"]
        assert float(u_p) == entry["u_p"]
        assert (sig == "true") == entry["significant_at_alpha"]


def test_significance_flag_is_p_below_alpha():
    table = compare_models(reference_vectors(), TestConfig(alpha=0.11))
    assert table.pairs["Decision Tree vs Naive Bayes"].significant_at_alpha
    assert not table.pairs["Decision Tree vs k-NN"].significant_at_alpha
    for pc in table.pairs.values():
        assert (pc.ks_significant, pc.mwu_significant) == (pc.ks_p < 0.11, pc.u_p < 0.11)
        assert pc.significant_at_alpha == (pc.ks_significant or pc.mwu_significant)
