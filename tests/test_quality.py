import re
import xml.etree.ElementTree as ET
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydet import jsonio
from hydet.codec import to_json
from hydet.dataset import (ClassLabel, SplitSpec, default_config, flatten, split,
                           synth_generate)
from hydet.dataset.model import FeatureMatrix, TimeSeriesInstance
from hydet.errors import (AllMissingColumnError, EmptyDataError,
                          MissingCellsError, ModelFormatError,
                          WidthMismatchError)
from hydet.quality import (PreprocessConfig, Preprocessor, apply_imputer,
                           apply_normalizer, boxplot_stats, fit_boxplots,
                           fit_imputer, fit_normalizer, load_preprocessor,
                           quality_report, render_boxplot_svg,
                           save_preprocessor, treat_outliers)

from oracles import reference_impute, reference_preprocess, reference_winsorize

VARS = ("P-TPT", "T-TPT", "P-MON-CKP", "T-JUS-CKP")


def matrix_of(*columns, labels=None):
    values = np.array(columns, dtype=np.float64).T
    n = values.shape[0]
    labels = labels if labels is not None else np.zeros(n, dtype=np.int64)
    return FeatureMatrix(
        column_names=tuple(f"c{j}" for j in range(values.shape[1])),
        values=values, labels=labels,
        origin=np.column_stack((np.zeros(n, dtype=np.int64), np.arange(n))),
        instance_ids=("i",))


# ---------------------------------------------------------------------------
# quantiles / boxplot


def test_boxplot_quartiles_match_numpy_linear_oracle():
    rng = np.random.default_rng(0)
    for n in (4, 5, 9, 100, 101):
        x = rng.normal(size=n)
        # boxplot_stats reads its quartiles off the observed cells alone
        col = np.insert(x, [0, n // 2, n], np.nan)
        st_ = boxplot_stats(col)
        for got, p in zip((st_.q1, st_.median, st_.q3), (0.25, 0.5, 0.75)):
            assert got == pytest.approx(np.quantile(x, p), abs=1e-12)
        # nearest: the order statistic at (n-1)*p, halves rounded up
        st_ = boxplot_stats(col, quartile_method="nearest")
        assert (st_.q1, st_.median, st_.q3) == tuple(
            np.sort(x)[((n - 1) * k + 2) // 4] for k in (1, 2, 3))


def test_boxplot_refuses_an_unknown_quartile_method():
    with pytest.raises(ValueError, match="unknown quantile method 'median'"):
        boxplot_stats(np.array([1.0, 2.0, 3.0, 4.0]), quartile_method="median")


def test_boxplot_one_to_nine():
    st_ = boxplot_stats(np.arange(1.0, 10.0))
    assert (st_.q1, st_.median, st_.q3, st_.iqr) == (3.0, 5.0, 7.0, 4.0)
    assert (st_.lower_fence, st_.upper_fence) == (-3.0, 13.0)
    assert st_.outlier_row_indices == ()


def test_boxplot_with_outlier():
    st_ = boxplot_stats(np.array([1.0, 2.0, 3.0, 4.0, 100.0]))
    assert (st_.q1, st_.q3) == (2.0, 4.0)
    assert (st_.lower_fence, st_.upper_fence) == (-1.0, 7.0)
    assert st_.outlier_row_indices == (4,)


def test_boxplot_constant_column():
    st_ = boxplot_stats(np.full(10, 3.25))
    assert st_.iqr == 0.0
    assert st_.lower_fence == st_.upper_fence == 3.25
    assert st_.outlier_row_indices == ()


def test_boxplot_ignores_missing_and_never_flags_them():
    col = np.array([1.0, np.nan, 2.0, 3.0, np.nan, 4.0, 100.0])
    st_ = boxplot_stats(col)
    assert st_.outlier_row_indices == (6,)
    clean = boxplot_stats(np.array([1.0, 2.0, 3.0, 4.0, 100.0]))
    assert (st_.q1, st_.q3) == (clean.q1, clean.q3)


def test_boxplot_requires_four_observed():
    with pytest.raises(EmptyDataError):
        boxplot_stats(np.array([1.0, 2.0, 3.0]))


@given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=60))
@settings(max_examples=200, deadline=None)
def test_boxplot_outliers_equal_brute_force_fences(xs):
    col = np.asarray(xs)
    st_ = boxplot_stats(col)
    brute = [i for i, v in enumerate(xs)
             if v < st_.lower_fence or v > st_.upper_fence]
    assert list(st_.outlier_row_indices) == brute
    assert st_.q1 <= st_.median <= st_.q3
    assert st_.iqr == st_.q3 - st_.q1


def test_boxplot_subnormal_values_keep_quantiles_ordered():
    # underflow in naive lerp once inverted median and q3 on this input
    st_ = boxplot_stats(np.array([0.0, -1.0, -5e-324, -5e-324]))
    assert st_.q1 <= st_.median <= st_.q3


def test_tukey_multiplier_knob():
    col = np.array([1.0, 2.0, 3.0, 4.0, 8.0])
    assert boxplot_stats(col, tukey_k=1.5).outlier_row_indices == (4,)
    assert boxplot_stats(col, tukey_k=3.0).outlier_row_indices == ()


# ---------------------------------------------------------------------------
# missing / frozen scans


def test_scan_missing_fractions():
    report = quality_report(matrix_of([1.0, np.nan, 3.0, 4.0, 5.0],
                                      [1.0, 2.0, 3.0, 4.0, 5.0]))
    assert [c.n_missing for c in report.channels] == [1, 0]
    assert report.channels[0].missing_pct == pytest.approx(100 / 5)
    assert report.overall_missing_pct == pytest.approx(100 / 10)


def test_scan_missing_fully_observed_is_zero():
    report = quality_report(matrix_of([1.0, 2.0, 3.0, 4.0], [3.0, 4.0, 5.0, 6.0]))
    assert report.overall_missing_pct == 0.0


def _instance(channels, instance_id="i"):
    values = np.array(list(channels.values()), dtype=np.float64).T
    return TimeSeriesInstance(instance_id, ClassLabel.NORMAL, tuple(range(len(values))),
                              tuple(channels), values)


def frozen_and_empty_counts(channels, min_length=2):
    """The report's frozen and empty counts per channel of the instance
    ``channels`` followed by a 4-row ramp, which gives each channel the four
    observed values a boxplot needs and is neither frozen nor empty."""
    ramp = _instance(dict.fromkeys(channels, [1.0, 2.0, 3.0, 4.0]), "ramp")
    matrix = flatten([_instance(channels), ramp], tuple(channels))
    report = quality_report(matrix, min_length)
    return ([c.n_frozen_instance_channels for c in report.channels],
            [c.n_empty_instance_channels for c in report.channels])


def test_detect_frozen_exact_equality_required():
    frozen, _ = frozen_and_empty_counts({"a": [7.0, 7.0, 7.0, 7.0],
                                         "b": [7.0, 7.0, 7.0001, 7.0]})
    assert frozen == [1, 0]


def test_all_missing_is_empty_not_frozen():
    assert frozen_and_empty_counts({"a": [np.nan, np.nan, np.nan],
                                    "b": [1.0, 1.0, 1.0]}) == ([0, 1], [1, 0])


def cell_loop_frozen_and_empty(columns, min_length):
    """Reference: the frozen and the empty names of ``columns``, one cell at
    a time."""
    frozen, empty = set(), set()
    for name, col in columns.items():
        observed = [v for v in col if not np.isnan(v)]
        if len(observed) >= min_length and all(v == observed[0] for v in observed):
            frozen.add(name)
        if not observed:
            empty.add(name)
    return frozen, empty


def test_frozen_min_length():
    channels = {"a": [5.0, np.nan, np.nan, 5.0]}
    assert frozen_and_empty_counts(channels, min_length=2)[0] == [1]
    assert frozen_and_empty_counts(channels, min_length=3)[0] == [0]
    with pytest.raises(ValueError, match="min_length must be >= 2"):
        frozen_and_empty_counts(channels, min_length=1)


# ---------------------------------------------------------------------------
# imputer


def test_imputer_basic_and_identity():
    train = matrix_of([2.0, np.nan, 4.0])
    model = fit_imputer(train)
    assert model.means == (3.0,)
    out = apply_imputer(model, train)
    assert out.values[:, 0].tolist() == [2.0, 3.0, 4.0]
    full = matrix_of([1.0, 2.0])
    assert np.array_equal(apply_imputer(fit_imputer(full), full).values, full.values)


def test_imputer_means_match_two_pass_oracle():
    rng = np.random.default_rng(1)
    values = rng.normal(size=(50, 3))
    values[rng.random(values.shape) < 0.3] = np.nan
    values[0] = 1.0  # keep every column partly observed
    m = matrix_of(*values.T)
    model = fit_imputer(m)
    for j in range(3):
        total, count = 0.0, 0
        for v in values[:, j]:
            if not np.isnan(v):
                total += v
                count += 1
        assert model.means[j] == pytest.approx(total / count, rel=1e-12)


def test_imputer_all_missing_column_errors():
    with pytest.raises(AllMissingColumnError):
        fit_imputer(matrix_of([np.nan, np.nan]))


def test_imputer_rejects_non_finite_mean():
    from hydet.errors import NonFiniteError
    with pytest.raises(NonFiniteError):
        fit_imputer(matrix_of([1.0, np.inf, 2.0]))


def test_imputed_output_has_no_missing():
    train = matrix_of([1.0, np.nan, 5.0], [np.nan, 2.0, 2.0])
    out = apply_imputer(fit_imputer(train), train)
    assert not np.isnan(out.values).any()


# ---------------------------------------------------------------------------
# winsorization


def test_treat_outliers_clamps_to_fences():
    train = matrix_of([1.0, 2.0, 3.0, 4.0, 100.0])
    fences = fit_boxplots(train)
    out = treat_outliers(train, fences)
    assert out.values[4, 0] == fences[0].upper_fence == 7.0
    assert out.values[:4, 0].tolist() == [1.0, 2.0, 3.0, 4.0]


def test_treat_outliers_identity_when_in_range():
    m = matrix_of([1.0, 2.0, 3.0, 4.0])
    out = treat_outliers(m, fit_boxplots(m))
    assert np.array_equal(out.values, m.values)


def test_treat_outliers_idempotent_and_refit_clean():
    m = matrix_of([1.0, 2.0, 3.0, 4.0, 100.0, -50.0])
    fences = fit_boxplots(m)
    once = treat_outliers(m, fences)
    twice = treat_outliers(once, fences)
    assert np.array_equal(once.values, twice.values)
    # re-running the fence check against the same fences flags nothing
    for j, st_ in enumerate(fences):
        col = once.values[:, j]
        assert ((col >= st_.lower_fence) & (col <= st_.upper_fence)).all()


def test_treat_outliers_keeps_missing_untouched():
    m = matrix_of([1.0, 2.0, np.nan, 4.0, 100.0])
    out = treat_outliers(m, fit_boxplots(m))
    assert np.isnan(out.values[2, 0])


def test_treat_outliers_width_mismatch():
    m = matrix_of([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(WidthMismatchError):
        treat_outliers(m, fit_boxplots(m) * 2)


# ---------------------------------------------------------------------------
# normalizer


def test_normalizer_two_point_column():
    m = matrix_of([0.0, 10.0])
    model = fit_normalizer(m)
    assert model.center == (5.0,) and model.scale == (5.0,)
    out = apply_normalizer(model, m)
    assert out.values[:, 0].tolist() == [-1.0, 1.0]


def test_normalizer_self_application_standardizes():
    rng = np.random.default_rng(2)
    m = matrix_of(rng.normal(3, 7, 500), rng.uniform(-2, 9, 500))
    out = apply_normalizer(fit_normalizer(m), m)
    for j in range(2):
        assert abs(out.values[:, j].mean()) < 1e-12
        assert abs(np.sqrt(np.mean(out.values[:, j] ** 2)) - 1.0) < 1e-12


def test_normalizer_matches_elementwise_formula_oracle():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(40, 2))
    m = matrix_of(*values.T)
    model = fit_normalizer(m)
    out = apply_normalizer(model, m)
    for j in range(2):
        mu = values[:, j].mean()
        sd = np.sqrt(np.mean((values[:, j] - mu) ** 2))
        for i in range(40):
            assert out.values[i, j] == pytest.approx((values[i, j] - mu) / sd,
                                                     rel=1e-12)


def test_normalizer_constant_column_centered_only():
    m = matrix_of([4.0, 4.0, 4.0], [1.0, 2.0, 3.0])
    model = fit_normalizer(m)
    assert [s == 0.0 for s in model.scale] == [True, False]
    out = apply_normalizer(model, m)
    assert out.values[:, 0].tolist() == [0.0, 0.0, 0.0]


def test_normalizer_minmax_mode():
    m = matrix_of([0.0, 5.0, 10.0])
    out = apply_normalizer(fit_normalizer(m, mode="minmax"), m)
    assert out.values[:, 0].tolist() == [0.0, 0.5, 1.0]


def test_normalizer_rejects_missing():
    with pytest.raises(MissingCellsError):
        fit_normalizer(matrix_of([1.0, np.nan]))
    model = fit_normalizer(matrix_of([1.0, 2.0]))
    with pytest.raises(MissingCellsError, match="normalizer requires no missing cells"):
        apply_normalizer(model, matrix_of([1.0, np.nan]))


def test_normalizer_refuses_other_columns():
    model = fit_normalizer(matrix_of([1.0, 2.0]))
    with pytest.raises(WidthMismatchError, match=re.escape(
            "fitted on columns ('c0',), applying to ('c0', 'c1')")):
        apply_normalizer(model, matrix_of([1.0, 2.0], [3.0, 4.0]))


def test_scans_of_a_matrix_without_rows_are_refused():
    with pytest.raises(EmptyDataError, match="quality_report on empty matrix"):
        quality_report(matrix_of([]))


@pytest.mark.parametrize("mode", ["zscore", "minmax"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_preprocess_stages_equal_the_per_column_oracle(seed, mode):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(300, 5))
    values[:, 1] *= 1e150  # large, yet their squares stay finite
    values[:, 2] = 7.5  # zero scale
    values[:, 3] = np.where(rng.random(300) < 0.5, -0.0, 0.0)  # zero scale, signed
    values[rng.random(300) < 0.1, 4] = -0.0
    values[9] = (1e6, -1e152, 7.5, 0.0, -1e6)  # raw outliers
    values[rng.random(values.shape) < 0.2] = np.nan
    m = matrix_of(*values.T)
    prep = Preprocessor.fit(m, PreprocessConfig(normalization=mode))
    assert [s == 0.0 for s in prep.normalizer.scale] == [False, False, True, True, False]
    assert apply_imputer(prep.imputer, m).values.tobytes() == \
        reference_impute(prep.imputer.means, values).tobytes()
    # before imputation, so missing cells must pass through
    assert treat_outliers(m, prep.fences).values.tobytes() == \
        reference_winsorize(prep.fences, values).tobytes()
    assert prep.transform(m).values.tobytes() == \
        reference_preprocess(prep, values).tobytes()


# ---------------------------------------------------------------------------
# pipeline-order invariant and leakage


def test_pipeline_order_invariant():
    rng = np.random.default_rng(4)
    values = rng.normal(size=(200, 2))
    values[rng.random(values.shape) < 0.2] = np.nan
    values[5] = (0.0, 0.0)
    values[7] = (1e6, -1e6)  # raw outliers
    m = matrix_of(*values.T)
    imputer = fit_imputer(m)
    imputed = apply_imputer(imputer, m)
    fences = fit_boxplots(imputed)
    winsorized = treat_outliers(imputed, fences)
    final = apply_normalizer(fit_normalizer(winsorized), winsorized)
    assert not np.isnan(final.values).any()
    for j, st_ in enumerate(fences):
        col = winsorized.values[:, j]
        assert ((col >= st_.lower_fence) & (col <= st_.upper_fence)).all()


def test_preprocessor_json_round_trip_transforms_bit_identically(tmp_path):
    rng = np.random.default_rng(6)
    values = rng.normal(size=(120, 3))
    values[rng.random(values.shape) < 0.15] = np.nan
    values[0] = (1.0, 2.0, 3.0)
    values[9] = (1e6, -1e6, 1e6)  # raw outliers
    train = matrix_of(*values.T)
    config = PreprocessConfig(quartile_method="nearest", normalization="minmax")
    prep = Preprocessor.fit(train, config)
    assert prep.normalizer.mode == "minmax"
    assert prep.fences == tuple(b.fences for b in fit_boxplots(
        apply_imputer(prep.imputer, train), 1.5, "nearest"))

    path = tmp_path / "preprocess.json"
    save_preprocessor(prep, path)
    payload = jsonio.load(path)
    assert all("outlier_row_indices" not in f for f in payload["fences"])
    back = load_preprocessor(path)
    test = matrix_of(*rng.normal(scale=3.0, size=(40, 3)).T)
    for m in (train, test):
        assert np.array_equal(back.transform(m).values, prep.transform(m).values)
    assert not np.isnan(prep.transform(train).values).any()

    for bad in ({**payload, "format": "hydet-model"}, {**payload, "version": 2}):
        jsonio.dump(bad, path)
        with pytest.raises(ModelFormatError):
            load_preprocessor(path)


def test_fitting_never_consults_test_rows():
    rng = np.random.default_rng(5)
    train = matrix_of(rng.normal(size=60), rng.normal(size=60))
    imputer = fit_imputer(train)
    fences = fit_boxplots(train)
    normalizer = fit_normalizer(train)
    # the fitted parameters are functions of the training matrix alone, so
    # they are unchanged no matter what test data later shows up
    again = fit_imputer(train), fit_boxplots(train), fit_normalizer(train)
    assert again == (imputer, fences, normalizer)


# ---------------------------------------------------------------------------
# quality report


def test_quality_report_recovers_injected_ground_truth():
    from hydet.dataset.synth import qc_probe_config
    cfg = qc_probe_config(n_instances=50, length=40,
                          missing_fraction=0.2, frozen_fraction=0.1,
                          outlier_fractions={"P-TPT": 0.05})
    instances = synth_generate(cfg, 17)
    matrix = flatten(instances, VARS)
    report = quality_report(matrix)
    cells = 50 * 4 * 40
    assert sum(c.n_missing for c in report.channels) == round(0.2 * cells)
    assert report.overall_missing_pct == pytest.approx(
        100.0 * round(0.2 * cells) / cells)
    frozen_total = sum(c.n_frozen_instance_channels for c in report.channels)
    assert frozen_total == round(0.1 * 50 * 4)
    ptpt = report.channels[0]
    assert ptpt.name == "P-TPT"
    assert ptpt.boxplot.n_outliers == round(0.05 * 50 * 40)
    assert ptpt.outlier_pct == pytest.approx(100.0 * round(0.05 * 2000) / 2000)
    for ch in report.channels[1:]:  # channels without injection stay clean
        assert ch.boxplot.n_outliers == 0


def test_quality_report_clean_corpus_all_zero():
    cfg = default_config(n_normal=10, n_rapid_loss=5, n_hydrate=3, length=20)
    instances = synth_generate(cfg, 9)
    matrix = flatten(instances, VARS)
    report = quality_report(matrix)
    assert report.overall_missing_pct == 0.0
    assert report.overall_frozen_pct == 0.0
    for ch in report.channels:
        assert ch.n_missing == 0 and ch.n_frozen_instance_channels == 0


@st.composite
def audit_episodes(draw):
    """1-8 episodes of 1-20 rows over ``VARS``: each channel all missing,
    observed once, or drawn cell by cell. One of them is a 4-row ramp, so
    that every channel has the four observed values a boxplot needs."""
    cells, episodes = st.sampled_from([1.0, 2.0, 0.0, -0.0, np.nan]), []
    for _ in range(draw(st.integers(0, 7))):
        length = draw(st.integers(1, 20))
        episode = {}
        for name in VARS:
            kind = draw(st.sampled_from(["empty", "once", "cells"]))
            if kind == "cells":
                episode[name] = draw(st.lists(cells, min_size=length, max_size=length))
            else:
                episode[name] = [np.nan] * length
                if kind == "once":
                    episode[name][draw(st.integers(0, length - 1))] = 1.0
        episodes.append(episode)
    ramp = dict.fromkeys(VARS, [1.0, 2.0, 3.0, 4.0])
    episodes.insert(draw(st.integers(0, len(episodes))), ramp)
    return episodes


@given(audit_episodes(), st.permutations(VARS), st.integers(1, len(VARS)))
@settings(max_examples=100, deadline=None)
def test_audit_counts_match_cell_loop_oracle_per_episode(episodes, order, width):
    variables = tuple(order[:width])
    values = [np.array([ep[v] for v in VARS]).T for ep in episodes]
    instances = [TimeSeriesInstance(f"e{i}", ClassLabel.NORMAL, tuple(range(len(v))),
                                    VARS, v) for i, v in enumerate(values)]
    matrix = flatten(instances, variables)
    for min_length in (2, 3, 4):
        report = quality_report(matrix, min_length)
        frozen, empty = Counter(), Counter()
        for episode in episodes:
            ep_frozen, ep_empty = cell_loop_frozen_and_empty(
                {v: episode[v] for v in variables}, min_length)
            frozen.update(ep_frozen)
            empty.update(ep_empty)
        assert [c.name for c in report.channels] == list(variables)
        assert [c.n_frozen_instance_channels for c in report.channels] == \
            [frozen[v] for v in variables]
        assert [c.n_empty_instance_channels for c in report.channels] == \
            [empty[v] for v in variables]
        assert report.n_instances == len(episodes)


def test_quality_report_refuses_rows_that_are_not_whole_instances():
    cfg = default_config(n_normal=6, n_rapid_loss=4, n_hydrate=2, length=15)
    matrix = flatten(synth_generate(cfg, 3), VARS)
    quality_report(matrix)
    row_parts = split(matrix, SplitSpec(mode="row"))
    instance_parts = split(matrix, SplitSpec(mode="instance"))
    reversed_rows = matrix.take(np.arange(matrix.n_rows)[::-1])
    for refused in (*row_parts, *instance_parts, reversed_rows):
        with pytest.raises(ValueError, match="one whole run of rows"):
            quality_report(refused)


def test_quality_report_json_serializable():
    from hydet import jsonio
    cfg = default_config(n_normal=6, n_rapid_loss=4, n_hydrate=2, length=15,
                         missing_fraction=0.05)
    instances = synth_generate(cfg, 2)
    matrix = flatten(instances, VARS)
    report = quality_report(matrix)
    text = jsonio.dumps(to_json(report))
    assert '"overall_missing_pct"' in text


def test_render_boxplot_svg_smoke():
    col = np.concatenate([np.arange(1.0, 50.0), [400.0]])
    svg = render_boxplot_svg(col, "P-TPT", boxplot_stats(col))
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "<circle" in svg  # the injected outlier dot


def test_render_boxplot_svg_draws_at_most_1000_outliers():
    # quartiles and fences at 0: every one of the 1,200 nonzero cells is an outlier
    col = np.concatenate([np.zeros(9000), np.arange(1.0, 1201.0)])
    stats = boxplot_stats(col)
    assert stats.n_outliers == 1200
    svg = render_boxplot_svg(col, "P-TPT", stats)
    assert svg.count("<circle") == 1000
    assert ">1200 outliers (1000 drawn)</text>" in svg


@pytest.mark.parametrize("name", ["P-TPT", "P&T", "<x>", "a>b&lt;"])
def test_render_boxplot_svg_escapes_the_channel_name(name):
    col = np.concatenate([np.arange(1.0, 50.0), [400.0]])
    svg = render_boxplot_svg(col, name, boxplot_stats(col))
    root = ET.fromstring(svg)
    svg_ns = "{http://www.w3.org/2000/svg}"
    assert root.find(f"{svg_ns}title").text == name
    assert root.find(f"{svg_ns}text").text == name
    if name == "P-TPT":  # a name without markup is written as it is
        assert "<title>P-TPT</title>" in svg


@given(data=st.data(), width=st.integers(1, 4), n=st.integers(5, 60),
       mode=st.sampled_from(["zscore", "minmax"]))
@settings(max_examples=150, deadline=None)
def test_preprocessing_in_place_equals_the_chained_step_functions(data, width, n, mode):
    # fit_transform in a matrix's own values gives the bits of the step
    # functions chained on copies, and fits the same models
    cell = st.floats(-1e9, 1e9) | st.sampled_from([np.nan, 0.0, -0.0, 1e-310])
    values = np.array(data.draw(st.lists(st.lists(cell, min_size=width, max_size=width),
                                         min_size=n, max_size=n)))
    values[:4] = np.arange(4 * width).reshape(4, width) / 3  # four observed per column
    config = PreprocessConfig(normalization=mode)
    m = matrix_of(*values.T)
    imputer = fit_imputer(m)
    imputed = apply_imputer(imputer, m)
    fences = tuple(b.fences for b in fit_boxplots(imputed))
    clamped = treat_outliers(imputed, fences)
    normalizer = fit_normalizer(clamped, mode)
    chained = apply_normalizer(normalizer, clamped).values
    prep = Preprocessor.fit(m, config)
    assert prep == Preprocessor(imputer, fences, normalizer)
    assert prep.transform(m).values.tobytes() == chained.tobytes()
    owned = matrix_of(*values.T)
    fitted, ready = Preprocessor.fit_transform(owned, config)
    assert fitted == prep and ready.values is owned.values
    assert ready.values.tobytes() == chained.tobytes()
    assert not ready.values.flags.writeable
    assert m.values.tobytes() == values.tobytes()  # the copying paths leave it


@given(data=st.data(), width=st.integers(1, 4), n=st.integers(5, 40),
       constant=st.booleans(), mode=st.sampled_from(["zscore", "minmax"]))
@settings(max_examples=150, deadline=None)
def test_transform_in_owned_values_equals_transform_bitwise(data, width, n, constant,
                                                            mode):
    # the CLI transforms its test part in that part's own values; the bits
    # are transform's and the chained step functions', cell by cell: missing
    # cells, cells past and at each fence, and -0.0 beside 0.0
    cell = st.floats(-1e6, 1e6) | st.sampled_from([np.nan, 0.0, -0.0])
    train = np.array(data.draw(st.lists(st.lists(cell, min_size=width, max_size=width),
                                        min_size=n, max_size=n)))
    train[:4] = np.arange(4 * width).reshape(4, width) / 3  # four observed per column
    if constant:  # fences and center at 2.5, scale 0: centered only
        train[:, 0] = 2.5
    prep = Preprocessor.fit(matrix_of(*train.T), PreprocessConfig(normalization=mode))
    columns = [st.floats(-1e9, 1e9) | st.sampled_from(
        [np.nan, 0.0, -0.0, f.lower_fence, f.upper_fence, f.lower_fence - 1.0,
         f.upper_fence + 1.0, -f.lower_fence, -f.upper_fence]) for f in prep.fences]
    test = np.array(data.draw(st.lists(st.tuples(*columns), min_size=1, max_size=30)))
    copied = matrix_of(*test.T)
    chained = apply_normalizer(prep.normalizer, treat_outliers(
        apply_imputer(prep.imputer, copied), prep.fences)).values
    want = prep.transform(copied).values
    owned = matrix_of(*test.T)
    ready = prep._transform_owned(owned)
    assert ready.values is owned.values and not ready.values.flags.writeable
    assert ready.values.tobytes() == want.tobytes() == chained.tobytes()
    assert copied.values.tobytes() == test.tobytes()  # transform copies
