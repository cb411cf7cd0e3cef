import math

import numpy as np
import pytest

from hydet.dataset import ClassLabel, default_config, flatten, synth_generate
from hydet.dataset.synth import config_from_json, config_to_json
from hydet.errors import ConfigError

VARS = ("P-TPT", "T-TPT", "P-MON-CKP", "T-JUS-CKP")


def corpus_bits(instances):
    """Everything an instance holds, with values compared bit for bit."""
    return [(inst.instance_id, inst.label, inst.timestamps, inst.variable_names,
             inst.values.shape, inst.values.tobytes()) for inst in instances]


def test_counts_and_length():
    cfg = default_config(n_normal=0, n_rapid_loss=0, n_hydrate=1, length=5)
    out = synth_generate(cfg, 0)
    assert len(out) == 1
    assert out[0].label is ClassLabel.HYDRATE
    assert len(out[0]) == 5


def test_bit_identical_for_same_seed():
    cfg = default_config(n_normal=3, n_rapid_loss=2, n_hydrate=2, length=10,
                         missing_fraction=0.1, frozen_fraction=0.1,
                         outlier_fractions={"P-TPT": 0.05})
    a = synth_generate(cfg, 123)
    b = synth_generate(cfg, 123)
    assert corpus_bits(a) == corpus_bits(b)
    c = synth_generate(cfg, 124)
    assert corpus_bits(a) != corpus_bits(c)


def test_missing_fraction_exact_cell_count():
    cfg = default_config(n_normal=1, n_rapid_loss=0, n_hydrate=0, length=100,
                         missing_fraction=0.2)
    out = synth_generate(cfg, 7)
    missing = sum(math.isnan(v) for row in out[0].values.tolist() for v in row)
    assert missing == 80  # round(0.2 * 4 * 100), recounted cell by cell


def test_frozen_fraction_exact_channel_count():
    cfg = default_config(n_normal=10, n_rapid_loss=10, n_hydrate=5, length=30,
                         frozen_fraction=0.1)
    out = synth_generate(cfg, 11)
    frozen = 0
    for inst in out:  # brute-force all-equal scan
        for ch in inst.values.T.tolist():
            observed = [v for v in ch if not math.isnan(v)]
            if len(observed) >= 2 and all(v == observed[0] for v in observed):
                frozen += 1
    assert frozen == round(0.1 * 25 * 4)


def test_outlier_fraction_exact_and_extreme():
    cfg = default_config(n_normal=20, n_rapid_loss=10, n_hydrate=5, length=40,
                         outlier_fractions={"P-TPT": 0.1, "T-TPT": 0.0})
    out = synth_generate(cfg, 3)
    m = flatten(out, VARS)
    col = m.values[:, 0]
    n = col.size
    # oracle: Tukey fence count on the corrupted column
    q1, q3 = np.quantile(col, [0.25, 0.75])
    iqr = q3 - q1
    outliers = np.count_nonzero((col < q1 - 1.5 * iqr) | (col > q3 + 1.5 * iqr))
    assert outliers == round(0.1 * n)
    t_col = m.values[:, 1]
    q1, q3 = np.quantile(t_col, [0.25, 0.75])
    iqr = q3 - q1
    assert np.count_nonzero((t_col < q1 - 1.5 * iqr) | (t_col > q3 + 1.5 * iqr)) == 0


def test_hydrate_temperature_band():
    cfg = default_config(n_normal=0, n_rapid_loss=0, n_hydrate=40, length=50)
    out = synth_generate(cfg, 21)
    for inst in out:
        t = inst.values[:, inst.variable_names.index("T-TPT")]
        assert (t >= 0.0).all() and (t <= 50.0).all()


def test_channels_share_latent_correlation():
    cfg = default_config(n_normal=200, n_rapid_loss=0, n_hydrate=0, length=30)
    out = synth_generate(cfg, 5)
    m = flatten(out, VARS)
    corr = np.corrcoef(m.values.T)
    # every channel pair inherits the shared latent term
    off_diag = corr[np.triu_indices(4, k=1)]
    assert (off_diag > 0.5).all()


def test_invalid_configs():
    with pytest.raises(ConfigError):
        default_config(n_normal=0, n_rapid_loss=0, n_hydrate=0)
    with pytest.raises(ConfigError):
        default_config(n_normal=1, missing_fraction=1.0)
    with pytest.raises(ConfigError):
        default_config(n_normal=1, outlier_fractions={"NOPE": 0.1})


def test_channel_model_validation():
    from hydet.dataset.synth import ChannelModel
    with pytest.raises(ConfigError):
        ChannelModel(start=float("inf"))
    with pytest.raises(ConfigError):
        ChannelModel(start=0.0, noise_sd=-1.0)
    with pytest.raises(ConfigError):
        ChannelModel(start=0.0, clamp=(0.0, float("nan")))


def test_config_json_round_trip():
    cfg = default_config(n_normal=2, n_rapid_loss=3, n_hydrate=4, length=12,
                         missing_fraction=0.05,
                         outlier_fractions={"T-TPT": 0.02})
    back = config_from_json(config_to_json(cfg))
    assert back == cfg
    with pytest.raises(ConfigError):
        config_from_json({"counts": {"Hydrate": 1}, "bogus": 1})


def test_sorted_key_json_round_trip_generates_identical_corpus():
    import json
    from hydet import jsonio
    cfg = default_config(n_normal=3, n_rapid_loss=2, n_hydrate=1, length=8)
    # the canonical writer sorts object keys; the corpus must not care
    sorted_json = json.loads(jsonio.dumps(config_to_json(cfg)))
    back = config_from_json(sorted_json)
    assert back.variables == cfg.variables
    assert corpus_bits(synth_generate(back, 33)) == corpus_bits(synth_generate(cfg, 33))
