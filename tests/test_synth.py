import math
from dataclasses import replace

import numpy as np
import pytest

from hydet.dataset import (ClassLabel, default_config, flatten, qc_probe_config,
                           synth_generate)
from hydet.codec import from_json, to_json
from hydet.dataset import synth
from hydet.dataset.synth import SynthConfig
from hydet.errors import ConfigError
from oracles import reference_synth

VARS = ("P-TPT", "T-TPT", "P-MON-CKP", "T-JUS-CKP")


def corpus_bits(instances):
    """Everything an instance holds, with values compared bit for bit."""
    return [(inst.instance_id, inst.label, type(inst.timestamps), inst.timestamps.dtype,
             inst.timestamps.flags.writeable, inst.timestamps.tolist(),
             inst.variable_names, inst.values.shape, inst.values.tobytes())
            for inst in instances]


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


def test_epoch_start_keeps_every_timestamp_in_int64():
    length = 5
    cfg = default_config(n_normal=1, n_rapid_loss=0, n_hydrate=0, length=length)
    for start in (2**63 - length, -2**63):
        stamps = synth_generate(replace(cfg, epoch_start=start), 0)[0].timestamps
        assert stamps.dtype == np.int64
        assert stamps.tolist() == list(range(start, start + length))
    for start in (2**63 - length + 1, -2**63 - 1):
        with pytest.raises(ConfigError, match="int64 range"):
            replace(cfg, epoch_start=start)


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
    back = from_json(SynthConfig, to_json(cfg), "synth")
    assert back == cfg
    with pytest.raises(ConfigError):
        from_json(SynthConfig, {"counts": {"Hydrate": 1}, "bogus": 1}, "synth")


def test_sorted_key_json_round_trip_generates_identical_corpus():
    import json
    from hydet import jsonio
    cfg = default_config(n_normal=3, n_rapid_loss=2, n_hydrate=1, length=8)
    # the canonical writer sorts object keys; the corpus must not care
    sorted_json = json.loads(jsonio.dumps(to_json(cfg)))
    back = from_json(SynthConfig, sorted_json, "synth")
    assert back.variables == cfg.variables
    assert corpus_bits(synth_generate(back, 33)) == corpus_bits(synth_generate(cfg, 33))


DIRTY = dict(missing_fraction=0.03, frozen_fraction=0.05,
             outlier_fractions={"P-TPT": 0.01, "T-TPT": 0.02})

# Instances per draw block at 4 channels: 1,638 at length 1, 819 at 2, 109 at
# 15, 32 at 50, 26 at 61 and 2 at 600; every case spans a block boundary
# mid-class.
REFERENCE_CASES = {
    "length1": default_config(1700, 1, 2, length=1, missing_fraction=0.1),
    "length2": default_config(0, 825, 3, length=2,
                              outlier_fractions={"T-JUS-CKP": 0.05}),
    "length15": default_config(110, 2, 3, length=15, frozen_fraction=0.1),
    "length61": default_config(30, 4, 27, length=61, **DIRTY),
    "length600": default_config(5, 3, 3, length=600, **DIRTY),
    "qc_probe": qc_probe_config(n_instances=40, length=50, **DIRTY),
}


@pytest.mark.parametrize("seed", [7, 42, 11])
@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_blocked_draws_equal_per_stream_reference(case, seed):
    cfg = REFERENCE_CASES[case]
    assert corpus_bits(synth_generate(cfg, seed)) == \
        corpus_bits(reference_synth(cfg, seed))


@pytest.mark.parametrize("block_draws", [1, 3 * 5 * 7 + 1])
def test_block_size_does_not_change_the_corpus(monkeypatch, block_draws):
    # one instance per block, then three: edges land everywhere in each class
    cfg = default_config(7, 5, 4, length=7, **DIRTY)
    monkeypatch.setattr(synth, "_BLOCK_DRAWS", block_draws)
    assert corpus_bits(synth_generate(cfg, 11)) == corpus_bits(reference_synth(cfg, 11))


def test_hydrate_clamp_binds_in_the_reference_cases():
    # the blocked clip must be exercised, not just configured
    cfg = REFERENCE_CASES["length61"]
    lo = cfg.regimes[ClassLabel.HYDRATE]["T-TPT"].clamp[0]
    t_tpt = np.concatenate([inst.values[:, 1] for inst in synth_generate(cfg, 42)
                            if inst.label is ClassLabel.HYDRATE])
    assert (t_tpt == lo).any()
