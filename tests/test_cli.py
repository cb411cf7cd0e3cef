import hashlib
import json
import math
import os
import subprocess
import sys
import weakref
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hydet.classifiers
import hydet.dataset
import hydet.dataset.transform
import hydet.evaluation
import hydet.quality
from hydet import cli, jsonio
from hydet.classifiers import (ClassifiersConfig, KnnConfig, NbConfig, TreeConfig,
                               load_model, save_model)
from hydet.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from hydet.codec import from_json, to_json
from hydet.config import DataConfig, RunConfig
from hydet.dataset import CANONICAL_VARIABLE_NAMES, ClassLabel, SplitSpec
from hydet.dataset.model import DatasetManifest, FeatureMatrix
from hydet.dataset.synth import ChannelModel, SynthConfig, default_config
from hydet.errors import ConfigError
from hydet.evaluation import EvalReport
from hydet.quality import (PreprocessConfig, Preprocessor, QualityReport,
                           load_preprocessor, save_preprocessor)
from hydet.stats import ComparisonTable, TestConfig


def small_synth_config(tmp_path, out_name="out", **synth_kwargs):
    synth = default_config(n_normal=14, n_rapid_loss=8, n_hydrate=4, length=12,
                           **synth_kwargs)
    config = {
        "seed": 11,
        "out_dir": str(tmp_path / out_name),
        "data": {"synth": to_json(synth)},
        "split": {"test_fraction": 0.25, "seed": 11, "mode": "row",
                  "stratified": True},
    }
    path = tmp_path / f"{out_name}_config.json"
    jsonio.dump(config, path)
    return path, tmp_path / out_name


def read_tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# config plumbing


def test_run_config_json_round_trip():
    config = RunConfig(seed=9, models=("dt", "nb"), data=DataConfig(root="somewhere"))
    back = from_json(RunConfig, config.to_json_dict(), "config")
    assert back == config


def test_run_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        from_json(RunConfig, {"seeed": 1}, "config")
    with pytest.raises(ConfigError):
        from_json(RunConfig, {"split": {"fraction": 0.5}}, "config")
    with pytest.raises(ConfigError):
        from_json(RunConfig, {"classifiers": {"svm": {}}}, "config")


_finite = st.floats(-1e9, 1e9, allow_nan=False)
_fraction = st.floats(0.0, 0.5)
_open_unit = st.floats(0.001, 0.999)
_name = st.text(min_size=1, max_size=8)
_channel = st.builds(ChannelModel, start=_finite, end=st.none() | _finite,
                     latent_loading=_finite, noise_sd=st.floats(0.0, 1e6),
                     clamp=st.none() | st.tuples(_finite, _finite))
_synth = st.builds(
    SynthConfig,
    counts=st.fixed_dictionaries({label: st.integers(1, 5) for label in ClassLabel}),
    length=st.integers(1, 100),
    regimes=st.fixed_dictionaries({label: st.fixed_dictionaries(
        dict.fromkeys(CANONICAL_VARIABLE_NAMES, _channel)) for label in ClassLabel}),
    missing_fraction=_fraction, frozen_fraction=_fraction,
    outlier_fractions=st.dictionaries(st.sampled_from(CANONICAL_VARIABLE_NAMES),
                                      _fraction),
    epoch_start=st.integers(0, 2**40))
_run_config = st.builds(
    RunConfig,
    seed=st.integers(0, 2**63), out_dir=_name,
    variables=st.lists(_name, min_size=1, max_size=5, unique=True).map(tuple),
    models=st.lists(st.sampled_from(["dt", "knn", "nb"]), min_size=1,
                    max_size=3, unique=True).map(tuple),
    data=st.builds(DataConfig, root=st.none() | _name),
    preprocess=st.builds(PreprocessConfig, tukey_multiplier=st.floats(0.1, 10.0),
                         quartile_method=st.sampled_from(["linear", "nearest"]),
                         normalization=st.sampled_from(["zscore", "minmax"])),
    split=st.builds(SplitSpec, test_fraction=_open_unit, seed=st.integers(0, 2**32),
                    mode=st.sampled_from(["row", "instance"]),
                    stratified=st.booleans()),
    classifiers=st.builds(
        ClassifiersConfig,
        tree=st.builds(TreeConfig, max_depth=st.none() | st.integers(0, 64),
                       min_samples_split=st.integers(2, 100),
                       min_impurity_decrease=st.floats(0.0, 1.0)),
        knn=st.builds(KnnConfig, k=st.integers(1, 50)),
        nb=st.builds(NbConfig, eps_rel=st.floats(1e-12, 1.0))),
    stats=st.builds(TestConfig, alpha=_open_unit,
                    method=st.sampled_from(["auto", "exact", "asymptotic"])))


@settings(max_examples=60, deadline=None)
@given(config=_run_config, synth=st.none() | _synth)
def test_run_config_json_round_trip_drawn_sections(config, synth):
    if synth is not None:
        config = replace(config, data=DataConfig(synth=synth))
    text = jsonio.dumps(config.to_json_dict())
    assert from_json(RunConfig, json.loads(text), "config") == config


def test_readme_config_example_is_the_default_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Config file", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert from_json(RunConfig, json.loads(example), "config") == \
        RunConfig(data=DataConfig(root="corpus"))


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(models=("dt", "boost"))
    with pytest.raises(ConfigError, match=r"unknown keys \['config.threads'\]"):
        from_json(RunConfig, {"threads": 1}, "config")  # removed: it changed nothing
    with pytest.raises(ConfigError):
        RunConfig(variables=())


# ---------------------------------------------------------------------------
# commands


def test_qc_writes_report_and_svgs(tmp_path, capsys):
    config_path, out = small_synth_config(tmp_path)
    assert main(["qc", "--config", str(config_path)]) == EXIT_OK
    report = jsonio.load(out / "quality_report.json")
    assert report["overall_missing_pct"] == 0.0
    assert report["channels"][0]["unit"] == "Pa"
    assert (out / "boxplot_P-TPT.svg").exists()
    assert (out / "config.json").exists()


def test_qc_report_and_points_flags(tmp_path):
    config_path, out = small_synth_config(tmp_path)
    report_path = tmp_path / "custom_report.json"
    points_path = tmp_path / "points.csv"
    assert main(["qc", "--config", str(config_path),
                 "--report", str(report_path),
                 "--points", str(points_path)]) == EXIT_OK
    assert report_path.exists()
    header = points_path.read_text().splitlines()[0]
    assert header == "instance_id,t_index,P-TPT,T-TPT,P-MON-CKP,T-JUS-CKP,label"


def test_qc_rerun_byte_identical(tmp_path):
    config_path, out = small_synth_config(tmp_path)
    assert main(["qc", "--config", str(config_path)]) == EXIT_OK
    first = read_tree(out)
    assert main(["qc", "--config", str(config_path)]) == EXIT_OK
    assert read_tree(out) == first


def test_qc_empty_variables_is_usage_error(tmp_path):
    config_path, _ = small_synth_config(tmp_path)
    assert main(["qc", "--config", str(config_path), "--variables", ""]) \
        == EXIT_USAGE


def test_qc_audits_the_channels_its_config_file_names(tmp_path):
    config_path, out = small_synth_config(tmp_path)
    config = jsonio.load(config_path)
    config["variables"] = ["P-TPT"]
    jsonio.dump(config, config_path)
    assert main(["qc", "--config", str(config_path)]) == EXIT_OK
    report = jsonio.load(out / "quality_report.json")
    assert [channel["name"] for channel in report["channels"]] == ["P-TPT"]
    assert jsonio.load(out / "config.json")["variables"] == ["P-TPT"]


def test_qc_missing_dataset_is_data_error(tmp_path):
    assert main(["qc", "--data", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "o")]) == EXIT_DATA


def test_corpus_whose_class_directories_hold_no_csv_is_data_error(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    for name in hydet.dataset.CLASS_DIRS:
        (corpus / name).mkdir(parents=True)
    message = (f"error: dataset is empty: {corpus} has no .csv file in its class "
               "directories 0_normal, 1_rapid_loss, 2_hydrate\n")
    assert main(["qc", "--data", str(corpus), "--out", str(tmp_path / "o")]) == EXIT_DATA
    assert capsys.readouterr().err == message
    for name in hydet.dataset.CLASS_DIRS:  # only directories it does not read
        (corpus / name).rename(corpus / name[0])
    assert main(["qc", "--data", str(corpus), "--out", str(tmp_path / "o")]) == EXIT_DATA
    assert capsys.readouterr().err.endswith(message)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags, message", [
    (["--variables", "P-TPT,P-TPT,T-TPT"], "variables lists 'P-TPT' more than once"),
    (["--models", "dt,dt"], "models lists 'dt' more than once"),
], ids=["variables", "models"])
def test_repeated_channel_or_model_flag_is_usage_error(tmp_path, capsys, flags, message):
    # each used to run: a channel counted twice, a model fitted twice
    config_path, _ = small_synth_config(tmp_path)
    out = tmp_path / "never"
    assert main(["pipeline", "--config", str(config_path), *flags,
                 "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("key, names, repeated", [
    ("variables", ["T-TPT", "P-TPT", "T-TPT"], "T-TPT"),
    ("models", ["nb", "dt", "nb", "dt"], "nb"),
], ids=["variables", "models"])
def test_repeated_channel_or_model_in_config_file_is_usage_error(tmp_path, capsys, key,
                                                                 names, repeated):
    config_path, _ = small_synth_config(tmp_path)
    config = jsonio.load(config_path)
    config[key] = names
    jsonio.dump(config, config_path)
    out = tmp_path / "never"
    for command in ("qc", "pipeline") if key == "variables" else ("pipeline",):
        assert main([command, "--config", str(config_path), "--out", str(out)]) \
            == EXIT_USAGE
        assert capsys.readouterr().err == \
            f"usage error: config: {key} lists {repeated!r} more than once\n"
        assert not out.exists()


@pytest.mark.parametrize("first, second, kinds", [
    ("2024-01-01T00:00:00", "2024-01-01T00:00:01Z", "iso then iso-offset"),
    ("2024-01-01T00:00:00+01:00", "2024-01-01T00:00:01", "iso-offset then iso"),
])
def test_qc_iso_stamps_with_and_without_offset_is_data_error(tmp_path, capsys,
                                                             first, second, kinds):
    # naive and offset datetimes cannot be ordered against each other
    path = tmp_path / "corpus" / "0_normal" / "w.csv"
    path.parent.mkdir(parents=True)
    path.write_text(f"timestamp,x\n{first},1.0\n{second},2.0\n", encoding="utf-8")
    assert main(["qc", "--data", str(tmp_path / "corpus"),
                 "--out", str(tmp_path / "o")]) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: {path} row 3: timestamp format changes mid-file ({kinds})\n")


def test_synth_then_qc_roundtrip_on_disk(tmp_path):
    config_path, out = small_synth_config(tmp_path, out_name="corpus")
    assert main(["synth", "--config", str(config_path)]) == EXIT_OK
    manifest = jsonio.load(out / "manifest.json")
    assert manifest["class_counts"] == {"NormalCondition": 14,
                                        "RapidProductivityLoss": 8,
                                        "Hydrate": 4}
    out2 = tmp_path / "qc_out"
    assert main(["qc", "--data", str(out), "--out", str(out2)]) == EXIT_OK
    report = jsonio.load(out2 / "quality_report.json")
    assert report["n_instances"] == 26


def test_synth_refuses_a_directory_that_holds_another_corpus(tmp_path, capsys):
    config_path, out = small_synth_config(tmp_path, out_name="corpus")
    assert main(["synth", "--config", str(config_path)]) == EXIT_OK
    written = read_tree(out)
    # the same config and seed again: the same files, the same bytes
    assert main(["synth", "--config", str(config_path)]) == EXIT_OK
    assert read_tree(out) == written
    config = jsonio.load(config_path)
    config["data"]["synth"]["counts"]["NormalCondition"] = 4
    jsonio.dump(config, config_path)
    capsys.readouterr()
    assert main(["synth", "--config", str(config_path)]) == EXIT_DATA
    stale = out / "0_normal" / "synth-normal-00004.csv"
    assert capsys.readouterr().err == (f"error: {stale}: this corpus would not write "
                                       "this file; write the corpus to a new "
                                       "directory\n")
    assert read_tree(out) == written  # config.json too


def test_pipeline_full_layout_and_models_flag(tmp_path, capsys):
    config_path, out = small_synth_config(tmp_path)
    assert main(["pipeline", "--config", str(config_path)]) == EXIT_OK
    for rel in ("config.json", "quality_report.json", "models/preprocess.json",
                "models/dt.json", "models/knn.json", "models/nb.json",
                "eval_dt.json", "eval_knn.json", "eval_nb.json",
                "eval_dt_confusion.csv", "comparison.json", "comparison.csv"):
        assert (out / rel).exists(), rel
    text = capsys.readouterr().out
    assert "Decision Tree" in text and "comparison" in text

    # single model: comparison skipped with a notice
    out2 = tmp_path / "single"
    assert main(["pipeline", "--config", str(config_path), "--models", "dt",
                 "--out", str(out2)]) == EXIT_OK
    assert (out2 / "eval_dt.json").exists()
    assert not (out2 / "eval_knn.json").exists()
    assert not (out2 / "comparison.csv").exists()
    assert "comparison skipped" in capsys.readouterr().out


def test_wide_corpus_audits_all_channels_models_use_four(tmp_path):
    # corpus with two bookkeeping channels beyond the canonical four: qc
    # audits all six by default, modeling still selects the four
    from hydet.dataset import ClassLabel, write_instance_csv
    from hydet.dataset.model import TimeSeriesInstance
    from hydet.rng import CounterRng

    rng = CounterRng(99)
    for sub, label in (("0_normal", ClassLabel.NORMAL),
                       ("1_rapid_loss", ClassLabel.RAPID_LOSS),
                       ("2_hydrate", ClassLabel.HYDRATE)):
        (tmp_path / "wide" / sub).mkdir(parents=True)
        for k in range(4):
            base = {ClassLabel.NORMAL: 10.0, ClassLabel.RAPID_LOSS: 30.0,
                    ClassLabel.HYDRATE: 50.0}[label]
            draw = rng.derive(int(label), k)
            names = ("P-TPT", "T-TPT", "P-MON-CKP", "T-JUS-CKP", "QGL", "ABER-CKGL")
            values = np.column_stack([base + j + draw.derive(j).uniforms(12)
                                      for j in range(len(names))])
            inst = TimeSeriesInstance(f"{sub}/w{k}", label, tuple(range(12)),
                                      names, values)
            write_instance_csv(inst, tmp_path / "wide" / sub / f"w{k}.csv")

    out = tmp_path / "wide_out"
    assert main(["qc", "--data", str(tmp_path / "wide"),
                 "--out", str(out)]) == EXIT_OK
    report = jsonio.load(out / "quality_report.json")
    assert len(report["channels"]) == 6
    assert report["total_cells"] == 12 * 6 * 12
    assert jsonio.load(out / "config.json")["variables"] == \
        [channel["name"] for channel in report["channels"]]

    out2 = tmp_path / "wide_pipeline"
    assert main(["pipeline", "--data", str(tmp_path / "wide"),
                 "--out", str(out2)]) == EXIT_OK
    model = jsonio.load(out2 / "models" / "nb.json")
    assert len(model["means"][0]) == 4  # modeling subset only


def test_train_then_eval_separate_commands(tmp_path):
    config_path, out = small_synth_config(tmp_path)
    assert main(["train", "--config", str(config_path)]) == EXIT_OK
    assert (out / "models" / "dt.json").exists()
    assert main(["eval", "--config", str(config_path)]) == EXIT_OK
    report = jsonio.load(out / "eval_dt.json")
    assert 0.0 <= report["accuracy"] <= 1.0

    # the pipeline writes the same models and evaluations byte for byte
    piped = tmp_path / "piped"
    assert main(["pipeline", "--config", str(config_path),
                 "--out", str(piped)]) == EXIT_OK
    separate, together = read_tree(out), read_tree(piped)
    shared = [rel for rel in separate if rel.startswith(("models/", "eval_"))]
    assert len(shared) == 4 + 2 * 3  # preprocess + 3 models, json + csv each
    for rel in shared:
        assert separate[rel] == together[rel], rel


_PAYLOADS = ("models/dt.json", "models/knn.json", "models/nb.json",
             "models/preprocess.json", "quality_report.json",
             "eval_dt.json", "eval_knn.json", "eval_nb.json",
             "eval_dt_confusion.csv", "eval_knn_confusion.csv",
             "eval_nb_confusion.csv")


@pytest.mark.parametrize("dirt, sha256", [
    ({}, ["db24b8cfe9006e502f047e5d82b63d24c8f5f5e292390d8fb46cac93053a15e4",
          "651f2b15c38ca84ae5ff15eb65fa42505f27f83a31768f20565aa8f4d688768f",
          "a528ff7c9ffc644ca8a0f560f595b0e2bf3c8ccea159b86a3da2db1578123d56",
          "1407b3f0bb4267db63da89c5546790842b2e6de1894d1e7b35141ca052f9babb",
          "2760b4380685beacaa5bb399180a701b334dbd8ad9f0b0feac4fe03a81238c6c",
          "4849e0e04ecb2e6c0679da0e756f302c01389280801e3448b690e422f1ac2336",
          "a281ab9abf29d7509d30dad919bf61f2947fe3326f3dcf1f640e6792ec0bd7a7",
          "c62cd9e614bdcca91fc8bb10cdaf8dd3d9ff84ae35f4de4c68c11066887b7fef",
          "e80e1f5102341cd62767526cd96fe494434373b5e6bda944700abcbd4723ee7d",
          "b75a9f2a60160a0dfb6e05ce66b8ce29adb4de074c4b0474bb9fef6ad12e07fc",
          "07714617dba9eeeb93ae72db1a31e774cb945cb5e93da6ec4d91edce99942579"]),
    ({"missing_fraction": 0.05, "frozen_fraction": 0.1,
      "outlier_fractions": {"P-TPT": 0.05}},
     ["9af83e30992c0efccb1578f3e356d32fb5a9a73e462359b2776f38be3b0f5eb7",
      "243b74247b3fb05e1e6e8e3ca0279caae78ae76bf4d3024b0669544b2cbc34be",
      "ea84f6d10e4188e0ee855063a61223c8481870563868848c4f8e065c957245e0",
      "1229f1bee67058c530bce2df0a2a39de5028ccd50b81bd87ecf744ea9fd8c431",
      "cff07378fb268893a4be3c2d1d708ad10868ce904e0fda280336e38df784b518",
      "2db3304a5a45ce0d56e3f6d67d9796fadb6ffb4951d1f95052579acaa80ae098",
      "8fdab4e68adf782ca911bab7f6d61014bab1d871c4a25edbe42d6f7b86c4e5e6",
      "cd367798e7c08fbd24148c8a3e20c1d07e933da543ef0426f6e38fc084f1e898",
      "3733969554d0f7947ce4829eaa4fa16e7173d8554d2df87e7e4aec3f98b8d9eb",
      "7cf317eb03fed6d4641e07efa2c8fcbbe9b457290e3a2fc7e7757c7775536697",
      "245d612b4e732cfb655a20f7f9e57b191f4c6dffd0e1585fa0a6d1922f84a1a2"]),
], ids=["clean", "dirty"])
def test_saved_payloads_keep_their_recorded_bytes(tmp_path, dirt, sha256):
    # digests recorded when each payload still had a hand-written encoder;
    # the three model files' digests were recorded again at model format
    # version 2, where knn.json and nb.json differ only in that line and
    # dt.json holds the same tree as preorder node lists; the dirty corpus
    # puts 16 outlier rows into the quality report; the eval reports and
    # their confusion grids were recorded before the metric code was
    # rewritten as one path from predictions to EvalReport
    config_path, out = small_synth_config(tmp_path, **dirt)
    assert main(["pipeline", "--config", str(config_path)]) == EXIT_OK
    assert [hashlib.sha256((out / rel).read_bytes()).hexdigest()
            for rel in _PAYLOADS] == sha256


def test_every_json_output_reads_back_to_its_bytes(tmp_path):
    # each JSON file that synth and pipeline write is read back through its
    # codec type and rendered again byte for byte
    config_path, corpus = small_synth_config(tmp_path, out_name="corpus")
    assert main(["synth", "--config", str(config_path)]) == EXIT_OK
    out = tmp_path / "out"
    assert main(["pipeline", "--data", str(corpus), "--out", str(out)]) == EXIT_OK
    copy = tmp_path / "copy.json"

    def decoded(hint):
        return lambda path: jsonio.dumps(to_json(from_json(hint, jsonio.load(path), "")))

    def saved(load, save):
        def render(path):
            save(load(path), copy)
            return copy.read_text(encoding="utf-8")
        return render

    readers = {
        "config.json": lambda path: jsonio.dumps(
            from_json(RunConfig, jsonio.load(path), "config").to_json_dict()),
        "manifest.json": decoded(DatasetManifest),
        "quality_report.json": decoded(QualityReport),
        "eval_*.json": decoded(EvalReport),
        "comparison.json": decoded(ComparisonTable),
        "models/preprocess.json": saved(load_preprocessor, save_preprocessor),
        "models/[!p]*.json": saved(load_model, save_model),
    }
    checked = set()
    for root in (corpus, out):
        for pattern, render in readers.items():
            for path in root.glob(pattern):
                assert render(path) == path.read_text(encoding="utf-8"), path
                checked.add(path)
    assert len(checked) == 12
    assert {*corpus.rglob("*.json"), *out.rglob("*.json")} == checked


def test_eval_without_models_is_data_error(tmp_path):
    config_path, _ = small_synth_config(tmp_path, out_name="fresh")
    assert main(["eval", "--config", str(config_path)]) == EXIT_DATA


def test_compare_from_f1_reference_vectors(tmp_path, capsys):
    f1_path = tmp_path / "f1.json"
    # plain json.dump: model order in the file drives the pair order
    f1_path.write_text(json.dumps({"Decision Tree": [1.0, 1.0, 1.0],
                                   "k-NN": [1.0, 1.0, 1.0],
                                   "Naive Bayes": [0.04, 0.58, 0.00]}))
    out = tmp_path / "cmp"
    assert main(["compare", "--from-f1", str(f1_path),
                 "--out", str(out)]) == EXIT_OK
    data = jsonio.load(out / "comparison.json")["pairs"]
    assert round(data["Decision Tree vs k-NN"]["ks_p"], 3) == 1.000
    assert round(data["Decision Tree vs Naive Bayes"]["ks_p"], 3) == 0.100
    assert round(data["Decision Tree vs Naive Bayes"]["u_p"], 3) == 0.064
    assert data["k-NN vs Naive Bayes"]["u_stat"] == 9.0
    # CSV mirrors the JSON values exactly
    csv_lines = (out / "comparison.csv").read_text().strip().split("\n")
    row = dict(zip(csv_lines[0].split(","), csv_lines[2].split(",")))
    assert float(row["u_p"]) == data["Decision Tree vs Naive Bayes"]["u_p"]


_KS_NOTE = ("note: exact KS on 3 scores per model cannot reject: its p-value is at "
            "least 2/C(6,3) = 0.1, not below alpha 0.05\n")


def test_pipeline_notes_that_exact_ks_on_three_scores_cannot_reject(tmp_path, capsys):
    config_path, out = small_synth_config(tmp_path)
    assert main(["pipeline", "--config", str(config_path)]) == EXIT_OK
    assert capsys.readouterr().err == _KS_NOTE


@pytest.mark.parametrize("n_scores, method, err", [
    (3, "exact", _KS_NOTE),
    (11, "exact", ""),  # 2/C(22,11) = 2.9e-6
    (3, "asymptotic", ""),
], ids=["3-exact", "11-exact", "3-asymptotic"])
def test_compare_notes_only_an_exact_ks_that_cannot_reject(tmp_path, capsys, n_scores,
                                                           method, err):
    f1_path, config_path = tmp_path / "f1.json", tmp_path / "config.json"
    jsonio.dump({"a": [k / n_scores for k in range(n_scores)],
                 "b": [1.0 + k for k in range(n_scores)]}, f1_path)
    jsonio.dump({"stats": {"method": method}}, config_path)
    assert main(["compare", "--from-f1", str(f1_path), "--config", str(config_path),
                 "--out", str(tmp_path / "cmp")]) == EXIT_OK
    assert capsys.readouterr().err == err


def test_compare_repeated_eval_report_model_is_data_error_naming_both(tmp_path, capsys):
    config_path, out = small_synth_config(tmp_path)
    assert main(["pipeline", "--config", str(config_path)]) == EXIT_OK
    other = tmp_path / "other"
    other.mkdir()
    (other / "eval_knn.json").write_bytes((out / "eval_knn.json").read_bytes())
    capsys.readouterr()
    assert main(["compare", "--eval-reports", str(out / "eval_dt.json"),
                 str(out / "eval_knn.json"), str(other / "eval_knn.json"),
                 str(out / "eval_nb.json"), "--out", str(tmp_path / "c")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert (f"{out / 'eval_knn.json'}, {other / 'eval_knn.json'}: both are eval "
            "reports of model 'k-NN'") in err
    assert not (tmp_path / "c" / "comparison.json").exists()


def test_compare_single_model_usage_error(tmp_path):
    f1_path = tmp_path / "f1.json"
    jsonio.dump({"only-model": [1.0, 1.0, 1.0]}, f1_path)
    assert main(["compare", "--from-f1", str(f1_path),
                 "--out", str(tmp_path / "x")]) == EXIT_USAGE


def test_refused_compare_writes_nothing(tmp_path, capsys):
    f1_path = tmp_path / "f1.json"
    jsonio.dump({"only-model": [1.0, 1.0, 1.0]}, f1_path)
    out = tmp_path / "never"
    assert main(["compare", "--from-f1", str(f1_path), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == \
        "usage error: comparison needs at least 2 models, got 1\n"
    assert not out.exists()


def test_refused_qc_writes_nothing(tmp_path, capsys):
    config_path, _ = small_synth_config(tmp_path)
    out = tmp_path / "never"
    assert main(["qc", "--config", str(config_path), "--variables", "NOPE",
                 "--out", str(out)]) == EXIT_DATA
    assert "NOPE" in capsys.readouterr().err
    assert not out.exists()


def test_qc_boxplots_of_channels_named_with_markup_parse_as_xml(tmp_path):
    corpus = tmp_path / "corpus"
    (corpus / "0_normal").mkdir(parents=True)
    rows = "".join(f"{t},{t % 3}.5,{t * t}\n" for t in range(8))
    (corpus / "0_normal" / "w.csv").write_text("timestamp,P&T,<x>\n" + rows)
    out = tmp_path / "out"
    assert main(["qc", "--data", str(corpus), "--out", str(out)]) == EXIT_OK
    for name in ("P&T", "<x>"):
        root = ET.parse(out / f"boxplot_{name}.svg").getroot()
        assert root.find("{http://www.w3.org/2000/svg}title").text == name


@pytest.mark.parametrize("header, message", [
    ("timestamp,a/b,a_b", "channels 'a/b' and 'a_b' would both write boxplot_a_b.svg"),
    ('timestamp,P-TPT,q"x', "{csv}: channel 'q\"x' would not read back from a CSV header"),
], ids=["boxplot-names-collide", "quote-in-channel"])
def test_qc_refuses_channels_before_writing_report_or_boxplots(tmp_path, capsys, header,
                                                              message):
    # a/b and a_b once wrote one boxplot file, the second over the first; q"x
    # was read, audited and drawn, and refused only by a --points export
    corpus = tmp_path / "corpus"
    (corpus / "0_normal").mkdir(parents=True)
    csv = corpus / "0_normal" / "w.csv"
    csv.write_text(header + "\n" + "".join(f"{t},{t % 3}.5,{t * t}\n" for t in range(8)))
    out = tmp_path / "out"
    assert main(["qc", "--data", str(corpus), "--out", str(out),
                 "--points", str(tmp_path / "points.csv")]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {message.format(csv=csv)}\n"
    assert not list(out.glob("boxplot_*")) and not (out / "quality_report.json").exists()
    assert not (tmp_path / "points.csv").exists()


@pytest.mark.parametrize("name", ["a,b", 'a"b', "a\nb", "a\rb", " a", "a\t"],
                         ids=["comma", "quote", "lf", "cr", "leading-space",
                              "trailing-tab"])
def test_synth_channel_that_would_not_read_back_is_usage_error(tmp_path, capsys, name):
    # a comma used to write a header that the corpus's own reader refused
    config_path, out = small_synth_config(tmp_path)
    config = jsonio.load(config_path)
    for regime in config["data"]["synth"]["regimes"].values():
        regime[name] = {"start": 1.0}
    jsonio.dump(config, config_path)
    assert main(["synth", "--config", str(config_path)]) == EXIT_USAGE
    assert capsys.readouterr().err == ("usage error: config.data.synth: channel "
                                       f"{name!r} would not read back from a CSV "
                                       "header\n")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--config", "--from-f1"])
def test_deeply_nested_json_is_data_error_naming_it(tmp_path, capsys, flag):
    # json.load recurses once per nesting level
    bad = tmp_path / "nested.json"
    bad.write_text("[" * 100_000, encoding="utf-8")
    command = "pipeline" if flag == "--config" else "compare"
    capsys.readouterr()
    assert main([command, flag, str(bad), "--out", str(tmp_path / "o")]) == EXIT_DATA
    assert f"{bad}: invalid JSON: nested too deeply" in capsys.readouterr().err


def test_deep_tree_trains_and_evaluates(tmp_path):
    # 3,000 one-row instances of one channel whose two classes alternate
    # along its value: with max_depth null the tree is hundreds of levels
    # deep, which a nested dt.json could not be read back at
    corpus = tmp_path / "corpus"
    folders = [corpus / "0_normal", corpus / "1_rapid_loss"]
    for folder in folders:
        folder.mkdir(parents=True)
    for i in range(3_000):
        (folders[i % 2] / f"i{i:04d}.csv").write_text(
            f"timestamp,P-TPT,class\n1700000000,{i},{i % 2}\n", encoding="utf-8")
    config, out = tmp_path / "config.json", tmp_path / "out"
    jsonio.dump({"out_dir": str(out), "variables": ["P-TPT"], "models": ["dt"],
                 "data": {"root": str(corpus)},
                 "classifiers": {"tree": {"max_depth": None}}}, config)
    assert main(["train", "--config", str(config)]) == EXIT_OK
    assert main(["eval", "--config", str(config)]) == EXIT_OK
    assert load_model(out / "models" / "dt.json").depth() > 400
    assert (out / "eval_dt.json").exists()


def test_unknown_flag_is_usage_error():
    assert main(["pipeline", "--bogus"]) == EXIT_USAGE
    assert main(["pipeline", "--threads", "2"]) == EXIT_USAGE  # removed flag


@pytest.mark.parametrize("argv, data", [
    (["qc", "--models", "dt"], None),
    (["synth", "--data", "corpus"], None),
    (["synth", "--models", "dt"], None),
    (["synth", "--variables", "P-TPT"], None),
    (["compare", "--seed", "5"], None),
    (["compare", "--models", "dt"], None),
    (["compare", "--data", "corpus"], None),
    (["compare", "--variables", "P-TPT"], None),
    (["synth"], {"root": "corpus"}),  # what synth --data would set
], ids=["qc-models", "synth-data", "synth-models", "synth-variables", "compare-seed",
        "compare-models", "compare-data", "compare-variables", "synth-config-data-root"])
def test_a_setting_the_command_does_not_read_is_usage_error(tmp_path, capsys, argv,
                                                            data):
    # each used to be accepted, echoed to config.json and ignored
    config_path, _ = small_synth_config(tmp_path)
    if data is not None:
        jsonio.dump({"data": data}, config_path)
    f1_path = tmp_path / "f1.json"
    jsonio.dump({"a": [0.5, 0.6, 0.7], "b": [0.8, 0.9, 1.0]}, f1_path)
    inputs = ["--from-f1", str(f1_path)] if argv[0] == "compare" else []
    out = tmp_path / "never"
    assert main([*argv, *inputs, "--config", str(config_path),
                 "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["qc", "train", "eval", "pipeline"])
def test_seed_flag_over_a_directory_corpus_is_usage_error(tmp_path, capsys, command):
    # the seed draws only a synthetic corpus; over a directory it used to be
    # echoed to config.json and change no other byte
    config_path, corpus = small_synth_config(tmp_path, "corpus")
    assert main(["synth", "--config", str(config_path)]) == EXIT_OK
    root_config = tmp_path / "root.json"
    jsonio.dump({"seed": 5, "data": {"root": str(corpus)}}, root_config)
    out = tmp_path / "never"
    for source in (["--data", str(corpus)], ["--config", str(root_config)]):
        capsys.readouterr()
        assert main([command, *source, "--seed", "5", "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: --seed ")
        assert f"data.root names the corpus {str(corpus)!r}" in err
        assert not out.exists()
    # a config file's seed next to --data stays accepted, as before
    assert main(["qc", "--config", str(config_path), "--data", str(corpus),
                 "--out", str(out)]) == EXIT_OK


def test_pipeline_failure_names_stage_and_flags_partial_output(tmp_path, capsys):
    out = tmp_path / "broken"
    code = main(["pipeline", "--data", str(tmp_path / "missing_corpus"),
                 "--out", str(out)])
    assert code == EXIT_DATA
    assert "stage ingest failed" in capsys.readouterr().err
    assert (out / "INCOMPLETE").exists()
    # a later successful run over the same directory clears the flag
    config_path, _ = small_synth_config(tmp_path)
    assert main(["pipeline", "--config", str(config_path),
                 "--out", str(out)]) == EXIT_OK
    assert not (out / "INCOMPLETE").exists()

    # a model that cannot be fitted (k above the training rows) fails in train
    config = jsonio.load(config_path)
    config["classifiers"] = {"knn": {"k": 10_000}}
    jsonio.dump(config, config_path)
    capsys.readouterr()
    assert main(["pipeline", "--config", str(config_path),
                 "--out", str(out)]) == EXIT_DATA
    assert "stage train failed" in capsys.readouterr().err
    assert (out / "INCOMPLETE").read_text() == "pipeline aborted in stage train\n"


@pytest.mark.parametrize("error", [TypeError("bad model"), KeyboardInterrupt()],
                         ids=["TypeError", "KeyboardInterrupt"])
def test_pipeline_flags_partial_output_whatever_stops_it(tmp_path, monkeypatch,
                                                         error):
    config_path, out = small_synth_config(tmp_path)

    def fails(*args):
        raise error

    monkeypatch.setattr(cli, "_train_and_save", fails)
    with pytest.raises(type(error)):
        main(["pipeline", "--config", str(config_path)])
    assert (out / "INCOMPLETE").read_text() == "pipeline aborted in stage train\n"
    assert (out / "quality_report.json").exists()


def _unfittable_knn(config_path):
    """A copy of the config whose k-NN cannot be fitted (k above the rows)."""
    config = jsonio.load(config_path)
    config["classifiers"] = {"knn": {"k": 10_000}}
    path = config_path.with_name("unfittable.json")
    jsonio.dump(config, path)
    return path


def test_train_whose_fit_fails_flags_partial_output(tmp_path, capsys):
    config_path, out = small_synth_config(tmp_path)
    assert main(["train", "--config", str(_unfittable_knn(config_path))]) == EXIT_DATA
    assert "error: stage train failed: " in capsys.readouterr().err
    # the new preprocess.json is written before the fits
    assert (out / "models" / "preprocess.json").exists()
    assert (out / "INCOMPLETE").read_text() == "train aborted in stage train\n"


def _run_checking_the_corpus_is_freed(tmp_path, monkeypatch, command, module, name):
    """Run ``command`` with ``module.name`` hooked to check, when the command
    first hands it the matrix, that the instances flattened into it are dead."""
    config_path, _ = small_synth_config(tmp_path)
    assert main(["train", "--config", str(config_path)]) == EXIT_OK
    flatten, use, first, uses = hydet.dataset.flatten, getattr(module, name), [], []

    def flattened(instances, variables):
        first.append(weakref.ref(instances[0]))
        return flatten(instances, variables)

    def used_after_free(matrix, *args, **kwargs):
        assert first[0]() is None  # only the matrix holds the corpus's rows
        uses.append(name)
        return use(matrix, *args, **kwargs)

    monkeypatch.setattr(hydet.dataset, "flatten", flattened)
    monkeypatch.setattr(module, name, used_after_free)
    assert main([command, "--config", str(config_path)]) == EXIT_OK
    assert len(first) == len(uses) == 1


@pytest.mark.parametrize("command", ["train", "eval", "pipeline"])
def test_the_corpus_is_freed_before_split(tmp_path, monkeypatch, command):
    # the CLI splits the matrix it alone holds with the consuming split
    _run_checking_the_corpus_is_freed(tmp_path, monkeypatch, command,
                                      hydet.dataset.transform, "_split_in_place")


@pytest.mark.parametrize("command, readers", [
    ("train", ["fit_transform", "train_all"]),
    ("eval", ["_transform_owned"] + ["evaluate"] * 3),
    ("pipeline", ["fit_transform", "_transform_owned", "train_all"] + ["evaluate"] * 3),
])
def test_the_parts_past_the_split_carry_no_origin(tmp_path, monkeypatch, command,
                                                 readers):
    # no stage after the split traces a row to its episode
    config_path, _ = small_synth_config(tmp_path)
    assert main(["train", "--config", str(config_path)]) == EXIT_OK
    seen = []

    def hook(owner, name):
        use = getattr(owner, name)

        def read(*args, **kwargs):
            assert next(a for a in args if isinstance(a, FeatureMatrix)).origin is None
            seen.append(name)
            return use(*args, **kwargs)
        monkeypatch.setattr(owner, name, read)

    for owner, name in [(Preprocessor, "fit_transform"), (Preprocessor, "_transform_owned"),
                        (hydet.classifiers, "train_all"), (hydet.evaluation, "evaluate")]:
        hook(owner, name)
    assert main([command, "--config", str(config_path)]) == EXIT_OK
    assert seen == readers


def test_pipeline_frees_the_training_matrix_before_evaluate(tmp_path, monkeypatch):
    # the models are fitted and saved by then, and evaluate reads the test part
    config_path, _ = small_synth_config(tmp_path)
    train_all, evaluate = hydet.classifiers.train_all, hydet.evaluation.evaluate
    trained, evaluated = [], []

    def training(matrix, *args, **kwargs):
        trained.append(weakref.ref(matrix.values))
        return train_all(matrix, *args, **kwargs)

    def evaluating(*args, **kwargs):
        assert trained[0]() is None
        evaluated.append(args[0])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(hydet.classifiers, "train_all", training)
    monkeypatch.setattr(hydet.evaluation, "evaluate", evaluating)
    assert main(["pipeline", "--config", str(config_path)]) == EXIT_OK
    assert len(trained) == 1 and len(evaluated) == 3


def test_qc_frees_the_corpus_before_its_audit(tmp_path, monkeypatch):
    _run_checking_the_corpus_is_freed(tmp_path, monkeypatch, "qc",
                                      hydet.quality, "quality_report")


def test_pipeline_fails_a_missing_channel_at_ingest(tmp_path, capsys):
    # ingest is corpus to matrix in train, eval and pipeline alike
    config_path, out = small_synth_config(tmp_path)
    assert main(["pipeline", "--config", str(config_path),
                 "--variables", "P-TPT,NOPE"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: stage ingest failed: instance ")
    assert err.endswith(" lacks channel 'NOPE'\n")
    assert (out / "INCOMPLETE").read_text() == "pipeline aborted in stage ingest\n"
    assert not (out / "quality_report.json").exists()


def test_eval_over_a_malformed_model_flags_partial_output(tmp_path, capsys):
    bad, argv = _trained_then_broken(tmp_path, "dt.json", "params")
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    assert f"error: stage evaluate failed: {bad}" in capsys.readouterr().err
    assert (bad.parents[1] / "INCOMPLETE").read_text() == \
        "eval aborted in stage evaluate\n"


def test_eval_refuses_a_row_that_naive_bayes_scores_minus_inf_under_every_class(
        tmp_path, capsys):
    # variances at the smallest double send every squared term past the float
    # range, so no class wins row 0
    def tiny_variances(data):
        data["variances"] = [[5e-324] * len(row) for row in data["variances"]]

    _, argv = _trained_then_edited(tmp_path, "nb.json", tiny_variances)
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: stage evaluate failed: naive Bayes predict: row 0 "
                          "scores -inf under every class: ")
    assert (tmp_path / "out" / "INCOMPLETE").read_text() == \
        "eval aborted in stage evaluate\n"


def test_eval_refuses_the_output_of_a_failed_train(tmp_path, capsys):
    config_path, out = small_synth_config(tmp_path)
    assert main(["train", "--config", str(config_path)]) == EXIT_OK
    assert main(["train", "--config", str(_unfittable_knn(config_path))]) == EXIT_DATA
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main(["eval", "--config", str(config_path)]) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: {out / 'INCOMPLETE'} reads 'train aborted in stage train'; "
        "run train again\n")
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def test_eval_runs_again_over_its_own_marker(tmp_path):
    config_path, out = small_synth_config(tmp_path)
    assert main(["train", "--config", str(config_path)]) == EXIT_OK
    _drop_key(out / "models" / "dt.json", "params")
    assert main(["eval", "--config", str(config_path)]) == EXIT_DATA
    assert (out / "INCOMPLETE").read_text() == "eval aborted in stage evaluate\n"
    assert main(["eval", "--config", str(config_path), "--models", "knn,nb"]) == EXIT_OK
    assert not (out / "INCOMPLETE").exists()


def test_train_then_eval_clear_an_earlier_marker(tmp_path):
    config_path, out = small_synth_config(tmp_path)
    assert main(["pipeline", "--config", str(_unfittable_knn(config_path))]) == EXIT_DATA
    assert (out / "INCOMPLETE").exists()
    assert main(["train", "--config", str(config_path)]) == EXIT_OK
    assert main(["eval", "--config", str(config_path)]) == EXIT_OK
    assert not (out / "INCOMPLETE").exists()


def _drop_key(path, *keys):
    data = jsonio.load(path)
    parent = data
    for key in keys[:-1]:
        parent = parent[key]
    del parent[keys[-1]]
    jsonio.dump(data, path)
    return path


def _trained_then_edited(tmp_path, rel, edit, *texts):
    """Train the model of ``rel`` (dt for preprocess.json), then apply
    ``edit`` to the saved JSON of ``rel``."""
    name = "dt" if rel == "preprocess.json" else rel.removesuffix(".json")
    config_path, out = small_synth_config(tmp_path)
    assert main(["train", "--config", str(config_path), "--models", name]) == EXIT_OK
    bad = out / "models" / rel
    data = jsonio.load(bad)
    edit(data)
    jsonio.dump(data, bad)
    return bad, ["eval", "--config", str(config_path), "--models", name], *texts


def _trained_then_broken(tmp_path, rel, *keys):
    bad, argv = _trained_then_edited(tmp_path, rel, lambda data: None)
    return _drop_key(bad, *keys), argv


def _trained_with_params(tmp_path, name, **params):
    return _trained_then_edited(tmp_path, f"{name}.json",
                                lambda data: data["params"].update(params),
                                *(f"params.{key}" for key in params))


def _trained_dt_edited(tmp_path, edit):
    """``dt.json`` after ``edit``, which returns the texts to expect."""
    texts = []
    bad, argv = _trained_then_edited(tmp_path, "dt.json",
                                     lambda data: texts.extend(edit(data)))
    return bad, argv, *texts


def _root_right_moved(data):
    data["right"][0] += 1  # no longer where the root's left subtree ends
    return ["right[0]: "]


def _leaf_right_set(data):
    leaf = data["feature"].index(-1)
    data["right"][leaf] = 0
    return [f"right[{leaf}], threshold[{leaf}]: a leaf has -1 and 0.0"]


def _unreached_node_appended(data):
    for key, leaf in (("feature", -1), ("threshold", 0.0), ("right", -1),
                      ("counts", data["counts"][-1])):
        data[key].append(leaf)
    return [f"feature[{len(data['feature']) - 1}]: node {len(data['feature']) - 1} "
            f"is not reached from the root"]


def _nodes_emptied(data):
    for key in ("feature", "threshold", "right", "counts"):
        data[key] = []
    return ["feature: a tree needs at least one node"]


def _set(*keys, value):
    """An edit that sets the value at the key path ``keys``; a callable
    ``value`` is applied to the value there."""
    def edit(data):
        for key in keys[:-1]:
            data = data[key]
        data[keys[-1]] = value(data[keys[-1]]) if callable(value) else value
    return edit


def _one_ulp_down(number):
    return math.nextafter(number, 0.0)


def _config_file(tmp_path, text, *more_texts):
    bad = tmp_path / "config.json"
    bad.write_text(text, encoding="utf-8")
    return bad, ["qc", "--config", str(bad), "--out", str(tmp_path / "q")], *more_texts


def _f1_list(tmp_path):
    bad = tmp_path / "f1.json"
    jsonio.dump([[1.0, 0.9], [0.5, 0.4]], bad)
    return bad, ["compare", "--from-f1", str(bad), "--out", str(tmp_path / "c")]


def _f1_file(tmp_path, scores, text):
    bad = tmp_path / "f1.json"
    bad.write_text(json.dumps(scores))
    return bad, ["compare", "--from-f1", str(bad), "--out", str(tmp_path / "c")], text


def _truncated(path):
    text = path.read_text(encoding="utf-8")
    path.write_text(text[:len(text) // 2], encoding="utf-8")
    return path


def _truncated_f1_file(tmp_path):
    bad, argv, text = _f1_file(tmp_path, {"k-NN": [1.0, 0.9], "Naive Bayes": [0.5, 0.4]},
                               "invalid JSON")
    return _truncated(bad), argv, text


def _truncated_knn_model(tmp_path):
    config_path, out = small_synth_config(tmp_path)
    assert main(["train", "--config", str(config_path), "--models", "knn"]) == EXIT_OK
    return _truncated(out / "models" / "knn.json"), \
        ["eval", "--config", str(config_path), "--models", "knn"], "invalid JSON"


def _edited_report(tmp_path, edit, *texts):
    """Run the pipeline, apply ``edit`` to ``eval_nb.json`` and compare it
    with ``eval_dt.json``."""
    config_path, out = small_synth_config(tmp_path)
    assert main(["pipeline", "--config", str(config_path)]) == EXIT_OK
    bad = out / "eval_nb.json"
    data = jsonio.load(bad)
    edit(data)
    jsonio.dump(data, bad)
    return bad, ["compare", "--eval-reports", str(out / "eval_dt.json"), str(bad),
                 "--out", str(out)], *texts


@pytest.mark.parametrize("edit, message", [
    (_set("accuracy", value=3.0),
     "accuracy: 3.0 is not 0.8717948717948718, which matrix gives"),
    (_set("macro_f1", value=-0.25),
     "macro_f1: -0.25 is not 0.8646908646908646, which matrix gives"),
    (_set("per_class", "Hydrate", "f1", value=1.5),
     "per_class.Hydrate.f1: 1.5 is not 0.923076923076923, which matrix gives"),
    (_set("per_class", "NormalCondition", "recall", value=-1),
     "per_class.NormalCondition.recall: -1.0 is not 0.9523809523809523, "
     "which matrix gives"),
    (_set("matrix", 1, 2, value=-4), "matrix[1][2]: count -4 is negative"),
    (_set("matrix", value=[[0, 0, 0]] * 3), "matrix: every count is 0"),
    # inside [0, 1], but not what the grid gives
    (_set("per_class", "Hydrate", "f1", value=_one_ulp_down),
     "per_class.Hydrate.f1: 0.9230769230769229 is not 0.923076923076923, "
     "which matrix gives"),
    (_set("per_class", "NormalCondition", "precision", value=_one_ulp_down),
     "per_class.NormalCondition.precision: 0.8695652173913042 is not "
     "0.8695652173913043, which matrix gives"),
    (_set("accuracy", value=0.5),
     "accuracy: 0.5 is not 0.8717948717948718, which matrix gives"),
], ids=["accuracy-3", "macro-f1-negative", "f1-above-1", "recall-negative",
        "negative-count", "all-zero-grid", "f1-one-ulp-off", "precision-one-ulp-off",
        "accuracy-half"])
def test_compare_refuses_an_impossible_eval_report(tmp_path, capsys, edit, message):
    bad, argv = _edited_report(tmp_path, edit)
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


def _corpus_with_inf_cell(tmp_path):
    config_path, corpus = small_synth_config(tmp_path, out_name="corpus")
    assert main(["synth", "--config", str(config_path)]) == EXIT_OK
    bad = sorted((corpus / "1_rapid_loss").glob("*.csv"))[0]
    lines = bad.read_text(encoding="utf-8").split("\n")
    cells = lines[3].split(",")
    cells[2] = "inf"  # row 4, second channel
    lines[3] = ",".join(cells)
    bad.write_text("\n".join(lines), encoding="utf-8")
    return bad, ["pipeline", "--data", str(corpus), "--out", str(tmp_path / "out")], \
        "stage ingest failed", "row 4, column 'T-TPT': non-finite numeric cell 'inf'"


def _corpus_file_rewritten(tmp_path, raw, *texts):
    """A synthetic corpus whose first rapid-loss file holds ``raw``."""
    config_path, corpus = small_synth_config(tmp_path, out_name="corpus")
    assert main(["synth", "--config", str(config_path)]) == EXIT_OK
    bad = sorted((corpus / "1_rapid_loss").glob("*.csv"))[0]
    bad.write_bytes(raw)
    return bad, ["qc", "--data", str(corpus), "--out", str(tmp_path / "q")], *texts


def _eval_of_an_untrained_model(tmp_path):
    config_path, out = small_synth_config(tmp_path)
    assert main(["train", "--config", str(config_path), "--models", "dt"]) == EXIT_OK
    return out / "models", ["eval", "--config", str(config_path), "--models", "nb"], \
        "no model files found under"


@pytest.mark.parametrize("make_case", [
    lambda tmp: _trained_then_broken(tmp, "preprocess.json", "fences"),
    lambda tmp: _trained_then_broken(tmp, "dt.json", "params"),
    _f1_list,
    lambda tmp: _f1_file(tmp, {"k-NN": [1.0, 0.9], "Naive Bayes": [0.5, "x"]},
                         "Naive Bayes[1]: expected a number, got 'x'"),
    lambda tmp: _f1_file(tmp, {"k-NN": [1.0, 0.9], "Naive Bayes": []},
                         "model 'Naive Bayes'"),
    lambda tmp: _f1_file(tmp, {"k-NN": [1.0, float("nan")], "Naive Bayes": [0.5, 0.4]},
                         "k-NN[1]: expected a finite number, got nan"),
    lambda tmp: _f1_file(tmp, {"k-NN": [1.0, True], "Naive Bayes": [0.5, 0.4]},
                         "k-NN[1]: expected a number, got True"),
    # the one-pass read overflows and leaves the item-by-item read to name it
    lambda tmp: _f1_file(tmp, {"k-NN": [1.0, 10**400], "Naive Bayes": [0.5, 0.4]},
                         "k-NN[1]: expected a number, got 1000"),
    # two pairs spell one key "a vs b vs c"; neither may replace the other
    lambda tmp: _f1_file(tmp, dict.fromkeys(["a", "b vs c", "a vs b", "c"], [1.0, 0.5]),
                         "model pairs [('a', 'b vs c'), ('a vs b', 'c')] share the "
                         "key 'a vs b vs c'"),
    _truncated_f1_file,
    _truncated_knn_model,
    lambda tmp: _edited_report(tmp, lambda data: data.pop("per_class"),
                               "missing required keys ['per_class']"),
    lambda tmp: _edited_report(tmp, _set("per_class", "Hydrate", "f1", value="0.5"),
                               "per_class.Hydrate.f1: expected a number"),
    lambda tmp: _edited_report(tmp, _set("classes", 0, value="Bogus"),
                               "classes[0]: unknown class label name"),
    lambda tmp: _edited_report(
        tmp, lambda data: data["per_class"].pop("Hydrate"),
        "per_class: keys ['NormalCondition', 'RapidProductivityLoss'] do not match "
        "classes ['NormalCondition', 'RapidProductivityLoss', 'Hydrate']"),
    lambda tmp: _edited_report(tmp, lambda data: data["matrix"].pop(),
                               "matrix: expected 3 rows of 3 counts"),
    _corpus_with_inf_cell,
    lambda tmp: _trained_with_params(tmp, "knn", k="5"),
    lambda tmp: _trained_with_params(tmp, "knn", k=5.7),
    lambda tmp: _trained_with_params(tmp, "nb", eps_rel="1e-9"),
    lambda tmp: _trained_with_params(tmp, "dt", max_leaves=8),
    lambda tmp: (*_trained_then_broken(tmp, "dt.json", "params", "max_depth"),
                 "params.max_depth"),
    lambda tmp: _config_file(tmp, '{"seed": 1, "seed": 2}', "duplicate key 'seed'"),
    pytest.param(lambda tmp: _config_file(tmp, '{"seed": ' + "9" * 5000 + "}"),
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="no integer digit limit")),
    lambda tmp: _trained_then_edited(
        tmp, "preprocess.json", _set("normalizer", "center", 1, value="2"),
        "normalizer.center[1]: expected a number"),
    lambda tmp: _trained_then_edited(
        tmp, "preprocess.json", _set("fences", 0, "lower_fence", value="0"),
        "fences[0].lower_fence: expected a number"),
    lambda tmp: _trained_then_edited(
        tmp, "preprocess.json", _set("normalizer", "mode", value="bogus"),
        "normalizer: unknown normalization mode 'bogus'"),
    lambda tmp: _trained_then_edited(
        tmp, "preprocess.json", _set("imputer", "meens", value=[0.0] * 4),
        "unknown keys ['imputer.meens']"),
    lambda tmp: _trained_then_edited(
        tmp, "preprocess.json", _set("imputer", "columns", value="P-TPT"),
        "imputer.columns: expected a list, got 'P-TPT'"),
    lambda tmp: _trained_then_edited(
        tmp, "preprocess.json", lambda data: data.update(fences=data["fences"][:2]),
        "fences: 2 entries for 4 columns"),
    lambda tmp: _trained_then_edited(tmp, "dt.json", _set("feature", 0, value=7),
                                     "feature[0]: 7 is outside 0..3"),
    lambda tmp: _trained_then_edited(tmp, "dt.json", _set("feature", 0, value=1.9),
                                     "feature[0]: expected an integer, got 1.9"),
    lambda tmp: _trained_then_edited(
        tmp, "dt.json", _set("threshold", 0, value="0.5"),
        "threshold[0]: expected a number, got '0.5'"),
    lambda tmp: _trained_then_edited(
        tmp, "dt.json", _set("counts", 1, value=[5]),
        "counts[1]: 1 counts for 3 classes"),
    lambda tmp: _trained_dt_edited(tmp, _root_right_moved),
    lambda tmp: _trained_dt_edited(tmp, _leaf_right_set),
    lambda tmp: _trained_dt_edited(tmp, _unreached_node_appended),
    lambda tmp: _trained_dt_edited(tmp, _nodes_emptied),
    lambda tmp: _trained_then_edited(tmp, "nb.json", lambda data: data["priors"].pop(),
                                     "priors: 2 entries for 3 classes"),
    lambda tmp: _trained_then_edited(
        tmp, "nb.json", _set("variances", 0, 0, value="1"),
        "variances[0][0]: expected a number"),
    lambda tmp: _trained_then_edited(tmp, "nb.json", _set("classes", 0, value=0.7),
                                     "classes[0]: expected an integer, got 0.7"),
    lambda tmp: _trained_then_edited(tmp, "nb.json", _set("variances", 0, 0, value=-1.0),
                                     "variances: every variance must be > 0"),
    lambda tmp: _trained_then_edited(tmp, "knn.json", _set("classes", value=[9]),
                                     "classes: [9] are not the distinct labels"),
    lambda tmp: _trained_then_edited(tmp, "dt.json", _set("classes", value=[1, 0, 2]),
                                     "classes: [1, 0, 2] are not strictly ascending"),
    lambda tmp: _trained_then_edited(tmp, "nb.json", _set("classes", value=[0, 0, 2]),
                                     "classes: [0, 0, 2] are not strictly ascending"),
    lambda tmp: _trained_then_edited(tmp, "knn.json", _set("bogus", value=1),
                                     "unknown keys ['bogus']"),
    lambda tmp: _trained_then_edited(
        tmp, "nb.json", _set("means", 1, 2, value=float("nan")),
        "means[1][2]: expected a finite number, got nan"),
    lambda tmp: _trained_then_edited(
        tmp, "dt.json", _set("threshold", 0, value=float("nan")),
        "threshold[0]: expected a finite number, got nan"),
    lambda tmp: _trained_then_edited(
        tmp, "knn.json", _set("train", 0, 1, value=float("inf")),
        "train[0][1]: expected a finite number, got inf"),
    lambda tmp: _trained_then_edited(
        tmp, "preprocess.json", _set("normalizer", "center", 0, value=float("nan")),
        "normalizer.center[0]: expected a finite number, got nan"),
    lambda tmp: _corpus_file_rewritten(tmp, b"timestamp,P-TPT,class\n1,\xff,1\n",
                                       "not valid UTF-8"),
    lambda tmp: _corpus_file_rewritten(tmp, b"timestamp,class\n1,1\n",
                                       "no sensor variable columns in header"),
    _eval_of_an_untrained_model,
    lambda tmp: _trained_then_edited(tmp, "dt.json", _set("format", value="hydet-report"),
                                     "not a model file"),
    lambda tmp: _trained_then_edited(tmp, "knn.json", _set("params", "k", value=10_000),
                                     "malformed knn model", "k=10000 exceeds"),
    lambda tmp: _trained_then_edited(
        tmp, "preprocess.json", lambda data: data["normalizer"]["columns"].reverse(),
        "differ from imputer.columns"),
], ids=["preprocess-without-fences", "model-without-params", "from-f1-list",
        "from-f1-non-numeric", "from-f1-empty-list", "from-f1-nan-score",
        "from-f1-boolean", "from-f1-beyond-float-range", "from-f1-pair-key-collision",
        "from-f1-truncated",
        "knn-model-truncated", "eval-report-without-per-class",
        "eval-report-f1-string",
        "eval-report-unknown-class", "eval-report-per-class-mismatch",
        "eval-report-short-matrix", "corpus-with-inf-cell",
        "knn-model-k-string", "knn-model-k-float", "nb-model-eps-rel-string",
        "dt-model-unknown-param", "dt-model-without-max-depth",
        "config-duplicate-key", "config-5000-digit-int",
        "preprocess-center-string", "preprocess-fence-string",
        "preprocess-mode-bogus", "preprocess-unknown-imputer-key",
        "preprocess-columns-string", "preprocess-two-fence-sets",
        "dt-feature-out-of-range", "dt-feature-float", "dt-threshold-string",
        "dt-leaf-short-counts", "dt-right-not-left-subtree-end",
        "dt-leaf-right-not-minus-one", "dt-unreached-trailing-node", "dt-empty-lists",
        "nb-priors-short", "nb-variance-string",
        "nb-class-float", "nb-variance-negative", "knn-classes-not-labels",
        "dt-classes-reordered", "nb-classes-repeated",
        "knn-unknown-key", "nb-means-nan", "dt-threshold-nan", "knn-x-infinity",
        "preprocess-center-nan", "corpus-not-utf8", "corpus-header-without-channels",
        "eval-of-an-untrained-model", "dt-not-a-model-file", "knn-k-beyond-rows",
        "preprocess-normalizer-columns-differ"])
def test_malformed_input_file_is_data_error_naming_it(tmp_path, capsys, make_case):
    bad, argv, *more_texts = make_case(tmp_path)
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    for text in (str(bad), *more_texts):
        assert text in err


def test_config_file_unknown_key_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mystery": 1}))
    assert main(["qc", "--config", str(bad)]) == EXIT_USAGE


@pytest.mark.parametrize("data, message", [
    ({"root": "corpus", "synth": to_json(default_config())},
     "config.data: give either root or synth, not both"),
    (5, "config.data: expected an object, got 5"),
    ({"rot": "corpus"}, "unknown keys ['config.data.rot']"),
], ids=["root-and-synth", "not-an-object", "unknown-key"])
def test_bad_data_section_is_usage_error(tmp_path, capsys, data, message):
    path = tmp_path / "config.json"
    jsonio.dump({"data": data}, path)
    out = tmp_path / "never"
    assert main(["pipeline", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


def test_pipeline_without_data_source_fails_at_ingest(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["pipeline", "--out", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == ("error: stage ingest failed: config needs a "
                                       "data source: data.root or data.synth\n")
    assert (out / "INCOMPLETE").read_text() == "pipeline aborted in stage ingest\n"


def test_train_without_data_source_fails_at_ingest(tmp_path, capsys):
    # a configuration error found once a stage has begun exits 2, as in pipeline
    out = tmp_path / "out"
    assert main(["train", "--out", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == ("error: stage ingest failed: config needs a "
                                       "data source: data.root or data.synth\n")
    assert (out / "INCOMPLETE").read_text() == "train aborted in stage ingest\n"


def test_config_echo_lists_only_the_data_source_set(tmp_path):
    config_path, corpus = small_synth_config(tmp_path, out_name="corpus")
    assert main(["synth", "--config", str(config_path)]) == EXIT_OK
    out = tmp_path / "out"
    assert main(["pipeline", "--data", str(corpus), "--out", str(out)]) == EXIT_OK
    f1_path = tmp_path / "f1.json"
    jsonio.dump({"a": [0.5, 0.6, 0.7], "b": [0.8, 0.9, 1.0]}, f1_path)
    compared = tmp_path / "compared"
    assert main(["compare", "--from-f1", str(f1_path), "--out", str(compared)]) \
        == EXIT_OK

    def data(root):
        return jsonio.load(root / "config.json")["data"]

    assert data(corpus) == {"synth": jsonio.load(config_path)["data"]["synth"]}
    assert data(out) == {"root": str(corpus)}
    assert data(compared) == {}


def _regime_without_start(config):
    del config["data"]["synth"]["regimes"]["Hydrate"]["P-TPT"]["start"]


@pytest.mark.parametrize("edit, key_path", [
    (lambda c: c.update(split=5), "config.split"),
    (_regime_without_start, "config.data.synth.regimes.Hydrate.P-TPT"),
    (lambda c: c["split"].update(test_fraction=1.5), "config.split: test_fraction"),
    (lambda c: c.update(classifiers={"knn": {"k": 0}}), "config.classifiers.knn: k"),
    (lambda c: c.update(classifiers={"tree": {"max_depth": -1}}),
     "config.classifiers.tree: max_depth"),
    (lambda c: c.update(classifiers={"nb": {"eps_rel": 0}}),
     "config.classifiers.nb: eps_rel"),
    (lambda c: c["data"]["synth"].update(length="x"), "config.data.synth.length"),
    (lambda c: c["data"]["synth"]["counts"].update(Slugging=3),
     "config.data.synth.counts"),
    (lambda c: c["split"].update(stratified="false"), "config.split.stratified"),
    (lambda c: c.update(seed="42"), "config.seed"),
    (lambda c: c.update(seed=4.7), "config.seed"),
    (lambda c: c.update(variables="P-TPT"), "config.variables"),
    (lambda c: c.update(stats={"alpha": 10**400}), "config.stats.alpha"),
    (lambda c: c.update(classifiers={"tree": {"min_impurity_decrease": float("nan")}}),
     "config.classifiers.tree.min_impurity_decrease: expected a finite number"),
    (lambda c: c.update(threads=1), "unknown keys ['config.threads']"),
    (lambda c: c["data"]["synth"].update(epoch_start=2**63 - 11),
     "config.data.synth: epoch_start and the length must keep every timestamp"),
    (lambda c: c["data"]["synth"].update(epoch_start=-2**63 - 1),
     "config.data.synth: epoch_start and the length must keep every timestamp"),
    (lambda c: c.update(preprocess={"tukey_multiplier": 0}),
     "config.preprocess: tukey_multiplier must be > 0"),
    (lambda c: c.update(preprocess={"quartile_method": "median"}),
     "config.preprocess: unknown quartile_method 'median'"),
    (lambda c: c.update(preprocess={"normalization": "l2"}),
     "config.preprocess: unknown normalization 'l2'"),
    (lambda c: c.update(classifiers={"tree": {"min_samples_split": 1}}),
     "config.classifiers.tree: min_samples_split must be >= 2"),
    (lambda c: c.update(classifiers={"tree": {"min_impurity_decrease": -0.1}}),
     "config.classifiers.tree: min_impurity_decrease must be >= 0"),
    (lambda c: c.update(models=[]), "config: models list is empty"),
    (lambda c: c["data"]["synth"]["counts"].update(Hydrate=-1),
     "config.data.synth: instance counts must be >= 0"),
    (lambda c: c["data"]["synth"].update(length=0),
     "config.data.synth: length must be >= 1"),
    (lambda c: c["data"]["synth"]["regimes"].pop("Hydrate"),
     "config.data.synth: no regime configured for class Hydrate"),
    (lambda c: c["data"]["synth"]["regimes"]["Hydrate"].pop("T-TPT"),
     "config.data.synth: regime Hydrate lacks channels ['T-TPT']"),
    (lambda c: c["data"]["synth"]["regimes"]["Hydrate"]["P-TPT"].update(clamp=[1.0]),
     "config.data.synth.regimes.Hydrate.P-TPT.clamp: expected 2 items"),
], ids=["split-not-object", "channel-without-start", "test-fraction-1.5",
        "knn-k-0", "tree-max-depth-negative", "nb-eps-rel-0", "length-string",
        "unknown-class-name", "stratified-string", "seed-string", "seed-float",
        "variables-string", "alpha-beyond-float-range",
        "tree-min-impurity-decrease-nan", "threads-removed",
        "epoch-start-past-int64", "epoch-start-below-int64",
        "tukey-multiplier-0", "quartile-method-unknown", "normalization-unknown",
        "tree-min-samples-split-1", "tree-min-impurity-decrease-negative",
        "models-empty", "count-negative", "length-0", "class-without-regime",
        "regime-without-channel", "clamp-one-item"])
def test_bad_config_value_is_usage_error_naming_its_key(tmp_path, capsys, edit,
                                                         key_path):
    path, _ = small_synth_config(tmp_path)
    config = jsonio.load(path)
    config["data"]["synth"]["regimes"] = to_json(default_config().regimes)
    edit(config)
    jsonio.dump(config, path)
    out = tmp_path / "never"
    assert main(["pipeline", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
    assert key_path in capsys.readouterr().err
    assert not out.exists()


def _outliers_past_unfrozen_cells(synth):
    synth.update(frozen_fraction=0.9, outlier_fractions={"P-TPT": 0.5})


def _missing_past_undamaged_cells(synth):
    synth.update(missing_fraction=0.9,
                 outlier_fractions=dict.fromkeys(CANONICAL_VARIABLE_NAMES, 0.5))


@pytest.mark.parametrize("edit, message", [
    (_outliers_past_unfrozen_cells,
     "channel 'P-TPT': outlier fraction 0.5 leaves too few unfrozen cells"),
    (_missing_past_undamaged_cells, "missing_fraction leaves too few undamaged cells"),
], ids=["outliers-past-unfrozen", "missing-past-undamaged"])
def test_synth_fractions_that_leave_too_few_cells_are_usage_errors(tmp_path, capsys,
                                                                   edit, message):
    # each fraction is in [0, 1) alone; only generation finds them incompatible
    path, out = small_synth_config(tmp_path)
    config = jsonio.load(path)
    edit(config["data"]["synth"])
    jsonio.dump(config, path)
    assert main(["synth", "--config", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


def _packages_loaded_by(script):
    """The top-level packages in ``sys.modules`` after ``script`` runs in a
    fresh interpreter with this checkout's hydet importable."""
    script += ("\nimport json, sys"
               "\nprint(json.dumps(sorted({m.split('.')[0] for m in sys.modules})))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    return set(json.loads(run.stdout.splitlines()[-1]))


def test_pipeline_never_imports_scipy(tmp_path):
    # scipy is an optional test cross-check, never a runtime dependency
    cfg, _ = small_synth_config(tmp_path)
    assert "scipy" not in _packages_loaded_by(
        "from hydet.cli import main\n"
        f"assert main(['pipeline', '--config', {str(cfg)!r}]) == 0")


def test_import_hydet_loads_no_numpy():
    assert "numpy" not in _packages_loaded_by("import hydet")


def test_compare_loads_no_numpy(tmp_path):
    # the comparison layer is plain Python, for either kind of input
    config, out = small_synth_config(tmp_path)
    assert main(["pipeline", "--config", str(config)]) == EXIT_OK
    f1 = tmp_path / "f1.json"
    jsonio.dump({"a": [1.0, 0.5, 0.25], "b": [0.5, 0.5, 0.0]}, f1)
    reports = sorted(str(p) for p in out.glob("eval_*.json"))
    for inputs in (["--from-f1", str(f1)], ["--eval-reports", *reports]):
        argv = ["compare", *inputs, "--out", str(tmp_path / "cmp")]
        assert "numpy" not in _packages_loaded_by(
            f"from hydet.cli import main\nassert main({argv!r}) == 0"), inputs
    assert (tmp_path / "cmp" / "comparison.json").read_bytes() == \
        (out / "comparison.json").read_bytes()


#: every public name of ``hydet`` when its ``__init__`` imported each layer
#: eagerly, the submodules included, less ``ConfusionMatrix``, ``accuracy`` and
#: ``f1_per_class``, which went when ``EvalReport`` became the one holder of a
#: confusion matrix
_HYDET_NAMES = (
    "BoxplotStats CANONICAL_VARIABLES CANONICAL_VARIABLE_NAMES ClassLabel ClassMetrics "
    "ClassifiersConfig ComparisonTable DataConfig DatasetManifest "
    "DecisionTree EvalReport FeatureMatrix Fences GaussianNb ImputationModel "
    "KnnClassifier KsResult MwuResult NormalizationModel PreprocessConfig Preprocessor "
    "QualityReport RunConfig SensorVariable SplitSpec SynthConfig TestConfig "
    "TimeSeriesInstance apply_imputer apply_normalizer boxplot_stats "
    "build_manifest classifiers codec compare_models config confusion dataset "
    "default_config errors evaluate evaluation "
    "fit_boxplots fit_imputer fit_normalizer flatten jsonio "
    "ks_two_sample load_instance_csv load_model load_preprocessor mwu_two_sample "
    "quality quality_report rng save_model save_preprocessor split stats "
    "synth_generate train_all treat_outliers write_instance_csv").split()


def test_hydet_exports_every_name_it_did():
    import hydet
    for name in _HYDET_NAMES:
        getattr(hydet, name)
    namespace = {}
    exec("from hydet import *", namespace)
    assert set(_HYDET_NAMES) <= namespace.keys()
    assert set(_HYDET_NAMES) <= set(dir(hydet))
    assert hydet.ClassLabel is ClassLabel and hydet.stats.TestConfig is TestConfig
    with pytest.raises(AttributeError):
        hydet.no_such_name
