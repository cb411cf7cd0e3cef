import json

import numpy as np
import pytest

from hydet import jsonio
from hydet.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from hydet.config import RunConfig
from hydet.dataset.synth import config_to_json, default_config
from hydet.errors import ConfigError


def small_synth_config(tmp_path, out_name="out", **synth_kwargs):
    synth = default_config(n_normal=14, n_rapid_loss=8, n_hydrate=4, length=12,
                           **synth_kwargs)
    config = {
        "seed": 11,
        "out_dir": str(tmp_path / out_name),
        "data": {"synth": config_to_json(synth)},
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
    config = RunConfig(seed=9, models=("dt", "nb"), threads=2,
                       data_root="somewhere")
    back = RunConfig.from_json_dict(config.to_json_dict())
    assert back == config


def test_run_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        RunConfig.from_json_dict({"seeed": 1})
    with pytest.raises(ConfigError):
        RunConfig.from_json_dict({"split": {"fraction": 0.5}})
    with pytest.raises(ConfigError):
        RunConfig.from_json_dict({"classifiers": {"svm": {}}})


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(models=("dt", "boost"))
    with pytest.raises(ConfigError):
        RunConfig(threads=0)
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


def test_qc_missing_dataset_is_data_error(tmp_path):
    assert main(["qc", "--data", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "o")]) == EXIT_DATA


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


def test_compare_single_model_usage_error(tmp_path):
    f1_path = tmp_path / "f1.json"
    jsonio.dump({"only-model": [1.0, 1.0, 1.0]}, f1_path)
    assert main(["compare", "--from-f1", str(f1_path),
                 "--out", str(tmp_path / "x")]) == EXIT_USAGE


def test_unknown_flag_is_usage_error():
    assert main(["pipeline", "--bogus"]) == EXIT_USAGE


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


def _drop_key(path, key):
    data = jsonio.load(path)
    del data[key]
    jsonio.dump(data, path)
    return path


def _trained_then_broken(tmp_path, rel, key):
    config_path, out = small_synth_config(tmp_path)
    assert main(["train", "--config", str(config_path), "--models", "dt"]) == EXIT_OK
    bad = _drop_key(out / "models" / rel, key)
    return bad, ["eval", "--config", str(config_path), "--models", "dt"]


def _f1_list(tmp_path):
    bad = tmp_path / "f1.json"
    jsonio.dump([[1.0, 0.9], [0.5, 0.4]], bad)
    return bad, ["compare", "--from-f1", str(bad), "--out", str(tmp_path / "c")]


def _f1_file(tmp_path, scores, model):
    bad = tmp_path / "f1.json"
    bad.write_text(json.dumps(scores))
    return bad, ["compare", "--from-f1", str(bad), "--out", str(tmp_path / "c")], \
        f"model {model!r}"


def _report_without_per_class(tmp_path):
    config_path, out = small_synth_config(tmp_path)
    assert main(["pipeline", "--config", str(config_path)]) == EXIT_OK
    bad = _drop_key(out / "eval_nb.json", "per_class")
    return bad, ["compare", "--eval-reports", str(out / "eval_dt.json"), str(bad),
                 "--out", str(out)]


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


@pytest.mark.parametrize("make_case", [
    lambda tmp: _trained_then_broken(tmp, "preprocess.json", "fences"),
    lambda tmp: _trained_then_broken(tmp, "dt.json", "params"),
    _f1_list,
    lambda tmp: _f1_file(tmp, {"k-NN": [1.0, 0.9], "Naive Bayes": [0.5, "x"]},
                         "Naive Bayes"),
    lambda tmp: _f1_file(tmp, {"k-NN": [1.0, 0.9], "Naive Bayes": []}, "Naive Bayes"),
    lambda tmp: _f1_file(tmp, {"k-NN": [1.0, float("nan")], "Naive Bayes": [0.5, 0.4]},
                         "k-NN"),
    lambda tmp: _f1_file(tmp, {"k-NN": [1.0, True], "Naive Bayes": [0.5, 0.4]}, "k-NN"),
    _report_without_per_class,
    _corpus_with_inf_cell,
], ids=["preprocess-without-fences", "model-without-params", "from-f1-list",
        "from-f1-non-numeric", "from-f1-empty-list", "from-f1-nan-score",
        "from-f1-boolean", "eval-report-without-per-class", "corpus-with-inf-cell"])
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
