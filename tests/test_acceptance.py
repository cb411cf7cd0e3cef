"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with `pytest -s tests/test_acceptance.py`) and
enforcing its runtime budget."""

import json
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hydet import jsonio
from hydet.classifiers import (ClassifiersConfig, DecisionTree, GaussianNb,
                               KnnClassifier, payload, train_all)
from hydet.cli import EXIT_OK, main
from hydet.dataset import (ClassLabel, SplitSpec, build_manifest, default_config,
                           flatten, load_instances, qc_probe_config, split,
                           synth_generate)
from hydet.dataset.model import CANONICAL_VARIABLE_NAMES
from hydet.codec import to_json
from hydet.evaluation import ConfusionMatrix, accuracy, evaluate, f1_per_class
from hydet.quality import Preprocessor, quality_report
from hydet.stats import TestConfig, compare_models, ks_two_sample, mwu_two_sample
from oracles import ks_exact_p, mwu_exact_p, tree_replay

REF_CLASS_ORDER = (ClassLabel.HYDRATE, ClassLabel.RAPID_LOSS, ClassLabel.NORMAL)
REFERENCE_MATRICES = {
    "Decision Tree": [[67926, 0, 0], [0, 298608, 24], [0, 25, 397209]],
    "k-NN": [[67896, 0, 30], [0, 297682, 950], [85, 1088, 396061]],
    "Naive Bayes": [[1244, 32462, 34220], [0, 298632, 0], [329, 396402, 503]],
}


@contextmanager
def criterion(name: str, budget_seconds: float):
    """Prints the per-criterion verdict line (run with `pytest -s` to see
    them live) and enforces the runtime budget."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL  {name}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS  {name}  ({elapsed:.2f}s)", flush=True)
    assert elapsed < budget_seconds, f"{name}: {elapsed:.1f}s over budget"


# ---------------------------------------------------------------------------
# 1. metric-math oracle


def test_metric_math_oracle_reference_matrices():
    with criterion("metric math reproduces reference results", 1.0):
        matrices = {name: ConfusionMatrix(classes=REF_CLASS_ORDER,
                                          counts=np.array(grid))
                    for name, grid in REFERENCE_MATRICES.items()}

        accs = {name: accuracy(m) for name, m in matrices.items()}
        # displayed accuracies (references truncate at 3 decimals)
        assert math.floor(accs["Decision Tree"] * 1000) / 1000 == 0.999
        assert math.floor(accs["k-NN"] * 1000) / 1000 == 0.997
        assert math.floor(accs["Naive Bayes"] * 1000) / 1000 == 0.393
        # full precision against independently recomputed trace/total; the
        # k-NN matrix arithmetic gives exactly 761639/763792 = 0.99718
        for name, m in matrices.items():
            trace = sum(int(m.counts[i, i]) for i in range(3))
            assert accs[name] == pytest.approx(trace / m.total, abs=1e-12)
        assert accs["Decision Tree"] == pytest.approx(0.99994, abs=5e-6)
        assert accs["Naive Bayes"] == pytest.approx(0.39327, abs=5e-6)
        assert accs["k-NN"] == pytest.approx(761639 / 763792, abs=1e-12)

        # printed per-class F1 columns (rounded at 2 decimals)
        for name, expected in (("Decision Tree", (1.00, 1.00, 1.00)),
                               ("k-NN", (1.00, 1.00, 1.00)),
                               ("Naive Bayes", (0.04, 0.58, 0.00))):
            metrics = f1_per_class(matrices[name])
            got = tuple(round(metrics[c].f1, 2) for c in REF_CLASS_ORDER)
            assert got == expected, f"{name}: {got} != {expected}"


# ---------------------------------------------------------------------------
# 2. statistics oracle


def test_statistics_oracle_reference_results():
    with criterion("pairwise tests reproduce reference results", 1.0):
        vectors = {"Decision Tree": [1.0, 1.0, 1.0],
                   "k-NN": [1.0, 1.0, 1.0],
                   "Naive Bayes": [0.04, 0.58, 0.00]}
        table = compare_models(vectors)
        expected = {
            "Decision Tree vs k-NN": (0.00, 1.000, 4.5, 1.000),
            "Decision Tree vs Naive Bayes": (1.00, 0.100, 9.0, 0.064),
            "k-NN vs Naive Bayes": (1.00, 0.100, 9.0, 0.064),
        }
        assert list(table.pairs) == list(expected)
        for name, pc in table.pairs.items():
            ks_d, ks_p, u, u_p = expected[name]
            assert round(pc.ks_stat, 2) == ks_d
            assert round(pc.ks_p, 3) == ks_p
            assert pc.u_stat == u
            assert round(pc.u_p, 3) == u_p

        # exact MWU on the unequal pairs: enumeration gives 2/20
        exact = mwu_two_sample(vectors["Decision Tree"], vectors["Naive Bayes"],
                               TestConfig(method="exact"))
        assert exact.p_value == pytest.approx(0.100, abs=1e-12)
        assert exact.p_value == pytest.approx(
            float(mwu_exact_p(vectors["Decision Tree"], vectors["Naive Bayes"])),
            abs=1e-12)


# ---------------------------------------------------------------------------
# 3. exact-test enumeration equivalence


def test_exact_enumeration_equivalence_200_pairs():
    with criterion("exact KS/MWU equal brute-force enumeration (200 pairs)", 60.0):
        rng = np.random.default_rng(2718)
        cfg = TestConfig(method="exact")
        checked = 0
        while checked < 200:
            n1 = int(rng.integers(1, 7))
            n2 = int(rng.integers(1, 7))
            if n1 + n2 > 12:
                continue
            # draw from a small grid so ties are common
            a = (rng.integers(0, 5, n1) * 0.25).tolist()
            b = (rng.integers(0, 5, n2) * 0.25).tolist()
            ks = ks_two_sample(a, b, cfg)
            assert ks.method_used == "exact"
            assert ks.p_value == float(ks_exact_p(a, b))
            mwu = mwu_two_sample(a, b, cfg)
            assert mwu.p_value == float(mwu_exact_p(a, b))
            checked += 1


# ---------------------------------------------------------------------------
# 4. QC ground-truth recovery


def test_qc_ground_truth_recovery():
    with criterion("quality audit recovers injected corruption", 30.0):
        n_inst, length = 120, 50
        fractions = {"P-TPT": 0.1347, "T-TPT": 0.0901,
                     "P-MON-CKP": 0.0, "T-JUS-CKP": 0.0636}
        cfg = qc_probe_config(n_instances=n_inst, length=length,
                              missing_fraction=0.2418, frozen_fraction=0.0994,
                              outlier_fractions=fractions)
        instances = synth_generate(cfg, 424242)
        matrix = flatten(instances, CANONICAL_VARIABLE_NAMES)
        report = quality_report(instances, matrix)

        cells = n_inst * 4 * length
        n_channel_cells = n_inst * length
        missing = sum(c.n_missing for c in report.channels)
        assert abs(missing - 0.2418 * cells) <= 1
        assert report.overall_missing_pct == pytest.approx(
            24.18, abs=100.0 / cells + 1e-9)

        frozen = sum(c.n_frozen_instance_channels for c in report.channels)
        assert abs(frozen - 0.0994 * n_inst * 4) <= 1
        assert report.overall_frozen_pct == pytest.approx(
            9.94, abs=100.0 / (n_inst * 4) + 1e-9)

        for ch in report.channels:
            want = fractions[ch.name]
            assert abs(ch.boxplot.n_outliers - want * n_channel_cells) <= 1, ch.name
            assert ch.outlier_pct == pytest.approx(
                100.0 * want, abs=100.0 / n_channel_cells + 1e-9)


# ---------------------------------------------------------------------------
# 5. classifier oracles


def test_classifier_oracles():
    with criterion("classifier predictions equal independent oracles", 60.0):
        rng = np.random.default_rng(314159)
        Xtr = rng.normal(size=(500, 4))
        ytr = rng.integers(0, 3, size=500)
        Xte = rng.normal(size=(200, 4))
        Xte[:20] = Xtr[:20]  # exact-distance ties

        # k-NN vs exhaustive all-pairs search
        knn = KnnClassifier(k=5).fit(Xtr, ytr)
        predicted = knn.predict(Xte)
        for i, q in enumerate(Xte):
            d = sorted((float(sum((q[j] - t[j]) ** 2 for j in range(4))), idx)
                       for idx, t in enumerate(Xtr))
            nbrs = d[:5]
            counts = np.bincount([ytr[idx] for _, idx in nbrs], minlength=3)
            top = counts.max()
            tied = [c for c in range(3) if counts[c] == top]
            if len(tied) == 1:
                want = tied[0]
            else:
                nearest = {c: next(dd for dd, idx in nbrs if ytr[idx] == c)
                           for c in tied}
                best = min(nearest.values())
                want = min(c for c in tied if nearest[c] == best)
            assert predicted[i] == want, f"query {i}"

        # decision tree vs independent root-to-leaf replay
        tree = DecisionTree(max_depth=12).fit(Xtr, ytr)
        exported = json.loads(jsonio.dumps(to_json(payload(tree))))
        tree_pred = tree.predict(Xte)
        for i, q in enumerate(Xte):
            assert tree_pred[i] == tree.classes_[tree_replay(exported, q)]

        # NB log-scores vs direct formula evaluation
        nb = GaussianNb().fit(Xtr, ytr)
        scores = nb.predict_scores(Xte)
        for i, q in enumerate(Xte):
            for ci in range(3):
                want = math.log(nb.priors_[ci])
                for j in range(4):
                    var = nb.variances_[ci, j]
                    want += -0.5 * math.log(2.0 * math.pi * var)
                    want += -((q[j] - nb.means_[ci, j]) ** 2) / (2.0 * var)
                assert scores[i, ci] == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# 6. qualitative classifier ordering at desk scale


def test_qualitative_classifier_ordering():
    with criterion("qualitative classifier ordering on default corpus", 300.0):
        cfg = default_config()  # 597:344:84 instances, length 60 -> 61,500 rows
        instances = synth_generate(cfg, 42)
        matrix = flatten(instances, CANONICAL_VARIABLE_NAMES)
        assert matrix.n_rows >= 50_000
        counts = np.bincount(matrix.labels, minlength=3)
        assert counts[0] // 597 == counts[1] // 344 == counts[2] // 84
        train, test = split(matrix, SplitSpec())
        prep = Preprocessor.fit(train)
        train, test = prep.transform(train), prep.transform(test)
        result = train_all(train, ClassifiersConfig())
        reports = {name: evaluate(model, test, name)
                   for name, model in result.items()}
        acc = {name: r.accuracy for name, r in reports.items()}
        hyd_f1 = {name: r.per_class[ClassLabel.HYDRATE].f1
                  for name, r in reports.items()}

        assert acc["dt"] >= 0.99, acc
        assert acc["knn"] >= 0.99, acc
        assert hyd_f1["dt"] >= 0.95, hyd_f1
        assert hyd_f1["knn"] >= 0.95, hyd_f1
        assert acc["dt"] - acc["nb"] >= 0.05, acc
        assert acc["knn"] - acc["nb"] >= 0.05, acc
        assert hyd_f1["nb"] < hyd_f1["dt"] and hyd_f1["nb"] < hyd_f1["knn"], hyd_f1


# ---------------------------------------------------------------------------
# 7. pipeline determinism


def _pipeline_config(tmp_path, out_name):
    synth = default_config(n_normal=20, n_rapid_loss=12, n_hydrate=6, length=15,
                           missing_fraction=0.05)
    config = {
        "seed": 7,
        "out_dir": str(tmp_path / out_name),
        "data": {"synth": to_json(synth)},
    }
    path = tmp_path / f"{out_name}.json"
    jsonio.dump(config, path)
    return path, tmp_path / out_name


def _read_tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_pipeline_determinism(tmp_path):
    """A rerun repeats every output byte, and so does a run on the same
    corpus written to disk by ``hydet synth`` and read back with ``--data``."""
    with criterion("pipeline reruns are byte-identical", 120.0):
        cfg1, out1 = _pipeline_config(tmp_path, "run1")
        cfg2, out2 = _pipeline_config(tmp_path, "run2")
        cfg3, out3 = _pipeline_config(tmp_path, "run3")
        corpus = tmp_path / "corpus"
        assert main(["pipeline", "--config", str(cfg1)]) == EXIT_OK
        assert main(["pipeline", "--config", str(cfg2)]) == EXIT_OK
        assert main(["synth", "--config", str(cfg3), "--out", str(corpus)]) == EXIT_OK
        assert main(["pipeline", "--config", str(cfg3),
                     "--data", str(corpus)]) == EXIT_OK

        t1, t2, t3 = _read_tree(out1), _read_tree(out2), _read_tree(out3)
        assert set(t1) == set(t2) == set(t3)
        for rel in t1:
            if rel == "config.json":
                continue  # echoes the differing out_dir and data source by design
            assert t1[rel] == t2[rel], f"rerun differs: {rel}"
            assert t1[rel] == t3[rel], f"synth -> CSV -> ingest run differs: {rel}"


# ---------------------------------------------------------------------------
# 8. optional real-corpus check


REAL_ROOT = os.environ.get("HYDET_3W_ROOT", "")


@pytest.mark.skipif(not REAL_ROOT, reason="HYDET_3W_ROOT not set; real-corpus "
                                          "check is optional")
def test_real_corpus_missingness_and_accuracy():
    with criterion("real 3W corpus: missingness and DT/k-NN accuracy", 1800.0):
        manifest = build_manifest(REAL_ROOT)
        assert dict(manifest.class_counts) == {ClassLabel.NORMAL: 597,
                                               ClassLabel.RAPID_LOSS: 344,
                                               ClassLabel.HYDRATE: 84}
        instances = load_instances(REAL_ROOT, manifest)
        matrix = flatten(instances, CANONICAL_VARIABLE_NAMES)
        report = quality_report(instances, matrix)
        assert report.overall_missing_pct == pytest.approx(24.18, abs=0.5)

        train, test = split(matrix, SplitSpec())
        prep = Preprocessor.fit(train)
        train, test = prep.transform(train), prep.transform(test)
        result = train_all(train, ClassifiersConfig(), models=("dt", "knn"))
        for name, model in result.items():
            rep = evaluate(model, test, name)
            assert rep.accuracy >= 0.99, (name, rep.accuracy)
