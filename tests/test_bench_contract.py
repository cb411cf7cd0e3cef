"""The benchmark must keep measuring what it claims to measure.

``bench/tracer.py`` wraps the functions listed in its ``SPANS`` table; a name
it cannot find is reported as missing and its per-layer metrics vanish from
the benchmark output.  The ``compare_exact`` workload checks hydet's exact
p-values against the independent oracle in ``bench/checks.py``.  These tests
turn a rename or a p-value drift into a test failure.  The bench modules are
compiled from their source, so nothing is written under bench/.
"""

import random
import types
from itertools import combinations
from pathlib import Path

import pytest

from hydet.dataset import default_config, flatten, split, synth_generate
from hydet.dataset.model import SplitSpec
from hydet.stats import TestConfig, compare_models, ks_two_sample, mwu_two_sample

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         module.__dict__)
    return module


def test_every_traced_public_name_resolves():
    tracer = load_bench("tracer")
    missing = [f"{module}.{qualname}"
               for names, _, _ in tracer.SPANS.values()
               for module, qualname in names
               if tracer._resolve(module, qualname) is None]
    assert missing == []


def test_data_layer_counters_read_the_data_model():
    tracer = load_bench("tracer")
    cfg = default_config(n_normal=3, n_rapid_loss=3, n_hydrate=3, length=4)
    instances = synth_generate(cfg, 1)
    matrix = flatten(instances, cfg.variables)

    def count(span, args, result):
        return tracer.SPANS[span][2](args, {}, result)

    assert count("dataset.synth.generate", (cfg, 1), instances) == 36
    assert count("dataset.transform.flatten", (instances,), matrix) == 36
    spec = SplitSpec()
    assert count("dataset.transform.split", (matrix, spec), split(matrix, spec)) == 36


@pytest.mark.parametrize("seed", [42, 7, 1])
def test_compare_exact_workload_pvalues_equal_the_bench_oracle(seed):
    # the compare_exact workload: 3 models x 11 tied F1 scores, pooled 22
    checks = load_bench("checks")
    f1 = load_bench("inputs").f1_scores(seed, 11)
    table = compare_models(f1, TestConfig(method="exact"))
    assert list(table.pairs) == [f"{a} vs {b}" for a, b in combinations(f1, 2)]
    for name_a, name_b in combinations(f1, 2):
        pc = table.pairs[f"{name_a} vs {name_b}"]
        a, b = f1[name_a], f1[name_b]
        assert (pc.ks_method, pc.mwu_method) == ("exact", "exact")
        assert pc.ks_p == checks.exact_ks_p(a, b)
        assert pc.u_p == checks.exact_mwu_p(a, b)


def test_exact_pvalues_equal_the_bench_oracle_on_tied_samples_at_pooled_60():
    # 27 vs 33 scores on a 0.01 grid: ties in most groups, far beyond the
    # reach of enumeration
    checks = load_bench("checks")
    rng = random.Random(60)
    a = [round(rng.uniform(0.70, 1.0), 2) for _ in range(27)]
    b = [round(rng.uniform(0.65, 0.95), 2) for _ in range(33)]
    assert len(set(a + b)) < 40
    cfg = TestConfig(method="exact")
    ks, mwu = ks_two_sample(a, b, cfg), mwu_two_sample(a, b, cfg)
    assert 1e-6 < ks.p_value < 0.5 and 1e-6 < mwu.p_value < 0.5
    assert ks.p_value == checks.exact_ks_p(a, b)
    assert mwu.p_value == checks.exact_mwu_p(a, b)
