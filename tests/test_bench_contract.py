"""The benchmark's span names must keep resolving to hydet's public names.

``bench/tracer.py`` wraps the functions listed in its ``SPANS`` table; a name
it cannot find is reported as missing and its per-layer metrics vanish from
the benchmark output.  These tests turn such a rename into a test failure.
The tracer is compiled from its source, so nothing is written under bench/.
"""

import types
from pathlib import Path

from hydet.dataset import default_config, flatten, split, synth_generate
from hydet.dataset.model import SplitSpec

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"),
         module.__dict__)
    return module


def test_every_traced_public_name_resolves():
    tracer = load_tracer()
    missing = [f"{module}.{qualname}"
               for names, _, _ in tracer.SPANS.values()
               for module, qualname in names
               if tracer._resolve(module, qualname) is None]
    assert missing == []


def test_data_layer_counters_read_the_data_model():
    tracer = load_tracer()
    cfg = default_config(n_normal=3, n_rapid_loss=3, n_hydrate=3, length=4)
    instances = synth_generate(cfg, 1)
    matrix = flatten(instances, cfg.variables)

    def count(span, args, result):
        return tracer.SPANS[span][2](args, {}, result)

    assert count("dataset.synth.generate", (cfg, 1), instances) == 36
    assert count("dataset.transform.flatten", (instances,), matrix) == 36
    spec = SplitSpec()
    assert count("dataset.transform.split", (matrix, spec), split(matrix, spec)) == 36
