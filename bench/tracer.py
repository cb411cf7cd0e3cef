"""Traced in-process run of ``hydet.cli.main`` and span aggregation.

Run as ``python bench/tracer.py SPANS_JSONL -- <hydet arguments>`` with
hydet importable.  Before calling ``hydet.cli.main(argv)`` it wraps the
public functions listed in ``SPANS``, one span per call, and after the run
writes one JSON line per finished span to SPANS_JSONL (kept in memory until
then, so tracing does no I/O inside the timed code).  The first line lists
any public name that could not be found; its metrics are then absent rather
than the trace failing.

A span records its name, parent, wall and CPU interval and the process RSS
high-water mark at its end.  Self time is a span's duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

MIB = 1024.0 * 1024.0


def _rows_of_instances(args, kwargs, result):
    return sum(len(inst.timestamps) for inst in result)


def _file_mib(args, kwargs, result):
    return os.path.getsize(args[1]) / MIB


def _load_mib(args, kwargs, result):
    if not args[1:]:  # build_manifest(root) reads directories, not files
        return 0.0
    root = Path(args[0])
    return sum(os.path.getsize(root / e.path) for e in args[1].entries) / MIB


def _result_rows(args, kwargs, result):
    return result.n_rows


def _first_arg_rows(args, kwargs, result):
    return args[0].n_rows


def _matrix_rows(args, kwargs, result):
    return next(a.n_rows for a in args if hasattr(a, "n_rows"))


def _method_rows(args, kwargs, result):
    return len(args[1])  # args[0] is the model instance


_PREPROCESS = ("fit_imputer", "apply_imputer", "fit_boxplots", "treat_outliers",
               "fit_normalizer", "apply_normalizer")

#: span name -> (public names as (module, qualified name), counter name,
#: counter function).  Method names are "Class.method".
SPANS = {
    "dataset.synth.generate": ([("hydet.dataset.synth", "synth_generate")],
                               "rows", _rows_of_instances),
    "dataset.io.write_csv": ([("hydet.dataset.io", "write_instance_csv")],
                             "mb", _file_mib),
    "dataset.io.load": ([("hydet.dataset.io", "build_manifest"),
                         ("hydet.dataset.io", "load_instances")], "mb", _load_mib),
    "dataset.transform.flatten": ([("hydet.dataset.transform", "flatten")],
                                  "rows", _result_rows),
    "dataset.transform.split": ([("hydet.dataset.transform", "split")],
                                "rows", _first_arg_rows),
    "quality.audit": ([("hydet.quality", "quality_report")], None, None),
    "quality.boxplot_svg": ([("hydet.quality", "render_boxplot_svg")], None, None),
    "quality.preprocess": ([("hydet.quality", n) for n in _PREPROCESS],
                           "rows", _matrix_rows),
    "classifiers.tree.fit": ([("hydet.classifiers.tree", "DecisionTree.fit")],
                             "rows", _method_rows),
    "classifiers.tree.predict": ([("hydet.classifiers.tree", "DecisionTree.predict")],
                                 "rows", _method_rows),
    "classifiers.knn.fit": ([("hydet.classifiers.knn", "KnnClassifier.fit")],
                            "rows", _method_rows),
    "classifiers.knn.predict": ([("hydet.classifiers.knn", "KnnClassifier.predict")],
                                "rows", _method_rows),
    "classifiers.nb.fit": ([("hydet.classifiers.nb", "GaussianNb.fit")],
                           "rows", _method_rows),
    "classifiers.nb.predict": ([("hydet.classifiers.nb", "GaussianNb.predict")],
                               "rows", _method_rows),
    "evaluation.evaluate": ([("hydet.evaluation", "evaluate")], None, None),
    "stats.ks": ([("hydet.stats", "ks_two_sample")], None, None),
    "stats.mwu": ([("hydet.stats", "mwu_two_sample")], None, None),
    "jsonio.dump": ([("hydet.jsonio", "dump")], "mb", _file_mib),
    "jsonio.load": ([("hydet.jsonio", "load")], None, None),
    "cli.self": ([("hydet.cli", "main")], None, None),
}

#: per-span fields and their units; the counter field is added where defined
FIELDS = {"wall_s": "s", "cpu_s": "s", "calls": "count", "rss_mb": "MiB"}
COUNTER_UNITS = {"rows": "rows", "mb": "MiB"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for span, (_, counter, _) in SPANS.items():
        for field, unit in FIELDS.items():
            units[f"{span}.{field}"] = unit
        if counter:
            units[f"{span}.{counter}"] = COUNTER_UNITS[counter]
    units["trace.overhead_s"] = "s"
    return units


class Recorder:
    """Finished spans of one process, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._next_id = 0
        self._lock = threading.Lock()

    def wrap(self, span: str, fn, count_fn):
        @functools.wraps(fn)  # keeps the signature callers inspect
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                self._next_id += 1
                span_id = self._next_id
            parent = stack[-1] if stack else None
            stack.append(span_id)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1, c1 = time.perf_counter(), time.process_time()
                stack.pop()
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            record = {"id": span_id, "parent": parent, "name": span,
                      "start": t0, "end": t1, "cpu": c1 - c0, "rss_mb": rss}
            if count_fn is not None:
                try:
                    record["count"] = count_fn(args, kwargs, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    record["count"] = None  # the signature changed: no count
            self.spans.append(record)
            return result
        return wrapper


def _resolve(module_name: str, qualname: str):
    """(owner, attribute, original object), or None if the name is gone."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = vars(owner).get(attr) if isinstance(owner, type) \
        else getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


def install(recorder: Recorder) -> list[str]:
    """Wrap every public name in SPANS wherever it is bound in a loaded
    hydet module (so re-exports are covered).  Returns the missing names."""
    missing = []
    for span, (names, _, count_fn) in SPANS.items():
        for module_name, qualname in names:
            found = _resolve(module_name, qualname)
            if found is None:
                missing.append(f"{module_name}.{qualname}")
                continue
            owner, attr, original = found
            wrapper = recorder.wrap(span, original, count_fn)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for name, module in list(sys.modules.items()):
                if name != "hydet" and not name.startswith("hydet."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
    return missing


def aggregate(spans: list[dict], missing: set[str] = frozenset()) -> dict[str, float]:
    """Per-span-name totals: self wall and CPU time, calls, max RSS and the
    summed counter.  Spans whose public names are all missing, and counters
    that could not be taken, are left out."""
    child_wall: dict[int, float] = {}
    child_cpu: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_wall[s["parent"]] = child_wall.get(s["parent"], 0.0) + s["end"] - s["start"]
            child_cpu[s["parent"]] = child_cpu.get(s["parent"], 0.0) + s["cpu"]
    metrics: dict[str, float] = {}
    for span, (names, counter, _) in SPANS.items():
        if all(f"{m}.{q}" in missing for m, q in names):
            continue
        mine = [s for s in spans if s["name"] == span]
        metrics[f"{span}.wall_s"] = sum(s["end"] - s["start"] - child_wall.get(s["id"], 0.0)
                                        for s in mine)
        metrics[f"{span}.cpu_s"] = sum(s["cpu"] - child_cpu.get(s["id"], 0.0)
                                       for s in mine)
        metrics[f"{span}.calls"] = len(mine)
        metrics[f"{span}.rss_mb"] = max((s["rss_mb"] for s in mine), default=0.0)
        counts = [s["count"] for s in mine] if counter else [None]
        if None not in counts:
            metrics[f"{span}.{counter}"] = sum(counts)
    return metrics


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: tracer.py SPANS_JSONL -- <hydet arguments>", file=sys.stderr)
        return 64
    import hydet.cli
    recorder = Recorder()
    missing = install(recorder)
    try:
        return hydet.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"missing": missing}) + "\n")
            for record in recorder.spans:
                fh.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    sys.exit(main())
