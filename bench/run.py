"""End-to-end and per-layer benchmark of the hydet CLI.

    python3 bench/run.py --workload pipeline_default --seed 42 --seconds 12 --trace 0
    python3 bench/run.py                 # every workload, default seeds, table
    python3 bench/run.py --smoke         # tiny inputs: every workload, traced too

Run it from anywhere inside a checkout; hydet is imported from ``src/`` of
the checkout this file belongs to, and every file the benchmark writes goes
under ``.bench_work/`` there.

Untraced (``--trace 0``): each workload first produces its inputs several
times (``setup_s`` is the median), then runs the real CLI in a fresh child
process, again and again until ``--seconds`` have passed.  Wall time, CPU
time (user + system, all threads) and peak RSS come from the child's own
rusage; the reported values are medians over the runs.

Traced (``--trace 1``): one traced set-up, one untraced run and one traced
run, where ``bench/tracer.py`` wraps hydet's public functions in the child
and records spans.  Per-layer metrics aggregate the set-up and run spans;
``trace.overhead_s`` is the traced minus the untraced wall time.

Every run's output tree must be byte-identical to the first one of the
invocation and pass the workload's output check.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import checks
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
#: children still running this long after the benchmark started are killed,
#: so that the benchmark ends inside its 180 s limit
DEADLINE_S = 170.0

CHANNELS = ("P-TPT", "T-TPT", "P-MON-CKP", "T-JUS-CKP")
DEFAULT_COUNTS = (597, 344, 84)
SMOKE_COUNTS = (17, 10, 3)
#: injected corruption of the dirty corpus, as shares of cells, of
#: instance-channels and of each channel's cells
DIRTY = {"missing": 0.02, "frozen": 0.02, "outliers": 0.005}
CLEAN = dict.fromkeys(DIRTY, 0.0)

#: BLAS runs on one thread.  With OpenBLAS's default of one thread per CPU,
#: k-NN's distance product ran on both CPUs of a 2-CPU VM; wall_s then
#: depended on whether the host gave the second CPU (13.5 s or 18.8 s at the
#: same 18.5 s of CPU), while one thread took 13.4-14.0 s.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}

#: exact (KS p, MWU p) of compare_exact at its default seed, by pair;
#: 2.835142154027603e-06 is 2 / C(22, 11)
RECORDED_COMPARE = {
    42: {"Decision Tree vs Naive Bayes": (2.835142154027603e-06, 2.835142154027603e-06),
         "Decision Tree vs k-NN": (0.972782635321335, 0.5207362297145579),
         "Naive Bayes vs k-NN": (2.835142154027603e-06, 2.835142154027603e-06)},
}


@dataclass(frozen=True)
class Workload:
    """One set of inputs; BENCHMARK.json and README.md say why each exists."""

    name: str
    default_seed: int
    kind: str                 # "pipeline" or "compare"
    models: str = ""
    length: int = 60
    dirty: bool = False       # clean pipelines use the shipped default corpus
    per_model: int = 0        # compare: scores per model
    #: span expected to lead self time, and the runner-up if any
    top_spans: tuple[str, ...] = ()


WORKLOADS = {w.name: w for w in (
    Workload("pipeline_default", 42, "pipeline", models="dt,knn,nb",
             top_spans=("classifiers.knn.predict",)),
    Workload("pipeline_long_dirty", 7, "pipeline", models="dt,nb", length=600, dirty=True,
             top_spans=("classifiers.tree.fit", "dataset.io.load")),
    Workload("compare_exact", 42, "compare", per_model=11,
             top_spans=("stats.ks", "stats.mwu")),
)}


# ---------------------------------------------------------------------------
# child processes


@dataclass(frozen=True)
class Child:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_child(argv: list[str], cwd: Path, log: Path, deadline: float) -> Child:
    """Run one process to completion, or kill it at the perf_counter
    ``deadline``; times and memory come from its rusage."""
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with open(log, "ab") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=subprocess.STDOUT,
                                env=env)
        timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if proc.returncode is None and proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)


def hydet_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "hydet.cli", *args]


def traced_argv(spans: Path, args: list[str]) -> list[str]:
    return [sys.executable, str(BENCH / "tracer.py"), str(spans), "--", *args]


def tree_sha256(root: Path) -> str:
    """Digest of every file's relative path and bytes under root."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# workload inputs, commands and checks


def synth_config(wl: Workload, smoke: bool) -> dict | None:
    if not smoke and not wl.dirty:
        return None  # the shipped default corpus
    counts = SMOKE_COUNTS if smoke else DEFAULT_COUNTS
    dirt = DIRTY if wl.dirty else CLEAN
    return {"counts": dict(zip(("NormalCondition", "RapidProductivityLoss", "Hydrate"),
                               counts)),
            "length": 20 if smoke else wl.length,
            "missing_fraction": dirt["missing"],
            "frozen_fraction": dirt["frozen"],
            "outlier_fractions": dict.fromkeys(CHANNELS, dirt["outliers"])}


class Run:
    """One workload at one seed inside its own work directory."""

    def __init__(self, wl: Workload, seed: int, smoke: bool):
        self.wl, self.seed, self.smoke = wl, seed, smoke
        self.dir = WORK / wl.name
        self.log = self.dir / "hydet.log"
        self.per_model = 4 if smoke else wl.per_model
        self.deadline = time.perf_counter() + DEADLINE_S

    def prepare(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        synth = synth_config(self.wl, self.smoke)
        if synth is not None:
            (self.dir / "synth.json").write_text(
                json.dumps({"data": {"synth": synth}}, indent=1), encoding="utf-8")

    @property
    def inputs(self) -> Path:
        return self.dir / ("corpus" if self.wl.kind == "pipeline" else "inputs")

    def setup(self, spans: Path | None = None) -> float:
        """Produce the inputs once in a child process; returns its wall time.
        Only the pipelines' ``hydet synth`` can be traced."""
        shutil.rmtree(self.inputs, ignore_errors=True)
        if self.wl.kind == "compare":
            argv = [sys.executable, str(BENCH / "inputs.py"), str(self.seed),
                    str(self.per_model), "inputs"]
        else:
            args = ["synth", "--out", "corpus", "--seed", str(self.seed)]
            if (self.dir / "synth.json").exists():
                args += ["--config", "synth.json"]
            argv = hydet_argv(args) if spans is None else traced_argv(spans, args)
        child = run_child(argv, self.dir, self.log, self.deadline)
        if child.code != 0:
            raise SystemExit(f"{self.wl.name}: set-up exited {child.code}: "
                             f"{self.log_tail()}")
        return child.wall_s

    def run_args(self) -> list[str]:
        if self.wl.kind == "compare":
            return ["compare", "--from-f1", "inputs/f1.json",
                    "--config", "inputs/compare.json", "--out", "out"]
        return ["pipeline", "--data", "corpus", "--out", "out",
                "--models", self.wl.models]

    def log_tail(self) -> str:
        lines = self.log.read_text(encoding="utf-8", errors="replace").splitlines()
        return " | ".join(lines[-3:])

    def run(self, spans: Path | None = None) -> Child:
        shutil.rmtree(self.dir / "out", ignore_errors=True)
        args = self.run_args()
        argv = hydet_argv(args) if spans is None else traced_argv(spans, args)
        return run_child(argv, self.dir, self.log, self.deadline)

    def scores(self) -> dict[str, list[float]]:
        """compare_exact's F1 scores, in the file order hydet pairs them."""
        return json.loads((self.inputs / "f1.json").read_text(encoding="utf-8"))

    def check_output(self) -> list[str]:
        out = self.dir / "out"
        if (out / "INCOMPLETE").exists():
            return ["pipeline left an INCOMPLETE marker"]
        if self.wl.kind == "compare":
            recorded = None if self.smoke else RECORDED_COMPARE.get(self.seed)
            return checks.check_comparison(out, self.scores(), recorded)
        problems = []
        if not self.smoke:
            problems += checks.check_quality_contract(out, self.wl.models.split(","))
        counts = SMOKE_COUNTS if self.smoke else DEFAULT_COUNTS
        length = 20 if self.smoke else self.wl.length
        problems += checks.check_audit(out, sum(counts), length, len(CHANNELS),
                                       **(DIRTY if self.wl.dirty else CLEAN))
        return problems

    def input_size(self) -> dict:
        files = sorted(p for p in self.inputs.rglob("*") if p.is_file())
        data = [p for p in files if p.suffix == ".csv"]
        if self.wl.kind == "compare":
            rows = sum(len(v) for v in self.scores().values())
        else:
            rows = sum(p.read_bytes().count(b"\n") - 1 for p in data)
        return {"rows": rows, "files": len(data) or len(files),
                "bytes": sum(p.stat().st_size for p in files)}


# ---------------------------------------------------------------------------
# measurement


def measure_setup(run: Run) -> tuple[list[float], list[str]]:
    times, digests = [], []
    t0 = time.perf_counter()
    while (len(times) < SETUP_MIN_REPEATS
           or time.perf_counter() - t0 < SETUP_MIN_SECONDS):
        times.append(run.setup())
        digests.append(tree_sha256(run.inputs))
    problems = [] if len(set(digests)) == 1 else ["set-up inputs differ between repeats"]
    return times, problems


def check_run(run: Run, child: Child, reference: str | None) -> tuple[str | None, list[str]]:
    if child.code != 0:
        return None, [f"exit code {child.code}: {run.log_tail()}"]
    digest = tree_sha256(run.dir / "out")
    problems = run.check_output()
    if reference is not None and digest != reference:
        problems.append("output tree differs from the first run's")
    return digest, problems


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": statistics.median(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "min": min(values), "q1": q1, "median": q2,
            "q3": q3, "max": max(values)}


def untraced(run: Run, seconds: float) -> dict:
    run.prepare()
    setup_times, problems = measure_setup(run)
    samples, failed, reference = [], 0, None
    t0 = time.perf_counter()
    while not samples or (time.perf_counter() - t0 < seconds
                          and time.perf_counter() < run.deadline):
        child = run.run()
        digest, run_problems = check_run(run, child, reference)
        reference = reference or digest
        failed += bool(run_problems)
        problems += run_problems
        samples.append(child)
    metrics = {
        "wall_s": statistics.median(c.wall_s for c in samples),
        "cpu_s": statistics.median(c.cpu_s for c in samples),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in samples),
        "setup_s": statistics.median(setup_times),
    }
    return {"metrics": metrics, "attempted": len(samples), "failed": failed,
            "problems": problems, "output_sha256": reference,
            "input_size": run.input_size(),
            "samples": {"setup_s": summary(setup_times),
                        "runs": [asdict(c) for c in samples]}}


def read_spans(path: Path) -> tuple[list[str], list[dict]]:
    if not path.exists():  # the traced child was killed; its exit code says so
        return [], []
    with open(path, encoding="utf-8") as fh:
        header, *spans = (json.loads(line) for line in fh)
    return header["missing"], spans


def traced(run: Run) -> dict:
    run.prepare()
    setup_spans = run.dir / "setup.spans.jsonl"
    run_spans = run.dir / "run.spans.jsonl"
    spans, missing = [], set()
    if run.wl.kind == "pipeline":
        run.setup(setup_spans)
        setup_missing, spans = read_spans(setup_spans)
        missing.update(setup_missing)
    else:
        run.setup()
    plain = run.run()
    reference, plain_problems = check_run(run, plain, None)
    traced_child = run.run(run_spans)
    digest, traced_problems = check_run(run, traced_child, reference)
    run_missing, more = read_spans(run_spans)
    missing.update(run_missing)
    # span ids restart in each process; keep the two trees apart
    offset = max((s["id"] for s in spans), default=0)
    for s in more:
        s["id"] += offset
        if s["parent"] is not None:
            s["parent"] += offset
    metrics = tracer.aggregate(spans + more, missing)
    metrics["trace.overhead_s"] = traced_child.wall_s - plain.wall_s
    # the predictions concern the run, which wall_s measures, not the set-up
    run_only = tracer.aggregate(more, missing)
    top = sorted((k[:-len(".wall_s")] for k in run_only if k.endswith(".wall_s")),
                 key=lambda span: -run_only[span + ".wall_s"])
    return {"metrics": metrics, "attempted": 2,
            "failed": bool(plain_problems) + bool(traced_problems),
            "problems": plain_problems + traced_problems, "output_sha256": digest,
            "missing_names": sorted(missing),
            "top_self_time": top[:5],
            "top_spans_as_predicted": tuple(top[:len(run.wl.top_spans)])
            == run.wl.top_spans}


# ---------------------------------------------------------------------------
# reporting


def provenance() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_version = None
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas_version,
            "env_as_found": {k: os.environ.get(k) for k in CHILD_ENV},
            "env_for_hydet": CHILD_ENV,
            "git_commit": git_commit()}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def with_units(metrics: dict[str, float], units: dict[str, str]) -> dict:
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def bench_one(name: str, seed: int | None, seconds: float, trace: bool,
              smoke: bool) -> dict:
    wl = WORKLOADS[name]
    run = Run(wl, wl.default_seed if seed is None else seed, smoke)
    try:
        result = traced(run) if trace else untraced(run, seconds)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    units = tracer.metric_units() if trace else END_TO_END_UNITS
    result["metrics"] = with_units(result["metrics"], units)
    result.update(workload=name, seed=run.seed, trace=trace, smoke=smoke)
    return result


def print_table(results: list[dict]) -> None:
    for r in results:
        failed_frac = r["failed"] / r["attempted"]
        if r["trace"]:
            cells = [f"top self time {', '.join(r['top_self_time'][:3])}",
                     f"trace.overhead_s {r['metrics']['trace.overhead_s']['value']:.3g} s"]
        else:
            cells = [f"{k} {v['value']:.4g} {v['unit']}" for k, v in r["metrics"].items()]
        print(f"{r['workload']:<20} seed {r['seed']:<4} " + "  ".join(cells)
              + f"  failed_frac {failed_frac:.3g} ({r['failed']}/{r['attempted']})")
        for p in r["problems"]:
            print(f"  problem: {p}")


def smoke_problems(results: list[dict]) -> list[str]:
    """Every metric BENCHMARK.json declares is emitted with its unit."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for r in results:
        section = "per_layer" if r["trace"] else "end_to_end"
        for m in declared[section]:
            got = r["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                problems.append(f"{r['workload']}: {section} metric {m['name']} "
                                f"missing or not in {m['unit']}: {got}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: each workload's own)")
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="how long the untraced runs of a workload last")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; run every workload untraced and traced")
    args = parser.parse_args(argv)

    if not (SRC / "hydet" / "cli.py").is_file():
        print(f"error: no hydet sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.smoke else (bool(args.trace),)
    results = [bench_one(n, args.seed, 0.0 if args.smoke else args.seconds, t, args.smoke)
               for n in names for t in modes]

    problems = smoke_problems(results) if args.smoke else []
    correct = not problems and all(not r["problems"] for r in results)
    print(json.dumps({"provenance": provenance(), "results": results}))
    print_table(results)
    for p in problems:
        print(f"smoke: {p}")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}{'.trace' if r['trace'] else ''}.{k}": v
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics}))
    return 1 if args.smoke and not correct else 0


if __name__ == "__main__":
    sys.exit(main())
