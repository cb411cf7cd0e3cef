"""Command-line workflow: qc, synth, train, eval, compare, pipeline.

Exit codes are a stable contract: 0 success, 64 usage/configuration error,
2 data or runtime error. Every command is deterministic given (config, seed):
with a fixed effective config the output directory is byte-identical across
reruns. Each command imports the numpy layers it runs when it runs, so
``compare`` loads no numpy.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Mapping
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

from . import jsonio
from .codec import from_file, from_json, to_json
from .config import DataConfig, RunConfig
from .declarations import MODEL_SECTIONS, ClassLabel, EvalReport
from .errors import ConfigError, HydetError
from .stats import compare_models

if TYPE_CHECKING:
    from .dataset.model import FeatureMatrix, TimeSeriesInstance
    from .quality import Preprocessor

EXIT_OK = 0
EXIT_DATA = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 instead of argparse's 2
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hydet",
                     description="Hydrate-detection workflow for well telemetry")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="JSON", default=None,
                       help="run configuration file")
        p.add_argument("--seed", type=int, default=None, help="override seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--models", default=None,
                       help=f"comma list from {','.join(MODEL_SECTIONS)}")
        p.add_argument("--data", default=None,
                       help="dataset root (folder-per-class corpus)")
        p.add_argument("--variables", default=None,
                       help="comma list of channels to use")

    for name, help_txt in (
            ("qc", "audit data quality and write quality_report.json + boxplots"),
            ("synth", "generate a synthetic corpus on disk"),
            ("train", "preprocess, split and fit the classifiers"),
            ("eval", "evaluate previously trained models"),
            ("compare", "pairwise KS/MWU comparison of model F1 vectors"),
            ("pipeline", "end-to-end: qc, preprocess, train, eval, compare")):
        p = sub.add_parser(name, help=help_txt)
        common(p)
        if name == "qc":
            p.add_argument("--report", metavar="JSON", default=None,
                           help="write the quality report to this path instead "
                                "of <out>/quality_report.json")
            p.add_argument("--points", metavar="CSV", default=None,
                           help="also export the labeled flattened rows")
        if name == "compare":
            p.add_argument("--from-f1", metavar="JSON", default=None,
                           help="file mapping model name -> list of F1 scores")
            p.add_argument("--eval-reports", nargs="*", default=None,
                           help="eval_*.json files to compare")
    return parser


def _load_run_config(args) -> RunConfig:
    if args.config is not None:
        config = from_json(RunConfig, jsonio.load(args.config), "config")
    else:
        config = RunConfig()
    updates: dict = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.out is not None:
        updates["out_dir"] = args.out
    if args.models is not None:
        updates["models"] = tuple(m.strip() for m in args.models.split(",") if m.strip())
    if args.data is not None:
        updates["data"] = DataConfig(root=args.data)
    if args.variables is not None:
        updates["variables"] = tuple(v.strip() for v in args.variables.split(",")
                                     if v.strip())
    return replace(config, **updates)


def _load_corpus(config: RunConfig) -> list[TimeSeriesInstance]:
    # the layers load before the corpus: a module imported later leaves its
    # objects among freed arrays, +4 MiB peak RSS on the long dirty pipeline
    from . import classifiers, evaluation, quality
    from .dataset import build_manifest, load_instances, synth_generate
    data = config.data
    if data.root is not None:
        manifest = build_manifest(data.root)
        instances = load_instances(data.root, manifest) if manifest.instances else []
    elif data.synth is not None:
        instances = synth_generate(data.synth, config.seed)
    else:
        raise ConfigError("config needs a data source: data.root or data.synth")
    if not instances:
        raise HydetError("dataset is empty")
    return instances


def _echo_config(config: RunConfig, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    jsonio.dump(config.to_json_dict(), out / "config.json")


def _shared_channels(instances: list[TimeSeriesInstance]) -> tuple[str, ...]:
    """Channels present in every instance, in first-instance order."""
    first = instances[0].variable_names
    return tuple(v for v in first
                 if all(v in inst.variable_names for inst in instances))


def _write_quality(config: RunConfig, instances, matrix: FeatureMatrix,
                   out: Path, report_path: Path | None = None) -> None:
    from .quality import quality_report, render_boxplot_svg
    report = quality_report(instances, matrix,
                            tukey_k=config.preprocess.tukey_multiplier,
                            quartile_method=config.preprocess.quartile_method)
    jsonio.dump(to_json(report), report_path or out / "quality_report.json")
    for j, channel in enumerate(report.channels):
        svg = render_boxplot_svg(matrix.values[:, j], channel.name, channel.boxplot)
        safe = channel.name.replace("/", "_")
        (out / f"boxplot_{safe}.svg").write_text(svg, encoding="utf-8", newline="\n")


def cmd_qc(config: RunConfig, args) -> int:
    from .dataset import flatten
    from .dataset.io import write_matrix_csv
    out = Path(config.out_dir)
    _echo_config(config, out)
    instances = _load_corpus(config)
    # standalone qc audits every channel in the corpus unless restricted,
    # so 8-channel corpora report all-channel aggregates by default
    variables = config.variables if args.variables is not None \
        else (_shared_channels(instances) or config.variables)
    report_path = Path(args.report) if args.report else None
    matrix = flatten(instances, variables)
    _write_quality(config, instances, matrix, out, report_path)
    if args.points:
        write_matrix_csv(matrix, args.points)
    print(f"quality report written to "
          f"{report_path or out / 'quality_report.json'}")
    return EXIT_OK


def cmd_synth(config: RunConfig, args) -> int:
    from .dataset import build_manifest, default_config, synth_generate, write_instances
    out = Path(config.out_dir)
    _echo_config(config, out)
    synth = config.data.synth or default_config()
    instances = synth_generate(synth, config.seed)
    write_instances(instances, out)
    manifest = build_manifest(out)
    jsonio.dump(to_json(manifest), out / "manifest.json")
    print(f"wrote {len(instances)} instances under {out}")
    return EXIT_OK


def _split_matrices(config: RunConfig, instances):
    from .dataset import flatten, split
    matrix = flatten(instances, config.variables)
    return split(matrix, config.split)


def _fit_preprocessor(config: RunConfig, train: FeatureMatrix,
                      models_dir: Path) -> Preprocessor:
    from .quality import Preprocessor, save_preprocessor
    prep = Preprocessor.fit(train, config.preprocess)
    models_dir.mkdir(parents=True, exist_ok=True)
    save_preprocessor(prep, models_dir / "preprocess.json")
    return prep


def _train_and_save(config: RunConfig, train_ready: FeatureMatrix,
                    models_dir: Path) -> dict:
    from .classifiers import save_model, train_all
    models = train_all(train_ready, config.classifiers, config.models)
    for name, model in models.items():
        save_model(model, models_dir / f"{name}.json")
    return models


def _evaluate_and_write(config: RunConfig, models: dict, test_ready: FeatureMatrix,
                        out: Path) -> dict[str, EvalReport]:
    from .evaluation import evaluate
    reports = {name: evaluate(model, test_ready, model.display_name)
               for name, model in models.items()}
    for name, report in reports.items():
        jsonio.dump(to_json(report), out / f"eval_{name}.json")
        (out / f"eval_{name}_confusion.csv").write_text(
            report.confusion_csv(), encoding="utf-8", newline="\n")
    classes = tuple(ClassLabel)
    head = "model".ljust(14) + "accuracy".rjust(10)
    for c in classes:
        head += f"F1({c.display_name})".rjust(10 + len(c.display_name))
    print(head)
    for report in reports.values():
        line = report.model.ljust(14) + f"{report.accuracy:10.4f}"
        for c in classes:
            line += f"{report.per_class[c].f1:{10 + len(c.display_name)}.2f}"
        print(line)
    return reports


def cmd_train(config: RunConfig, args) -> int:
    out = Path(config.out_dir)
    _echo_config(config, out)
    train_m, _ = _split_matrices(config, _load_corpus(config))
    prep = _fit_preprocessor(config, train_m, out / "models")
    _train_and_save(config, prep.transform(train_m), out / "models")
    return EXIT_OK


def cmd_eval(config: RunConfig, args) -> int:
    from .classifiers import load_model
    from .quality import load_preprocessor
    out = Path(config.out_dir)
    models_dir = out / "models"
    if not models_dir.is_dir():
        raise HydetError(f"no models directory at {models_dir}; run train first")
    _echo_config(config, out)
    _, test_m = _split_matrices(config, _load_corpus(config))
    prep = load_preprocessor(models_dir / "preprocess.json")
    test_ready = prep.transform(test_m)
    models = {name: load_model(models_dir / f"{name}.json")
              for name in config.models if (models_dir / f"{name}.json").exists()}
    if not models:
        raise HydetError(f"no model files found under {models_dir}")
    _evaluate_and_write(config, models, test_ready, out)
    return EXIT_OK


def _comparison_outputs(table, out: Path) -> None:
    jsonio.dump(to_json(table), out / "comparison.json")
    (out / "comparison.csv").write_text(table.to_csv(), encoding="utf-8",
                                        newline="\n")
    _print_comparison(table)


def cmd_compare(config: RunConfig, args) -> int:
    out = Path(config.out_dir)
    _echo_config(config, out)
    if args.from_f1:
        paths = [args.from_f1]
        f1_vectors = from_file(Mapping[str, tuple[float, ...]],
                               jsonio.load(args.from_f1), args.from_f1)
    else:
        paths = args.eval_reports or sorted(str(p) for p in out.glob("eval_*.json"))
        f1_vectors, path_of = {}, {}
        for path in paths:
            report = from_file(EvalReport, jsonio.load(path), path)
            if report.model in path_of:
                raise HydetError(f"{path_of[report.model]}, {path}: both are eval "
                                 f"reports of model {report.model!r}")
            f1_vectors[report.model] = report.f1_vector()
            path_of[report.model] = path
    if len(f1_vectors) < 2:
        raise _UsageError(f"comparison needs at least 2 models, got {len(f1_vectors)}")
    try:
        table = compare_models(f1_vectors, config.stats)
    except (HydetError, ValueError) as exc:  # the message names the model
        raise HydetError(f"{', '.join(paths)}: {exc}") from None
    _comparison_outputs(table, out)
    return EXIT_OK


def cmd_pipeline(config: RunConfig, args) -> int:
    from .dataset import flatten, split
    out = Path(config.out_dir)
    stage = "configure"
    try:
        _echo_config(config, out)
        (out / "INCOMPLETE").unlink(missing_ok=True)
        stage = "ingest"
        instances = _load_corpus(config)
        stage = "quality-audit"
        matrix = flatten(instances, config.variables)
        _write_quality(config, instances, matrix, out)
        del instances  # each stage's input goes once the next has what it needs
        stage = "split"
        train_m, test_m = split(matrix, config.split)
        del matrix
        stage = "preprocess"
        prep = _fit_preprocessor(config, train_m, out / "models")
        train_ready, test_ready = prep.transform(train_m), prep.transform(test_m)
        del train_m, test_m
        stage = "train"
        models = _train_and_save(config, train_ready, out / "models")
        stage = "evaluate"
        reports = _evaluate_and_write(config, models, test_ready, out)
        stage = "compare"
        if len(reports) >= 2:
            f1_vectors = {r.model: r.f1_vector() for r in reports.values()}
            _comparison_outputs(compare_models(f1_vectors, config.stats), out)
        else:
            print("comparison skipped: needs at least 2 models")
        return EXIT_OK
    except (HydetError, OSError, ValueError) as exc:
        if out.is_dir():  # flag partial outputs for reproducibility audits
            (out / "INCOMPLETE").write_text(f"pipeline aborted in stage {stage}\n",
                                            encoding="utf-8")
        raise HydetError(f"stage {stage} failed: {exc}") from exc


def _print_comparison(table) -> None:
    print("comparison".ljust(30) + "KS".rjust(6) + "p".rjust(8)
          + "U".rjust(8) + "p".rjust(8) + "  significant")
    for name, pc in table.pairs.items():
        print(name.ljust(30) + f"{pc.ks_stat:6.2f}{pc.ks_p:8.3f}"
              + f"{pc.u_stat:8.1f}{pc.u_p:8.3f}"
              + ("  yes" if pc.significant_at_alpha else "  no"))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_run_config(args)
        command = {"qc": cmd_qc, "synth": cmd_synth, "train": cmd_train,
                   "eval": cmd_eval, "compare": cmd_compare,
                   "pipeline": cmd_pipeline}[args.command]
        return command(config, args)
    except (_UsageError, ConfigError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (HydetError, FileNotFoundError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
