"""Command-line workflow: qc, synth, train, eval, compare, pipeline.

Exit codes are a stable contract: 0 success, 64 usage/configuration error,
2 data or runtime error. Every command is deterministic given (config, seed):
with a fixed effective config the output directory is byte-identical across
reruns. Each command imports the numpy layers it runs when it runs, so
``compare`` loads no numpy.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Mapping
from contextlib import contextmanager
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
    from .dataset.model import FeatureMatrix
    from .quality import Preprocessor

EXIT_OK = 0
EXIT_DATA = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 instead of argparse's 2
        raise _UsageError(message)


def _names(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


#: each flag: the ``RunConfig`` field it overrides (or None) and its argparse options
FLAGS = {
    "--config": (None, dict(metavar="JSON", help="run configuration file")),
    "--seed": ("seed", dict(type=int, help="override seed")),
    "--out": ("out_dir", dict(metavar="OUT", help="output directory")),
    "--models": ("models", dict(type=_names,
                                help=f"comma list from {','.join(MODEL_SECTIONS)}")),
    "--data": ("data", dict(type=DataConfig,
                            help="dataset root (folder-per-class corpus)")),
    "--variables": ("variables", dict(type=_names,
                                      help="comma list of channels to use")),
    "--report": (None, dict(metavar="JSON",
                            help="write the quality report to this path instead "
                                 "of <out>/quality_report.json")),
    "--points": (None, dict(metavar="CSV",
                            help="also export the labeled flattened rows")),
    "--from-f1": (None, dict(metavar="JSON",
                             help="file mapping model name -> list of F1 scores")),
    "--eval-reports": (None, dict(nargs="*", help="eval_*.json files to compare")),
}


def _load_run_config(args) -> RunConfig:
    """The config file's values, overridden by the flags given. Sets
    ``args.variables_named`` when the file or a flag names the channels."""
    file = jsonio.load(args.config) if args.config is not None else {}
    config = from_json(RunConfig, file, "config")
    given = {field: getattr(args, field) for field, _ in FLAGS.values()
             if field is not None and getattr(args, field, None) is not None}
    args.variables_named = "variables" in file or "variables" in given
    config = replace(config, **given)
    # the run seed draws a synthetic corpus and nothing else
    if "seed" in given and config.data.root is not None and args.command != "synth":
        raise ConfigError(f"--seed draws a synthetic corpus, but data.root names "
                          f"the corpus {config.data.root!r}")
    return config


def _matrix(config: RunConfig, all_channels: bool = False) -> FeatureMatrix:
    """The corpus at ``data.root``, or the one ``data.synth`` draws, flattened
    over ``config.variables``. With ``all_channels`` (standalone qc, unless
    --variables or the config file names the channels) it spans the channels
    every instance holds, in first-instance order, so 8-channel corpora report
    all-channel aggregates. No instance outlives its file."""
    from .dataset import CLASS_DIRS, build_manifest, flatten, synth_generate
    from .dataset.io import cached_matrix, header_channels, load_matrix
    from .dataset.transform import shared_channels
    data, variables = config.data, config.variables
    if data.root is not None:
        manifest = build_manifest(data.root)
        if not manifest.instances:
            raise HydetError(f"dataset is empty: {data.root} has no .csv file in its "
                             f"class directories {', '.join(CLASS_DIRS)}")
        if all_channels:  # a matrix no other command reads, so never cached
            shared = shared_channels(header_channels(data.root, manifest))
            return load_matrix(data.root, manifest, shared or variables)
        return cached_matrix(data.root, manifest, variables)
    if data.synth is None:
        raise ConfigError("config needs a data source: data.root or data.synth")
    instances = synth_generate(data.synth, config.seed)
    if all_channels:
        shared = shared_channels(inst.variable_names for inst in instances)
        variables = shared or variables
    return flatten(instances, variables)


def _echo_config(config: RunConfig, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    jsonio.dump(config.to_json_dict(), out / "config.json")


@contextmanager
def _stages(command: str, config: RunConfig):
    """Yield ``begin(stage)``; <out>/INCOMPLETE names it until the block succeeds."""
    out, stage = Path(config.out_dir), ["configure"]

    def begin(name: str) -> None:
        stage[0] = name
        (out / "INCOMPLETE").write_text(f"{command} aborted in stage {name}\n", "utf-8")

    try:
        out.mkdir(parents=True, exist_ok=True)
        begin("configure")
        _echo_config(config, out)
        yield begin
        (out / "INCOMPLETE").unlink()
    except (HydetError, OSError, ValueError) as exc:
        raise HydetError(f"stage {stage[0]} failed: {exc}") from exc


def _write_quality(config: RunConfig, matrix: FeatureMatrix, out: Path,
                   report_path: Path | None = None) -> None:
    from .quality import quality_report, render_boxplot_svg
    names = matrix.column_names
    files = [f"boxplot_{name.replace('/', '_')}.svg" for name in names]
    for j, file in enumerate(files):
        if (first := files.index(file)) < j:
            raise HydetError(f"channels {names[first]!r} and {names[j]!r} would both "
                             f"write {file}")
    report = quality_report(matrix, tukey_k=config.preprocess.tukey_multiplier,
                            quartile_method=config.preprocess.quartile_method)
    jsonio.dump(to_json(report), report_path or out / "quality_report.json")
    for j, (file, channel) in enumerate(zip(files, report.channels)):
        svg = render_boxplot_svg(matrix.values[:, j], channel.name, channel.boxplot)
        (out / file).write_text(svg, encoding="utf-8", newline="\n")


def cmd_qc(config: RunConfig, args) -> int:
    from .dataset.io import write_matrix_csv
    out = Path(config.out_dir)
    matrix = _matrix(config, all_channels=not args.variables_named)
    config = replace(config, variables=matrix.column_names)  # the channels audited
    report_path = Path(args.report) if args.report else None
    _echo_config(config, out)
    _write_quality(config, matrix, out, report_path)
    if args.points:
        write_matrix_csv(matrix, args.points)
    print(f"quality report written to "
          f"{report_path or out / 'quality_report.json'}")
    return EXIT_OK


def cmd_synth(config: RunConfig, args) -> int:
    from .dataset import build_manifest, default_config, synth_generate, write_instances
    if config.data.root is not None:  # what --data would set, which synth refuses
        raise ConfigError("synth generates its corpus; the config names data.root")
    out = Path(config.out_dir)
    synth = config.data.synth or default_config()
    instances = synth_generate(synth, config.seed)
    write_instances(instances, out)  # first: it refuses a directory in use
    _echo_config(config, out)
    manifest = build_manifest(out)
    jsonio.dump(to_json(manifest), out / "manifest.json")
    print(f"wrote {len(instances)} instances under {out}")
    return EXIT_OK


def _fit_preprocessor(config: RunConfig, train: FeatureMatrix,
                      models_dir: Path) -> tuple[Preprocessor, FeatureMatrix]:
    from .quality import Preprocessor, save_preprocessor
    prep, train_ready = Preprocessor.fit_transform(train, config.preprocess)
    models_dir.mkdir(parents=True, exist_ok=True)
    save_preprocessor(prep, models_dir / "preprocess.json")
    return prep, train_ready


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
    from .dataset.transform import _split_in_place
    models_dir = Path(config.out_dir) / "models"
    with _stages("train", config) as begin:
        begin("ingest")
        train = _split_in_place(_matrix(config), config.split)[0]
        begin("preprocess")
        train = _fit_preprocessor(config, train, models_dir)[1]
        begin("train")
        _train_and_save(config, train, models_dir)
    return EXIT_OK


def cmd_eval(config: RunConfig, args) -> int:
    from .classifiers import load_model
    from .dataset.transform import _split_in_place
    from .quality import load_preprocessor
    out = Path(config.out_dir)
    models_dir = out / "models"
    if not models_dir.is_dir():
        raise HydetError(f"no models directory at {models_dir}; run train first")
    marker = out / "INCOMPLETE"  # another command's marker: the models may be partial
    if marker.exists() and not marker.read_text("utf-8").startswith("eval "):
        raise HydetError(f"{marker} reads {marker.read_text('utf-8').strip()!r}; "
                         "run train again")
    with _stages("eval", config) as begin:
        begin("ingest")
        test = _split_in_place(_matrix(config), config.split)[1]
        begin("preprocess")
        prep = load_preprocessor(models_dir / "preprocess.json")
        test = prep._transform_owned(test)  # the split's own copy of the test rows
        begin("evaluate")
        models = {name: load_model(models_dir / f"{name}.json")
                  for name in config.models if (models_dir / f"{name}.json").exists()}
        if not models:
            raise HydetError(f"no model files found under {models_dir}")
        _evaluate_and_write(config, models, test, out)
    return EXIT_OK


def _comparison_outputs(table, f1_vectors: Mapping, out: Path) -> None:
    jsonio.dump(to_json(table), out / "comparison.json")
    (out / "comparison.csv").write_text(table.to_csv(), encoding="utf-8",
                                        newline="\n")
    _print_comparison(table)
    # the smallest exact KS p-value: 2 of the C(2n, n) orders separate fully
    n_scores = len(next(iter(f1_vectors.values())))  # equal, as compare_models checks
    floor = 2 / math.comb(2 * n_scores, n_scores)
    if floor >= table.alpha and any(pc.ks_method == "exact"
                                    for pc in table.pairs.values()):
        print(f"note: exact KS on {n_scores} scores per model cannot reject: its "
              f"p-value is at least 2/C({2 * n_scores},{n_scores}) = {floor:.3g}, "
              f"not below alpha {table.alpha:g}", file=sys.stderr)


def cmd_compare(config: RunConfig, args) -> int:
    out = Path(config.out_dir)
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
    _echo_config(config, out)
    _comparison_outputs(table, f1_vectors, out)
    return EXIT_OK


def cmd_pipeline(config: RunConfig, args) -> int:
    from .dataset.transform import _split_in_place
    out = Path(config.out_dir)
    with _stages("pipeline", config) as begin:
        begin("ingest")
        matrix = _matrix(config)
        begin("quality-audit")
        _write_quality(config, matrix, out)
        begin("split")
        # each stage works in the arrays of the last, and each array goes
        # with its last reader: the split consumes the matrix, and no stage
        # after it traces a row to its episode, so the parts have no origin
        train, test = _split_in_place(matrix, config.split)
        del matrix
        begin("preprocess")
        prep, train = _fit_preprocessor(config, train, out / "models")
        test = prep._transform_owned(test)
        begin("train")
        models = _train_and_save(config, train, out / "models")
        del train  # evaluate reads the test part alone
        begin("evaluate")
        reports = _evaluate_and_write(config, models, test, out)
        begin("compare")
        if len(reports) >= 2:
            f1_vectors = {r.model: r.f1_vector() for r in reports.values()}
            _comparison_outputs(compare_models(f1_vectors, config.stats),
                                f1_vectors, out)
        else:
            print("comparison skipped: needs at least 2 models")
    return EXIT_OK


def _print_comparison(table) -> None:
    print("comparison".ljust(30) + "KS".rjust(6) + "p".rjust(8)
          + "U".rjust(8) + "p".rjust(8) + "  significant")
    for name, pc in table.pairs.items():
        print(name.ljust(30) + f"{pc.ks_stat:6.2f}{pc.ks_p:8.3f}"
              + f"{pc.u_stat:8.1f}{pc.u_p:8.3f}"
              + ("  yes" if pc.significant_at_alpha else "  no"))


#: each command: its function, help text and flags read besides --config and --out
COMMANDS = {
    "qc": (cmd_qc, "audit data quality and write quality_report.json + boxplots",
           ("--seed", "--data", "--variables", "--report", "--points")),
    "synth": (cmd_synth, "generate a synthetic corpus on disk", ("--seed",)),
    "train": (cmd_train, "preprocess, split and fit the classifiers",
              ("--seed", "--models", "--data", "--variables")),
    "eval": (cmd_eval, "evaluate previously trained models",
             ("--seed", "--models", "--data", "--variables")),
    "compare": (cmd_compare, "pairwise KS/MWU comparison of model F1 vectors",
                ("--from-f1", "--eval-reports")),
    "pipeline": (cmd_pipeline, "end-to-end: qc, preprocess, train, eval, compare",
                 ("--seed", "--models", "--data", "--variables")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hydet",
                     description="Hydrate-detection workflow for well telemetry")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_txt, reads) in COMMANDS.items():
        p = sub.add_parser(name, help=help_txt)
        p.set_defaults(run=run)
        for flag, (field, options) in FLAGS.items():
            if flag in ("--config", "--out", *reads):
                p.add_argument(flag, dest=field, **options)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(_load_run_config(args), args)
    except (_UsageError, ConfigError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (HydetError, FileNotFoundError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
