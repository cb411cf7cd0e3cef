"""hydet: hydrate detection from oil-well sensor time series.

Library plus CLI covering the full workflow: ingest or synthesize labeled
multichannel well episodes, audit and preprocess data quality, train three
classical classifiers (CART decision tree, exact k-d-tree k-NN, Gaussian naive
Bayes), score them with confusion-matrix metrics, and compare models with
exact and asymptotic Kolmogorov-Smirnov and Mann-Whitney U tests.
"""

import importlib

__version__ = "0.1.0"

#: public name -> its submodule, imported on first use (PEP 562), so that
#: ``import hydet`` loads no numpy; each submodule is a name of its own
_MODULE_OF = {name: module for module, names in {
    "classifiers": "DecisionTree GaussianNb KnnClassifier load_model save_model "
                   "train_all",
    "codec": "", "config": "DataConfig RunConfig", "errors": "", "jsonio": "", "rng": "",
    "dataset": "DatasetManifest FeatureMatrix TimeSeriesInstance build_manifest "
               "default_config flatten load_instance_csv split synth_generate "
               "write_instance_csv",
    "declarations": "CANONICAL_VARIABLE_NAMES CANONICAL_VARIABLES ClassLabel "
                    "ClassMetrics ClassifiersConfig EvalReport PreprocessConfig "
                    "SensorVariable SplitSpec SynthConfig",
    "evaluation": "confusion evaluate",
    "quality": "BoxplotStats Fences ImputationModel NormalizationModel Preprocessor "
               "QualityReport apply_imputer apply_normalizer boxplot_stats fit_boxplots "
               "fit_imputer fit_normalizer load_preprocessor quality_report "
               "save_preprocessor treat_outliers",
    "stats": "ComparisonTable KsResult MwuResult TestConfig compare_models "
             "ks_two_sample mwu_two_sample",
}.items() for name in (module, *names.split())}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    return module if name == _MODULE_OF[name] else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
