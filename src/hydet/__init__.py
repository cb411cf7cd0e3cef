"""hydet: hydrate detection from oil-well sensor time series.

Library plus CLI covering the full workflow: ingest or synthesize labeled
multichannel well episodes, audit and preprocess data quality, train three
classical classifiers (CART decision tree, exact k-d-tree k-NN, Gaussian naive
Bayes), score them with confusion-matrix metrics, and compare models with
exact and asymptotic Kolmogorov-Smirnov and Mann-Whitney U tests.
"""

from .dataset import (CANONICAL_VARIABLE_NAMES, CANONICAL_VARIABLES, ClassLabel,
                      DatasetManifest, FeatureMatrix, SensorVariable, SplitSpec,
                      SynthConfig, TimeSeriesInstance, build_manifest,
                      default_config, flatten, load_instance_csv, split,
                      synth_generate, write_instance_csv)
from .classifiers import (ClassifiersConfig, DecisionTree, GaussianNb,
                          KnnClassifier, load_model, save_model, train_all)
from .config import DataConfig, PreprocessConfig, RunConfig
from .evaluation import (ClassMetrics, ConfusionMatrix, EvalReport, accuracy,
                         confusion, evaluate, f1_per_class)
from .quality import (BoxplotStats, Fences, ImputationModel, NormalizationModel,
                      Preprocessor, QualityReport, apply_imputer, apply_normalizer,
                      boxplot_stats, detect_empty, detect_frozen, fit_boxplots,
                      fit_imputer, fit_normalizer, load_preprocessor,
                      quality_report, save_preprocessor, scan_missing,
                      treat_outliers)
from .stats import (ComparisonTable, KsResult, MwuResult, TestConfig,
                    compare_models, ecdf_eval, ks_two_sample, mwu_two_sample)

__version__ = "0.1.0"
