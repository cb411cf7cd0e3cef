"""Data-quality audit and leak-free preprocessing.

The audit covers the three failure modes of raw well telemetry: missing
readings, frozen (stuck-sensor) instance-channels, and boxplot outliers
beyond Tukey fences. Preprocessing models (column-mean imputer, fences for
winsorization, z-score/min-max normalizer) are fitted on training data only
and applied anywhere. ``save_preprocessor`` / ``load_preprocessor`` write
and read the fitted chain as ``models/preprocess.json`` through the codec.

Quartiles use linear interpolation between order statistics at position
(n-1)*p; fences are q1 - k*iqr and q3 + k*iqr with k=1.5 by default.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import jsonio
from .codec import from_file, to_json
from .errors import (AllMissingColumnError, ConfigError, EmptyDataError,
                     MissingCellsError, ModelFormatError, NonFiniteError,
                     WidthMismatchError)
from .dataset.model import FeatureMatrix, TimeSeriesInstance, variable_info


# ---------------------------------------------------------------------------
# quantiles and boxplot statistics


def quantile(values: np.ndarray, p: float, method: str = "linear") -> float:
    """Quantile of a 1-D array of finite values.

    ``linear``: interpolate between order statistics at position (n-1)*p.
    ``nearest``: the order statistic at round((n-1)*p).
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    if x.size == 0:
        raise EmptyDataError("quantile of empty sample")
    return _sorted_quantile(x, p, method)


def _sorted_quantile(x: np.ndarray, p: float, method: str) -> float:
    """``quantile`` of the non-empty, ascending array ``x``."""
    pos = (x.size - 1) * p
    if method == "nearest":
        return float(x[int(np.floor(pos + 0.5))])
    if method != "linear":
        raise ValueError(f"unknown quantile method {method!r}")
    lo = int(np.floor(pos))
    hi = int(np.ceil(pos))
    if lo == hi:
        return float(x[lo])
    frac = pos - lo
    # two-sided lerp with a bracket clamp: plain x[lo]*(1-frac)+x[hi]*frac
    # can underflow on subnormals and break quantile monotonicity by an ulp
    a, b = float(x[lo]), float(x[hi])
    diff = b - a
    r = a + frac * diff if frac < 0.5 else b - diff * (1.0 - frac)
    return min(max(r, a), b)


@dataclass(frozen=True)
class Fences:
    """The cut points of a boxplot: all winsorizing needs."""
    q1: float
    median: float
    q3: float
    iqr: float
    lower_fence: float
    upper_fence: float


@dataclass(frozen=True)
class BoxplotStats(Fences):
    outlier_row_indices: tuple[int, ...]

    @property
    def n_outliers(self) -> int:
        return len(self.outlier_row_indices)

    @property
    def fences(self) -> Fences:
        return Fences(self.q1, self.median, self.q3, self.iqr, self.lower_fence,
                      self.upper_fence)


def boxplot_stats(column: np.ndarray, tukey_k: float = 1.5,
                  quartile_method: str = "linear") -> BoxplotStats:
    """Five-number/fence statistics of one column; NaN cells are ignored
    for the quantiles and never flagged as outliers."""
    col = np.asarray(column, dtype=np.float64)
    observed = ~np.isnan(col)
    x = np.sort(col[observed])
    if x.size < 4:
        raise EmptyDataError(f"boxplot needs >= 4 observed values, have {x.size}")
    q1, med, q3 = (_sorted_quantile(x, p, quartile_method) for p in (0.25, 0.5, 0.75))
    iqr = q3 - q1
    lower = q1 - tukey_k * iqr
    upper = q3 + tukey_k * iqr
    outside = observed & ((col < lower) | (col > upper))
    return BoxplotStats(q1=q1, median=med, q3=q3, iqr=iqr,
                        lower_fence=lower, upper_fence=upper,
                        outlier_row_indices=tuple(np.flatnonzero(outside).tolist()))


# ---------------------------------------------------------------------------
# audits


@dataclass(frozen=True)
class MissingScan:
    per_column: tuple[int, ...]
    per_column_fraction: tuple[float, ...]
    n_rows: int
    overall_fraction: float


def scan_missing(matrix: FeatureMatrix) -> MissingScan:
    if matrix.n_rows == 0:
        raise EmptyDataError("scan_missing on empty matrix")
    missing = np.isnan(matrix.values)
    per_col = missing.sum(axis=0)
    return MissingScan(
        per_column=tuple(int(c) for c in per_col),
        per_column_fraction=tuple(float(c) / matrix.n_rows for c in per_col),
        n_rows=matrix.n_rows,
        overall_fraction=float(missing.sum()) / missing.size,
    )


def detect_frozen(instance: TimeSeriesInstance, min_length: int = 2) -> set[str]:
    """Channels whose observed values are all exactly equal.

    A channel qualifies only with at least ``min_length`` observed values;
    all-missing channels are empty, not frozen (see :func:`detect_empty`).
    """
    if min_length < 2:
        raise ValueError("min_length must be >= 2")
    values = instance.values
    # fmin/fmax skip NaN, so equal extremes mean all observed values are equal
    frozen = ((~np.isnan(values)).sum(axis=0) >= min_length) \
        & (np.fmin.reduce(values, axis=0) == np.fmax.reduce(values, axis=0))
    return _names_where(instance, frozen)


def detect_empty(instance: TimeSeriesInstance) -> set[str]:
    return _names_where(instance, np.isnan(instance.values).all(axis=0))


def _names_where(instance: TimeSeriesInstance, flags: np.ndarray) -> set[str]:
    return {name for name, f in zip(instance.variable_names, flags.tolist()) if f}


# ---------------------------------------------------------------------------
# fitted preprocessing models


@dataclass(frozen=True)
class PreprocessConfig:
    tukey_multiplier: float = 1.5
    quartile_method: str = "linear"
    normalization: str = "zscore"

    def __post_init__(self):
        if self.tukey_multiplier <= 0:
            raise ConfigError("tukey_multiplier must be > 0")
        if self.quartile_method not in ("linear", "nearest"):
            raise ConfigError(f"unknown quartile_method {self.quartile_method!r}")
        if self.normalization not in ("zscore", "minmax"):
            raise ConfigError(f"unknown normalization {self.normalization!r}")


def _check_widths(columns: tuple[str, ...], **values: tuple) -> None:
    for key, value in values.items():
        if len(value) != len(columns):
            raise ValueError(f"{key}: {len(value)} entries for {len(columns)} columns")


@dataclass(frozen=True)
class ImputationModel:
    columns: tuple[str, ...]
    means: tuple[float, ...]

    def __post_init__(self):
        _check_widths(self.columns, means=self.means)


def fit_imputer(train: FeatureMatrix) -> ImputationModel:
    means = []
    for j, name in enumerate(train.column_names):
        col = train.values[:, j]
        observed = col[~np.isnan(col)]
        if observed.size == 0:
            raise AllMissingColumnError(f"column {name!r} has no observed values")
        mean = float(observed.mean())
        if not np.isfinite(mean):
            raise NonFiniteError(f"column {name!r}: training mean is not finite")
        means.append(mean)
    return ImputationModel(columns=train.column_names, means=tuple(means))


def apply_imputer(model: ImputationModel, matrix: FeatureMatrix) -> FeatureMatrix:
    _check_columns(model.columns, matrix)
    return matrix.with_values(np.where(np.isnan(matrix.values), model.means,
                                       matrix.values))


def fit_boxplots(train: FeatureMatrix, tukey_k: float = 1.5,
                 quartile_method: str = "linear") -> tuple[BoxplotStats, ...]:
    return tuple(boxplot_stats(train.values[:, j], tukey_k, quartile_method)
                 for j in range(train.n_cols))


def treat_outliers(matrix: FeatureMatrix,
                   stats: Sequence[Fences]) -> FeatureMatrix:
    """Winsorize: clamp observed values into [lower_fence, upper_fence].

    Keeps the row count intact (deletion would change totals) and is
    idempotent. Missing cells pass through.
    """
    if len(stats) != matrix.n_cols:
        raise WidthMismatchError(f"{len(stats)} fence sets for "
                                 f"{matrix.n_cols} columns")
    # fence first: a cell equal to its fence keeps its own sign of zero, as
    # np.clip against scalar fences does; NaN cells pass through
    values = np.maximum([st.lower_fence for st in stats], matrix.values)
    return matrix.with_values(np.minimum([st.upper_fence for st in stats], values,
                                         out=values))


@dataclass(frozen=True)
class NormalizationModel:
    columns: tuple[str, ...]
    center: tuple[float, ...]
    scale: tuple[float, ...]
    mode: str = "zscore"

    def __post_init__(self):
        if self.mode not in ("zscore", "minmax"):
            raise ValueError(f"unknown normalization mode {self.mode!r}")
        _check_widths(self.columns, center=self.center, scale=self.scale)

    @property
    def zero_scale_columns(self) -> tuple[str, ...]:
        return tuple(name for name, s in zip(self.columns, self.scale) if s == 0.0)


def fit_normalizer(train: FeatureMatrix, mode: str = "zscore") -> NormalizationModel:
    """Fit per-column center/scale. ``zscore``: mean and population standard
    deviation. ``minmax``: min and range. Requires a fully observed matrix
    (imputation runs first)."""
    if np.isnan(train.values).any():
        raise MissingCellsError("normalizer fit requires no missing cells")
    center, scale = [], []
    for j in range(train.n_cols):
        col = train.values[:, j]
        if mode == "zscore":
            center.append(float(col.mean()))
            scale.append(float(np.sqrt(np.mean((col - col.mean()) ** 2))))
        else:
            center.append(float(col.min()))
            scale.append(float(col.max() - col.min()))
    return NormalizationModel(columns=train.column_names,
                              center=tuple(center), scale=tuple(scale), mode=mode)


def apply_normalizer(model: NormalizationModel, matrix: FeatureMatrix) -> FeatureMatrix:
    if np.isnan(matrix.values).any():
        raise MissingCellsError("normalizer requires no missing cells")
    _check_columns(model.columns, matrix)
    values = matrix.values - model.center
    scale = np.array(model.scale)
    values /= np.where(scale == 0.0, 1.0, scale)  # constant columns: centered only
    return matrix.with_values(values)


def _check_columns(expected: tuple[str, ...], matrix: FeatureMatrix) -> None:
    if expected != matrix.column_names:
        raise WidthMismatchError(f"fitted on columns {expected}, "
                                 f"applying to {matrix.column_names}")


@dataclass(frozen=True)
class Preprocessor:
    """The fitted chain: mean imputation, then winsorizing at the Tukey
    fences, then normalization. Every model is fitted on training rows only;
    the fences keep their cut points only, since the training outlier rows
    are audit output, not part of the fitted model."""
    imputer: ImputationModel
    fences: tuple[Fences, ...]
    normalizer: NormalizationModel

    def __post_init__(self):
        columns = self.imputer.columns
        if self.normalizer.columns != columns:
            raise ValueError(f"normalizer.columns {list(self.normalizer.columns)} "
                             f"differ from imputer.columns {list(columns)}")
        _check_widths(columns, fences=self.fences)

    @classmethod
    def fit(cls, train: FeatureMatrix,
            config: PreprocessConfig = PreprocessConfig()) -> "Preprocessor":
        imputer = fit_imputer(train)
        imputed = apply_imputer(imputer, train)
        boxplots = fit_boxplots(imputed, config.tukey_multiplier,
                                config.quartile_method)
        normalizer = fit_normalizer(treat_outliers(imputed, boxplots),
                                    config.normalization)
        return cls(imputer, tuple(b.fences for b in boxplots), normalizer)

    def transform(self, matrix: FeatureMatrix) -> FeatureMatrix:
        return apply_normalizer(self.normalizer, treat_outliers(
            apply_imputer(self.imputer, matrix), self.fences))


_PREPROCESS_HEADER = {"format": "hydet-preprocess", "version": 1}


def save_preprocessor(prep: Preprocessor, path: str | Path) -> None:
    jsonio.dump({**_PREPROCESS_HEADER, **to_json(prep)}, path)


def load_preprocessor(path: str | Path) -> Preprocessor:
    """Read a ``save_preprocessor`` file under the config-file type rules, so
    a bad value names its key path."""
    data = jsonio.load(path)
    if not isinstance(data, dict) or any(data.get(k) != v
                                         for k, v in _PREPROCESS_HEADER.items()):
        raise ModelFormatError(f"{path}: unsupported preprocess model file")
    return from_file(Preprocessor, {k: v for k, v in data.items()
                                    if k not in _PREPROCESS_HEADER}, path)


# ---------------------------------------------------------------------------
# corpus-level report


@dataclass(frozen=True)
class ChannelQuality:
    name: str
    unit: str
    n_total: int
    n_missing: int
    missing_pct: float
    n_frozen_instance_channels: int
    frozen_pct: float
    n_empty_instance_channels: int
    boxplot: BoxplotStats
    n_outliers: int
    outlier_pct: float


@dataclass(frozen=True)
class QualityReport:
    """``to_json`` of it is ``quality_report.json``."""
    channels: tuple[ChannelQuality, ...]
    n_instances: int
    total_cells: int
    overall_missing_pct: float
    overall_frozen_pct: float
    overall_outlier_pct: float


def quality_report(instances: Sequence[TimeSeriesInstance],
                   matrix: FeatureMatrix,
                   min_length: int = 2,
                   tukey_k: float = 1.5,
                   quartile_method: str = "linear") -> QualityReport:
    """Aggregate missing/frozen/outlier audits over a corpus.

    ``matrix`` must be the flattening of ``instances`` over the channels to
    audit; all statistics are computed on raw (pre-imputation) data.
    Percentages use the full cell count of each channel as denominator.
    """
    if matrix.n_rows == 0:
        raise EmptyDataError("quality_report on empty matrix")
    n = matrix.n_rows
    missing = np.isnan(matrix.values)

    frozen_counts = dict.fromkeys(matrix.column_names, 0)
    empty_counts = dict.fromkeys(matrix.column_names, 0)
    for inst in instances:
        for name in detect_frozen(inst, min_length) & frozen_counts.keys():
            frozen_counts[name] += 1
        for name in detect_empty(inst) & empty_counts.keys():
            empty_counts[name] += 1

    n_inst = len(instances)
    channels = []
    total_outliers = 0
    for j, name in enumerate(matrix.column_names):
        bp = boxplot_stats(matrix.values[:, j], tukey_k, quartile_method)
        total_outliers += bp.n_outliers
        channels.append(ChannelQuality(
            name=name,
            unit=variable_info(name).unit,
            n_total=n,
            n_missing=int(missing[:, j].sum()),
            missing_pct=100.0 * missing[:, j].sum() / n,
            n_frozen_instance_channels=frozen_counts[name],
            frozen_pct=100.0 * frozen_counts[name] / n_inst,
            n_empty_instance_channels=empty_counts[name],
            boxplot=bp,
            n_outliers=bp.n_outliers,
            outlier_pct=100.0 * bp.n_outliers / n,
        ))

    total_cells = n * matrix.n_cols
    total_inst_channels = n_inst * matrix.n_cols
    return QualityReport(
        channels=tuple(channels),
        n_instances=n_inst,
        total_cells=total_cells,
        overall_missing_pct=100.0 * missing.sum() / total_cells,
        overall_frozen_pct=100.0 * sum(frozen_counts.values()) / total_inst_channels,
        overall_outlier_pct=100.0 * total_outliers / total_cells,
    )


# ---------------------------------------------------------------------------
# boxplot SVG export

_SVG_W, _SVG_H = 320, 420
_PLOT_TOP, _PLOT_BOTTOM = 40, 380
_BOX_LEFT, _BOX_RIGHT = 110, 210
_MID_X = (_BOX_LEFT + _BOX_RIGHT) // 2
_MAX_DOTS = 1000


def render_boxplot_svg(column: np.ndarray, name: str, stats: BoxplotStats) -> str:
    """Standalone SVG boxplot of ``column`` from its ``boxplot_stats``: box,
    median, whiskers to the most extreme in-fence values, and outlier dots
    (capped at 1000 for file size)."""
    col = np.asarray(column, dtype=np.float64)
    observed = col[~np.isnan(col)]
    inside = observed[(observed >= stats.lower_fence) & (observed <= stats.upper_fence)]
    whisker_lo = float(inside.min())
    whisker_hi = float(inside.max())
    outliers = [float(col[i]) for i in stats.outlier_row_indices[:_MAX_DOTS]]

    vmin = min([whisker_lo] + outliers)
    vmax = max([whisker_hi] + outliers)
    span = vmax - vmin or 1.0

    def y(v: float) -> float:
        return _PLOT_BOTTOM - (v - vmin) / span * (_PLOT_BOTTOM - _PLOT_TOP)

    def line(x1, y1, x2, y2, width=1.5):
        return (f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
                f'stroke="black" stroke-width="{width}"/>')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<title>{name}</title>',
        f'<text x="{_MID_X}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{name}</text>',
        # whiskers
        line(_MID_X, y(whisker_lo), _MID_X, y(stats.q1)),
        line(_MID_X, y(stats.q3), _MID_X, y(whisker_hi)),
        line(_BOX_LEFT + 20, y(whisker_lo), _BOX_RIGHT - 20, y(whisker_lo)),
        line(_BOX_LEFT + 20, y(whisker_hi), _BOX_RIGHT - 20, y(whisker_hi)),
        # box and median
        f'<rect x="{_BOX_LEFT}" y="{y(stats.q3):.1f}" '
        f'width="{_BOX_RIGHT - _BOX_LEFT}" '
        f'height="{max(y(stats.q1) - y(stats.q3), 0.5):.1f}" '
        f'fill="none" stroke="black" stroke-width="1.5"/>',
        line(_BOX_LEFT, y(stats.median), _BOX_RIGHT, y(stats.median), 2.5),
    ]
    for v in outliers:
        parts.append(f'<circle cx="{_MID_X}" cy="{y(v):.1f}" r="2.5" '
                     f'fill="none" stroke="black"/>')
    if stats.n_outliers > _MAX_DOTS:
        parts.append(f'<text x="{_MID_X}" y="{_SVG_H - 8}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">'
                     f'{stats.n_outliers} outliers ({_MAX_DOTS} drawn)</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
