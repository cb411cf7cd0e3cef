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
from .declarations import PreprocessConfig, variable_info
from .errors import (AllMissingColumnError, EmptyDataError, MissingCellsError,
                     ModelFormatError, NonFiniteError, WidthMismatchError)
from .dataset.model import FeatureMatrix


# ---------------------------------------------------------------------------
# quantiles and boxplot statistics


def _sorted_quantile(x: np.ndarray, p: float, method: str) -> float:
    """The ``p`` quantile of the non-empty, ascending array ``x`` of finite
    values. ``linear``: interpolate between the order statistics at
    position (n-1)*p. ``nearest``: the order statistic at round((n-1)*p)."""
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
    x = col[observed]
    x.sort()  # in place: the fancy index above is already a copy
    if x.size < 4:
        raise EmptyDataError(f"boxplot needs >= 4 observed values, have {x.size}")
    q1, med, q3 = (_sorted_quantile(x, p, quartile_method) for p in (0.25, 0.5, 0.75))
    del x  # freed before the outlier masks
    iqr = q3 - q1
    lower = q1 - tukey_k * iqr
    upper = q3 + tukey_k * iqr
    outside = observed & ((col < lower) | (col > upper))
    return BoxplotStats(q1=q1, median=med, q3=q3, iqr=iqr,
                        lower_fence=lower, upper_fence=upper,
                        outlier_row_indices=tuple(np.flatnonzero(outside).tolist()))


# ---------------------------------------------------------------------------
# fitted preprocessing models


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
    return _fit_imputer(train.values, train.column_names)


def _fit_imputer(values: np.ndarray, columns: tuple[str, ...]) -> ImputationModel:
    means = []
    for j, name in enumerate(columns):
        col = values[:, j]
        observed = col[~np.isnan(col)]
        if observed.size == 0:
            raise AllMissingColumnError(f"column {name!r} has no observed values")
        mean = float(observed.mean())
        del observed  # one column's copy at a time
        if not np.isfinite(mean):
            raise NonFiniteError(f"column {name!r}: training mean is not finite")
        means.append(mean)
    return ImputationModel(columns=columns, means=tuple(means))


def apply_imputer(model: ImputationModel, matrix: FeatureMatrix) -> FeatureMatrix:
    _check_columns(model.columns, matrix)
    return matrix.with_values(_impute(matrix.values.copy(), model))


def _impute(values: np.ndarray, model: ImputationModel) -> np.ndarray:
    np.copyto(values, model.means, where=np.isnan(values))
    return values


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
    return matrix.with_values(_clamp(matrix.values.copy(), stats))


def _clamp(values: np.ndarray, stats: Sequence[Fences]) -> np.ndarray:
    # fence first: a cell equal to its fence keeps its own sign of zero, as
    # np.clip against scalar fences does; NaN cells pass through
    np.maximum([st.lower_fence for st in stats], values, out=values)
    return np.minimum([st.upper_fence for st in stats], values, out=values)


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


def fit_normalizer(train: FeatureMatrix, mode: str = "zscore") -> NormalizationModel:
    """Fit per-column center/scale. ``zscore``: mean and population standard
    deviation. ``minmax``: min and range. Requires a fully observed matrix
    (imputation runs first)."""
    return _fit_normalizer(train.values, train.column_names, mode)


def _fit_normalizer(values: np.ndarray, columns: tuple[str, ...],
                    mode: str) -> NormalizationModel:
    if np.isnan(values).any():
        raise MissingCellsError("normalizer fit requires no missing cells")
    center, scale = [], []
    for col in values.T:
        if mode == "zscore":
            center.append(float(col.mean()))
            scale.append(float(np.sqrt(np.mean((col - col.mean()) ** 2))))
        else:
            center.append(float(col.min()))
            scale.append(float(col.max() - col.min()))
    return NormalizationModel(columns=columns, center=tuple(center),
                              scale=tuple(scale), mode=mode)


def apply_normalizer(model: NormalizationModel, matrix: FeatureMatrix) -> FeatureMatrix:
    if np.isnan(matrix.values).any():
        raise MissingCellsError("normalizer requires no missing cells")
    _check_columns(model.columns, matrix)
    return matrix.with_values(_normalize(matrix.values.copy(), model))


def _normalize(values: np.ndarray, model: NormalizationModel) -> np.ndarray:
    values -= model.center
    scale = np.array(model.scale)
    values /= np.where(scale == 0.0, 1.0, scale)  # constant columns: centered only
    return values


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
        return cls._fit(train.values.copy(), train.column_names, config)

    @classmethod
    def fit_transform(cls, train: FeatureMatrix,
                      config: PreprocessConfig = PreprocessConfig(),
                      ) -> tuple["Preprocessor", FeatureMatrix]:
        """``fit(train, config)`` and its ``transform(train)``, bit for bit,
        in ``train``'s own values, which it overwrites: they must own their
        memory."""
        values = train.values
        values.setflags(write=True)
        prep = cls._fit(values, train.column_names, config)
        return prep, train.with_values(_normalize(values, prep.normalizer))

    @classmethod
    def _fit(cls, values: np.ndarray, columns: tuple[str, ...],
             config: PreprocessConfig) -> "Preprocessor":
        """The chain fitted on ``values``, which it leaves imputed and
        clamped: the training rows as ``transform`` has them just before it
        normalizes."""
        imputer = _fit_imputer(values, columns)
        fences = tuple(boxplot_stats(column, config.tukey_multiplier,
                                     config.quartile_method).fences
                       for column in _impute(values, imputer).T)
        normalizer = _fit_normalizer(_clamp(values, fences), columns,
                                     config.normalization)
        return cls(imputer, fences, normalizer)

    def transform(self, matrix: FeatureMatrix) -> FeatureMatrix:
        return self._transform_owned(matrix.with_values(matrix.values.copy()))

    def _transform_owned(self, matrix: FeatureMatrix) -> FeatureMatrix:
        """``transform(matrix)``, bit for bit, in ``matrix``'s own values,
        which it overwrites: they must own their memory."""
        _check_columns(self.imputer.columns, matrix)
        values = matrix.values
        values.setflags(write=True)
        _clamp(_impute(values, self.imputer), self.fences)
        return matrix.with_values(_normalize(values, self.normalizer))


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


def _instance_runs(matrix: FeatureMatrix) -> np.ndarray:
    """The first row of each instance in a non-empty ``matrix``, which must
    hold every instance of ``instance_ids`` whole, once and in order, as
    ``flatten`` gives them."""
    origin = matrix._origin_for("the quality audit")
    inst, step = origin[:, 0], origin[:, 1]
    starts = np.flatnonzero(np.diff(inst, prepend=inst[0] - 1))
    if np.array_equal(inst[starts], np.arange(len(matrix.instance_ids))):
        offsets = np.arange(matrix.n_rows)  # each run counts its steps from 0
        offsets -= np.repeat(starts, np.diff(starts, append=matrix.n_rows))
        if np.array_equal(step, offsets):
            return starts
    raise ValueError("the matrix does not hold each of its instances as one "
                     "whole run of rows in order; audit flatten's output")


def _frozen_and_empty(values: np.ndarray,
                      min_length: int) -> tuple[np.ndarray, np.ndarray]:
    """Per column of one instance's rows: frozen flags, then empty flags."""
    if min_length < 2:
        raise ValueError("min_length must be >= 2")
    n_observed = (~np.isnan(values)).sum(axis=0)
    # fmin/fmax skip NaN, so equal extremes mean all observed values are equal
    frozen = (n_observed >= min_length) \
        & (np.fmin.reduce(values, axis=0) == np.fmax.reduce(values, axis=0))
    return frozen, n_observed == 0


def quality_report(matrix: FeatureMatrix,
                   min_length: int = 2,
                   tukey_k: float = 1.5,
                   quartile_method: str = "linear") -> QualityReport:
    """Aggregate missing/frozen/outlier audits over a flattened corpus.

    ``matrix`` is ``flatten``'s output over the channels to audit: each
    instance is one run of rows, from which its frozen and empty channels
    are counted. All statistics are computed on raw (pre-imputation) data.
    Percentages use the full cell count of each channel as denominator.
    """
    if matrix.n_rows == 0:
        raise EmptyDataError("quality_report on empty matrix")
    n = matrix.n_rows
    flags = np.array([_frozen_and_empty(run, min_length)  # (runs, 2, columns)
                      for run in np.split(matrix.values, _instance_runs(matrix)[1:])])
    frozen_counts, empty_counts = flags.sum(axis=0).tolist()
    missing = np.isnan(matrix.values)

    n_inst = len(matrix.instance_ids)
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
            n_frozen_instance_channels=frozen_counts[j],
            frozen_pct=100.0 * frozen_counts[j] / n_inst,
            n_empty_instance_channels=empty_counts[j],
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
        overall_frozen_pct=100.0 * sum(frozen_counts) / total_inst_channels,
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

    name = name.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
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
