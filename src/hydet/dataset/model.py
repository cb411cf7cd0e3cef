"""Domain types for labeled multichannel well time series."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Mapping, Sequence

import numpy as np

from ..declarations import (CANONICAL_VARIABLE_NAMES, CANONICAL_VARIABLES, ClassLabel,
                            SensorVariable, SplitSpec, variable_info)
from ..errors import EmptyDataError, NonFiniteError, TimestampOrderError


@dataclass(frozen=True, eq=False)
class TimeSeriesInstance:
    """One labeled well episode.

    ``values`` is a read-only float64 array of shape (T, C): one row per
    timestamp, one column per name in ``variable_names``, NaN for a missing
    reading. An infinite value raises ``NonFiniteError``: the CSV loader
    rejects one too, so every instance round-trips through its own file.
    ``timestamps`` is a tuple of ``datetime`` (ISO files) or else a read-only
    int64 array of epoch seconds (T,); either kind must not decrease.
    """

    instance_id: str
    label: ClassLabel
    timestamps: np.ndarray | tuple[datetime, ...]
    variable_names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        n = len(self.timestamps)
        if n == 0:
            raise EmptyDataError(f"instance {self.instance_id!r} has zero rows")
        if not self.variable_names:
            raise EmptyDataError(f"instance {self.instance_id!r} has no channels")
        if len(set(self.variable_names)) != len(self.variable_names):
            raise ValueError(f"instance {self.instance_id!r}: duplicate channel "
                             f"names in {self.variable_names}")
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (n, len(self.variable_names)):
            raise ValueError(f"instance {self.instance_id!r}: values shape "
                             f"{values.shape} is not ({n} timestamps, "
                             f"{len(self.variable_names)} channels)")
        if np.isinf(values).any():
            i, j = np.argwhere(np.isinf(values))[0]
            raise NonFiniteError(f"instance {self.instance_id!r}: infinite value at "
                                 f"row {i}, channel {self.variable_names[j]!r}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        stamps = self.timestamps
        if isinstance(stamps[0], datetime):
            back = next((i for i in range(1, n) if stamps[i] < stamps[i - 1]), None)
        else:
            stamps = np.ascontiguousarray(stamps)
            if stamps.ndim != 1 or not np.can_cast(stamps.dtype, np.int64):
                raise TypeError(f"instance {self.instance_id!r}: timestamps must be "
                                f"int64 epoch seconds or datetimes")
            stamps = stamps.astype(np.int64, copy=False)
            stamps.setflags(write=False)
            object.__setattr__(self, "timestamps", stamps)
            later = np.flatnonzero(stamps[1:] < stamps[:-1])
            back = int(later[0]) + 1 if later.size else None
        if back is not None:
            raise TimestampOrderError(
                f"instance {self.instance_id!r}: timestamp at row {back} "
                f"({stamps[back]}) precedes row {back - 1}")

    def __len__(self) -> int:
        return len(self.timestamps)

    def __reduce__(self):
        # through the constructor: the default would restore the fields
        # unchecked, with writable arrays
        return (_unpickled_instance, (self.instance_id, self.label, self.timestamps,
                                      self.variable_names, self.values))


def _unpickled_instance(instance_id, label, timestamps, variable_names,
                        values) -> TimeSeriesInstance:
    """numpy unpickles a large array as a view of the pickle's bytes, with a
    dtype equal to but not the same object as ``np.float64``'s, which would
    make the constructor's ``asarray`` a view again. ``astype`` copies each
    array out, so that it owns its data as a loaded instance's does."""
    if isinstance(timestamps, np.ndarray):
        timestamps = timestamps.astype(np.int64)
    return TimeSeriesInstance(instance_id, label, timestamps, variable_names,
                              values.astype(np.float64))


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    path: str
    label: ClassLabel


@dataclass(frozen=True)
class DatasetManifest:
    """Directory inventory, one entry per instance file: ``manifest.json``."""

    instances: tuple[ManifestEntry, ...]
    class_counts: Mapping[ClassLabel, int]

    def __post_init__(self):
        if sum(self.class_counts.values()) != len(self.instances):
            raise ValueError("class_counts does not sum to the entry count")
        paths = [e.path for e in self.instances]
        if len(set(paths)) != len(paths):
            raise ValueError("manifest contains duplicate paths")

    @property
    def entries(self) -> tuple[ManifestEntry, ...]:
        """``instances`` under its former name, which ``bench/tracer.py`` reads."""
        return self.instances


@dataclass(frozen=True)
class FeatureMatrix:
    """Row-per-timestamp numeric table; NaN marks a missing reading.

    ``origin`` is a read-only int64 array of shape (n_rows, 2) holding, per
    row, the source instance's index into ``instance_ids`` and the timestamp
    index, so that partitions can be traced back to episodes.
    """

    column_names: tuple[str, ...]
    values: np.ndarray
    labels: np.ndarray
    origin: np.ndarray
    instance_ids: tuple[str, ...]

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        origin = np.ascontiguousarray(self.origin, dtype=np.int64)
        if values.ndim != 2 or values.shape[1] != len(self.column_names):
            raise ValueError(f"values shape {values.shape} does not match "
                             f"{len(self.column_names)} columns")
        if labels.shape != (values.shape[0],):
            raise ValueError("labels length does not match row count")
        if origin.shape != (values.shape[0], 2):
            raise ValueError(f"origin shape {origin.shape} is not (rows, 2)")
        for name, array in (("values", values), ("labels", labels), ("origin", origin)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def take(self, indices: Sequence[int]) -> "FeatureMatrix":
        idx = np.asarray(indices, dtype=np.int64)
        return FeatureMatrix(self.column_names, self.values[idx], self.labels[idx],
                             self.origin[idx], self.instance_ids)

    def with_values(self, values: np.ndarray) -> "FeatureMatrix":
        """Same rows/labels/origin with a replaced value grid."""
        return FeatureMatrix(self.column_names, values, self.labels, self.origin,
                             self.instance_ids)
