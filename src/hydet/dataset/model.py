"""Domain types for labeled multichannel well time series."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from datetime import datetime
from enum import IntEnum
from typing import Mapping, Sequence

import numpy as np

from ..errors import EmptyDataError, TimestampOrderError


class ClassLabel(IntEnum):
    """Operational condition of a well episode. Codes are fixed: 0/1/2."""

    NORMAL = 0
    RAPID_LOSS = 1
    HYDRATE = 2

    @property
    def display_name(self) -> str:
        return _DISPLAY_NAMES[self]

    @classmethod
    def from_name(cls, name: str) -> "ClassLabel":
        for label, display in _DISPLAY_NAMES.items():
            if name in (display, label.name):
                return label
        raise ValueError(f"unknown class label name: {name!r}")


_DISPLAY_NAMES = {
    ClassLabel.NORMAL: "NormalCondition",
    ClassLabel.RAPID_LOSS: "RapidProductivityLoss",
    ClassLabel.HYDRATE: "Hydrate",
}


@dataclass(frozen=True)
class SensorVariable:
    """A named sensor channel with its physical unit."""

    name: str
    unit: str


#: The four process variables used for modeling, in canonical column order.
CANONICAL_VARIABLES = (
    SensorVariable("P-TPT", "Pa"),
    SensorVariable("T-TPT", "degC"),
    SensorVariable("P-MON-CKP", "Pa"),
    SensorVariable("T-JUS-CKP", "degC"),
)

CANONICAL_VARIABLE_NAMES = tuple(v.name for v in CANONICAL_VARIABLES)

_CANONICAL_BY_NAME = {v.name: v for v in CANONICAL_VARIABLES}


def variable_info(name: str) -> SensorVariable:
    """Registry lookup; non-canonical channels carry no unit guarantee."""
    return _CANONICAL_BY_NAME.get(name, SensorVariable(name, ""))


Timestamp = int | datetime


@dataclass(frozen=True, eq=False)
class TimeSeriesInstance:
    """One labeled well episode.

    ``values`` is a read-only float64 array of shape (T, C): one row per
    timestamp, one column per name in ``variable_names``, NaN for a missing
    reading.
    """

    instance_id: str
    label: ClassLabel
    timestamps: tuple[Timestamp, ...]
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
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        stamps = self.timestamps
        if any(map(operator.lt, stamps[1:], stamps)):
            i = next(i for i in range(1, n) if stamps[i] < stamps[i - 1])
            raise TimestampOrderError(
                f"instance {self.instance_id!r}: timestamp at row {i} "
                f"({stamps[i]}) precedes row {i - 1}")

    def __len__(self) -> int:
        return len(self.timestamps)


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


@dataclass(frozen=True)
class SplitSpec:
    """Parameters of the deterministic train/test partition."""

    test_fraction: float = 0.25
    seed: int = 42
    mode: str = "row"
    stratified: bool = True

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0,1), got {self.test_fraction}")
        if self.mode not in ("row", "instance"):
            raise ValueError(f"mode must be 'row' or 'instance', got {self.mode!r}")
