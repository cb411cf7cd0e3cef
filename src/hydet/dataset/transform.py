"""Flattening episodes into a row-per-timestamp matrix, and splitting it."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import EmptyDataError, MissingVariableError, SplitError
from ..rng import CounterRng
from .model import FeatureMatrix, SplitSpec, TimeSeriesInstance


def flatten(instances: Sequence[TimeSeriesInstance],
            variables: Sequence[str]) -> FeatureMatrix:
    """One matrix row per (instance, timestamp); labels broadcast per instance.

    The output arrays are allocated once and filled instance by instance, so
    flattening holds nothing beyond its result."""
    if not instances:
        raise EmptyDataError("flatten: no instances")
    if not variables:
        raise EmptyDataError("flatten: no variables requested")
    variables = tuple(variables)

    columns = []
    for inst in instances:
        for var in variables:
            if var not in inst.variable_names:
                raise MissingVariableError(
                    f"instance {inst.instance_id!r} lacks channel {var!r}")
        columns.append([inst.variable_names.index(var) for var in variables])
    n_rows = sum(map(len, instances))
    values = np.empty((n_rows, len(variables)))
    labels = np.empty(n_rows, dtype=np.int64)
    origin = np.empty((n_rows, 2), dtype=np.int64)
    steps = np.arange(max(map(len, instances)))
    start = 0
    for i, (inst, cols) in enumerate(zip(instances, columns)):
        stop = start + len(inst)
        values[start:stop] = inst.values[:, cols]
        labels[start:stop] = inst.label
        origin[start:stop, 0] = i
        origin[start:stop, 1] = steps[:stop - start]
        start = stop
    return FeatureMatrix(column_names=variables, values=values, labels=labels,
                         origin=origin,
                         instance_ids=tuple(inst.instance_id for inst in instances))


def rounded_count(fraction: float, n: int) -> int:
    """``fraction * n`` rounded half up: per-class counts stay within one row
    of proportionality."""
    return int(np.floor(fraction * n + 0.5))


def _pick_test_rows(indices: np.ndarray, fraction: float, rng: CounterRng) -> np.ndarray:
    k = rounded_count(fraction, len(indices))
    return indices[rng.sample_indices(len(indices), k)]


def split(matrix: FeatureMatrix, spec: SplitSpec) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Deterministic, disjoint and exhaustive train/test partition.

    Row order within each part preserves the original matrix order. In
    instance mode all rows of an episode land on the same side.
    """
    n = matrix.n_rows
    if n < 2:
        raise SplitError(f"need at least 2 rows to split, have {n}")
    rng = CounterRng(spec.seed)

    if spec.mode == "row":
        test_idx = _split_row(matrix, spec, rng)
    else:
        test_idx = _split_instance(matrix, spec, rng)

    if len(test_idx) == 0 or len(test_idx) == n:
        raise SplitError(
            f"test_fraction {spec.test_fraction} yields an empty part "
            f"({len(test_idx)} of {n} rows in test)")

    mask = np.zeros(n, dtype=bool)
    mask[test_idx] = True
    train = matrix.take(np.flatnonzero(~mask))
    test = matrix.take(np.flatnonzero(mask))
    return train, test


def _split_row(matrix: FeatureMatrix, spec: SplitSpec, rng: CounterRng) -> np.ndarray:
    if not spec.stratified:
        return _pick_test_rows(np.arange(matrix.n_rows), spec.test_fraction,
                               rng.derive(0))
    picks = []
    for label in np.unique(matrix.labels):
        rows = np.flatnonzero(matrix.labels == label)
        if len(rows) < 2:
            raise SplitError(f"class {int(label)} has {len(rows)} row(s); "
                             "stratified row split needs at least 2")
        picks.append(_pick_test_rows(rows, spec.test_fraction,
                                     rng.derive(int(label))))
    return np.concatenate(picks)


def _split_instance(matrix: FeatureMatrix, spec: SplitSpec,
                    rng: CounterRng) -> np.ndarray:
    inst_of_row = matrix.origin[:, 0]
    # first row of every instance, in order of first appearance
    firsts = np.sort(np.unique(inst_of_row, return_index=True)[1])
    if len(firsts) < 2:
        raise SplitError("instance split needs at least 2 instances")

    def rows_of(chosen: np.ndarray) -> np.ndarray:
        return np.flatnonzero(np.isin(inst_of_row, inst_of_row[firsts[chosen]]))

    if not spec.stratified:
        test_inst = _pick_test_rows(np.arange(len(firsts)), spec.test_fraction,
                                    rng.derive(0))
        return rows_of(test_inst)

    labels_arr = matrix.labels[firsts]
    picks = []
    for label in np.unique(labels_arr):
        members = np.flatnonzero(labels_arr == label)
        if len(members) < 2:
            raise SplitError(f"class {int(label)} has {len(members)} instance(s); "
                             "stratified instance split needs at least 2")
        picks.append(_pick_test_rows(members, spec.test_fraction,
                                     rng.derive(int(label))))
    return rows_of(np.concatenate(picks))
