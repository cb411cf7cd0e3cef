"""Flattening episodes into a row-per-timestamp matrix, and splitting it."""

from __future__ import annotations

from typing import Iterable, Sequence

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
    labels = np.empty(n_rows, dtype=np.int8)
    origin = np.empty((n_rows, 2), dtype=np.int32)
    steps = np.arange(max(map(len, instances)), dtype=np.int32)
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


def shared_channels(names_per_instance: Iterable[Sequence[str]]) -> tuple[str, ...]:
    """The channels every instance names, in the first instance's order."""
    shared = None
    for names in names_per_instance:
        shared = list(names) if shared is None else [v for v in shared if v in names]
    return tuple(shared or ())


def rounded_count(fraction: float, n: int) -> int:
    """``fraction * n`` rounded half up: per-class counts stay within one row
    of proportionality."""
    return int(np.floor(fraction * n + 0.5))


def split(matrix: FeatureMatrix, spec: SplitSpec) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Deterministic, disjoint and exhaustive train/test partition.

    Test takes ``rounded_count`` of each class's units (unstratified: of all
    units): rows in row mode, or instances labelled by their first row in
    instance mode, where all rows of an episode land on the same side. Row
    order within each part preserves the original matrix order. ``matrix``
    is left as it is.
    """
    test = _test_mask(matrix, spec)
    return matrix.take(np.flatnonzero(~test)), matrix.take(np.flatnonzero(test))


def _split_in_place(matrix: FeatureMatrix,
                    spec: SplitSpec) -> tuple[FeatureMatrix, FeatureMatrix]:
    """``split(matrix, spec)``, bit for bit, consuming ``matrix``: the test
    rows are copied out, the train rows move forward within ``matrix``'s own
    arrays, ``_MOVE_ROWS`` at a time, and the arrays shrink to them, so no
    more than the test part and one such block is held beyond ``matrix``.
    The train rows' indices ascend, so none is overwritten before it moves.

    ``ndarray.resize`` reallocates the arrays, so they must own their memory
    and no view of them may exist: the CLI's own matrices, which nothing else
    sees, are the only ones passed here.
    """
    test = _test_mask(matrix, spec)
    test_part = matrix.take(np.flatnonzero(test))
    arrays = matrix.values, matrix.labels, matrix.origin
    for array in arrays:
        array.setflags(write=True)
    n_train = 0
    for first in range(0, matrix.n_rows, _MOVE_ROWS):
        rows = np.flatnonzero(~test[first:first + _MOVE_ROWS])
        rows += first
        for array in arrays:
            array[n_train:n_train + len(rows)] = array[rows]
        n_train += len(rows)
    for array in arrays:
        array.resize((n_train, *array.shape[1:]), refcheck=False)
    return FeatureMatrix(matrix.column_names, *arrays, matrix.instance_ids), test_part


#: rows of a matrix that ``_split_in_place`` moves at once
_MOVE_ROWS = 1 << 15


def _test_mask(matrix: FeatureMatrix, spec: SplitSpec) -> np.ndarray:
    """Which rows of ``matrix`` ``split`` puts in its test part."""
    n = matrix.n_rows
    if n < 2:
        raise SplitError(f"need at least 2 rows to split, have {n}")
    rng = CounterRng(spec.seed)

    if spec.mode == "row":
        test = np.zeros(n, dtype=bool)
        test[_test_units(matrix.labels, spec, rng, "row")] = True
    else:
        inst_of_row = matrix._origin_for("the instance split")[:, 0]
        # first row of every instance, in order of first appearance
        firsts = np.sort(np.unique(inst_of_row, return_index=True)[1])
        if len(firsts) < 2:
            raise SplitError("instance split needs at least 2 instances")
        chosen = _test_units(matrix.labels[firsts], spec, rng, "instance")
        test = np.isin(inst_of_row, inst_of_row[firsts[chosen]])

    n_test = int(np.count_nonzero(test))
    if n_test == 0 or n_test == n:
        raise SplitError(
            f"test_fraction {spec.test_fraction} yields an empty part "
            f"({n_test} of {n} rows in test)")
    return test


def _test_units(labels: np.ndarray, spec: SplitSpec, rng: CounterRng,
                unit: str) -> np.ndarray:
    """Indices of the units drawn for test, given each unit's label: each
    class's draw comes from ``rng.derive(label)``, the unstratified one from
    ``rng.derive(0)``."""
    picks = []
    for key in np.unique(labels).tolist() if spec.stratified else [0]:
        units = (np.flatnonzero(labels == key) if spec.stratified
                 else np.arange(len(labels)))
        if spec.stratified and len(units) < 2:
            raise SplitError(f"class {key} has {len(units)} {unit}(s); "
                             f"stratified {unit} split needs at least 2")
        k = rounded_count(spec.test_fraction, len(units))
        picks.append(units[rng.derive(key).sample_indices(len(units), k)])
    return np.concatenate(picks)
