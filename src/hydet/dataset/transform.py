"""Flattening episodes into a row-per-timestamp matrix, and splitting it."""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import EmptyDataError, MissingVariableError, SplitError
from ..rng import CounterRng
from .model import FeatureMatrix, SplitSpec, TimeSeriesInstance


def flatten(instances: Sequence[TimeSeriesInstance],
            variables: Sequence[str]) -> FeatureMatrix:
    """One matrix row per (instance, timestamp); labels broadcast per instance.

    The output arrays are allocated once, at the exact row count, and filled
    instance by instance, so flattening holds nothing beyond its result."""
    rows = _MatrixRows(variables, tuple(inst.instance_id for inst in instances),
                       lambda n_rows, placed: sum(map(len, instances)))
    for inst in instances:
        rows.place(rows.channels(inst))
    return rows.matrix()


class _MatrixRows:
    """The fill of a ``FeatureMatrix`` that ``flatten`` and ``io.load_matrix``
    share: ``place(channels(inst))`` for each instance, in ``ids`` order, then
    ``matrix()``. Arrays that the rows overrun grow, by ``ndarray.resize``, to
    ``capacity(rows placed, instances placed)`` rows."""

    def __init__(self, variables: Sequence[str], ids: tuple[str, ...],
                 capacity: Callable[[int, int], int]):
        self.variables, self.ids, self.capacity = tuple(variables), ids, capacity
        self.arrays: tuple[np.ndarray, ...] = ()  # values, labels, origin
        self.n_rows = self.placed = 0
        self.lacking = None  # the first (instance id, channel) missing

    def channels(self, inst: TimeSeriesInstance) -> tuple:
        """``inst``'s values over the variables, its label, and the first
        variable it lacks, if any (then no values)."""
        names = inst.variable_names
        missing = next((v for v in self.variables if v not in names), None)
        cols = [names.index(v) for v in self.variables if v in names]
        return (inst.values[:, cols] if missing is None else None), inst.label, missing

    def place(self, selected: tuple) -> None:
        """The next instance's rows, from what ``channels`` gave for it; none
        from the first instance that lacks a variable on."""
        part, label, missing = selected
        self.placed += 1
        if self.lacking is None and missing is not None:
            self.lacking = self.ids[self.placed - 1], missing
        if self.lacking is not None:
            return
        start, self.n_rows = self.n_rows, self.n_rows + len(part)
        if not self.arrays or self.n_rows > len(self.arrays[0]):
            rows = self.capacity(self.n_rows, self.placed)
            if self.arrays:
                for array in self.arrays:
                    array.resize((rows, *array.shape[1:]), refcheck=False)
            else:
                self.arrays = (np.empty((rows, len(self.variables))),
                               np.empty(rows, np.int8), np.empty((rows, 2), np.int32))
        values, labels, origin = self.arrays
        values[start:self.n_rows] = part
        labels[start:self.n_rows] = label
        origin[start:self.n_rows, 0] = self.placed - 1
        origin[start:self.n_rows, 1] = np.arange(len(part), dtype=np.int32)

    def matrix(self) -> FeatureMatrix:
        if not self.ids:
            raise EmptyDataError("flatten: no instances")
        if not self.variables:
            raise EmptyDataError("flatten: no variables requested")
        if self.lacking is not None:
            raise MissingVariableError(f"instance {self.lacking[0]!r} lacks channel "
                                       f"{self.lacking[1]!r}")
        for array in self.arrays:
            array.resize((self.n_rows, *array.shape[1:]), refcheck=False)
        return FeatureMatrix(self.variables, *self.arrays, self.ids)


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
