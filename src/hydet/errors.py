"""Exception types shared across the package.

Each failure mode callers are expected to branch on gets its own class;
messages name the offending file/row/column where that is knowable.
"""

from __future__ import annotations


class HydetError(Exception):
    """Base class for all package errors."""


class CsvFormatError(HydetError):
    """Malformed instance CSV (bad header, bad cell, ragged row)."""


class TimestampOrderError(HydetError):
    """Timestamps in an instance file are not monotone non-decreasing."""


class LabelConflictError(HydetError):
    """The file's class column disagrees with the caller-supplied label."""


class EmptyDataError(HydetError):
    """No data rows / empty sample where at least one value is required."""


class MissingVariableError(HydetError):
    """A requested sensor variable is absent from an instance."""


class SplitError(HydetError):
    """Degenerate split: empty part or class too small for stratification."""


class AllMissingColumnError(HydetError):
    """A training column contains no observed values."""


class MissingCellsError(HydetError):
    """Missing cells present where a fully observed matrix is required."""


class WidthMismatchError(HydetError):
    """Row width differs from the width the model was fitted on."""


class NonFiniteError(HydetError):
    """NaN or infinity encountered where finite values are required."""


class ModelFormatError(HydetError):
    """Serialized model file has an unknown version or kind, or malformed fields."""


class ConfigError(HydetError):
    """Invalid or unknown configuration keys/values."""
