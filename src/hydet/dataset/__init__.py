"""Loading, modeling, splitting and synthesizing labeled well time series."""

from .io import (CLASS_DIRS, build_manifest, load_instance_csv, load_instances,
                 write_instance_csv, write_instances)
from .model import (CANONICAL_VARIABLE_NAMES, CANONICAL_VARIABLES, ClassLabel,
                    DatasetManifest, FeatureMatrix, ManifestEntry, SensorVariable,
                    SplitSpec, TimeSeriesInstance, variable_info)
from .synth import (ChannelModel, SynthConfig, default_config, default_regimes,
                    qc_probe_config, synth_generate)
from .transform import flatten, split

__all__ = [
    "CANONICAL_VARIABLE_NAMES", "CANONICAL_VARIABLES", "CLASS_DIRS",
    "ChannelModel", "ClassLabel", "DatasetManifest", "FeatureMatrix",
    "ManifestEntry", "SensorVariable", "SplitSpec", "SynthConfig",
    "TimeSeriesInstance", "build_manifest", "default_config", "default_regimes",
    "flatten", "load_instance_csv", "load_instances", "qc_probe_config", "split",
    "synth_generate", "variable_info", "write_instance_csv", "write_instances",
]
