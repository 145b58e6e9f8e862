"""Record datasets: §II triplets (X, L, T), censoring, and split builders."""

from .records import RecordSet
from .builder import (
    DatasetBuilder,
    ExperimentData,
    build_experiment_data,
    horizon_targets,
)

__all__ = [
    "RecordSet",
    "DatasetBuilder",
    "ExperimentData",
    "build_experiment_data",
    "horizon_targets",
]
