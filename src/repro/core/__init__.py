"""EventHit core: the paper's primary contribution.

* :class:`EventHit` — shared LSTM sub-network + K event-specific heads
  (§III, Fig. 3).
* :class:`Trainer` / :func:`train_eventhit` — end-to-end L1+L2 training.
* :mod:`~repro.core.inference` — the one §VI.B decision rule (Eqs. 4–6,
  or the conformal layers); :func:`threshold_predictions` is its EHO case.
"""

from .batched import BatchedInference, rowstable_matmul
from .config import EventHitConfig
from .continual import ENGINES, ContinualInference, make_engine
from .model import EventHit, EventHitOutput
from .inference import (
    PredictionBatch,
    extract_interval_segments,
    extract_intervals,
    predict_existence,
    segments_to_mask,
    threshold_predictions,
)
from .trainer import Trainer, TrainingHistory, train_eventhit
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint

__all__ = [
    "BatchedInference",
    "rowstable_matmul",
    "ContinualInference",
    "ENGINES",
    "make_engine",
    "EventHitConfig",
    "EventHit",
    "EventHitOutput",
    "PredictionBatch",
    "predict_existence",
    "extract_intervals",
    "extract_interval_segments",
    "segments_to_mask",
    "threshold_predictions",
    "Trainer",
    "TrainingHistory",
    "train_eventhit",
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
]
