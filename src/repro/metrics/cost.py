"""Monetary-cost accounting (paper §VI.G case study).

The CI prices usage per frame (Amazon Rekognition: US $0.001/frame); the
expense of an algorithm over a test set is simply the number of frames it
relays times the per-frame price.  OPT relays exactly the true event frames;
BF relays every frame of every record's horizon.
"""

from __future__ import annotations

import numpy as np

from ..core.inference import PredictionBatch
from ..data.records import RecordSet

__all__ = ["REKOGNITION_PRICE_PER_FRAME", "expense", "optimal_expense", "brute_force_expense"]

#: Amazon Rekognition image-analysis price used in the paper's case study.
REKOGNITION_PRICE_PER_FRAME = 0.001


def expense(
    predictions: PredictionBatch,
    price_per_frame: float = REKOGNITION_PRICE_PER_FRAME,
) -> float:
    """Dollar cost of relaying the predicted intervals to the CI."""
    if price_per_frame < 0:
        raise ValueError("price_per_frame must be non-negative")
    return float(predictions.predicted_frames().sum() * price_per_frame)


def optimal_expense(
    records: RecordSet,
    price_per_frame: float = REKOGNITION_PRICE_PER_FRAME,
) -> float:
    """OPT's cost: only the frames of true occurrence intervals."""
    if price_per_frame < 0:
        raise ValueError("price_per_frame must be non-negative")
    present = records.labels > 0
    true_len = np.where(present, records.ends - records.starts + 1, 0)
    return float(true_len.sum() * price_per_frame)


def brute_force_expense(
    records: RecordSet,
    price_per_frame: float = REKOGNITION_PRICE_PER_FRAME,
) -> float:
    """BF's cost: every frame of every record's horizon, for every event."""
    if price_per_frame < 0:
        raise ValueError("price_per_frame must be non-negative")
    return float(len(records) * records.num_events * records.horizon * price_per_frame)
