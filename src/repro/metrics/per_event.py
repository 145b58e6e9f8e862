"""Per-event metric breakdowns and interval-overlap (IoU) measures.

§VI.D's multi-event analysis ("the overall performance is bound by the
event with the worst performance") needs the §VI.C measures *per event
type*; and the temporal-action-localisation community's IoU view of
interval quality complements the paper's η (which normalises by the true
interval only, ignoring prediction width).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..core.inference import PredictionBatch
from ..data.records import RecordSet
from .accuracy import EvaluationSummary, evaluate

__all__ = ["per_event_summaries", "interval_iou_matrix", "mean_interval_iou"]


def _event_slice(records: RecordSet, k: int) -> RecordSet:
    """A single-event view of column ``k``."""
    return RecordSet(
        event_types=[records.event_types[k]],
        horizon=records.horizon,
        frames=records.frames,
        covariates=records.covariates,
        labels=records.labels[:, [k]],
        starts=records.starts[:, [k]],
        ends=records.ends[:, [k]],
        censored=records.censored[:, [k]],
        occupancy=(
            records.occupancy[:, [k]] if records.occupancy is not None else None
        ),
    )


def per_event_summaries(
    predictions: PredictionBatch, records: RecordSet
) -> Dict[str, EvaluationSummary]:
    """All §VI.C measures restricted to each event type.

    Returns a mapping event-name → :class:`EvaluationSummary`; useful for
    the §VI.D "bound by the worst event" analysis of multi-event tasks.
    """
    if predictions.exists.shape != records.labels.shape:
        raise ValueError("predictions and records disagree on (B, K)")
    out: Dict[str, EvaluationSummary] = {}
    for k, event_type in enumerate(records.event_types):
        single = PredictionBatch(
            exists=predictions.exists[:, [k]],
            starts=predictions.starts[:, [k]],
            ends=predictions.ends[:, [k]],
            horizon=predictions.horizon,
        )
        out[event_type.name] = evaluate(single, _event_slice(records, k))
    return out


def interval_iou_matrix(
    predictions: PredictionBatch, records: RecordSet
) -> np.ndarray:
    """(B, K) temporal IoU between predicted and true intervals.

    IoU = |pred ∩ true| / |pred ∪ true| over inclusive offset ranges;
    zero where either side is absent.  Unlike η, IoU penalises
    over-wide predictions, so it exposes the recall/width trade the
    C-REGRESS knob makes.
    """
    if predictions.exists.shape != records.labels.shape:
        raise ValueError("predictions and records disagree on (B, K)")
    if predictions.horizon != records.horizon:
        raise ValueError("horizon mismatch")
    present = records.labels > 0
    both = predictions.exists & present
    lo = np.maximum(predictions.starts, records.starts)
    hi = np.minimum(predictions.ends, records.ends)
    intersection = np.maximum(0, hi - lo + 1)
    pred_len = predictions.ends - predictions.starts + 1
    true_len = records.ends - records.starts + 1
    union = pred_len + true_len - intersection
    with np.errstate(divide="ignore", invalid="ignore"):
        iou = np.where(both & (union > 0), intersection / np.maximum(union, 1), 0.0)
    return iou


def mean_interval_iou(
    predictions: PredictionBatch, records: RecordSet
) -> float:
    """Mean IoU over (record, event) pairs with the event present."""
    present = records.labels > 0
    if present.sum() == 0:
        return float("nan")
    return float(interval_iou_matrix(predictions, records)[present].mean())
