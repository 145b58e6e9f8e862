"""Score and calibrate through the serving engine, the one inference forward;
reference codings of Eqs. 5–6 and footnote 1 for the run extractor's pins."""

import numpy as np

from repro.conformal import ConformalClassifier, ConformalRegressor
from repro.core import BatchedInference


def engine_predict(model, covariates):
    """``model``'s output over ``covariates`` from a fresh serving engine."""
    return BatchedInference(model).predict(covariates)


def calibrated_classifier(model, records, nonconformity=None):
    """A C-CLASSIFY layer calibrated on ``records`` for ``model``."""
    output = engine_predict(model, records.covariates)
    return ConformalClassifier(nonconformity).calibrate(output, records)


def calibrated_regressor(model, records, tau2=0.5):
    """A C-REGRESS layer calibrated on ``records`` for ``model``."""
    output = engine_predict(model, records.covariates)
    return ConformalRegressor(tau2).calibrate(output, records)


def calibrated(model, records, tau2=0.5):
    """``(classifier, regressor)`` calibrated on one forward over ``records``."""
    output = engine_predict(model, records.covariates)
    return (
        ConformalClassifier().calibrate(output, records),
        ConformalRegressor(tau2).calibrate(output, records),
    )


def where_min_max_intervals(frame_scores, tau2):
    """Eqs. 5–6 over every pair of ``(B, K, H)`` scores by where/min/max:
    ``(B, K)`` 1-based starts and ends, argmax where nothing clears τ2."""
    above = frame_scores >= tau2
    any_above = above.any(axis=2)
    horizon = frame_scores.shape[2]
    offsets = np.arange(1, horizon + 1)
    first = np.where(above, offsets[None, None, :], horizon + 1).min(axis=2)
    last = np.where(above, offsets[None, None, :], 0).max(axis=2)
    peak = frame_scores.argmax(axis=2) + 1
    starts = np.where(any_above, first, peak)
    ends = np.where(any_above, last, peak)
    return starts.astype(int), ends.astype(int)


def loop_runs(scores, tau2, min_gap):
    """Footnote 1 for one pair's ``(H,)`` scores, one run at a time:
    ``[(start, end), ...]`` 1-based inclusive runs of θ ≥ τ2, runs closer
    than ``min_gap`` offsets merged (``None``: all, Eq. 6's span); the
    argmax offset when nothing clears τ2."""
    above = scores >= tau2
    if not above.any():
        peak = int(scores.argmax()) + 1
        return [(peak, peak)]
    padded = np.concatenate([[False], above, [False]])
    changes = np.flatnonzero(padded[1:] != padded[:-1])
    runs = [
        (int(changes[i]) + 1, int(changes[i + 1]))
        for i in range(0, len(changes), 2)
    ]
    min_gap = len(scores) if min_gap is None else min_gap
    merged = [runs[0]]
    for start, end in runs[1:]:
        prev_start, prev_end = merged[-1]
        if start - prev_end - 1 < min_gap:
            merged[-1] = (prev_start, end)
        else:
            merged.append((start, end))
    return merged


def merge_touching(runs):
    """Sort ``runs`` and merge those that overlap or touch."""
    merged = []
    for start, end in sorted(runs):
        if merged and start <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged
