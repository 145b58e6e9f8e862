"""Correlation-based feature selection (paper §III: "We select features
through standard correlation analysis methods [25]").

Given a feature matrix and the horizon-existence labels of each event type,
rank channels by the maximum absolute Pearson correlation against any event
label, then keep the top-k or those above a threshold.  Uninformative
context channels score near zero and are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .extractors import FeatureMatrix

__all__ = ["correlation_scores", "select_features", "FeatureSelection"]


def correlation_scores(
    features: FeatureMatrix, labels: np.ndarray
) -> Dict[str, float]:
    """Max |Pearson r| of each channel against any event label column.

    Parameters
    ----------
    features:
        (N, D) feature matrix.
    labels:
        (N, K) array: labels[i, k] = 1 if event k occurs in the horizon of
        frame i (or simply occupies frame i — any binary relevance signal).
    """
    labels = np.asarray(labels, dtype=float)
    if labels.ndim == 1:
        labels = labels[:, None]
    if labels.shape[0] != features.num_frames:
        raise ValueError(
            f"labels rows {labels.shape[0]} != frames {features.num_frames}"
        )
    values = features.values
    scores: Dict[str, float] = {}
    x = values - values.mean(axis=0)
    x_std = values.std(axis=0)
    y = labels - labels.mean(axis=0)
    y_std = labels.std(axis=0)
    for j, name in enumerate(features.channel_names):
        if x_std[j] < 1e-12:
            scores[name] = 0.0
            continue
        best = 0.0
        for k in range(labels.shape[1]):
            if y_std[k] < 1e-12:
                continue
            r = float((x[:, j] * y[:, k]).mean() / (x_std[j] * y_std[k]))
            best = max(best, abs(r))
        scores[name] = best
    return scores


@dataclass
class FeatureSelection:
    """Result of a selection pass: kept channel names and all scores."""

    selected: List[str]
    scores: Dict[str, float]

    def apply(self, features: FeatureMatrix) -> FeatureMatrix:
        return features.select(self.selected)


def select_features(
    features: FeatureMatrix,
    labels: np.ndarray,
    top_k: Optional[int] = None,
    min_score: float = 0.05,
) -> FeatureSelection:
    """Keep channels with |r| >= min_score (and at most top_k of them).

    At least one channel is always kept (the best-scoring one), so the
    downstream model never receives an empty covariate.
    """
    if top_k is not None and top_k <= 0:
        raise ValueError("top_k must be positive")
    scores = correlation_scores(features, labels)
    ranked = sorted(scores, key=lambda name: scores[name], reverse=True)
    kept = [name for name in ranked if scores[name] >= min_score]
    if not kept:
        kept = ranked[:1]
    if top_k is not None:
        kept = kept[:top_k]
    # Preserve original channel order for stable downstream indexing.
    ordered = [name for name in features.channel_names if name in set(kept)]
    return FeatureSelection(selected=ordered, scores=scores)
