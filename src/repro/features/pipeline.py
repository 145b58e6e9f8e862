"""Collection-window covariate assembly (paper §II).

The covariates at frame i are the stacked feature vectors of the collection
window W of length M ending at i:  ``X_i = [X_{i-M+1}, ..., X_i] ∈ R^{M×D}``.
This module slices those windows out of a :class:`FeatureMatrix`, both
one-at-a-time and as batched (B, M, D) arrays for training, with optional
per-channel standardisation fitted on training data only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .extractors import FeatureMatrix

__all__ = ["Standardizer", "CovariatePipeline"]


@dataclass
class Standardizer:
    """Per-channel affine normalisation fitted on training frames.

    Fitting on the training split and reusing on calibration/test keeps the
    splits exchangeable while avoiding information leakage.
    """

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, values: np.ndarray) -> "Standardizer":
        if values.ndim != 2:
            raise ValueError("expected (frames, channels)")
        mean = values.mean(axis=0)
        std = values.std(axis=0)
        std = np.where(std < 1e-8, 1.0, std)
        return cls(mean=mean, std=std)

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std


class CovariatePipeline:
    """Slice collection windows out of a feature matrix.

    Parameters
    ----------
    window_size:
        M, the number of frames per collection window.
    standardizer:
        Optional fitted :class:`Standardizer`.  :meth:`covariates_at`
        standardizes only the M rows it serves, so per-call work does not
        grow with stream length; the transform is elementwise, so this is
        bitwise equal to slicing a standardized matrix.
    """

    def __init__(self, window_size: int, standardizer: Optional[Standardizer] = None):
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        self.window_size = window_size
        self.standardizer = standardizer

    def min_frame(self) -> int:
        """Smallest frame index with a full collection window behind it."""
        return self.window_size - 1

    def covariates_at(self, features: FeatureMatrix, frame: int) -> np.ndarray:
        """The (M, D) covariate window ending at ``frame`` (inclusive)."""
        if frame < self.min_frame() or frame >= features.num_frames:
            raise ValueError(
                f"frame {frame} outside valid range "
                f"[{self.min_frame()}, {features.num_frames})"
            )
        window = features.values[frame - self.window_size + 1 : frame + 1]
        if self.standardizer is None:
            return window
        return self.standardizer.transform(window)

    def covariate_batch(
        self, features: FeatureMatrix, frames: Sequence[int]
    ) -> np.ndarray:
        """Batched (B, M, D) covariates for the given reference frames."""
        frames = np.asarray(frames, dtype=int)
        if frames.ndim != 1 or frames.size == 0:
            raise ValueError("frames must be a non-empty 1-D sequence")
        if frames.min() < self.min_frame() or frames.max() >= features.num_frames:
            raise ValueError(
                f"frames outside valid range [{self.min_frame()}, "
                f"{features.num_frames})"
            )
        values = features.values
        if self.standardizer is not None:
            values = self.standardizer.transform(values)
        offsets = np.arange(-self.window_size + 1, 1)
        index = frames[:, None] + offsets[None, :]
        return values[index]
