"""Collection-window covariate assembly (paper §II).

The covariates at frame i are the stacked feature vectors of the collection
window W of length M ending at i:  ``X_i = [X_{i-M+1}, ..., X_i] ∈ R^{M×D}``.
This module slices those windows out of a :class:`FeatureMatrix`: as one
(B, M, D) block of one window per serving lane, and as batched (B, M, D)
arrays from one matrix for training, with optional per-channel
standardisation fitted on training data only.
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
    """Slice collection windows out of feature matrices.

    Every window the serving path cuts goes through :meth:`windows_at`:
    one ``(features, frame)`` pair per lane in, one ``(B, M, D)`` block out,
    standardized as ``B·M`` rows in one :meth:`Standardizer.transform`
    call.  :meth:`covariates_at` is its one-lane case.

    Parameters
    ----------
    window_size:
        M, the number of frames per collection window.
    standardizer:
        Optional fitted :class:`Standardizer`.  Only the rows being served
        are standardized, so per-window work does not grow with stream
        length; the transform is an elementwise IEEE subtract and divide,
        so this is bitwise equal to slicing a standardized matrix, and a
        block is bitwise the stack of its windows standardized one by one.
    """

    def __init__(self, window_size: int, standardizer: Optional[Standardizer] = None):
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        self.window_size = window_size
        self.standardizer = standardizer

    def min_frame(self) -> int:
        """Smallest frame index with a full collection window behind it."""
        return self.window_size - 1

    def windows_at(
        self, features_seq: Sequence[FeatureMatrix], frames: Sequence[int]
    ) -> np.ndarray:
        """The (B, M, D) block whose row ``b`` is the window of
        ``features_seq[b]`` ending at ``frames[b]`` (inclusive).

        Pairs are range-checked in order; the first bad one raises.  The raw
        slices are stacked once and the block is standardized as one
        ``(B·M, D)`` row view, so float32 features promote exactly as they
        would one window at a time.  (Under float32 statistics a block that
        mixes float32 and float64 lanes standardizes every lane in float64.)
        """
        if len(features_seq) != len(frames):
            raise ValueError("one frame per feature matrix")
        if len(frames) == 0:
            raise ValueError("windows_at needs at least one (features, frame) pair")
        size, low = self.window_size, self.min_frame()
        slices = []
        for features, frame in zip(features_seq, frames):
            if frame < low or frame >= features.num_frames:
                raise ValueError(
                    f"frame {frame} outside valid range "
                    f"[{low}, {features.num_frames})"
                )
            slices.append(features.values[frame - size + 1 : frame + 1])
        block = np.stack(slices)
        if self.standardizer is None:
            return block
        rows = block.reshape(-1, block.shape[-1])
        return self.standardizer.transform(rows).reshape(block.shape)

    def covariates_at(self, features: FeatureMatrix, frame: int) -> np.ndarray:
        """The (M, D) covariate window ending at ``frame`` (inclusive): the
        one-lane case of :meth:`windows_at`."""
        return self.windows_at([features], [frame])[0]

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
