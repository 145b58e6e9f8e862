"""Training/calibration/test records — the triplets (X_n, L_n, T_n) of §II.

A :class:`RecordSet` is the batched form used throughout training and
evaluation:

* ``frames`` — the reference frame index of each record;
* ``covariates`` — (B, M, D) collection windows;
* ``labels`` — (B, K) existence indicators 1[E_k ∈ L_n];
* ``starts`` / ``ends`` — (B, K) occurrence-interval offsets in [1, H]
  (0 where the event is absent), with censored events clamped to H;
* ``censored`` — (B, K) δ indicators of Fig. 2.

``frame_targets()`` expands intervals into the (B, K, H) per-offset
occupancy grid consumed by loss L2 and by interval extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..video.events import EventType

__all__ = ["RecordSet"]


@dataclass
class RecordSet:
    """A batch of §II triplets for a fixed event-type list and horizon.

    ``occupancy`` is the optional multi-instance extension of footnote 1:
    a (B, K, H) grid marking *every* instance's frames in the horizon
    (``starts``/``ends`` still describe the first instance, preserving the
    §II simplification for the interval-regression path).  When present it
    becomes the L2 training target via :meth:`frame_targets`.
    """

    event_types: List[EventType]
    horizon: int
    frames: np.ndarray  # (B,) int
    covariates: np.ndarray  # (B, M, D) float
    labels: np.ndarray  # (B, K) {0,1}
    starts: np.ndarray  # (B, K) int, 0 where absent
    ends: np.ndarray  # (B, K) int, 0 where absent
    censored: np.ndarray  # (B, K) {0,1}
    occupancy: Optional[np.ndarray] = None  # (B, K, H) {0,1}

    def __post_init__(self) -> None:
        self.frames = np.asarray(self.frames, dtype=int)
        self.covariates = np.asarray(self.covariates, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        self.starts = np.asarray(self.starts, dtype=int)
        self.ends = np.asarray(self.ends, dtype=int)
        self.censored = np.asarray(self.censored, dtype=np.float64)
        b = self.frames.shape[0]
        k = len(self.event_types)
        if self.covariates.shape[0] != b:
            raise ValueError("covariates batch size mismatch")
        if self.covariates.ndim != 3:
            raise ValueError("covariates must be (B, M, D)")
        for name, arr in (
            ("labels", self.labels),
            ("starts", self.starts),
            ("ends", self.ends),
            ("censored", self.censored),
        ):
            if arr.shape != (b, k):
                raise ValueError(f"{name} must be (B={b}, K={k}), got {arr.shape}")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        present = self.labels > 0
        if np.any(self.starts[present] < 1) or np.any(
            self.ends[present] > self.horizon
        ):
            raise ValueError("present-event offsets must lie in [1, H]")
        if np.any(self.starts[present] > self.ends[present]):
            raise ValueError("start offsets must be <= end offsets")
        if self.occupancy is not None:
            self.occupancy = np.asarray(self.occupancy, dtype=np.float64)
            if self.occupancy.shape != (b, k, self.horizon):
                raise ValueError(
                    f"occupancy must be (B={b}, K={k}, H={self.horizon}), "
                    f"got {self.occupancy.shape}"
                )
            occupied = self.occupancy.sum(axis=2) > 0
            if np.any(occupied & ~(self.labels > 0)):
                raise ValueError(
                    "occupancy marks frames for records labelled absent"
                )

    # ------------------------------------------------------------------
    # Shape helpers
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.frames.shape[0])

    @property
    def num_events(self) -> int:
        return len(self.event_types)

    @property
    def window_size(self) -> int:
        return int(self.covariates.shape[1])

    @property
    def num_channels(self) -> int:
        return int(self.covariates.shape[2])

    # ------------------------------------------------------------------
    # Derived targets
    # ------------------------------------------------------------------
    def frame_targets(self) -> np.ndarray:
        """(B, K, H) occupancy grid used as the L2 training target.

        With multi-instance ``occupancy`` present it is returned directly;
        otherwise the grid is derived from the first-instance intervals
        (1 where offset v ∈ [start_k, end_k]).
        """
        if self.occupancy is not None:
            return self.occupancy
        b, k = self.labels.shape
        offsets = np.arange(1, self.horizon + 1)
        grid = (
            (offsets[None, None, :] >= self.starts[:, :, None])
            & (offsets[None, None, :] <= self.ends[:, :, None])
            & (self.labels[:, :, None] > 0)
        )
        return grid.astype(np.float64)

    def positive_mask(self, event_index: int) -> np.ndarray:
        """(B,) bool: records where event ``event_index`` is present."""
        if not 0 <= event_index < self.num_events:
            raise IndexError(f"event index {event_index} out of range")
        return self.labels[:, event_index] > 0

    def positive_rate(self) -> np.ndarray:
        """(K,) fraction of records containing each event."""
        return self.labels.mean(axis=0)

    # ------------------------------------------------------------------
    # Subsetting
    # ------------------------------------------------------------------
    def subset(self, indices: Sequence[int]) -> "RecordSet":
        """A new RecordSet restricted to the given record indices."""
        indices = np.asarray(indices, dtype=int)
        return RecordSet(
            event_types=self.event_types,
            horizon=self.horizon,
            frames=self.frames[indices],
            covariates=self.covariates[indices],
            labels=self.labels[indices],
            starts=self.starts[indices],
            ends=self.ends[indices],
            censored=self.censored[indices],
            occupancy=(
                self.occupancy[indices] if self.occupancy is not None else None
            ),
        )

    def split(
        self, fraction: float, rng: Optional[np.random.Generator] = None
    ) -> Tuple["RecordSet", "RecordSet"]:
        """Random split into (first, second) with ``fraction`` in the first."""
        if not 0.0 < fraction < 1.0:
            raise ValueError("fraction must be in (0, 1)")
        rng = rng if rng is not None else np.random.default_rng()
        order = rng.permutation(len(self))
        cut = int(round(fraction * len(self)))
        cut = min(max(cut, 1), len(self) - 1)
        return self.subset(order[:cut]), self.subset(order[cut:])

    def batch_indices(
        self, batch_size: int, rng: Optional[np.random.Generator] = None
    ):
        """Yield the shuffled per-batch index arrays behind :meth:`batches`.

        The training fast path slices precomputed covariate/target arrays
        with these indices instead of materialising a validated
        :class:`RecordSet` per batch; both generators draw the same single
        permutation per pass, so batch contents are identical either way.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        order = (
            rng.permutation(len(self))
            if rng is not None
            else np.arange(len(self))
        )
        for lo in range(0, len(self), batch_size):
            yield order[lo : lo + batch_size]

    def batches(
        self, batch_size: int, rng: Optional[np.random.Generator] = None
    ):
        """Yield shuffled mini-batches (as RecordSets) for training."""
        for indices in self.batch_indices(batch_size, rng=rng):
            yield self.subset(indices)
