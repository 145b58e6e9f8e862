"""Synthetic video streams.

A :class:`VideoStream` stands in for the camera feed of Fig. 1: it owns the
frame count, frame rate, the ground-truth :class:`~repro.video.events.EventSchedule`,
and the RNG seed from which *all* per-frame observations (detector outputs,
feature noise) are derived, so a stream is fully reproducible from its
construction arguments.

No pixels are materialised — the paper's method never touches raw pixels
either; it consumes per-frame feature vectors produced by a detector
(YOLOv3 / Faster R-CNN in the paper, :mod:`repro.features.detectors` here)
and ground-truth intervals for training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .events import EventSchedule, EventType

__all__ = ["VideoStream", "StreamSegment"]


@dataclass(frozen=True)
class StreamSegment:
    """A contiguous range of frames ``[start, end]`` (inclusive) of a stream.

    Segments are the unit of work relayed to the cloud service: EventHit
    predicts an occurrence interval, and the marshaller ships the matching
    segment to the CI.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid segment [{self.start}, {self.end}]")

    @property
    def num_frames(self) -> int:
        return self.end - self.start + 1

    def frames(self) -> range:
        return range(self.start, self.end + 1)

    def intersect(self, other: "StreamSegment") -> Optional["StreamSegment"]:
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        return StreamSegment(start, end) if start <= end else None


class VideoStream:
    """A reproducible synthetic stream with ground-truth events.

    Parameters
    ----------
    length:
        Number of frames N.
    schedule:
        Ground-truth event schedule (must match ``length``).
    fps:
        Nominal camera frame rate, used by the timing model.
    seed:
        Master seed; all observation noise in feature extraction derives
        from ``observation_rng()`` so repeated extraction is deterministic.
    name:
        Optional label (e.g. "virat-train").
    """

    def __init__(
        self,
        length: int,
        schedule: EventSchedule,
        fps: float = 30.0,
        seed: int = 0,
        name: str = "stream",
    ):
        if length <= 0:
            raise ValueError("length must be positive")
        if schedule.length != length:
            raise ValueError(
                f"schedule length {schedule.length} != stream length {length}"
            )
        if fps <= 0:
            raise ValueError("fps must be positive")
        self.length = length
        self.schedule = schedule
        self.fps = fps
        self.seed = seed
        self.name = name

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return (
            f"VideoStream(name={self.name!r}, length={self.length}, "
            f"fps={self.fps}, events={len(self.schedule.all_instances())})"
        )

    def observation_rng(self, salt: int = 0) -> np.random.Generator:
        """Deterministic RNG for observation noise, optionally salted."""
        return np.random.default_rng(np.random.SeedSequence([self.seed, salt]))

    def duration_seconds(self) -> float:
        return self.length / self.fps

    def segment(self, start: int, end: int) -> StreamSegment:
        """A validated segment clamped to the stream bounds."""
        if start > end:
            raise ValueError("segment start must be <= end")
        return StreamSegment(max(0, start), min(self.length - 1, end))

    def event_frames(self, event_type: EventType) -> int:
        """Total number of frames occupied by ``event_type``."""
        return int(self.schedule.occupancy_mask(event_type).sum())

    def occupancy_fraction(self, event_type: EventType) -> float:
        """Fraction of the stream occupied by ``event_type`` — the paper's
        "needle in a haystack" ratio."""
        return self.event_frames(event_type) / self.length
