"""Simulated object tracks — the annotation layer behind VIRAT features.

The paper's VIRAT covariates are *track-derived*: "an indicator of the
presence/absence of moving cars and a value for the average distance
between the cars and the persons in a frame" (§VI.A).  This module
simulates the tracks those features come from: each event instance spawns
an **actor track** that approaches a scene anchor during the precursor
window, dwells there for the occurrence, and leaves afterwards; background
**clutter tracks** wander the scene independently of any event.

:class:`TrackSet` offers the standard trajectory queries (position, speed,
distance-to-anchor, nearest-track distances), and
:class:`~repro.features.track_features.TrackFeatureExtractor` turns them
into per-frame covariates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .events import EventType
from .stream import VideoStream

__all__ = ["Track", "TrackSet", "simulate_tracks"]

#: Scene extent (abstract units); the anchor (gate/goal/counter) sits at 0.
SCENE_RADIUS = 100.0


@dataclass(frozen=True)
class Track:
    """One object's trajectory: positions over a frame interval.

    Attributes
    ----------
    track_id:
        Unique id within the TrackSet.
    label:
        Object class ("actor" for event-bound objects, "clutter").
    start / end:
        Inclusive frame range of the track's existence.
    positions:
        (end − start + 1, 2) array of xy positions.
    event_name:
        The event type this actor serves, or None for clutter.
    """

    track_id: int
    label: str
    start: int
    end: int
    positions: np.ndarray
    event_name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError("invalid track frame range")
        expected = self.end - self.start + 1
        if self.positions.shape != (expected, 2):
            raise ValueError(
                f"positions must be ({expected}, 2), got {self.positions.shape}"
            )

    @property
    def duration(self) -> int:
        return self.end - self.start + 1

    def alive_at(self, frame: int) -> bool:
        return self.start <= frame <= self.end

    def position_at(self, frame: int) -> np.ndarray:
        if not self.alive_at(frame):
            raise ValueError(f"track {self.track_id} not alive at frame {frame}")
        return self.positions[frame - self.start]

    def speed_at(self, frame: int) -> float:
        """|Δposition| between this frame and the previous (0 at birth)."""
        if not self.alive_at(frame):
            raise ValueError(f"track {self.track_id} not alive at frame {frame}")
        if frame == self.start:
            return 0.0
        delta = self.positions[frame - self.start] - self.positions[frame - self.start - 1]
        return float(np.linalg.norm(delta))

    def distance_to_anchor_at(self, frame: int) -> float:
        return float(np.linalg.norm(self.position_at(frame)))


class TrackSet:
    """All tracks of one stream, with per-frame aggregate queries."""

    def __init__(self, length: int, tracks: Sequence[Track]):
        if length <= 0:
            raise ValueError("length must be positive")
        self.length = length
        self.tracks = list(tracks)
        for track in self.tracks:
            if track.end >= length:
                raise ValueError(
                    f"track {track.track_id} exceeds stream length {length}"
                )

    def __len__(self) -> int:
        return len(self.tracks)

    def alive_at(self, frame: int, label: Optional[str] = None) -> List[Track]:
        """Tracks alive at ``frame`` (optionally filtered by label)."""
        if not 0 <= frame < self.length:
            raise ValueError(f"frame {frame} outside stream")
        return [
            t for t in self.tracks
            if t.alive_at(frame) and (label is None or t.label == label)
        ]

    def count_series(self, label: Optional[str] = None) -> np.ndarray:
        """(N,) number of alive tracks per frame."""
        counts = np.zeros(self.length, dtype=float)
        for track in self.tracks:
            if label is None or track.label == label:
                counts[track.start : track.end + 1] += 1
        return counts

    def min_anchor_distance_series(
        self, label: Optional[str] = None, default: float = SCENE_RADIUS
    ) -> np.ndarray:
        """(N,) distance of the closest alive track to the anchor."""
        best = np.full(self.length, default)
        for track in self.tracks:
            if label is not None and track.label != label:
                continue
            frames = np.arange(track.start, track.end + 1)
            dist = np.linalg.norm(track.positions, axis=1)
            np.minimum.at(best, frames, dist)
        return best

    def mean_speed_series(self, label: Optional[str] = None) -> np.ndarray:
        """(N,) mean speed of alive tracks (0 where none alive)."""
        total = np.zeros(self.length)
        count = np.zeros(self.length)
        for track in self.tracks:
            if label is not None and track.label != label:
                continue
            speeds = np.zeros(track.duration)
            if track.duration > 1:
                deltas = np.diff(track.positions, axis=0)
                speeds[1:] = np.linalg.norm(deltas, axis=1)
            frames = np.arange(track.start, track.end + 1)
            total[frames] += speeds
            count[frames] += 1
        with np.errstate(invalid="ignore"):
            out = np.where(count > 0, total / np.maximum(count, 1), 0.0)
        return out


def _actor_track(
    track_id: int,
    event_name: str,
    onset: int,
    event_end: int,
    lead: int,
    stream_length: int,
    rng: np.random.Generator,
) -> Track:
    """Approach → dwell → depart trajectory for one event instance."""
    approach_start = max(0, onset - lead)
    depart_end = min(stream_length - 1, event_end + lead // 4)
    frames = depart_end - approach_start + 1

    angle = rng.uniform(0, 2 * np.pi)
    entry = SCENE_RADIUS * np.array([np.cos(angle), np.sin(angle)])
    dwell = rng.normal(0, 2.0, size=2)

    positions = np.zeros((frames, 2))
    approach_frames = onset - approach_start
    dwell_frames = event_end - onset + 1
    depart_frames = frames - approach_frames - dwell_frames

    if approach_frames > 0:
        fractions = np.linspace(0, 1, approach_frames, endpoint=False)
        positions[:approach_frames] = entry[None, :] * (1 - fractions[:, None]) + (
            dwell[None, :] * fractions[:, None]
        )
    # Small positional jitter while dwelling — visibly static compared to
    # the ≈1 unit/frame approach speed.
    jitter = rng.normal(0, 0.1, size=(dwell_frames, 2))
    positions[approach_frames : approach_frames + dwell_frames] = dwell + jitter
    if depart_frames > 0:
        fractions = np.linspace(0, 1, depart_frames)
        exit_point = entry * 0.7
        positions[approach_frames + dwell_frames :] = (
            dwell[None, :] * (1 - fractions[:, None])
            + exit_point[None, :] * fractions[:, None]
        )
    return Track(
        track_id=track_id,
        label="actor",
        start=approach_start,
        end=depart_end,
        positions=positions,
        event_name=event_name,
    )


def _clutter_track(
    track_id: int, stream_length: int, rng: np.random.Generator
) -> Track:
    """A wandering background object uncorrelated with events."""
    duration = int(rng.integers(50, 400))
    start = int(rng.integers(0, max(1, stream_length - duration)))
    end = min(stream_length - 1, start + duration - 1)
    frames = end - start + 1
    origin = rng.uniform(-SCENE_RADIUS, SCENE_RADIUS, size=2)
    steps = rng.normal(0, 1.0, size=(frames, 2))
    positions = origin + np.cumsum(steps, axis=0)
    # Keep the wanderer inside the scene.
    positions = np.clip(positions, -SCENE_RADIUS, SCENE_RADIUS)
    return Track(
        track_id=track_id,
        label="clutter",
        start=start,
        end=end,
        positions=positions,
    )


def simulate_tracks(
    stream: VideoStream,
    event_types: Sequence[EventType],
    clutter_per_10k_frames: float = 5.0,
    seed_salt: int = 0,
) -> TrackSet:
    """Simulate actor + clutter tracks consistent with a stream's schedule.

    Every instance of every event type gets one actor track whose approach
    phase spans the event's lead time; clutter tracks are sprinkled at the
    given density.  Deterministic given the stream seed.
    """
    if not event_types:
        raise ValueError("event_types must be non-empty")
    if clutter_per_10k_frames < 0:
        raise ValueError("clutter density must be non-negative")
    rng = stream.observation_rng(salt=971 + seed_salt)
    tracks: List[Track] = []
    next_id = 0
    for event_type in event_types:
        for instance in stream.schedule.instances_of(event_type):
            tracks.append(
                _actor_track(
                    next_id,
                    event_type.name,
                    instance.start,
                    instance.end,
                    event_type.lead_time,
                    stream.length,
                    rng,
                )
            )
            next_id += 1
    num_clutter = int(round(clutter_per_10k_frames * stream.length / 10_000))
    for _ in range(num_clutter):
        tracks.append(_clutter_track(next_id, stream.length, rng))
        next_id += 1
    return TrackSet(stream.length, tracks)
