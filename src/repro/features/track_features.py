"""Track-derived covariates (the paper's actual VIRAT feature recipe).

§VI.A describes features such as "an indicator of the presence/absence of
moving cars and a value for the average distance between the cars and the
persons in a frame".  :class:`TrackFeatureExtractor` computes the same
kinds of quantities from simulated :class:`~repro.video.tracks.TrackSet`
trajectories, per event type:

* ``approach:<event>`` — closeness of the nearest actor track to the scene
  anchor (1 at the anchor, 0 at the scene edge) — the "distance between the
  truck and the gate" signal;
* ``motion:<event>`` — mean actor speed (approaching objects move, dwelling
  ones don't);
* ``objects:<event>`` — count of alive actor tracks.

Plus a shared ``clutter`` channel (background object count) that carries no
event information.  Observation noise is applied per channel so the
features behave like detector outputs, not oracle annotations.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..video.events import EventType
from ..video.stream import VideoStream
from ..video.tracks import SCENE_RADIUS, TrackSet, simulate_tracks
from .detectors import _salt
from .extractors import FeatureMatrix

__all__ = ["TrackFeatureExtractor"]


class TrackFeatureExtractor:
    """Compute per-frame covariates from object trajectories.

    Parameters
    ----------
    noise_sigma:
        Observation noise applied to every channel (tracker jitter).
    clutter_per_10k_frames:
        Background track density passed to the track simulator.
    """

    def __init__(
        self,
        noise_sigma: float = 0.05,
        clutter_per_10k_frames: float = 5.0,
    ):
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        self.noise_sigma = noise_sigma
        self.clutter_per_10k_frames = clutter_per_10k_frames

    def _per_event_tracks(
        self, tracks: TrackSet, event_type: EventType
    ) -> TrackSet:
        subset = [
            t for t in tracks.tracks
            if t.label == "actor" and t.event_name == event_type.name
        ]
        return TrackSet(tracks.length, subset)

    def extract_from_tracks(
        self,
        stream: VideoStream,
        tracks: TrackSet,
        event_types: Sequence[EventType],
    ) -> FeatureMatrix:
        """Covariate matrix from an existing TrackSet."""
        if not event_types:
            raise ValueError("event_types must be non-empty")
        if tracks.length != stream.length:
            raise ValueError("track set length != stream length")
        columns: List[np.ndarray] = []
        names: List[str] = []
        for event_type in event_types:
            event_tracks = self._per_event_tracks(tracks, event_type)
            rng = stream.observation_rng(_salt("track", event_type.name))

            distance = event_tracks.min_anchor_distance_series()
            approach = 1.0 - np.clip(distance / SCENE_RADIUS, 0.0, 1.0)
            columns.append(
                approach + rng.normal(0, self.noise_sigma, stream.length)
            )
            names.append(f"approach:{event_type.name}")

            speed = event_tracks.mean_speed_series()
            speed_scale = max(speed.max(), 1e-6)
            columns.append(
                speed / speed_scale
                + rng.normal(0, self.noise_sigma, stream.length)
            )
            names.append(f"motion:{event_type.name}")

            counts = event_tracks.count_series()
            columns.append(
                counts + rng.normal(0, self.noise_sigma, stream.length)
            )
            names.append(f"objects:{event_type.name}")

        clutter_rng = stream.observation_rng(_salt("track", "clutter"))
        clutter = tracks.count_series(label="clutter")
        columns.append(
            clutter + clutter_rng.normal(0, self.noise_sigma, stream.length)
        )
        names.append("clutter")
        return FeatureMatrix(np.stack(columns, axis=1), names)

    def extract(
        self, stream: VideoStream, event_types: Sequence[EventType]
    ) -> FeatureMatrix:
        """Simulate tracks for the stream, then extract covariates."""
        tracks = simulate_tracks(
            stream,
            event_types,
            clutter_per_10k_frames=self.clutter_per_10k_frames,
        )
        return self.extract_from_tracks(stream, tracks, event_types)
