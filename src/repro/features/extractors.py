"""Per-frame covariate extraction (paper §II "covariates are part of feature
selection and are application-dependent").

For every event type we emit three channels, mirroring the descriptive
features the paper builds from detector outputs and annotations:

* ``precursor:<event>`` — a ramp that rises from 0 to ~1 over the event's
  lead time before each onset (e.g. "average distance between cars and
  persons" shrinking as a truck approaches).  Its amplitude is partially
  modulated by the *upcoming instance's duration percentile*, so interval
  length is statistically predictable to the degree the event type's
  ``predictability`` allows.
* ``presence:<event>`` — detector evidence that the activity is ongoing.
* ``count:<event>`` — normalised target-object counts from the simulated
  detector (the channel the VQS baseline thresholds).

Plus shared context channels (ambient motion random walk, slow illumination
drift, white noise) that carry no information about the events — feature
selection should reject them.

All noise derives from the stream's ``observation_rng``, so extraction is
deterministic for a given stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..video.events import EventType
from ..video.stream import VideoStream
from .detectors import SimulatedObjectDetector, _salt

__all__ = ["FeatureMatrix", "FeatureExtractor", "extract_features"]


@dataclass
class FeatureMatrix:
    """A (N, D) feature array with named channels."""

    values: np.ndarray
    channel_names: List[str]

    def __post_init__(self) -> None:
        if self.values.ndim != 2:
            raise ValueError("feature values must be 2-D (frames, channels)")
        if self.values.shape[1] != len(self.channel_names):
            raise ValueError(
                f"{self.values.shape[1]} channels but "
                f"{len(self.channel_names)} names"
            )

    @property
    def num_frames(self) -> int:
        return self.values.shape[0]

    @property
    def num_channels(self) -> int:
        return self.values.shape[1]

    def channel(self, name: str) -> np.ndarray:
        """Column by channel name."""
        try:
            index = self.channel_names.index(name)
        except ValueError:
            raise KeyError(f"unknown channel {name!r}") from None
        return self.values[:, index]

    def select(self, names: Sequence[str]) -> "FeatureMatrix":
        """A new matrix restricted to the named channels (in given order)."""
        indices = [self.channel_names.index(n) for n in names]
        return FeatureMatrix(self.values[:, indices].copy(), list(names))


class FeatureExtractor:
    """Build the covariate channels for a stream and a set of event types.

    Parameters
    ----------
    detector:
        Simulated detector supplying the object-count channels.
    context_channels:
        Number of uninformative context channels to append.
    duration_coupling:
        Weight in [0, 1] of the duration-percentile modulation of the
        precursor amplitude (scaled by each event's predictability).
    """

    def __init__(
        self,
        detector: Optional[SimulatedObjectDetector] = None,
        context_channels: int = 3,
        duration_coupling: float = 0.5,
    ):
        if context_channels < 0:
            raise ValueError("context_channels must be >= 0")
        if not 0.0 <= duration_coupling <= 1.0:
            raise ValueError("duration_coupling must be in [0, 1]")
        self.detector = detector or SimulatedObjectDetector()
        self.context_channels = context_channels
        self.duration_coupling = duration_coupling

    # ------------------------------------------------------------------
    # Channel builders
    # ------------------------------------------------------------------
    def precursor_channel(
        self, stream: VideoStream, event_type: EventType
    ) -> np.ndarray:
        """Noisy anticipation ramp for one event type."""
        dist = stream.schedule.time_to_next_onset(event_type)
        lead = float(event_type.lead_time)
        with np.errstate(invalid="ignore"):
            ramp = np.clip(1.0 - dist / lead, 0.0, 1.0)
        ramp = np.where(np.isfinite(dist), ramp, 0.0)

        amplitude = self._duration_amplitudes(stream, event_type)
        signal = ramp * amplitude

        noise_sigma = self._noise_sigma(event_type)
        rng = stream.observation_rng(_salt("precursor", event_type.name))
        return signal + rng.normal(0.0, noise_sigma, size=stream.length)

    def presence_channel(
        self, stream: VideoStream, event_type: EventType
    ) -> np.ndarray:
        """Noisy in-event evidence for one event type."""
        occupancy = stream.schedule.occupancy_mask(event_type).astype(float)
        noise_sigma = self._noise_sigma(event_type)
        rng = stream.observation_rng(_salt("presence", event_type.name))
        return occupancy + rng.normal(0.0, noise_sigma, size=stream.length)

    def count_channel(
        self, stream: VideoStream, event_type: EventType
    ) -> np.ndarray:
        """Target-object counts normalised by the in-event rate."""
        counts = self.detector.counts(stream, event_type).astype(float)
        return counts / self.detector.profile.event_rate

    def context_channel_matrix(self, stream: VideoStream) -> np.ndarray:
        """(N, context_channels) of uninformative context signals."""
        if self.context_channels == 0:
            return np.zeros((stream.length, 0))
        rng = stream.observation_rng(_salt("context", "shared"))
        n = stream.length
        columns = []
        for c in range(self.context_channels):
            if c % 3 == 0:
                # Ambient motion: fast mean-reverting AR(1).  The short
                # correlation length (~5 frames) keeps the channel from
                # acting as a stream-position code that a model could use
                # to memorise the training schedule.
                from scipy.signal import lfilter

                phi = 0.8
                noise = rng.normal(0, 0.6, size=n)
                ar = lfilter([1.0], [1.0, -phi], noise)
                columns.append(np.tanh(ar))
            elif c % 3 == 1:
                # Flicker: fast sinusoid with a random short period and
                # phase — periodic everywhere, so positionally ambiguous.
                period = rng.uniform(30, 80)
                phase = rng.uniform(0, 2 * np.pi)
                t = np.arange(n)
                columns.append(np.sin(2 * np.pi * t / period + phase))
            else:
                columns.append(rng.normal(0, 1.0, size=n))
        return np.stack(columns, axis=1)

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def extract(
        self, stream: VideoStream, event_types: Sequence[EventType]
    ) -> FeatureMatrix:
        """Full (N, D) covariate matrix with D = 3K + context_channels."""
        if not event_types:
            raise ValueError("event_types must be non-empty")
        columns: List[np.ndarray] = []
        names: List[str] = []
        for event_type in event_types:
            columns.append(self.precursor_channel(stream, event_type))
            names.append(f"precursor:{event_type.name}")
            columns.append(self.presence_channel(stream, event_type))
            names.append(f"presence:{event_type.name}")
            columns.append(self.count_channel(stream, event_type))
            names.append(f"count:{event_type.name}")
        context = self.context_channel_matrix(stream)
        for c in range(context.shape[1]):
            columns.append(context[:, c])
            names.append(f"context:{c}")
        return FeatureMatrix(np.stack(columns, axis=1), names)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _noise_sigma(self, event_type: EventType) -> float:
        """Observation noise scale — higher for less predictable events."""
        return 0.05 + 0.55 * (1.0 - event_type.predictability)

    def _duration_amplitudes(
        self, stream: VideoStream, event_type: EventType
    ) -> np.ndarray:
        """Per-frame ramp amplitude encoding the next instance's duration.

        The amplitude preceding instance i is
        ``1 + coupling·pred·(percentile(duration_i) - 0.5)``, so longer
        upcoming events produce visibly stronger precursors, making interval
        *length* partially learnable — more so for predictable event types.
        """
        amplitude = np.ones(stream.length)
        weight = self.duration_coupling * event_type.predictability
        if weight == 0.0 or event_type.duration_std == 0:
            return amplitude
        instances = stream.schedule.instances_of(event_type)
        if not instances:
            return amplitude
        durations = np.array([inst.duration for inst in instances], dtype=float)
        order = durations.argsort().argsort()
        percentiles = (order + 0.5) / len(durations)
        previous_end = 0
        for inst, pct in zip(instances, percentiles):
            segment = slice(previous_end, inst.end + 1)
            amplitude[segment] = 1.0 + weight * (pct - 0.5)
            previous_end = inst.end + 1
        return amplitude


def extract_features(
    stream: VideoStream,
    event_types: Sequence[EventType],
    detector: Optional[SimulatedObjectDetector] = None,
    context_channels: int = 3,
) -> FeatureMatrix:
    """Convenience wrapper: extract with default settings."""
    extractor = FeatureExtractor(detector=detector, context_channels=context_channels)
    return extractor.extract(stream, event_types)
