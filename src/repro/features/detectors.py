"""Simulated object/action detectors.

The paper extracts per-frame features with lightweight detection models
(YOLOv3, Faster R-CNN) and feeds them to EventHit; the VQS baseline
(BlazeIt) filters on the *count of frames containing target objects*.  We
simulate those detector outputs directly from the ground-truth schedule:

* during an event instance, the count of target objects associated with the
  event type is elevated;
* during the precursor window before an onset, the count rises gradually
  (the approaching truck enters the field of view);
* elsewhere a background rate produces clutter detections.

Counts are Poisson-distributed around those rates, which yields the false
positives/negatives a real detector exhibits.  Each detector carries an
``fps`` throughput figure used by the timing model (Figs. 9 & 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..video.events import EventType
from ..video.stream import VideoStream

__all__ = ["DetectorProfile", "DETECTOR_PROFILES", "SimulatedObjectDetector"]


@dataclass(frozen=True)
class DetectorProfile:
    """Throughput/fidelity profile of a detection model.

    ``fps`` values follow the paper's footnotes: YOLOv3-class detectors run
    fast, Faster R-CNN is slower, action-detection models run ≈25 fps.
    """

    name: str
    fps: float
    background_rate: float = 0.3
    event_rate: float = 3.0

    def __post_init__(self) -> None:
        if self.fps <= 0:
            raise ValueError("fps must be positive")
        if self.background_rate < 0 or self.event_rate <= 0:
            raise ValueError("rates must be positive")


DETECTOR_PROFILES: Dict[str, DetectorProfile] = {
    "yolov3": DetectorProfile("yolov3", fps=45.0),
    "faster-rcnn": DetectorProfile("faster-rcnn", fps=5.0),
    "action-detector": DetectorProfile("action-detector", fps=25.0),
}


class SimulatedObjectDetector:
    """Produce per-frame target-object counts for each event type.

    Parameters
    ----------
    profile:
        Detector throughput/fidelity profile (or a profile name).
    precursor_fraction:
        Fraction of the event type's lead time during which target objects
        already appear before onset (objects become visible gradually).
    """

    def __init__(
        self,
        profile: DetectorProfile | str = "yolov3",
        precursor_fraction: float = 0.5,
    ):
        if isinstance(profile, str):
            try:
                profile = DETECTOR_PROFILES[profile]
            except KeyError:
                raise ValueError(
                    f"unknown detector {profile!r}; expected one of "
                    f"{sorted(DETECTOR_PROFILES)}"
                ) from None
        if not 0.0 < precursor_fraction <= 1.0:
            raise ValueError("precursor_fraction must be in (0, 1]")
        self.profile = profile
        self.precursor_fraction = precursor_fraction

    @property
    def fps(self) -> float:
        return self.profile.fps

    def detection_rates(
        self, stream: VideoStream, event_type: EventType
    ) -> np.ndarray:
        """Expected target-object count per frame (before Poisson noise)."""
        occupancy = stream.schedule.occupancy_mask(event_type).astype(float)
        dist = stream.schedule.time_to_next_onset(event_type)
        window = max(1, int(event_type.lead_time * self.precursor_fraction))
        with np.errstate(invalid="ignore"):
            ramp = np.clip(1.0 - dist / window, 0.0, 1.0)
        ramp = np.where(np.isfinite(dist), ramp, 0.0)
        signal = np.maximum(occupancy, ramp)
        return (
            self.profile.background_rate
            + signal * (self.profile.event_rate - self.profile.background_rate)
        )

    def counts(self, stream: VideoStream, event_type: EventType) -> np.ndarray:
        """Noisy per-frame target-object counts (ints >= 0)."""
        rates = self.detection_rates(stream, event_type)
        rng = stream.observation_rng(salt=_salt("detector", event_type.name))
        return rng.poisson(rates)

    def count_matrix(
        self, stream: VideoStream, event_types: Sequence[EventType]
    ) -> np.ndarray:
        """(N, K) matrix of counts, one column per event type."""
        if not event_types:
            raise ValueError("event_types must be non-empty")
        return np.stack(
            [self.counts(stream, et) for et in event_types], axis=1
        ).astype(float)


def _salt(kind: str, name: str) -> int:
    """Stable small-int salt from a label (process-hash independent)."""
    import zlib

    return zlib.crc32(f"{kind}:{name}".encode("utf-8"))
