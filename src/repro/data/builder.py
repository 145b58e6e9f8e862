"""Build §II record datasets from streams: sampling, labeling, splits.

The paper samples frames from the stream and extracts triplets
(X_n, L_n, T_n); training uses frames f_1..f_P, and the calibration sets
D_c-calib / D_r-calib are "independently sampled in the same way as the
training dataset" (exchangeability is what powers Theorems 4.2/5.2).

:class:`DatasetBuilder` realises this: given a stream and its feature
matrix, it samples reference frames (with a stride to limit temporal
correlation), queries the schedule for horizon events, and packs a
:class:`RecordSet`.  :func:`build_experiment_data` produces the standard
train/calibration/test triple from three exchangeable streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..features.extractors import FeatureExtractor, FeatureMatrix
from ..features.pipeline import CovariatePipeline, Standardizer
from ..video.datasets import DatasetSpec, EVENT_TYPES, make_stream
from ..video.events import EventSchedule, EventType
from ..video.stream import VideoStream
from .records import RecordSet

__all__ = [
    "DatasetBuilder",
    "ExperimentData",
    "build_experiment_data",
    "horizon_targets",
]


def horizon_targets(
    schedule: EventSchedule,
    event_types: Sequence[EventType],
    frame: int,
    horizon: int,
    occupancy: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-event ``(labels, starts, ends, censored)`` targets of the
    horizon after ``frame``.

    Each event's target is its first instance in the horizon (the §II
    one-occurrence simplification); absent events keep zeros.  When a
    ``(K, H)`` ``occupancy`` grid is given, every instance in the horizon
    is marked in it (the footnote-1 multi-instance target).
    """
    k = len(event_types)
    labels = np.zeros(k)
    starts = np.zeros(k, dtype=int)
    ends = np.zeros(k, dtype=int)
    censored = np.zeros(k)
    for col, event_type in enumerate(event_types):
        horizon_events = schedule.events_in_horizon(event_type, frame, horizon)
        if not horizon_events:
            continue
        first = min(horizon_events, key=lambda e: e.start_offset)
        labels[col] = 1.0
        starts[col] = first.start_offset
        ends[col] = first.end_offset
        censored[col] = float(first.censored)
        if occupancy is not None:
            for event in horizon_events:
                occupancy[col, event.start_offset - 1 : event.end_offset] = 1.0
    return labels, starts, ends, censored


class DatasetBuilder:
    """Sample (X, L, T) records from a stream.

    Parameters
    ----------
    window_size:
        Collection window length M.
    horizon:
        Time horizon H.
    stride:
        Gap between consecutive sampled reference frames.  Strided sampling
        keeps the records closer to exchangeable than frame-by-frame
        sampling while still covering the stream.
    pipeline:
        Optional pre-configured covariate pipeline (e.g. with a fitted
        standardizer); a plain one is created otherwise.
    """

    def __init__(
        self,
        window_size: int,
        horizon: int,
        stride: int = 25,
        pipeline: Optional[CovariatePipeline] = None,
    ):
        if window_size <= 0 or horizon <= 0 or stride <= 0:
            raise ValueError("window_size, horizon and stride must be positive")
        self.window_size = window_size
        self.horizon = horizon
        self.stride = stride
        self.pipeline = pipeline or CovariatePipeline(window_size)

    def reference_frames(self, stream_length: int) -> np.ndarray:
        """All valid reference frames: full window behind, full horizon ahead."""
        first = self.window_size - 1
        last = stream_length - self.horizon - 1
        if last < first:
            raise ValueError(
                f"stream of {stream_length} frames too short for M="
                f"{self.window_size}, H={self.horizon}"
            )
        return np.arange(first, last + 1, self.stride)

    def build(
        self,
        stream: VideoStream,
        features: FeatureMatrix,
        event_types: Sequence[EventType],
        max_records: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        multi_instance: bool = False,
    ) -> RecordSet:
        """Assemble a RecordSet for ``stream``.

        When ``max_records`` is given, reference frames are subsampled
        uniformly at random (exchangeably) down to that count.

        ``multi_instance`` enables the footnote-1 extension: the L2 target
        grid (``occupancy``) marks *every* instance in the horizon instead
        of only the first, so the trained θ scores light up for all of
        them and footnote-1 runs (``segment_min_gap``) can relay each
        separately.
        """
        if features.num_frames != stream.length:
            raise ValueError("feature matrix length != stream length")
        event_types = list(event_types)
        frames = self.reference_frames(stream.length)
        if max_records is not None and len(frames) > max_records:
            rng = rng if rng is not None else np.random.default_rng()
            frames = np.sort(rng.choice(frames, size=max_records, replace=False))

        k = len(event_types)
        b = len(frames)
        labels = np.zeros((b, k))
        starts = np.zeros((b, k), dtype=int)
        ends = np.zeros((b, k), dtype=int)
        censored = np.zeros((b, k))
        occupancy = np.zeros((b, k, self.horizon)) if multi_instance else None
        for row, frame in enumerate(frames):
            labels[row], starts[row], ends[row], censored[row] = horizon_targets(
                stream.schedule,
                event_types,
                int(frame),
                self.horizon,
                occupancy=occupancy[row] if multi_instance else None,
            )

        covariates = self.pipeline.covariate_batch(features, frames)
        return RecordSet(
            event_types=event_types,
            horizon=self.horizon,
            frames=frames,
            covariates=covariates,
            labels=labels,
            starts=starts,
            ends=ends,
            censored=censored,
            occupancy=occupancy,
        )


@dataclass
class ExperimentData:
    """The standard data bundle of one experiment run."""

    spec: DatasetSpec
    event_types: List[EventType]
    train: RecordSet
    calibration: RecordSet
    test: RecordSet
    standardizer: Standardizer
    train_stream: VideoStream
    test_stream: VideoStream
    test_features: FeatureMatrix


def build_experiment_data(
    spec: DatasetSpec,
    seed: int = 0,
    stride: Optional[int] = None,
    max_records: Optional[int] = None,
    extractor: Optional[FeatureExtractor] = None,
) -> ExperimentData:
    """Train/calibration/test RecordSets from three exchangeable streams.

    The streams share the dataset spec (same arrival/duration processes and
    observation model) and differ only in seed — precisely the "sampled in
    the same way" premise of the conformal theorems.  The feature
    standardizer is fitted on the training stream only.
    """
    extractor = extractor or FeatureExtractor()
    event_types = [EVENT_TYPES[e] for e in spec.event_ids]
    stride = stride or max(1, spec.window_size)

    streams = {
        name: make_stream(spec, seed=seed * 101 + offset, name=f"{spec.name}-{name}")
        for offset, name in enumerate(("train", "calibration", "test"))
    }
    features = {
        name: extractor.extract(stream, event_types)
        for name, stream in streams.items()
    }
    standardizer = Standardizer.fit(features["train"].values)
    pipeline = CovariatePipeline(spec.window_size, standardizer=standardizer)
    builder = DatasetBuilder(
        window_size=spec.window_size,
        horizon=spec.horizon,
        stride=stride,
        pipeline=pipeline,
    )
    rng = np.random.default_rng(seed)
    records = {
        name: builder.build(
            streams[name],
            features[name],
            event_types,
            max_records=max_records,
            rng=rng,
        )
        for name in streams
    }
    return ExperimentData(
        spec=spec,
        event_types=event_types,
        train=records["train"],
        calibration=records["calibration"],
        test=records["test"],
        standardizer=standardizer,
        train_stream=streams["train"],
        test_stream=streams["test"],
        test_features=features["test"],
    )
