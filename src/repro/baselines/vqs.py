"""VQS — BlazeIt-style video-query-system baselines (§VI.B item 8).

BlazeIt/NoScope filter frames with cheap *specialized* models before the
heavy reference model.  Two adaptations to the marshalling problem:

* :class:`VQSPredictor` — thresholds raw detector object counts per
  horizon, the literal reading of §VI.B ("the number of frames containing
  target object types exceeds the threshold");
* :class:`TrainedVQSPredictor` — the NoScope/BlazeIt-faithful variant: a
  tiny per-event neural filter trained on cheap per-frame features to
  predict event-frame membership, whose positive-frame counts are then
  thresholded per horizon.

Both relay *whole horizons* — they filter but cannot predict *when* within
the horizon the event occurs, which is why their REC–SPL curves sit far
from EventHit's.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .. import nn
from ..core.inference import PredictionBatch
from ..data.records import RecordSet
from ..features.detectors import SimulatedObjectDetector
from ..features.extractors import FeatureMatrix
from ..video.events import EventType
from ..video.stream import VideoStream

__all__ = ["VQSPredictor", "TrainedVQSPredictor"]


class VQSPredictor:
    """Threshold filter on per-horizon target-object frame counts.

    Parameters
    ----------
    stream:
        The (test) stream whose frames the cheap detector scans.
    event_types:
        Event types in the record column order.
    detector:
        Cheap detector supplying per-frame object counts.
    min_objects:
        A frame "contains target objects" when the detector count is at
        least this.
    """

    name = "VQS"

    def __init__(
        self,
        stream: VideoStream,
        event_types: Sequence[EventType],
        detector: Optional[SimulatedObjectDetector] = None,
        min_objects: int = 2,
    ):
        if not event_types:
            raise ValueError("event_types must be non-empty")
        if min_objects < 1:
            raise ValueError("min_objects must be >= 1")
        detector = detector or SimulatedObjectDetector()
        self.stream = stream
        self.event_types = list(event_types)
        # Precompute per-frame "contains objects" indicators per event, then
        # a prefix sum for O(1) horizon counting.
        self._prefix: List[np.ndarray] = []
        for event_type in self.event_types:
            counts = detector.counts(stream, event_type)
            contains = (counts >= min_objects).astype(np.int64)
            self._prefix.append(np.concatenate([[0], np.cumsum(contains)]))

    def horizon_counts(self, records: RecordSet) -> np.ndarray:
        """(B, K): frames containing target objects in each record's horizon."""
        frames = records.frames
        horizon = records.horizon
        if frames.max() + horizon >= self.stream.length:
            raise ValueError("records' horizons exceed the bound stream")
        out = np.zeros((len(records), len(self.event_types)), dtype=int)
        for k, prefix in enumerate(self._prefix):
            # horizon frames are (frame, frame + H]
            out[:, k] = prefix[frames + horizon + 1] - prefix[frames + 1]
        return out

    def predict(self, records: RecordSet, **knobs) -> PredictionBatch:
        """Relay full horizons whose object-frame count ≥ τ."""
        tau = knobs.pop("tau", 1)
        if knobs:
            raise TypeError(f"unexpected knobs {sorted(knobs)}")
        if tau < 0:
            raise ValueError("tau must be non-negative")
        if records.num_events != len(self.event_types):
            raise ValueError(
                f"records have {records.num_events} events; VQS was built "
                f"for {len(self.event_types)}"
            )
        counts = self.horizon_counts(records)
        exists = counts >= tau
        shape = exists.shape
        return PredictionBatch(
            exists=exists,
            starts=np.where(exists, 1, 0),
            ends=np.where(exists, records.horizon, 0),
            horizon=records.horizon,
        )


class TrainedVQSPredictor:
    """Specialized-NN filter (NoScope/BlazeIt style).

    One tiny MLP per event type is trained on per-frame feature vectors to
    predict "this frame belongs to an event occurrence", using the ground
    truth of a training stream (in BlazeIt the labels come from running the
    reference model once, which is equivalent here since the simulated CI
    is accurate).  At query time the filter classifies every frame of the
    bound test stream; horizons whose predicted-positive frame count
    reaches τ are relayed in full.

    Usage: ``fit(train_stream, train_features, event_types)`` →
    ``bind(test_stream, test_features)`` → ``predict(records, tau=...)``.
    """

    name = "VQS-NN"

    def __init__(
        self,
        hidden: int = 8,
        epochs: int = 10,
        learning_rate: float = 1e-2,
        batch_size: int = 256,
        max_train_frames: int = 20_000,
        seed: int = 0,
    ):
        if hidden <= 0 or epochs <= 0 or batch_size <= 0:
            raise ValueError("hidden, epochs and batch_size must be positive")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if max_train_frames <= 0:
            raise ValueError("max_train_frames must be positive")
        self.hidden = hidden
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.max_train_frames = max_train_frames
        self.seed = seed
        self._filters: Optional[List[nn.MLP]] = None
        self._event_types: Optional[List[EventType]] = None
        self._prefix: Optional[List[np.ndarray]] = None
        self._bound_length: Optional[int] = None

    @property
    def is_fitted(self) -> bool:
        return self._filters is not None

    # ------------------------------------------------------------------
    def fit(
        self,
        stream: VideoStream,
        features: FeatureMatrix,
        event_types: Sequence[EventType],
    ) -> "TrainedVQSPredictor":
        """Train one frame filter per event type on ``stream``'s truth."""
        if not event_types:
            raise ValueError("event_types must be non-empty")
        if features.num_frames != stream.length:
            raise ValueError("feature matrix length != stream length")
        rng = np.random.default_rng(self.seed)
        filters: List[nn.MLP] = []
        for event_type in event_types:
            labels = stream.schedule.occupancy_mask(event_type).astype(float)
            # Class-balanced frame subsample keeps training cheap & stable.
            positives = np.flatnonzero(labels > 0)
            negatives = np.flatnonzero(labels == 0)
            if positives.size == 0:
                raise ValueError(
                    f"training stream has no frames of {event_type.name}"
                )
            per_class = min(
                self.max_train_frames // 2, positives.size, negatives.size
            )
            chosen = np.concatenate([
                rng.choice(positives, size=per_class, replace=False),
                rng.choice(negatives, size=per_class, replace=False),
            ])
            x = features.values[chosen]
            y = labels[chosen].reshape(-1, 1)

            model = nn.MLP(
                x.shape[1], [self.hidden], 1,
                activation="tanh", output_activation="sigmoid", rng=rng,
            )
            optimizer = nn.Adam(model.parameters(), lr=self.learning_rate)
            n = x.shape[0]
            for _ in range(self.epochs):
                order = rng.permutation(n)
                for lo in range(0, n, self.batch_size):
                    batch = order[lo : lo + self.batch_size]
                    optimizer.zero_grad()
                    pred = model(nn.Tensor(x[batch]))
                    loss = nn.functional.binary_cross_entropy(pred, y[batch])
                    loss.backward()
                    optimizer.step()
            model.eval()
            filters.append(model)
        self._filters = filters
        self._event_types = list(event_types)
        return self

    def bind(self, stream: VideoStream, features: FeatureMatrix) -> "TrainedVQSPredictor":
        """Classify every frame of the query stream; cache prefix sums."""
        if self._filters is None:
            raise RuntimeError("fit() before bind()")
        if features.num_frames != stream.length:
            raise ValueError("feature matrix length != stream length")
        prefix: List[np.ndarray] = []
        with nn.no_grad():
            for model in self._filters:
                scores = model(nn.Tensor(features.values)).data.ravel()
                positive = (scores >= 0.5).astype(np.int64)
                prefix.append(np.concatenate([[0], np.cumsum(positive)]))
        self._prefix = prefix
        self._bound_length = stream.length
        return self

    def predict(self, records: RecordSet, **knobs) -> PredictionBatch:
        """Relay full horizons whose predicted-positive frame count ≥ τ."""
        tau = knobs.pop("tau", 1)
        if knobs:
            raise TypeError(f"unexpected knobs {sorted(knobs)}")
        if tau < 0:
            raise ValueError("tau must be non-negative")
        if self._prefix is None:
            raise RuntimeError("bind() before predict()")
        if records.num_events != len(self._filters):
            raise ValueError("records' event count differs from the fitted one")
        frames = records.frames
        horizon = records.horizon
        if frames.max() + horizon >= self._bound_length:
            raise ValueError("records' horizons exceed the bound stream")
        counts = np.zeros((len(records), records.num_events), dtype=int)
        for k, prefix in enumerate(self._prefix):
            counts[:, k] = prefix[frames + horizon + 1] - prefix[frames + 1]
        exists = counts >= tau
        return PredictionBatch(
            exists=exists,
            starts=np.where(exists, 1, 0),
            ends=np.where(exists, horizon, 0),
            horizon=horizon,
        )
