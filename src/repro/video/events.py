"""Event types, event instances, and per-stream event schedules (paper §II).

The paper models a video stream as a frame sequence ``V = <f_1 .. f_N>`` and a
set of independent event types ``E = {E_1 .. E_k}``; each event *instance*
occupies an *occurrence interval* ``(T^s .. T^e)``.  This module provides the
plain-data containers for those concepts plus the :class:`EventSchedule`
query surface used everywhere else: occupancy masks, "events in the next
horizon", censoring per Fig. 2, and the O(log n) interval queries behind
ground-truth recall accounting.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = ["EventType", "EventInstance", "HorizonEvent", "EventSchedule"]

#: Per-type interval index: sorted starts, sorted ends, and the prefix sum
#: of durations (``prefix[i]`` is the total duration of the first i).
_Index = Tuple[List[int], List[int], List[int]]


@dataclass(frozen=True)
class EventType:
    """A type of event of interest (e.g. "Person Opening a Vehicle").

    Attributes
    ----------
    name:
        Human-readable label (Table I row).
    duration_mean, duration_std:
        Occurrence-duration statistics in frames (Table I "Duration").
    lead_time:
        How many frames before onset the precursor signal starts ramping.
        This is a property of the *world* being simulated: an approaching
        truck is visible before it reaches the gate.  It bounds how far
        ahead any predictor can see the event coming.
    predictability:
        Signal-to-noise of the precursor in [0, 1].  High for Group 1
        events (short, regular), lower for Group 2 (long/high-variance),
        reproducing the paper's per-group difficulty split.
    """

    name: str
    duration_mean: float
    duration_std: float
    lead_time: int = 120
    predictability: float = 0.9

    def __post_init__(self) -> None:
        if self.duration_mean <= 0:
            raise ValueError("duration_mean must be positive")
        if self.duration_std < 0:
            raise ValueError("duration_std must be non-negative")
        if self.lead_time <= 0:
            raise ValueError("lead_time must be positive")
        if not 0.0 <= self.predictability <= 1.0:
            raise ValueError("predictability must be in [0, 1]")

    def sample_duration(self, rng: np.random.Generator) -> int:
        """Draw an occurrence duration (frames), always >= 2.

        Durations are gamma-distributed with moments matched to Table I.
        A gamma (rather than a truncated normal) keeps the sample mean on
        target even for high-variance events such as E11 (mean 97.2,
        σ 107.5), where left-truncating a normal would inflate the mean by
        ~20%.
        """
        if self.duration_std == 0:
            return max(2, int(round(self.duration_mean)))
        shape = (self.duration_mean / self.duration_std) ** 2
        scale = self.duration_std**2 / self.duration_mean
        value = rng.gamma(shape, scale)
        return max(2, int(round(value)))


@dataclass(frozen=True, order=True)
class EventInstance:
    """One occurrence of an event type: frames ``[start, end]`` inclusive."""

    start: int
    end: int
    event_type: EventType = field(compare=False)

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("start must be non-negative")
        if self.end < self.start:
            raise ValueError("end must be >= start")

    @property
    def duration(self) -> int:
        return self.end - self.start + 1

    def overlaps(self, start: int, end: int) -> bool:
        """Whether this instance intersects the inclusive range [start, end]."""
        return self.start <= end and self.end >= start

    def frames(self) -> range:
        return range(self.start, self.end + 1)


@dataclass(frozen=True)
class HorizonEvent:
    """An event instance as seen from a reference frame's time horizon.

    Offsets follow the paper's convention: ``start_offset``/``end_offset``
    are in ``[1, H]`` relative to the reference frame, and ``censored`` is
    the δ indicator of Fig. 2 — the instance ends after the horizon, so its
    end is clamped to ``H``.
    """

    event_type: EventType
    start_offset: int
    end_offset: int
    censored: bool

    def __post_init__(self) -> None:
        if self.start_offset < 1:
            raise ValueError("start_offset must be >= 1")
        if self.end_offset < self.start_offset:
            raise ValueError("end_offset must be >= start_offset")


class EventSchedule:
    """All event instances of all types in one video stream.

    Parameters
    ----------
    length:
        Number of frames N in the stream.
    instances:
        Event instances; they are bucketed by type and sorted by start.
        Instances of the same type must not overlap (the paper's events of a
        given type are disjoint in time).

    Because same-type instances are disjoint, their starts *and* ends are
    both sorted, so the instances overlapping any frame range form one
    contiguous run of the bucket.  ``__init__`` indexes each type once —
    sorted starts, sorted ends, and a prefix sum of durations — and
    :meth:`instances_between` / :meth:`frames_in` answer range queries by
    bisection instead of scanning (or materialising) every frame.
    """

    def __init__(self, length: int, instances: Iterable[EventInstance]):
        if length <= 0:
            raise ValueError("stream length must be positive")
        self.length = length
        self._by_type: Dict[str, List[EventInstance]] = {}
        for inst in instances:
            if inst.end >= length:
                raise ValueError(
                    f"instance {inst.start}-{inst.end} exceeds stream length {length}"
                )
            self._by_type.setdefault(inst.event_type.name, []).append(inst)
        for name, bucket in self._by_type.items():
            bucket.sort()
            for prev, cur in zip(bucket, bucket[1:]):
                if cur.start <= prev.end:
                    raise ValueError(
                        f"overlapping instances of {name!r}: "
                        f"[{prev.start},{prev.end}] and [{cur.start},{cur.end}]"
                    )
        self._index: Dict[str, _Index] = {}
        for name, bucket in self._by_type.items():
            prefix = [0]
            for inst in bucket:
                prefix.append(prefix[-1] + inst.duration)
            self._index[name] = (
                [inst.start for inst in bucket],
                [inst.end for inst in bucket],
                prefix,
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def event_type_names(self) -> List[str]:
        return sorted(self._by_type)

    def instances_of(self, event_type: EventType) -> List[EventInstance]:
        """Instances of one type, sorted by start frame."""
        return list(self._by_type.get(event_type.name, []))

    def all_instances(self) -> List[EventInstance]:
        out: List[EventInstance] = []
        for bucket in self._by_type.values():
            out.extend(bucket)
        return sorted(out)

    def occurrence_count(self, event_type: EventType) -> int:
        return len(self._by_type.get(event_type.name, []))

    # ------------------------------------------------------------------
    # Occupancy queries
    # ------------------------------------------------------------------
    def occupancy_mask(self, event_type: EventType) -> np.ndarray:
        """Boolean array of length N: True where the event is occurring."""
        mask = np.zeros(self.length, dtype=bool)
        for inst in self._by_type.get(event_type.name, []):
            mask[inst.start : inst.end + 1] = True
        return mask

    def time_to_next_onset(self, event_type: EventType) -> np.ndarray:
        """For each frame t, frames until the nearest onset at or after t.

        An onset frame reports 0; frames after the final onset report inf.
        Feature extraction uses this to shape the precursor ramp (the ramp
        anticipates each upcoming onset).
        """
        starts = np.asarray(self._lookup(event_type)[0], dtype=np.int64)
        frames = np.arange(self.length)
        upcoming = np.searchsorted(starts, frames, side="left")
        dist = np.full(self.length, np.inf)
        ahead = upcoming < len(starts)
        dist[ahead] = starts[upcoming[ahead]] - frames[ahead]
        return dist

    # ------------------------------------------------------------------
    # Interval queries (ground-truth accounting)
    # ------------------------------------------------------------------
    _EMPTY_INDEX: _Index = ([], [], [0])

    def _lookup(self, event_type: EventType) -> _Index:
        return self._index.get(event_type.name, self._EMPTY_INDEX)

    def instances_between(
        self, event_type: EventType, start: int, end: int
    ) -> List[EventInstance]:
        """Instances of ``event_type`` overlapping ``[start, end]``, sorted
        by start (exactly the ``EventInstance.overlaps`` filter)."""
        starts, ends, _ = self._lookup(event_type)
        # First instance whose end reaches ``start`` .. first that starts
        # after ``end``.
        lo, hi = bisect_left(ends, start), bisect_right(starts, end)
        return self._by_type.get(event_type.name, [])[lo:hi]

    def frames_in(self, event_type: EventType, start: int, end: int) -> int:
        """Number of frames in ``[start, end]`` where ``event_type`` occurs
        (0 for an empty range)."""
        if start > end:
            return 0
        starts, ends, prefix = self._lookup(event_type)
        lo, hi = bisect_left(ends, start), bisect_right(starts, end)
        if lo >= hi:
            return 0
        # Whole durations of the run, minus the parts of its first and
        # last instance that stick out of the range.
        return (
            prefix[hi]
            - prefix[lo]
            - max(0, start - starts[lo])
            - max(0, ends[hi - 1] - end)
        )

    def covered_frames_in(
        self, event_type: EventType, spans: Iterable, start: int, end: int
    ) -> int:
        """Frames of ``event_type`` in ``[start, end]`` that the union of
        ``spans`` covers.

        ``spans`` are inclusive ``start``/``end`` ranges (detections,
        segments); they may overlap each other and reach past the range.
        Walking the spans in start order, each counts only past the last
        frame already counted, so no frame counts twice.
        """
        total = 0
        counted = start - 1
        for lo, hi in sorted((span.start, span.end) for span in spans):
            lo, hi = max(lo, counted + 1), min(hi, end)
            if lo <= hi:
                total += self.frames_in(event_type, lo, hi)
                counted = hi
        return total

    # ------------------------------------------------------------------
    # Horizon queries (paper Fig. 2)
    # ------------------------------------------------------------------
    def events_in_horizon(
        self, event_type: EventType, frame: int, horizon: int
    ) -> List[HorizonEvent]:
        """Instances of ``event_type`` intersecting ``(frame, frame+H]``.

        Following §II: offsets are relative to ``frame`` and lie in [1, H];
        an instance that is *already ongoing* at the reference frame starts
        at offset 1; an instance ending past the horizon is censored with
        end offset clamped to H.
        """
        if not 0 <= frame < self.length:
            raise ValueError(f"frame {frame} outside stream [0, {self.length})")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        window_end = frame + horizon
        found: List[HorizonEvent] = []
        for inst in self.instances_between(event_type, frame + 1, window_end):
            start_offset = max(1, inst.start - frame)
            censored = inst.end > window_end
            end_offset = horizon if censored else inst.end - frame
            found.append(
                HorizonEvent(
                    event_type=inst.event_type,
                    start_offset=start_offset,
                    end_offset=end_offset,
                    censored=censored,
                )
            )
        return found

    def first_event_in_horizon(
        self, event_type: EventType, frame: int, horizon: int
    ) -> Optional[HorizonEvent]:
        """The earliest instance in the horizon, or None.

        §II simplification: "event instances of E_i can appear at most once
        in the time horizon for estimation purposes" — training targets use
        the first occurrence.
        """
        events = self.events_in_horizon(event_type, frame, horizon)
        return min(events, key=lambda e: e.start_offset) if events else None

    def duration_stats(self, event_type: EventType) -> Tuple[float, float]:
        """Empirical (mean, std) of instance durations (Table I columns)."""
        durations = [inst.duration for inst in self._by_type.get(event_type.name, [])]
        if not durations:
            return (float("nan"), float("nan"))
        arr = np.asarray(durations, dtype=float)
        return float(arr.mean()), float(arr.std())
