"""Synthetic datasets calibrated to the paper's Table I.

The paper evaluates on VIRAT (surveillance), THUMOS (sports actions) and
Breakfast (cooking action units).  Those corpora are not available offline,
so we generate synthetic streams whose *event statistics* match Table I:
occurrence counts, duration means and duration standard deviations per event
type.  The per-frame observations are produced later by
:mod:`repro.features` from the ground-truth schedule.

Group structure (paper §VI.D) is preserved through the ``predictability``
attribute of each event type: Group 1 events (short duration, small σ —
E1–E4, E7–E10) get strong precursor signal; Group 2 events (long duration or
large σ — E5, E6, E11, E12) get weaker signal, reproducing the paper's
finding that they are harder to marshal.

Note: the OCR of Table I lost the duration mean of E1; we assume 61.2 frames
(consistent with its σ=15.4 and the sibling event E2), recorded as a
substitution in DESIGN.md / EXPERIMENTS.md.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .arrivals import FixedCountArrivals
from .events import EventInstance, EventSchedule, EventType
from .stream import VideoStream

__all__ = [
    "DatasetSpec",
    "Table1Row",
    "TABLE1_ROWS",
    "EVENT_TYPES",
    "make_virat",
    "make_thumos",
    "make_breakfast",
    "make_dataset",
    "make_stream",
    "place_instances",
    "build_schedule",
    "table1_stats",
    "GROUP1_EVENTS",
    "GROUP2_EVENTS",
]


@dataclass(frozen=True)
class Table1Row:
    """One row of the paper's Table I."""

    event_id: str
    name: str
    dataset: str
    occurrences: int
    duration_avg: float
    duration_std: float


# Paper Table I verbatim (E1 mean reconstructed; see module docstring).
TABLE1_ROWS: List[Table1Row] = [
    Table1Row("E1", "Person Opening a Vehicle", "VIRAT", 54, 61.2, 15.4),
    Table1Row("E2", "Person Closing a Vehicle", "VIRAT", 57, 62.0, 11.9),
    Table1Row("E3", "Person Unloading an Object from a Vehicle", "VIRAT", 56, 86.6, 25.0),
    Table1Row("E4", "Person getting into a Vehicle", "VIRAT", 93, 145.1, 35.1),
    Table1Row("E5", "Person getting out of a Vehicle", "VIRAT", 162, 193.7, 158.8),
    Table1Row("E6", "Person carrying an object", "VIRAT", 165, 571.2, 176.4),
    Table1Row("E7", "Volleyball Spiking", "THUMOS", 80, 99.3, 40.1),
    Table1Row("E8", "Diving", "THUMOS", 74, 91.2, 35.4),
    Table1Row("E9", "Soccer Penalty", "THUMOS", 48, 92.8, 25.9),
    Table1Row("E10", "Cut Fruit", "Breakfast", 132, 114.0, 48.8),
    Table1Row("E11", "Put fruit to Bowl", "Breakfast", 121, 97.2, 107.5),
    Table1Row("E12", "Put Egg to Plate", "Breakfast", 95, 240.2, 153.8),
]

# Paper §VI.D group split driving the difficulty narrative.
GROUP1_EVENTS = {"E1", "E2", "E3", "E4", "E7", "E8", "E9", "E10"}
GROUP2_EVENTS = {"E5", "E6", "E11", "E12"}

# Precursor lead times per dataset: how far before onset the world shows
# warning signs.  They must cover the dataset's default horizon (VIRAT /
# Breakfast H=500, THUMOS H=200) — otherwise events landing in the far part
# of a horizon are invisible to *any* predictor, which caps REC_c below the
# paper's values.  Difficulty then comes from noise (predictability) and
# duration variance, as in the paper's Group 1 / Group 2 split.
_LEAD_TIME = {"VIRAT": 1100, "THUMOS": 440, "Breakfast": 1100}
_PREDICTABILITY = {1: 0.92, 2: 0.55}


def _group_of(event_id: str) -> int:
    return 1 if event_id in GROUP1_EVENTS else 2


def _make_event_type(row: Table1Row) -> EventType:
    return EventType(
        name=row.event_id,
        duration_mean=row.duration_avg,
        duration_std=row.duration_std,
        lead_time=_LEAD_TIME[row.dataset],
        predictability=_PREDICTABILITY[_group_of(row.event_id)],
    )


#: Event types keyed by paper id ("E1".."E12").
EVENT_TYPES: Dict[str, EventType] = {
    row.event_id: _make_event_type(row) for row in TABLE1_ROWS
}

_ROWS_BY_ID: Dict[str, Table1Row] = {row.event_id: row for row in TABLE1_ROWS}

# Full-scale stream lengths chosen so the busiest event stays a minority of
# the stream (the "needle in a haystack" premise of §I):  VIRAT's E6
# occupies 165×571 ≈ 94k frames, ≈16% of 600k.
_DATASET_DEFAULTS = {
    # (length, window M, horizon H) per paper §VI.D defaults.
    "VIRAT": (600_000, 25, 500),
    "THUMOS": (120_000, 10, 200),
    "Breakfast": (250_000, 50, 500),
}


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for generating streams of one synthetic dataset.

    ``scale`` shrinks occurrence counts and stream length proportionally
    (occupancy fractions are preserved) so tests and benchmarks can run at
    laptop speed while the full paper-scale configuration remains available
    with ``scale=1.0``.
    """

    name: str
    event_ids: Tuple[str, ...]
    length: int
    window_size: int
    horizon: int
    occurrences: Dict[str, int]
    fps: float = 30.0

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError("length must be positive")
        if self.window_size <= 0 or self.horizon <= 0:
            raise ValueError("window_size and horizon must be positive")
        unknown = [e for e in self.event_ids if e not in EVENT_TYPES]
        if unknown:
            raise ValueError(f"unknown event ids: {unknown}")
        for event_id in self.event_ids:
            if self.occurrences.get(event_id, 0) <= 0:
                raise ValueError(f"no occurrence count for {event_id}")

    @property
    def event_types(self) -> List[EventType]:
        return [EVENT_TYPES[e] for e in self.event_ids]

    def with_events(self, event_ids: Sequence[str]) -> "DatasetSpec":
        """Restrict the spec to a subset of its event types (task scoping)."""
        missing = [e for e in event_ids if e not in self.event_ids]
        if missing:
            raise ValueError(f"events {missing} not part of dataset {self.name}")
        return replace(
            self,
            event_ids=tuple(event_ids),
            occurrences={e: self.occurrences[e] for e in event_ids},
        )


def _spec_for(dataset: str, event_ids: Sequence[str], scale: float) -> DatasetSpec:
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    length, window, horizon = _DATASET_DEFAULTS[dataset]
    occurrences = {
        e: max(4, int(round(_ROWS_BY_ID[e].occurrences * scale))) for e in event_ids
    }
    return DatasetSpec(
        name=dataset.lower(),
        event_ids=tuple(event_ids),
        length=max(horizon * 10, int(round(length * scale))),
        window_size=window,
        horizon=horizon,
        occurrences=occurrences,
    )


def make_virat(scale: float = 1.0, event_ids: Optional[Sequence[str]] = None) -> DatasetSpec:
    """VIRAT-calibrated spec (events E1–E6, M=25, H=500)."""
    return _spec_for("VIRAT", event_ids or ["E1", "E2", "E3", "E4", "E5", "E6"], scale)


def make_thumos(scale: float = 1.0, event_ids: Optional[Sequence[str]] = None) -> DatasetSpec:
    """THUMOS-calibrated spec (events E7–E9, M=10, H=200)."""
    return _spec_for("THUMOS", event_ids or ["E7", "E8", "E9"], scale)


def make_breakfast(scale: float = 1.0, event_ids: Optional[Sequence[str]] = None) -> DatasetSpec:
    """Breakfast-calibrated spec (events E10–E12, M=50, H=500)."""
    return _spec_for("Breakfast", event_ids or ["E10", "E11", "E12"], scale)


_DATASET_FACTORIES = {
    "virat": make_virat,
    "thumos": make_thumos,
    "breakfast": make_breakfast,
}


def make_dataset(name: str, scale: float = 1.0) -> DatasetSpec:
    """Factory by dataset name ("virat" | "thumos" | "breakfast")."""
    try:
        factory = _DATASET_FACTORIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; expected one of {sorted(_DATASET_FACTORIES)}"
        ) from None
    return factory(scale)


def place_instances(
    event_type: EventType, count: int, length: int, rng: np.random.Generator
) -> List[EventInstance]:
    """Place ``count`` instances of ``event_type`` in a ``length``-frame stream.

    Onsets come from :class:`FixedCountArrivals` with a minimum gap wide
    enough that consecutive instances cannot overlap even at +3σ duration;
    each duration is then clamped to the gap for the tail cases.
    """
    min_gap = int(event_type.duration_mean + 3 * event_type.duration_std) + 2
    onsets = FixedCountArrivals(count=count, min_gap=min_gap).sample(length, rng)
    instances: List[EventInstance] = []
    for index, onset in enumerate(onsets):
        duration = event_type.sample_duration(rng)
        next_onset = onsets[index + 1] if index + 1 < len(onsets) else length
        end = min(onset + duration - 1, next_onset - 1, length - 1)
        if end >= onset:
            instances.append(EventInstance(onset, end, event_type))
    return instances


def build_schedule(spec: DatasetSpec, rng: np.random.Generator) -> EventSchedule:
    """Place event instances for every type of ``spec`` in one stream, one
    type after another from the same ``rng`` (:func:`place_instances`)."""
    instances: List[EventInstance] = []
    for event_id in spec.event_ids:
        instances += place_instances(
            EVENT_TYPES[event_id], spec.occurrences[event_id], spec.length, rng
        )
    return EventSchedule(spec.length, instances)


def make_stream(spec: DatasetSpec, seed: int = 0, name: Optional[str] = None) -> VideoStream:
    """Generate one reproducible stream for ``spec``.

    Different ``seed`` values give exchangeable streams of the same
    process — the train / calibration / test splits used throughout the
    experiments are separate seeds of the same spec.
    """
    name_hash = zlib.crc32(spec.name.encode("utf-8"))
    rng = np.random.default_rng(np.random.SeedSequence([name_hash, seed]))
    schedule = build_schedule(spec, rng)
    return VideoStream(
        length=spec.length,
        schedule=schedule,
        fps=spec.fps,
        seed=seed,
        name=name or f"{spec.name}-{seed}",
    )


def table1_stats(scale: float = 1.0, seed: int = 0) -> List[dict]:
    """Regenerate Table I from synthetic streams (benchmark for Table I).

    Returns one dict per event type with both the paper's numbers and the
    measured statistics of the generated stream.
    """
    rows = []
    for dataset_name in ("virat", "thumos", "breakfast"):
        spec = make_dataset(dataset_name, scale=scale)
        stream = make_stream(spec, seed=seed)
        for event_id in spec.event_ids:
            event_type = EVENT_TYPES[event_id]
            mean, std = stream.schedule.duration_stats(event_type)
            rows.append(
                {
                    "event": event_id,
                    "name": _ROWS_BY_ID[event_id].name,
                    "dataset": dataset_name,
                    "paper_occurrences": _ROWS_BY_ID[event_id].occurrences,
                    "measured_occurrences": stream.schedule.occurrence_count(event_type),
                    "paper_duration_avg": _ROWS_BY_ID[event_id].duration_avg,
                    "measured_duration_avg": round(mean, 1),
                    "paper_duration_std": _ROWS_BY_ID[event_id].duration_std,
                    "measured_duration_std": round(std, 1),
                }
            )
    return rows
