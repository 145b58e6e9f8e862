"""Common predictor interface for all §VI.B algorithms.

Every algorithm consumes a :class:`~repro.data.records.RecordSet` and emits
a :class:`~repro.core.inference.PredictionBatch`; tunable knobs (c, α,
τ_cox, τ_vqs, ...) are keyword arguments of :meth:`predict` so the harness
can sweep them to trace REC–SPL curves.
"""

from __future__ import annotations

from typing import Dict, Protocol, Tuple, runtime_checkable

from ..core.batched import BatchedInference
from ..core.inference import PredictionBatch
from ..core.model import EventHit, EventHitOutput
from ..data.records import RecordSet

__all__ = ["Predictor", "OutputCache"]


@runtime_checkable
class Predictor(Protocol):
    """An algorithm that predicts event existence + occurrence intervals."""

    name: str

    def predict(self, records: RecordSet, **knobs) -> PredictionBatch:
        ...


class OutputCache:
    """Memoise EventHit forward passes per RecordSet.

    The forward is the serving engine's (a
    :class:`~repro.core.batched.BatchedInference` over ``model``).  Knob
    sweeps call ``predict`` dozens of times on the same records; the
    network output does not depend on the knobs, so it is computed once.
    The cache is keyed by object identity — RecordSets are treated as
    immutable snapshots throughout the harness.  Each entry holds its
    RecordSet and is served only to that same object: an ``id`` is reused
    once its object is collected, so the key alone could hand a new
    RecordSet another one's output.
    """

    def __init__(self, model: EventHit):
        self.inference = BatchedInference(model)
        self._store: Dict[int, Tuple[RecordSet, EventHitOutput]] = {}

    def output_for(self, records: RecordSet) -> EventHitOutput:
        entry = self._store.get(id(records))
        if entry is None or entry[0] is not records:
            entry = (records, self.inference.predict(records.covariates))
            self._store[id(records)] = entry
        return entry[1]

    def clear(self) -> None:
        self._store.clear()
