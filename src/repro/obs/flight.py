"""Per-lane flight recorder: a bounded black box for fleet post-mortems.

When a lane quarantines, a circuit opens, or a ``failure_policy`` trips,
the run-level report tells you *that* it happened; the flight recorder
tells you *what the marshaller was doing* in the ticks leading up to it.
Each lane keeps the last N per-tick records (decisions, scheduler picks,
guard FSM state, breaker state, queue depths) in a ``deque`` ring —
fixed memory regardless of run length — and the fleet tick loop calls
:meth:`FlightRecorder.auto_dump` at the moment of the trip, freezing a
copy of every lane's ring plus the trigger.

Records hold only simulated-clock / tick-indexed fields, so dumps from a
seeded run are byte-for-byte reproducible (pinned in ``tests/fleet``).
The module-level helper :func:`flight_record` is gated on the master
switch and stays sub-microsecond while observability is disabled.
"""

from __future__ import annotations

import json
from collections import OrderedDict, deque
from threading import Lock
from typing import Deque, Dict, List, Optional

from . import _state
from .export import render_table
from .logger import log_warning
from .registry import inc

__all__ = [
    "FlightRecorder",
    "get_flight_recorder",
    "set_flight_recorder",
    "flight_record",
    "postmortem",
    "write_flight_json",
]

#: Pseudo-lane used for fleet-wide per-tick records (queue depths, budget).
FLEET_LANE = "_fleet"


class FlightRecorder:
    """Bounded per-lane ring of tick records with freeze-on-trip dumps."""

    def __init__(self, capacity: int = 64, max_dumps: int = 32):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if max_dumps < 1:
            raise ValueError("max_dumps must be positive")
        self.capacity = int(capacity)
        self.max_dumps = int(max_dumps)
        self._lanes: "OrderedDict[str, Deque[Dict]]" = OrderedDict()
        self._dumps: Deque[Dict] = deque(maxlen=self.max_dumps)
        self._dumps_total = 0
        self._lock = Lock()

    def record(self, lane: str, tick: int, **fields) -> None:
        """Append one tick record for ``lane`` (oldest evicted at capacity)."""
        entry = {"tick": int(tick), **fields}
        with self._lock:
            ring = self._lanes.get(lane)
            if ring is None:
                ring = deque(maxlen=self.capacity)
                self._lanes[lane] = ring
            ring.append(entry)

    def record_rows(self, tick: int, keys, rows) -> None:
        """Append one record per ``(lane, values)`` pair, all sharing the
        field schema ``keys`` (a tuple, parallel to each values tuple).

        The hottest write path: rows land in the ring as raw
        ``(tick, keys, values)`` triplets — building a dict per lane per
        tick is a third of the recorder's cost on the fleet tick budget —
        and :meth:`snapshot` materialises dicts only when a dump or an
        export actually wants them.
        """
        tick = int(tick)
        with self._lock:
            for lane, values in rows:
                ring = self._lanes.get(lane)
                if ring is None:
                    ring = deque(maxlen=self.capacity)
                    self._lanes[lane] = ring
                ring.append((tick, keys, values))

    def merge_from(self, snapshot: Dict[str, List[Dict]],
                   dumps=()) -> None:
        """Fold another recorder's :meth:`snapshot` (and archived dumps)
        into this one — the coordinator-side aggregation of shard-local
        recorders.

        Records append per lane in snapshot order (rings still evict
        oldest-first at capacity) and merged dumps count toward
        ``dumps_total``.  The caller is responsible for lane-name
        uniqueness across sources (shard workers' fleet pseudo-lanes are
        renamed before merging).
        """
        with self._lock:
            for lane, entries in snapshot.items():
                ring = self._lanes.get(lane)
                if ring is None:
                    ring = deque(maxlen=self.capacity)
                    self._lanes[lane] = ring
                for entry in entries:
                    ring.append(dict(entry))
            for dump in dumps:
                self._dumps.append(dump)
                self._dumps_total += 1

    def lanes(self) -> List[str]:
        with self._lock:
            return list(self._lanes)

    @staticmethod
    def _as_dict(entry) -> Dict:
        if type(entry) is dict:
            return dict(entry)
        tick, keys, values = entry
        out = {"tick": tick}
        out.update(zip(keys, values))
        return out

    def snapshot(self) -> Dict[str, List[Dict]]:
        """Copy of every lane's retained records, oldest first (ring
        triplets from :meth:`record_rows` materialise as dicts here)."""
        with self._lock:
            return {lane: [self._as_dict(e) for e in ring]
                    for lane, ring in self._lanes.items()}

    def auto_dump(self, reason: str, tick: int,
                  lane: Optional[str] = None) -> Dict:
        """Freeze the black box at a trip point and archive the dump."""
        dump = {
            "reason": reason,
            "tick": int(tick),
            "lane": lane,
            "lanes": self.snapshot(),
        }
        with self._lock:
            self._dumps.append(dump)
            self._dumps_total += 1
        inc("flight.dumps")
        log_warning("flight.dump", reason=reason, tick=tick, lane=lane)
        return dump

    @property
    def dumps(self) -> List[Dict]:
        with self._lock:
            return list(self._dumps)

    @property
    def dumps_total(self) -> int:
        return self._dumps_total

    def clear(self) -> None:
        with self._lock:
            self._lanes.clear()
            self._dumps.clear()
            self._dumps_total = 0

    def to_dict(self) -> Dict:
        return {
            "capacity": self.capacity,
            "dumps_total": self._dumps_total,
            "dumps": self.dumps,
            "lanes": self.snapshot(),
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def postmortem(dump: Dict) -> str:
    """Render one :meth:`FlightRecorder.auto_dump` payload as text.

    Header line with the trigger, then one table per lane (the tripping
    lane first) with a column per recorded field.
    """
    lane = dump.get("lane")
    header = (f"flight recorder dump — reason: {dump['reason']} "
              f"· tick {dump['tick']}"
              + (f" · lane {lane}" if lane else ""))
    sections = [header, "=" * len(header)]
    lanes = dump.get("lanes", {})
    ordering = sorted(lanes, key=lambda l: (l != lane, l == FLEET_LANE, l))
    for name in ordering:
        entries = lanes[name]
        if not entries:
            continue
        title = "fleet" if name == FLEET_LANE else f"lane {name}"
        sections.append(f"\n== {title} ==")
        sections.append(render_table(entries))
    return "\n".join(sections)


_default_recorder = FlightRecorder()


def get_flight_recorder() -> FlightRecorder:
    """The process-wide recorder :func:`flight_record` writes to."""
    return _default_recorder


def set_flight_recorder(recorder: FlightRecorder) -> FlightRecorder:
    """Swap the default recorder (e.g. to resize rings); returns the old."""
    global _default_recorder
    old = _default_recorder
    _default_recorder = recorder
    return old


def flight_record(lane: str, tick: int, **fields) -> None:
    """Record into the default recorder (no-op when observability is
    disabled)."""
    if not _state.enabled:
        return
    _default_recorder.record(lane, tick, **fields)


def write_flight_json(path: str,
                      recorder: Optional[FlightRecorder] = None) -> None:
    """Dump ``recorder`` (default recorder if omitted) as indented JSON."""
    recorder = recorder or _default_recorder
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(recorder.to_json(indent=2))
        fh.write("\n")
