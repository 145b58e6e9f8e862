"""Shard supervision: liveness FSM, checkpoints, and restart budgets.

Every sharded run is driven through this module's control plane; its
default (:data:`FAIL_FAST`) only reaps and reports, while a restart
budget makes the fleet self-healing.  The pieces:

* :class:`SupervisorConfig` — deadlines, budgets, and the escalation
  mode (all wall-clock figures are *coordinator-side*; workers stay
  timer-free).
* :class:`ShardCheckpoint` — a self-checksummed, JSON-round-trippable
  snapshot of one shard's lane-state (per-lane cursor + report
  progress + shadow-ledger cost) and service ledger at a tick.
* :class:`ShardSupervisor` — the coordinator-side bookkeeping machine:
  a per-shard liveness FSM (``STARTING → LIVE ⇄ SUSPECT → DEAD``,
  terminal ``DONE`` / ``FAILED``), heartbeat and startup deadlines,
  a reference checkpoint store with replay-divergence detection, and
  the bounded restart budget.

The supervisor holds no processes and never blocks: the marshalling
loop in :mod:`repro.fleet.sharded` feeds it pipe events plus a
monotonic ``now`` and acts on the transitions it returns (kill, respawn,
escalate).  Keeping the FSM pure makes every deadline path unit-testable
without spawning a process or sleeping.

**Recovery model — deterministic replay, exactly-once billing.**  A
restarted worker does not thaw pickled marshaller internals; it rebuilds
the *identical seeded service stack* (the factory is a pure function of
``(shard_index, streams)``) and re-runs its shard from the start.  The
PR 9 determinism contract then makes the replay bit-for-bit: the
restarted attempt's checkpoints must match the dead attempt's digests at
the same ticks (a mismatch is flagged as replay divergence and the shard
escalates instead of looping).  Billing is exactly-once by construction:
a shard's :class:`~repro.cloud.service.UsageLedger` only travels in its
final ``ShardResult``, so a dead attempt's partial spend never reaches
the merge — the merged ledger is conserved, not merely approximated.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from ..obs import (
    get_flight_recorder,
    get_registry,
    get_timeseries,
    inc,
    is_enabled,
    log_warning,
    set_gauge,
)
from ..obs.flight import FLEET_LANE

__all__ = [
    "CheckpointCorruption",
    "FAIL_FAST",
    "LIVENESS_STATES",
    "ShardCheckpoint",
    "ShardSupervisor",
    "SupervisorConfig",
    "SupervisorEvent",
]


class CheckpointCorruption(ValueError):
    """A checkpoint failed its digest check or carried unknown fields."""


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------
@dataclass
class ShardCheckpoint:
    """One shard's lane-state snapshot at a tick, self-checksummed.

    ``lanes`` maps lane name to progress counters (cursor frame,
    horizons evaluated, frames covered/relayed, shadow-ledger cost);
    ``ledger`` carries the shard service's running totals.  ``digest``
    is a sha256 over the canonical JSON of everything *except*
    ``attempt`` — so a restarted attempt replaying the same work
    produces byte-equal digests, which is exactly the supervisor's
    replay-verification test.
    """

    shard: int
    tick: int
    attempt: int = 0
    lanes: Dict[str, Dict[str, float]] = field(default_factory=dict)
    ledger: Dict[str, float] = field(default_factory=dict)
    digest: str = ""

    def __post_init__(self) -> None:
        if not self.digest:
            self.digest = self.compute_digest()

    # ------------------------------------------------------------------
    def payload(self) -> Dict[str, object]:
        """The digested content (attempt excluded — replays must match)."""
        return {
            "shard": self.shard,
            "tick": self.tick,
            "lanes": self.lanes,
            "ledger": self.ledger,
        }

    def compute_digest(self) -> str:
        canonical = json.dumps(self.payload(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def matches(self, other: "ShardCheckpoint") -> bool:
        """Replay equivalence: same shard/tick content, attempt ignored."""
        return self.digest == other.digest

    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, shard: int, attempt: int, tick: int,
                states, service) -> "ShardCheckpoint":
        """Snapshot live marshaller lane-states plus the service ledger."""
        lanes: Dict[str, Dict[str, float]] = {}
        for state in states:
            report = state.report
            lanes[state.name] = {
                "frame": int(state.frame),
                "done": int(state.done),
                "horizons": int(report.horizons_evaluated),
                "covered": int(report.frames_covered),
                "relayed": int(report.frames_relayed),
                "lost": int(report.frames_lost),
                "cost": float(state.shadow.total_cost),
            }
        ledger = service.ledger
        return cls(
            shard=shard,
            tick=int(tick),
            attempt=int(attempt),
            lanes=lanes,
            ledger={
                "frames_processed": int(ledger.frames_processed),
                "requests": int(ledger.requests),
                "total_cost": float(ledger.total_cost),
            },
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object],
                  verify: bool = True) -> "ShardCheckpoint":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise CheckpointCorruption(
                f"unknown ShardCheckpoint fields: {sorted(unknown)}"
            )
        ckpt = cls(**data)
        if verify and ckpt.digest != ckpt.compute_digest():
            raise CheckpointCorruption(
                f"checkpoint digest mismatch for shard {ckpt.shard} "
                f"tick {ckpt.tick}: stored {ckpt.digest[:12]}..., "
                f"computed {ckpt.compute_digest()[:12]}..."
            )
        return ckpt

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, verify: bool = True) -> "ShardCheckpoint":
        return cls.from_dict(json.loads(text), verify=verify)


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SupervisorConfig:
    """Deadlines and budgets for one supervised sharded run.

    ``suspect_after`` / ``dead_after`` are seconds since the last
    heartbeat (monotonic, coordinator-side); ``startup_deadline`` bounds
    spawn → hello.  ``max_restarts`` is per shard; ``escalation``
    chooses what happens when a shard exhausts it: ``"rescue"`` re-runs
    the orphaned lanes in the coordinator with the shard's own seeded
    factory (byte-identical output), ``"degrade"`` re-runs them in the
    relay-all tier through the existing lane-mode machinery (frames
    never dropped, model never consulted), and ``"raise"`` stops the
    run, reaps every worker, and raises :class:`RuntimeError` naming the
    failed shards.  ``checkpoint_every`` is in worker ticks (checkpoints
    are only taken when ``max_restarts > 0``: a digest is only ever
    compared against a replay's); ``poll_timeout`` bounds every
    coordinator wait so a wedged pipe can never block the loop.
    """

    suspect_after: float = 5.0
    dead_after: float = 30.0
    startup_deadline: float = 60.0
    max_restarts: int = 2
    escalation: str = "rescue"
    checkpoint_every: int = 8
    poll_timeout: float = 0.25

    def __post_init__(self) -> None:
        if self.suspect_after <= 0:
            raise ValueError("suspect_after must be positive")
        if self.dead_after <= self.suspect_after:
            raise ValueError("dead_after must exceed suspect_after")
        if self.startup_deadline <= 0:
            raise ValueError("startup_deadline must be positive")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.escalation not in ("rescue", "degrade", "raise"):
            raise ValueError(
                f"escalation must be 'rescue', 'degrade' or 'raise', "
                f"got {self.escalation!r}"
            )
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.poll_timeout <= 0:
            raise ValueError("poll_timeout must be positive")


#: The sharded coordinator's default: no restarts, any failed shard
#: fails the run (every worker reaped first), and a worker that never
#: says hello within two minutes is reported by shard index.
FAIL_FAST = SupervisorConfig(
    max_restarts=0, escalation="raise", startup_deadline=120.0
)


# ----------------------------------------------------------------------
# Events and per-shard slots
# ----------------------------------------------------------------------
#: The per-shard liveness FSM.  ``STARTING → LIVE`` on hello, ``LIVE ⇄
#: SUSPECT`` on heartbeat deadlines, ``→ DEAD`` on pipe EOF / worker
#: error / the dead deadline, then either a respawn (back to
#: ``STARTING``) or terminal ``FAILED``; ``DONE`` is the happy terminal.
LIVENESS_STATES = ("STARTING", "LIVE", "SUSPECT", "DEAD", "DONE", "FAILED")


@dataclass
class SupervisorEvent:
    """One liveness/recovery transition, for the event log and dashboards."""

    kind: str
    shard: int
    attempt: int
    tick: int
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


class _ShardSlot:
    """Mutable supervision state for one shard."""

    __slots__ = (
        "state", "attempt", "restarts", "spawned_at", "last_beat",
        "last_tick", "reference", "last_checkpoint", "divergences",
        "checkpoints_taken", "reason",
    )

    def __init__(self) -> None:
        self.state = "STARTING"
        self.attempt = 0
        self.restarts = 0
        self.spawned_at = 0.0
        self.last_beat = 0.0
        self.last_tick = 0
        #: tick → digest from the earliest attempt to reach that tick;
        #: later attempts must reproduce these digests exactly.
        self.reference: Dict[int, str] = {}
        self.last_checkpoint: Optional[ShardCheckpoint] = None
        self.divergences = 0
        self.checkpoints_taken = 0
        self.reason = ""


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------
class ShardSupervisor:
    """Coordinator-side liveness/recovery bookkeeping for a sharded run.

    Pure state machine: the caller owns processes and pipes, feeds
    events in with an explicit monotonic ``now``, and acts on what comes
    back.  :meth:`poll` returns the deadline transitions that fired —
    ``"suspect"`` is advisory, ``"dead"`` and ``"startup-timeout"``
    oblige the caller to kill the worker and then consult
    :meth:`should_restart` / :meth:`mark_failed`.
    """

    def __init__(self, config: SupervisorConfig, num_shards: int):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.config = config
        self.num_shards = int(num_shards)
        self.slots: Dict[int, _ShardSlot] = {
            index: _ShardSlot() for index in range(num_shards)
        }
        self.events: List[SupervisorEvent] = []
        self._samples = 0

    # ------------------------------------------------------------------
    # Telemetry plumbing
    # ------------------------------------------------------------------
    def _emit(self, kind: str, shard: int, detail: str = "",
              dump: bool = False) -> SupervisorEvent:
        slot = self.slots[shard]
        event = SupervisorEvent(
            kind=kind, shard=shard, attempt=slot.attempt,
            tick=slot.last_tick, detail=detail,
        )
        self.events.append(event)
        inc(f"fleet.supervisor.{kind.replace('-', '_')}")
        if dump and is_enabled():
            recorder = get_flight_recorder()
            recorder.record(
                FLEET_LANE, tick=slot.last_tick, supervisor=kind,
                shard=shard, attempt=slot.attempt, detail=detail,
            )
            recorder.auto_dump(
                reason=f"shard-{kind}", tick=slot.last_tick, lane=FLEET_LANE
            )
        self._sample_liveness()
        return event

    def _sample_liveness(self) -> None:
        """Gauge + time-series sample of fleet availability.

        Sampled into the coordinator's own store (worker stores never
        ship home), keyed on a monotone event counter — the series the
        shard-availability SLO replays.
        """
        if not is_enabled():
            return
        live = sum(
            1 for slot in self.slots.values()
            if slot.state in ("LIVE", "SUSPECT", "STARTING", "DONE")
        )
        set_gauge("fleet.supervisor.live_shards", float(live))
        set_gauge(
            "fleet.supervisor.live_ratio", live / float(self.num_shards)
        )
        self._samples += 1
        get_timeseries().sample(get_registry(), tick=self._samples)

    # ------------------------------------------------------------------
    # Pipe events
    # ------------------------------------------------------------------
    def register_spawn(self, shard: int, attempt: int, now: float) -> None:
        slot = self.slots[shard]
        slot.state = "STARTING"
        slot.attempt = attempt
        slot.spawned_at = now
        slot.last_beat = now
        if attempt == 0:
            inc("fleet.supervisor.spawns")
            self._sample_liveness()
        else:
            slot.restarts += 1
            self._emit("restart", shard, detail=f"attempt {attempt}",
                       dump=True)

    def on_hello(self, shard: int, attempt: int, now: float) -> None:
        slot = self.slots[shard]
        if attempt != slot.attempt:
            return  # stale generation
        slot.state = "LIVE"
        slot.last_beat = now
        inc("fleet.supervisor.hellos")

    def on_heartbeat(self, shard: int, tick: int, now: float) -> None:
        slot = self.slots[shard]
        if slot.state in ("DEAD", "DONE", "FAILED"):
            return
        recovered = slot.state == "SUSPECT"
        slot.state = "LIVE"
        slot.last_beat = now
        slot.last_tick = max(slot.last_tick, int(tick))
        if recovered:
            self._emit("recovered", shard)

    def on_checkpoint(self, shard: int,
                      checkpoint: ShardCheckpoint) -> str:
        """Store/verify one checkpoint; returns ``"ok"``/``"divergence"``.

        The first attempt to reach a tick defines the reference digest;
        any later attempt must reproduce it byte-for-byte (the replay
        contract).  A divergence is returned to the caller, which treats
        the shard as unsalvageable — a diverged replay would diverge
        again forever.
        """
        slot = self.slots[shard]
        if checkpoint.attempt != slot.attempt:
            return "ok"  # stale generation — ignore
        slot.checkpoints_taken += 1
        slot.last_checkpoint = checkpoint
        inc("fleet.supervisor.checkpoints")
        reference = slot.reference.get(checkpoint.tick)
        if reference is None:
            slot.reference[checkpoint.tick] = checkpoint.digest
            return "ok"
        if reference == checkpoint.digest:
            return "ok"
        slot.divergences += 1
        self._emit(
            "replay-divergence", shard,
            detail=(
                f"tick {checkpoint.tick}: reference {reference[:12]}... "
                f"!= replay {checkpoint.digest[:12]}..."
            ),
            dump=True,
        )
        return "divergence"

    def on_done(self, shard: int) -> None:
        slot = self.slots[shard]
        slot.state = "DONE"
        self._sample_liveness()

    def on_death(self, shard: int, now: float, reason: str) -> None:
        """A worker generation is gone (pipe EOF, error, or deadline)."""
        slot = self.slots[shard]
        if slot.state in ("DEAD", "DONE", "FAILED"):
            return
        slot.state = "DEAD"
        slot.reason = reason
        log_warning(
            "fleet.supervisor.shard_dead", shard=shard,
            attempt=slot.attempt, reason=reason, tick=slot.last_tick,
        )
        self._emit("dead", shard, detail=reason, dump=True)

    # ------------------------------------------------------------------
    # Deadlines
    # ------------------------------------------------------------------
    def poll(self, now: float) -> List[Tuple[int, str]]:
        """Deadline transitions at ``now``: ``(shard, kind)`` pairs.

        ``"startup-timeout"`` — STARTING past the startup deadline;
        ``"suspect"`` — LIVE but silent past ``suspect_after``;
        ``"dead"`` — SUSPECT and silent past ``dead_after``.  The caller
        must kill the worker on ``"startup-timeout"`` / ``"dead"``
        (then call :meth:`on_death`); ``"suspect"`` is bookkeeping only.
        """
        fired: List[Tuple[int, str]] = []
        for shard, slot in self.slots.items():
            if slot.state == "STARTING":
                if now - slot.spawned_at > self.config.startup_deadline:
                    fired.append((shard, "startup-timeout"))
            elif slot.state == "LIVE":
                if now - slot.last_beat > self.config.suspect_after:
                    slot.state = "SUSPECT"
                    self._emit("suspect", shard)
                    fired.append((shard, "suspect"))
            elif slot.state == "SUSPECT":
                if now - slot.last_beat > self.config.dead_after:
                    fired.append((shard, "dead"))
        return fired

    # ------------------------------------------------------------------
    # Recovery policy
    # ------------------------------------------------------------------
    def should_restart(self, shard: int) -> bool:
        slot = self.slots[shard]
        return (
            slot.restarts < self.config.max_restarts
            and slot.divergences == 0
        )

    def next_attempt(self, shard: int) -> int:
        return self.slots[shard].attempt + 1

    def mark_failed(self, shard: int, reason: str) -> None:
        slot = self.slots[shard]
        slot.state = "FAILED"
        slot.reason = reason
        self._emit("failover", shard, detail=reason, dump=True)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def liveness(self) -> Dict[int, str]:
        return {shard: slot.state for shard, slot in self.slots.items()}

    @property
    def failed_shards(self) -> List[int]:
        return sorted(
            shard for shard, slot in self.slots.items()
            if slot.state == "FAILED"
        )

    def summary(self) -> Dict[str, object]:
        """Picklable recovery history for reports and dashboards."""
        return {
            "liveness": {
                str(shard): slot.state
                for shard, slot in sorted(self.slots.items())
            },
            "restarts": [
                self.slots[shard].restarts
                for shard in range(self.num_shards)
            ],
            "checkpoints_taken": sum(
                slot.checkpoints_taken for slot in self.slots.values()
            ),
            "replay_divergences": sum(
                slot.divergences for slot in self.slots.values()
            ),
            "events": [event.to_dict() for event in self.events],
        }
