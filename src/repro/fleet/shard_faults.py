"""Process-level chaos for the sharded fleet: seeded shard fault plans.

The cloud (:mod:`repro.cloud.faults`), ingest, and lifecycle layers all
ship seeded fault injectors; this module extends the chaos stack one
level down, to the *worker processes themselves*.  A
:class:`ShardFaultPlan` is a declarative, JSON-round-trippable schedule
of process-level faults — worker crash at a tick, a hard ``SIGKILL``, a
heartbeat stall (the worker wedges mid-run), a slow shard (heartbeats
decimated so the supervisor's SUSPECT state exercises), and a startup
hang (the worker blocks before its hello) — and a
:class:`ShardFaultInjector` arms exactly one of them inside a shard
worker.

Determinism rules (the supervisor's replay contract depends on them):

* Faults are keyed on ``(shard, attempt)``: a fault armed for attempt 0
  does **not** re-fire on the restarted attempt 1, so a supervised rerun
  converges.
* In-run faults trigger on the worker's *global tick counter* (monotone
  across admission waves), never on wall-clock time — the set of
  heartbeats and checkpoints a doomed attempt emits before dying is a
  pure function of the plan.
* Hangs and stalls are implemented by blocking on the worker's command
  pipe (the coordinator never sends, so the worker wedges until the
  supervisor kills it) — no ``time.sleep`` anywhere, so nothing depends
  on scheduler timing.

:meth:`ShardFaultPlan.seeded` draws a reproducible schedule from a
seeded RNG, mirroring :meth:`repro.cloud.faults.FaultPlan.uniform`.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..faults import FaultPlanBase, check_rate
from ..obs import inc, log_warning

__all__ = [
    "SHARD_FAULT_KINDS",
    "ShardCrash",
    "ShardFault",
    "ShardFaultInjector",
    "ShardFaultPlan",
]


class ShardCrash(RuntimeError):
    """The injected in-process crash a shard worker raises at its tick."""


#: Fault kinds a :class:`ShardFault` may carry.
#:
#: ``crash``        — raise :class:`ShardCrash` from the tick hook.
#: ``sigkill``      — ``SIGKILL`` the worker's own pid (no cleanup, no
#:                    traceback; the coordinator sees a bare pipe EOF).
#: ``stall``        — wedge forever at the tick (heartbeats stop; only a
#:                    supervisor deadline can reap the worker).
#: ``slow``         — decimate heartbeats to every ``factor`` ticks for
#:                    the rest of the run (exercises LIVE→SUSPECT→LIVE).
#: ``startup_hang`` — wedge before the hello message (exercises the
#:                    startup deadline).
SHARD_FAULT_KINDS = ("crash", "sigkill", "stall", "slow", "startup_hang")

#: Kinds that trigger at a specific tick (the rest arm at startup).
_TICK_KINDS = ("crash", "sigkill", "stall")


@dataclass(frozen=True)
class ShardFault(FaultPlanBase):
    """One scheduled process-level fault.

    ``tick`` is the worker-global tick count at which an in-run fault
    fires (ignored by ``slow`` / ``startup_hang``); ``attempt`` scopes
    the fault to one spawn generation so restarts heal; ``factor`` is
    the ``slow`` decimation divisor.
    """

    shard: int
    kind: str
    tick: int = 1
    attempt: int = 0
    factor: int = 4

    def __post_init__(self) -> None:
        if self.kind not in SHARD_FAULT_KINDS:
            raise ValueError(
                f"kind must be one of {SHARD_FAULT_KINDS}, got {self.kind!r}"
            )
        if self.shard < 0:
            raise ValueError("shard must be >= 0")
        if self.tick < 1:
            raise ValueError("tick must be >= 1")
        if self.attempt < 0:
            raise ValueError("attempt must be >= 0")
        if self.factor < 2:
            raise ValueError("factor must be >= 2")


@dataclass(frozen=True)
class ShardFaultPlan(FaultPlanBase):
    """Declarative schedule of process-level faults for one sharded run.

    At most one fault may be scheduled per ``(shard, attempt)`` pair —
    a worker generation dies (or slows) exactly one way, which keeps
    the replay bookkeeping exact.
    """

    faults: Tuple[ShardFault, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        normalized = tuple(
            fault if isinstance(fault, ShardFault) else ShardFault.from_dict(fault)
            for fault in self.faults
        )
        seen = set()
        for fault in normalized:
            key = (fault.shard, fault.attempt)
            if key in seen:
                raise ValueError(
                    f"duplicate fault for shard {fault.shard} "
                    f"attempt {fault.attempt}"
                )
            seen.add(key)
        object.__setattr__(self, "faults", normalized)

    # ------------------------------------------------------------------
    def fault_for(self, shard: int, attempt: int) -> Optional[ShardFault]:
        """The fault armed for this worker generation, if any."""
        for fault in self.faults:
            if fault.shard == shard and fault.attempt == attempt:
                return fault
        return None

    @classmethod
    def seeded(
        cls,
        num_shards: int,
        rate: float = 0.5,
        max_tick: int = 8,
        seed: int = 0,
        kinds: Sequence[str] = ("crash", "sigkill", "stall"),
    ) -> "ShardFaultPlan":
        """Draw a reproducible chaos schedule from a seeded RNG.

        Each shard independently faults on attempt 0 with probability
        ``rate``; the kind and trigger tick (uniform over
        ``[1, max_tick]``) come from the same RNG stream, so a given
        ``(num_shards, rate, max_tick, seed, kinds)`` tuple always
        yields the same plan — the chaos sweep's determinism contract.
        """
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        check_rate("rate", rate)
        if max_tick < 1:
            raise ValueError("max_tick must be >= 1")
        kinds = tuple(kinds)
        for kind in kinds:
            if kind not in SHARD_FAULT_KINDS:
                raise ValueError(
                    f"kind must be one of {SHARD_FAULT_KINDS}, got {kind!r}"
                )
        rng = np.random.default_rng(seed)
        faults = []
        for shard in range(num_shards):
            draw = float(rng.random())
            kind = kinds[int(rng.integers(0, len(kinds)))]
            tick = int(rng.integers(1, max_tick + 1))
            if draw < rate:
                faults.append(ShardFault(shard=shard, kind=kind, tick=tick))
        return cls(faults=tuple(faults), seed=seed)


class ShardFaultInjector:
    """Arms one :class:`ShardFault` inside a shard worker process.

    The worker calls :meth:`at_startup` before sending its hello and
    :meth:`on_tick` from its heartbeat hook with the worker-global tick
    counter; :meth:`suppress_heartbeat` implements the ``slow`` kind.
    A wedge (``stall`` / ``startup_hang``) blocks on ``conn.recv()`` —
    the coordinator never sends on that pipe, so the worker hangs
    deterministically until the supervisor kills it.
    """

    def __init__(self, plan: ShardFaultPlan, shard_index: int,
                 attempt: int, conn):
        self.plan = plan
        self.shard_index = shard_index
        self.attempt = attempt
        self.conn = conn
        self.fault = plan.fault_for(shard_index, attempt)
        self.fired = False

    # ------------------------------------------------------------------
    def _wedge(self) -> None:
        """Block until killed (the coordinator never sends to workers)."""
        try:
            self.conn.recv()
        except (EOFError, OSError):
            pass
        # If the pipe closed under us, fall back to waiting on a pipe we
        # own both ends of — truly nothing can wake this worker.
        read_fd, _write_fd = os.pipe()
        os.read(read_fd, 1)

    def _fire(self) -> None:
        fault = self.fault
        self.fired = True
        inc("fleet.shard_faults.fired")
        inc(f"fleet.shard_faults.{fault.kind}")
        log_warning(
            "fleet.shard_fault",
            kind=fault.kind,
            shard=self.shard_index,
            attempt=self.attempt,
            tick=fault.tick,
        )
        if fault.kind == "crash":
            raise ShardCrash(
                f"injected crash in shard {self.shard_index} "
                f"(attempt {self.attempt}, tick {fault.tick})"
            )
        if fault.kind == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)
        if fault.kind in ("stall", "startup_hang"):
            self._wedge()

    # ------------------------------------------------------------------
    def at_startup(self) -> None:
        """Run the startup-scoped fault, if one is armed."""
        fault = self.fault
        if fault is not None and not self.fired and fault.kind == "startup_hang":
            self._fire()

    def on_tick(self, tick: int) -> None:
        """Fire an in-run fault once its trigger tick is reached."""
        fault = self.fault
        if (
            fault is not None
            and not self.fired
            and fault.kind in _TICK_KINDS
            and tick >= fault.tick
        ):
            self._fire()

    def suppress_heartbeat(self, tick: int) -> bool:
        """Whether the ``slow`` fault swallows this tick's heartbeat."""
        fault = self.fault
        return (
            fault is not None
            and fault.kind == "slow"
            and tick % fault.factor != 0
        )
