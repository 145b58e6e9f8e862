"""Sharded fleet scale-out: multi-process marshalling at 1k+ streams.

One :class:`~repro.fleet.marshaller.FleetMarshaller` tick loop is a
single Python process; past a few hundred lanes the stacked forward pass
and the relay flush saturate one core while the others idle.  This
module scales out by *partitioning* the lane set across N shard worker
processes, each running its own complete marshalling stack — engine,
resilient service wrapper, shard-local shadow ledgers, fresh
observability singletons — while a coordinator drives the run and merges
the results exactly:

* **Per-stream reports** merge by construction: a lane's report depends
  only on its own stream (the equivalence contract in
  :mod:`repro.fleet.marshaller`), so with a fixed partition the sharded
  run's per-stream ``to_dict()`` payloads are byte-identical to a
  single-process :class:`FleetMarshaller` over the same lanes — pinned
  in ``tests/fleet/test_sharded.py``, including under seeded chaos.
* **Ledgers** merge exactly: each shard bills against its own account,
  and frames/requests are integers, so
  :meth:`~repro.cloud.service.UsageLedger.merge` reproduces the pooled
  totals (costs add; under *tiered* pricing per-shard accounts walk the
  tier schedule separately, so the merged cost is an upper bound on a
  single pooled account — by design, and documented in DESIGN.md).
* **Observability** merges deterministically: each worker starts from a
  fresh :class:`~repro.obs.MetricsRegistry` / flight recorder, ships a
  picklable snapshot home, and the coordinator folds snapshots into the
  parent registry in sorted-name order
  (:meth:`~repro.obs.MetricsRegistry.merge_from`), renaming each shard's
  fleet pseudo-lane so flight rings never collide.

Worker processes communicate over one duplex pipe each: a hello message
on startup (the spawn deadline's signal), heartbeat messages per tick
(the coordinator's liveness/progress signal), periodic self-checksummed
:class:`~repro.fleet.supervisor.ShardCheckpoint` snapshots when a
restart budget makes a replay possible, and a single
:class:`ShardResult` at the end.  Workers never share state.

The one coordinator loop is always supervised: every wait is bounded
and a liveness FSM (LIVE→SUSPECT→DEAD) reaps crashed *and* wedged
workers.  Under the default :data:`~repro.fleet.supervisor.FAIL_FAST`
config a failed shard stops the run — every worker and pipe reaped
first — with a :class:`RuntimeError` naming the shard and carrying its
traceback.  With a restart budget dead shards respawn and replay
deterministically (verified checkpoint-by-checkpoint), and shards that
exhaust it escalate — their lanes re-run in the coordinator, exactly
(``"rescue"``) or through the relay-all tier (``"degrade"``) — so
frames are never dropped and the merged ledger stays exactly-once.
Process-level chaos to exercise all of it comes from a seeded
:class:`~repro.fleet.shard_faults.ShardFaultPlan`.

Admission control composes per shard: give the coordinator an
:class:`~repro.fleet.admission.AdmissionConfig` and every worker runs
its lanes through a shard-local
:class:`~repro.fleet.admission.AdmissionController` — bounded intake
queue drained in FIFO waves, pressured lanes shed to the relay-all tier
between ticks, with every transition recorded in the shard's flight
recorder and merged home.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..cloud.faults import FaultInjector, FaultPlan
from ..cloud.pricing import PricingModel
from ..cloud.resilient import ResilientCIClient, RetryPolicy
from ..cloud.service import UsageLedger
from ..obs import (
    FlightRecorder,
    MetricsRegistry,
    TimeSeriesStore,
    configure,
    get_flight_recorder,
    get_registry,
    get_timeseries,
    inc,
    is_enabled,
    log_info,
    set_flight_recorder,
    set_registry,
    set_timeseries,
)
from ..obs.flight import FLEET_LANE
from .admission import AdmissionConfig, AdmissionController, AdmissionDriver, Transition
from .marshaller import FleetLane, FleetMarshaller, FleetReport
from .shard_faults import ShardFaultInjector, ShardFaultPlan
from .supervisor import (
    FAIL_FAST,
    ShardCheckpoint,
    ShardSupervisor,
    SupervisorConfig,
)
from .service import FleetCIService

__all__ = [
    "PARTITIONS",
    "ChaosServiceFactory",
    "PlainServiceFactory",
    "ShardResult",
    "ShardedFleetMarshaller",
    "ShardedFleetReport",
    "contiguous_partition",
    "make_partition",
    "striped_partition",
]


# ----------------------------------------------------------------------
# Partitions
# ----------------------------------------------------------------------
def contiguous_partition(
    lanes: Sequence[FleetLane], num_shards: int
) -> List[List[FleetLane]]:
    """Split ``lanes`` into ``num_shards`` balanced order-preserving blocks.

    Sizes differ by at most one (earlier shards take the remainder), so
    a fixed lane list always maps to the same shards — the determinism
    the byte-identity pin depends on.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    lanes = list(lanes)
    base, extra = divmod(len(lanes), num_shards)
    shards: List[List[FleetLane]] = []
    index = 0
    for i in range(num_shards):
        size = base + (1 if i < extra else 0)
        shards.append(lanes[index:index + size])
        index += size
    return shards

def striped_partition(
    lanes: Sequence[FleetLane], num_shards: int
) -> List[List[FleetLane]]:
    """Deal ``lanes`` round-robin across shards (``lanes[i::num_shards]``).

    Spreads heterogeneous lanes (e.g. the experiment's test stream plus
    synthetic fleet lanes) evenly when contiguous blocks would skew one
    shard's workload.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    lanes = list(lanes)
    return [lanes[i::num_shards] for i in range(num_shards)]

#: Registry of named partition strategies (CLI ``--partition``).
PARTITIONS: Dict[str, Callable[[Sequence[FleetLane], int], List[List[FleetLane]]]] = {
    "contiguous": contiguous_partition,
    "striped": striped_partition,
}

def make_partition(partition) -> Callable[[Sequence[FleetLane], int], List[List[FleetLane]]]:
    """Resolve a partition name or pass a callable through unchanged."""
    if callable(partition):
        return partition
    try:
        return PARTITIONS[partition]
    except KeyError:
        raise ValueError(
            f"unknown partition {partition!r}; choose from "
            f"{sorted(PARTITIONS)} or pass a callable"
        ) from None


# ----------------------------------------------------------------------
# Service factories (picklable — they cross the process boundary)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlainServiceFactory:
    """Build one fault-free :class:`FleetCIService` per shard."""

    pricing: Optional[PricingModel] = None
    ci_fps: float = 20.0

    def __call__(self, shard_index: int, streams):
        return FleetCIService(streams, pricing=self.pricing, ci_fps=self.ci_fps)

@dataclass(frozen=True)
class ChaosServiceFactory:
    """Build one seeded faulty-but-resilient service stack per shard.

    Each shard derives its own fault/retry seeds from ``seed`` and its
    shard index, so a given partition replays bit-for-bit while shards
    stay statistically independent.
    """

    fault_rate: float = 0.1
    seed: int = 0
    pricing: Optional[PricingModel] = None
    ci_fps: float = 20.0
    retry_policy: Optional[RetryPolicy] = None

    def __call__(self, shard_index: int, streams):
        shard_seed = self.seed + 101 * shard_index
        service = FleetCIService(
            streams, pricing=self.pricing, ci_fps=self.ci_fps
        )
        injector = FaultInjector(
            service, FaultPlan(seed=shard_seed).with_failure_rate(self.fault_rate)
        )
        policy = self.retry_policy or RetryPolicy(seed=shard_seed)
        return ResilientCIClient(injector, policy=policy)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class ShardResult:
    """Everything one shard worker ships back to the coordinator."""

    index: int
    lane_names: List[str]
    report: FleetReport
    ledger: UsageLedger
    registry_state: Dict
    flight_lanes: Dict
    flight_dumps: List[Dict]
    busy_seconds: float
    admission_events: List[Transition] = field(default_factory=list)

@dataclass
class ShardedFleetReport(FleetReport):
    """A merged :class:`FleetReport` plus shard-level accounting.

    ``ticks`` is the *maximum* over shards (shards tick concurrently;
    the slowest defines fleet wall time) while relay/shed counters and
    costs are sums.  ``ledger`` is the exact multi-account rollup of the
    per-shard :class:`~repro.cloud.service.UsageLedger` deltas.

    ``heartbeats`` counts only the heartbeats of worker attempts that
    *completed* — a run that restarted a shard replays the dead
    attempt's ticks, and counting both would make an otherwise
    byte-identical recovery visibly different from the fault-free run.
    ``supervision`` (never serialized by :meth:`to_dict`, for the same
    reason) carries the run's recovery history: final liveness per
    shard, restart counts, checkpoint/divergence totals, the supervisor
    event log, and any rescued/degraded lane names.
    """

    num_shards: int = 0
    shard_ticks: List[int] = field(default_factory=list)
    shard_busy_seconds: List[float] = field(default_factory=list)
    coordinator_seconds: float = 0.0
    heartbeats: int = 0
    ledger: UsageLedger = field(default_factory=UsageLedger)
    admission_events: List[Tuple[int, Transition]] = field(default_factory=list)
    supervision: Dict = field(default_factory=dict)

    @property
    def critical_path_seconds(self) -> float:
        """The run's parallel critical path: the busiest shard's CPU time
        plus coordination (partition + merge) overhead.  On a machine
        with >= ``num_shards`` free cores this is the wall-clock floor;
        the throughput benchmark gates on it because it is
        machine-independent where wall time on a shared CI box is not."""
        return max(self.shard_busy_seconds, default=0.0) + self.coordinator_seconds

    def to_dict(self, include_detections: bool = False) -> Dict[str, object]:
        out = super().to_dict(include_detections=include_detections)
        out["num_shards"] = self.num_shards
        out["shard_ticks"] = list(self.shard_ticks)
        out["heartbeats"] = self.heartbeats
        out["ledger"] = {
            "frames_processed": self.ledger.frames_processed,
            "requests": self.ledger.requests,
            "total_cost": self.ledger.total_cost,
            "frames_per_event": dict(sorted(self.ledger.frames_per_event.items())),
        }
        out["admission_events"] = [
            {"shard": shard, "kind": t.kind, "lane": t.lane, "tick": t.tick}
            for shard, t in self.admission_events
        ]
        return out


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _HeartbeatSender:
    """Per-tick pipe heartbeat, decimated to every ``every`` ticks.

    When a :class:`~repro.fleet.shard_faults.ShardFaultInjector` is
    armed, the injector's tick hook runs *before* the heartbeat send —
    a worker scheduled to die at tick T never reports tick T alive —
    and the ``slow`` fault suppresses sends.  With no injector every
    ``every``-th tick is sent, nothing else.
    """

    def __init__(self, conn, shard_index: int, every: int, injector=None):
        self.conn = conn
        self.shard_index = shard_index
        self.every = max(1, int(every))
        self.ticks = 0
        self.injector = injector

    def __call__(self, tick: int) -> None:
        self.ticks += 1
        if self.injector is not None:
            self.injector.on_tick(self.ticks)
            if self.injector.suppress_heartbeat(self.ticks):
                return
        if tick % self.every == 0:
            self.conn.send(("tick", self.shard_index, tick))


class _CheckpointSender:
    """Ship a self-checksummed lane-state checkpoint every N worker ticks.

    Counts ticks itself so checkpoint ids stay monotone across admission
    waves (each wave restarts the marshaller's tick at zero); the id is
    therefore a pure function of worker progress — exactly what replay
    verification compares digests on.
    """

    def __init__(self, conn, shard_index: int, attempt: int, every: int):
        self.conn = conn
        self.shard_index = shard_index
        self.attempt = attempt
        self.every = max(1, int(every))
        self.count = 0

    def __call__(self, tick: int, states, report, service) -> None:
        self.count += 1
        if self.count % self.every != 0:
            return
        checkpoint = ShardCheckpoint.capture(
            self.shard_index, self.attempt, self.count, states, service
        )
        self.conn.send(("ckpt", self.shard_index, checkpoint))


def _execute_shard(
    shard_index: int, payload: Dict, on_tick=None, probe=None
) -> ShardResult:
    """Run one shard's lanes to completion against the current obs
    singletons — the body shared by worker processes and the
    coordinator's escalation path (which swaps fresh singletons in
    first, so a rescued shard merges through exactly the same door a
    worker result does)."""
    fleet: FleetMarshaller = payload["fleet"]
    lanes: List[FleetLane] = payload["lanes"]
    run_kwargs: Dict = payload["run_kwargs"]
    factory = payload["service_factory"]
    admission: Optional[AdmissionConfig] = payload["admission"]
    signals = payload["admission_signals"]
    lane_modes_override = payload.get("lane_modes")

    busy_start = time.process_time()
    service = factory(shard_index, [lane.stream for lane in lanes])
    admission_events: List[Transition] = []
    if lane_modes_override is not None:
        # Degraded escalation: every lane pinned to the relay-all tier
        # through the same lane-mode machinery admission shedding uses.
        report = fleet.run(
            lanes,
            service,
            on_tick=on_tick,
            probe=probe,
            lane_modes=dict(lane_modes_override),
            **run_kwargs,
        )
    elif admission is None:
        report = fleet.run(
            lanes, service, on_tick=on_tick, probe=probe, **run_kwargs
        )
    else:
        by_name = {lane.name: lane for lane in lanes}
        controller = AdmissionController(admission)
        serving, _ = controller.submit([lane.name for lane in lanes])
        lane_modes: Dict[str, str] = {}
        driver = AdmissionDriver(
            controller, lane_modes, signals=signals, on_tick=on_tick
        )
        report = FleetReport(scheduler=fleet.scheduler.name)
        while serving:
            wave = fleet.run(
                [by_name[name] for name in serving],
                service,
                on_tick=driver,
                probe=probe,
                lane_modes=lane_modes,
                **run_kwargs,
            )
            # Waves run one after another inside the worker: ticks add.
            report.per_stream.update(wave.per_stream)
            report.ticks += wave.ticks
            report.fold_counters(wave)
            controller.retire(serving)
            for name in serving:
                lane_modes.pop(name, None)
            serving = controller.next_wave()
        admission_events = list(controller.events)
    busy_seconds = time.process_time() - busy_start

    registry = get_registry()
    recorder = get_flight_recorder()
    return ShardResult(
        index=shard_index,
        lane_names=[lane.name for lane in lanes],
        report=report,
        ledger=service.ledger,
        registry_state=registry.dump_state() if payload["telemetry"] else {},
        flight_lanes=recorder.snapshot() if payload["telemetry"] else {},
        flight_dumps=recorder.dumps if payload["telemetry"] else [],
        busy_seconds=busy_seconds,
        admission_events=admission_events,
    )

def _run_shard(conn, shard_index: int, payload: Dict,
               injector=None) -> ShardResult:
    # Fresh observability singletons, always: under "fork" the child
    # inherits the parent's registry and would double-count every metric
    # it merges home; under "spawn" these are fresh anyway but the
    # configure() switch still needs setting.
    set_registry(MetricsRegistry())
    set_flight_recorder(FlightRecorder())
    set_timeseries(TimeSeriesStore())
    configure(enabled=payload["telemetry"])

    heartbeat = _HeartbeatSender(
        conn, shard_index, payload["heartbeat_every"], injector=injector
    )
    probe = None
    if payload.get("checkpoint_every"):
        probe = _CheckpointSender(
            conn, shard_index, payload.get("attempt", 0),
            payload["checkpoint_every"],
        )
    return _execute_shard(shard_index, payload, on_tick=heartbeat, probe=probe)

def _failure_error(supervisor: ShardSupervisor) -> RuntimeError:
    """The ``"raise"`` escalation's error, naming every failed shard."""
    reasons = {
        index: supervisor.slots[index].reason
        for index in supervisor.failed_shards
    }
    stuck = [i for i, reason in reasons.items() if reason == "startup timeout"]
    if stuck:
        return RuntimeError(
            f"shard(s) {', '.join(map(str, stuck))} failed to start within "
            f"{supervisor.config.startup_deadline:.1f}s (worker hung during "
            f"spawn/import); raise SupervisorConfig.startup_deadline "
            f"(--startup-timeout) or give the shards a restart budget"
        )
    detail = "\n\n".join(
        f"--- shard {index} ---\n{reason}"
        for index, reason in reasons.items()
    )
    return RuntimeError(f"{len(reasons)} shard(s) failed:\n{detail}")

def _shard_worker(conn, shard_index: int, payload: Dict) -> None:
    """Process entry point (module-level, so ``spawn`` can pickle it).

    Protocol, in order: an armed startup fault fires first (a hung
    import never says hello), then ``("hello", shard, attempt)``, then
    per-tick ``("tick", shard, tick)`` heartbeats interleaved with
    ``("ckpt", shard, checkpoint)`` snapshots, then exactly one of
    ``("done", shard, ShardResult)`` or ``("error", shard, traceback)``.
    A SIGKILLed worker sends nothing further — the coordinator sees a
    bare pipe EOF.
    """
    attempt = payload.get("attempt", 0)
    injector = None
    plan: Optional[ShardFaultPlan] = payload.get("fault_plan")
    try:
        if plan is not None:
            injector = ShardFaultInjector(plan, shard_index, attempt, conn)
            injector.at_startup()
        conn.send(("hello", shard_index, attempt))
        result = _run_shard(conn, shard_index, payload, injector=injector)
        conn.send(("done", shard_index, result))
    except Exception:
        conn.send(("error", shard_index, traceback.format_exc()))
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
class ShardedFleetMarshaller:
    """Partition a lane set across worker processes and merge exactly.

    Parameters
    ----------
    fleet:
        The fleet marshaller each worker replicates (pickled to every
        shard; workers never share it).  Scheduler and budget apply
        *per shard*.
    num_shards:
        Worker process count.  Empty shards (more shards than lanes)
        are skipped.
    partition:
        A :data:`PARTITIONS` name or a callable
        ``partition(lanes, num_shards) -> List[List[FleetLane]]``.
        The partition is the reproducibility contract: a fixed partition
        makes the whole run deterministic.
    service_factory:
        Picklable ``factory(shard_index, streams) -> service`` building
        each shard's private CI stack; defaults to
        :class:`PlainServiceFactory`.
    admission:
        Optional :class:`~repro.fleet.admission.AdmissionConfig`; when
        given, every shard runs intake + load shedding locally.
    admission_signals:
        Optional picklable ``signals(tick) -> (latency_p99,
        backlog_frames)`` override for the shard admission drivers
        (tests inject synthetic overload this way; default reads each
        shard's live registry).
    start_method:
        ``multiprocessing`` start method (``"fork"``/``"spawn"``/
        ``None`` = platform default).  Everything a worker needs is
        pickled, so ``spawn`` works everywhere; the CI runs a spawn
        smoke test to keep it that way.
    heartbeat_every:
        Stream a liveness heartbeat every N worker ticks.
    supervisor:
        The :class:`~repro.fleet.supervisor.SupervisorConfig` every run
        is driven under: bounded waits, the liveness FSM, and its
        startup/heartbeat deadlines always apply.  The default
        :data:`~repro.fleet.supervisor.FAIL_FAST` makes any shard
        failure fatal (cleanly so — every worker is reaped and every
        pipe closed before the :class:`RuntimeError`); a restart budget
        adds checkpointed deterministic restarts and rescue/degrade
        escalation when the budget runs out.
    fault_plan:
        Optional seeded
        :class:`~repro.fleet.shard_faults.ShardFaultPlan` shipped to
        every worker — process-level chaos (crash / SIGKILL / stall /
        slow / startup hang) keyed on ``(shard, attempt)``.
    """

    def __init__(
        self,
        fleet: FleetMarshaller,
        num_shards: int,
        partition="contiguous",
        service_factory=None,
        admission: Optional[AdmissionConfig] = None,
        admission_signals=None,
        start_method: Optional[str] = None,
        heartbeat_every: int = 1,
        supervisor: SupervisorConfig = FAIL_FAST,
        fault_plan: Optional[ShardFaultPlan] = None,
    ):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if heartbeat_every < 1:
            raise ValueError("heartbeat_every must be >= 1")
        self.fleet = fleet
        self.num_shards = int(num_shards)
        self.partition = make_partition(partition)
        self.service_factory = service_factory or PlainServiceFactory()
        self.admission = admission
        self.admission_signals = admission_signals
        self.start_method = start_method
        self.heartbeat_every = int(heartbeat_every)
        self.supervisor = supervisor
        self.fault_plan = fault_plan

    # ------------------------------------------------------------------
    def run(
        self,
        lanes: Sequence[FleetLane],
        start_frame: Optional[int] = None,
        max_horizons: Optional[int] = None,
        failure_policy: str = "raise",
        max_deferrals: int = 8,
        guard=None,
        on_heartbeat: Optional[Callable[[int, int], None]] = None,
        on_liveness: Optional[Callable[[int, str, str], None]] = None,
    ) -> ShardedFleetReport:
        """Marshal ``lanes`` across the shard fleet and merge the results.

        ``start_frame`` / ``max_horizons`` / ``failure_policy`` /
        ``max_deferrals`` / ``guard`` are forwarded verbatim to every
        shard's :meth:`FleetMarshaller.run`.  ``on_heartbeat``, when
        given, is called as ``on_heartbeat(shard_index, tick)`` for every
        heartbeat message a worker streams back — the live-progress hook
        the ``watch --shards`` dashboard draws from.  ``on_liveness``,
        when given, is called as ``on_liveness(shard_index, state,
        detail)`` on every liveness transition (spawn, hello, suspect,
        recovery, death, restart, failover) — the dashboard's liveness
        column.

        Returns a :class:`ShardedFleetReport` whose ``per_stream``
        mapping follows the *original* lane order regardless of the
        partition, so ``to_dict()`` comparisons against a
        single-process run need no canonicalisation.
        """
        lanes = list(lanes)
        if not lanes:
            raise ValueError("a sharded fleet run needs at least one lane")
        coord_start = time.perf_counter()
        shards = [s for s in self.partition(lanes, self.num_shards) if s]
        partitioned = [lane.name for shard in shards for lane in shard]
        if sorted(partitioned) != sorted(lane.name for lane in lanes):
            raise ValueError(
                "partition must produce a permutation of the lane set"
            )
        run_kwargs = {
            "start_frame": start_frame,
            "max_horizons": max_horizons,
            "failure_policy": failure_policy,
            "max_deferrals": max_deferrals,
            "guard": guard,
        }
        telemetry = is_enabled()
        coordinator_seconds = time.perf_counter() - coord_start

        context = mp.get_context(self.start_method)
        results, heartbeats, supervision = self._run_supervised(
            context, shards, run_kwargs, telemetry, on_heartbeat, on_liveness
        )

        merge_start = time.perf_counter()
        report = self._merge(lanes, shards, results, telemetry)
        report.heartbeats = heartbeats
        report.supervision = supervision
        report.coordinator_seconds = (
            coordinator_seconds + time.perf_counter() - merge_start
        )
        inc("fleet.sharded.runs")
        log_info(
            "fleet.sharded_complete",
            shards=len(shards),
            streams=len(lanes),
            ticks=report.ticks,
            heartbeats=heartbeats,
        )
        return report

    # ------------------------------------------------------------------
    # Spawning and cleanup
    # ------------------------------------------------------------------
    def _payload(self, shard_lanes, run_kwargs, telemetry: bool,
                 attempt: int, lane_modes=None) -> Dict:
        return {
            "fleet": self.fleet,
            "lanes": shard_lanes,
            "run_kwargs": run_kwargs,
            "service_factory": self.service_factory,
            "admission": self.admission,
            "admission_signals": self.admission_signals,
            "telemetry": telemetry,
            "heartbeat_every": self.heartbeat_every,
            "attempt": attempt,
            "fault_plan": self.fault_plan,
            # Digests are only compared against a replay's: no budget,
            # no checkpoints.
            "checkpoint_every": (
                self.supervisor.checkpoint_every
                if self.supervisor.max_restarts > 0 else None
            ),
            "lane_modes": lane_modes,
        }

    def _spawn(self, context, index: int, payload: Dict):
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=_shard_worker,
            args=(child_conn, index, payload),
            daemon=True,
        )
        process.start()
        child_conn.close()  # the worker owns its end now
        return process, parent_conn

    @staticmethod
    def _reap(processes, conns) -> None:
        """Terminate, join, and close everything — every exit path ends
        here, so a failed or interrupted run never leaks children or
        pipe fds (and a wedged worker cannot outlive the coordinator)."""
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Coordinator loop (fail-fast by default, self-healing on a budget)
    # ------------------------------------------------------------------
    def _run_supervised(
        self, context, shards, run_kwargs, telemetry: bool,
        on_heartbeat, on_liveness,
    ) -> Tuple[Dict[int, ShardResult], int, Dict]:
        config = self.supervisor
        supervisor = ShardSupervisor(config, len(shards))
        processes: Dict[int, object] = {}
        conns: Dict[object, int] = {}
        results: Dict[int, ShardResult] = {}
        # Heartbeats of the attempt currently running / of the attempt
        # that completed — only the latter reach the merged report, so a
        # recovered run counts exactly like a fault-free one.
        hb_current: Dict[int, int] = {}
        hb_done: Dict[int, int] = {}
        total_heartbeats = 0

        def notify(shard: int, state: str, detail: str = "") -> None:
            if on_liveness is not None:
                on_liveness(shard, state, detail)

        def spawn(index: int, attempt: int) -> None:
            payload = self._payload(
                shards[index], run_kwargs, telemetry, attempt
            )
            process, conn = self._spawn(context, index, payload)
            processes[index] = process
            conns[conn] = index
            hb_current[index] = 0
            supervisor.register_spawn(index, attempt, time.monotonic())
            notify(index, "STARTING", f"attempt {attempt}")

        def kill_worker(index: int) -> None:
            process = processes.get(index)
            if process is not None and process.is_alive():
                process.kill()
                process.join(timeout=5.0)
            for conn, owner in list(conns.items()):
                if owner == index:
                    del conns[conn]
                    try:
                        conn.close()
                    except OSError:
                        pass

        def handle_death(index: int, reason: str) -> None:
            supervisor.on_death(index, time.monotonic(), reason)
            if index in results:
                return  # the result already landed; nothing to recover
            if supervisor.should_restart(index):
                spawn(index, supervisor.next_attempt(index))
            else:
                supervisor.mark_failed(index, reason)
                notify(index, "FAILED", reason)

        try:
            for index in range(len(shards)):
                spawn(index, 0)
            while conns:
                ready = mp_connection.wait(
                    list(conns), timeout=config.poll_timeout
                )
                now = time.monotonic()
                for conn in ready:
                    index = conns.get(conn)
                    if index is None:
                        continue
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        kill_worker(index)  # closes this pipe too
                        if index not in results:
                            handle_death(
                                index, "pipe closed (worker died)"
                            )
                        continue
                    kind = message[0]
                    if kind == "hello":
                        supervisor.on_hello(index, message[2], now)
                        notify(index, "LIVE")
                    elif kind == "tick":
                        tick = message[2]
                        hb_current[index] += 1
                        total_heartbeats += 1
                        recovered = (
                            supervisor.liveness[index] == "SUSPECT"
                        )
                        supervisor.on_heartbeat(index, tick, now)
                        if recovered:
                            notify(index, "LIVE", "recovered")
                        if on_heartbeat is not None:
                            on_heartbeat(index, tick)
                    elif kind == "ckpt":
                        verdict = supervisor.on_checkpoint(
                            index, message[2]
                        )
                        if verdict == "divergence":
                            kill_worker(index)
                            supervisor.mark_failed(
                                index, "replay divergence"
                            )
                            notify(index, "FAILED", "replay divergence")
                    elif kind == "done":
                        results[index] = message[2]
                        hb_done[index] = hb_current[index]
                        supervisor.on_done(index)
                        notify(index, "DONE")
                    elif kind == "error":
                        kill_worker(index)
                        handle_death(
                            index, f"worker error:\n{message[2]}"
                        )
                for index, what in supervisor.poll(time.monotonic()):
                    if what == "suspect":
                        notify(index, "SUSPECT", "heartbeat overdue")
                    else:  # "dead" or "startup-timeout"
                        kill_worker(index)
                        handle_death(index, what.replace("-", " "))
                if config.escalation == "raise" and supervisor.failed_shards:
                    raise _failure_error(supervisor)
        finally:
            self._reap(list(processes.values()), list(conns))

        # Escalation: shards whose restart budget ran out re-run their
        # lanes in the coordinator — exactly ("rescue") or through the
        # relay-all tier ("degrade") — so no frame is ever dropped.
        rescued: List[str] = []
        degraded: List[str] = []
        for index in supervisor.failed_shards:
            result = self._escalate(
                index, shards[index], run_kwargs, telemetry
            )
            results[index] = result
            hb_done.setdefault(index, 0)
            if config.escalation == "rescue":
                rescued.extend(result.lane_names)
            else:
                degraded.extend(result.lane_names)
            notify(index, "DONE", f"escalated ({config.escalation})")
        supervision = supervisor.summary()
        supervision["rescued_lanes"] = rescued
        supervision["degraded_lanes"] = degraded
        supervision["total_heartbeats"] = total_heartbeats
        return results, sum(hb_done.values()), supervision

    def _escalate(self, index: int, shard_lanes, run_kwargs,
                  telemetry: bool) -> ShardResult:
        """Run an orphaned shard's lanes in the coordinator process.

        Fresh obs singletons are swapped in for the duration, so the
        synthetic :class:`ShardResult` merges through exactly the same
        path a worker's would — under ``"rescue"`` the output is
        byte-identical to what the dead shard would have produced (same
        seeded factory, same shard index), and the dead attempts' spend
        never reaches the ledger, keeping billing exactly-once.
        """
        config = self.supervisor
        lane_modes = None
        if config.escalation == "degrade":
            lane_modes = {lane.name: "relay-all" for lane in shard_lanes}
        payload = self._payload(
            shard_lanes, run_kwargs, telemetry, 0, lane_modes=lane_modes
        )
        payload["fault_plan"] = None  # chaos never follows lanes home
        saved_registry = get_registry()
        saved_recorder = get_flight_recorder()
        saved_series = get_timeseries()
        set_registry(MetricsRegistry())
        set_flight_recorder(FlightRecorder())
        set_timeseries(TimeSeriesStore())
        try:
            result = _execute_shard(index, payload)
        finally:
            set_registry(saved_registry)
            set_flight_recorder(saved_recorder)
            set_timeseries(saved_series)
        inc(
            f"fleet.supervisor.{config.escalation}d_lanes",
            len(list(shard_lanes)),
        )
        log_info(
            "fleet.supervisor.escalated",
            shard=index,
            mode=config.escalation,
            lanes=len(list(shard_lanes)),
        )
        return result

    # ------------------------------------------------------------------
    def _merge(
        self,
        lanes: Sequence[FleetLane],
        shards: Sequence[Sequence[FleetLane]],
        results: Dict[int, ShardResult],
        telemetry: bool,
    ) -> ShardedFleetReport:
        report = ShardedFleetReport(
            scheduler=self.fleet.scheduler.name,
            num_shards=len(shards),
        )
        by_lane = {}
        for index in sorted(results):
            res = results[index]
            report.shard_ticks.append(res.report.ticks)
            report.shard_busy_seconds.append(res.busy_seconds)
            # Shards run concurrently: the run lasts the longest shard.
            report.ticks = max(report.ticks, res.report.ticks)
            report.fold_counters(res.report)
            report.ledger.merge(res.ledger)
            report.admission_events.extend(
                (index, transition) for transition in res.admission_events
            )
            by_lane.update(res.report.per_stream)
            if telemetry:
                registry = get_registry()
                registry.merge_from(res.registry_state)
                recorder = get_flight_recorder()
                shard_fleet_lane = f"{FLEET_LANE}/shard{index}"
                renamed = {
                    (shard_fleet_lane if lane == FLEET_LANE else lane): entries
                    for lane, entries in res.flight_lanes.items()
                }
                dumps = []
                for dump in res.flight_dumps:
                    dump = dict(dump)
                    dump["shard"] = index
                    dump["lanes"] = {
                        (shard_fleet_lane if lane == FLEET_LANE else lane): rows
                        for lane, rows in dump.get("lanes", {}).items()
                    }
                    dumps.append(dump)
                recorder.merge_from(renamed, dumps=dumps)
        # Original lane order, whatever the partition did.
        for lane in lanes:
            report.per_stream[lane.name] = by_lane[lane.name]
        return report
