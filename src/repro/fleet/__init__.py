"""Multi-stream batched marshalling (the fleet layer).

Serve N streams with one decision engine and one CI account:
:class:`FleetMarshaller` stacks all lanes' collection windows into one
batch-size-invariant forward pass per tick, pools their relay segments,
and flushes them through a pluggable :class:`FleetScheduler` under a
global per-tick frame budget — byte-identical per-stream reports to N
sequential runs under round-robin scheduling on fault-free
infrastructure.

Past a few hundred lanes one process saturates:
:class:`ShardedFleetMarshaller` partitions the lane set across worker
processes (each a complete marshalling stack) and merges reports,
ledgers, and observability exactly, while :class:`AdmissionController`
bounds intake and sheds pressured lanes to a degraded relay-all tier —
never dropping frames.

The fleet also survives its own processes: every sharded run is driven
by a :class:`SupervisorConfig` — fail-fast by default
(:data:`FAIL_FAST`), a self-healing control plane with a restart budget
(liveness FSM, checkpointed deterministic restarts, rescue/degrade
escalation) — and a seeded :class:`ShardFaultPlan`
injects the process-level chaos (crash / SIGKILL / stall / slow /
startup hang) that proves it.
"""

from .admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionDriver,
    AdmissionQueueFull,
    Transition,
)
from .marshaller import LANE_MODES, FleetLane, FleetMarshaller, FleetReport
from .scheduler import (
    SCHEDULERS,
    CostAwareScheduler,
    DeadlineFirstScheduler,
    FleetScheduler,
    RelayRequest,
    RoundRobinScheduler,
    SchedulerContext,
    make_scheduler,
)
from .service import FleetCIService
from .shard_faults import (
    SHARD_FAULT_KINDS,
    ShardCrash,
    ShardFault,
    ShardFaultInjector,
    ShardFaultPlan,
)
from .supervisor import (
    FAIL_FAST,
    LIVENESS_STATES,
    CheckpointCorruption,
    ShardCheckpoint,
    ShardSupervisor,
    SupervisorConfig,
    SupervisorEvent,
)
from .sharded import (
    PARTITIONS,
    ChaosServiceFactory,
    PlainServiceFactory,
    ShardResult,
    ShardedFleetMarshaller,
    ShardedFleetReport,
    contiguous_partition,
    make_partition,
    striped_partition,
)

__all__ = [
    "FleetLane",
    "FleetMarshaller",
    "FleetReport",
    "FleetCIService",
    "FleetScheduler",
    "RoundRobinScheduler",
    "DeadlineFirstScheduler",
    "CostAwareScheduler",
    "RelayRequest",
    "SchedulerContext",
    "SCHEDULERS",
    "make_scheduler",
    "LANE_MODES",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDriver",
    "AdmissionQueueFull",
    "Transition",
    "ShardedFleetMarshaller",
    "ShardedFleetReport",
    "ShardResult",
    "PlainServiceFactory",
    "ChaosServiceFactory",
    "PARTITIONS",
    "contiguous_partition",
    "striped_partition",
    "make_partition",
    "SupervisorConfig",
    "FAIL_FAST",
    "ShardSupervisor",
    "SupervisorEvent",
    "ShardCheckpoint",
    "CheckpointCorruption",
    "LIVENESS_STATES",
    "ShardFaultPlan",
    "ShardFault",
    "ShardFaultInjector",
    "ShardCrash",
    "SHARD_FAULT_KINDS",
]
