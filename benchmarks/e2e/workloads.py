"""The four pinned serving workloads and how each one is built and run.

Every workload is a closed loop with one caller: the next tick starts when
the previous one returns, and the next run starts when the previous run
returns.  Only the public API is driven (``run_experiment``,
``build_fleet_lanes``, ``fleet_marshaller``, ``FleetMarshaller.run``,
``ShardedFleetMarshaller.run``); the seed reaches the program only through
the inputs it generates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.cloud import (
    BreakerConfig,
    FaultInjector,
    FaultPlan,
    ResilientCIClient,
    RetryPolicy,
)
from repro.fleet import FleetCIService, ShardedFleetMarshaller
from repro.harness import (
    ExperimentSettings,
    build_fleet_lanes,
    fleet_marshaller,
    run_experiment,
)

__all__ = ["Workload", "Prepared", "WORKLOADS", "prepare"]


@dataclass(frozen=True)
class Workload:
    """One set of inputs: task, data scale, lane count and serving stack."""

    name: str
    task: str
    scale: float
    lanes: int
    warmup: int
    fault_rate: float = 0.0
    scheduler: str = "round-robin"
    tick_budget_frames: Optional[int] = None
    shards: int = 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Three event heads and three truth-accounting passes per
        # lane-horizon: the workload for engine, head and accounting changes.
        Workload(
            name="multievent-ta9",
            task="TA9",
            scale=0.03,
            lanes=32,
            warmup=3,
        ),
        # Injected CI failures under retries, deferral and a deadline
        # scheduler whose frame budget sits just above mean demand, so
        # bursts are postponed and the backlog drains: the cloud paths the
        # clean workloads never reach.
        Workload(
            name="chaos-ta10",
            task="TA10",
            scale=0.06,
            lanes=64,
            warmup=5,
            fault_rate=0.3,
            scheduler="deadline",
            tick_budget_frames=2000,
        ),
        # 96 lanes exceed the 64-entry standardization memo, so the feature
        # path dominates: control for engine and accounting changes.
        Workload(
            name="wide-ta10",
            task="TA10",
            scale=0.03,
            lanes=96,
            warmup=1,
        ),
        # Two forked shard workers of 64 lanes each (under the memo size):
        # the only wall-clock measure of partition, fork, pickle, heartbeats
        # and merge.
        Workload(
            name="sharded-ta10",
            task="TA10",
            scale=0.06,
            lanes=128,
            warmup=3,
            shards=2,
        ),
    )
}

#: Training seed of the deployed model.  Models trained from different
#: seeds sit at different operating points (relay fraction 0.46-0.64 on
#: ``multievent-ta9`` over seeds 0-2), which would swamp every bound.
MODEL_SEED = 0

#: Consecutive failed attempts before the chaos workload's breaker opens.
#: At the default of 5 a run sees 0-4 open episodes, each rejecting calls
#: for several ticks and changing the run's work by up to 40%, so the work
#: would depend on the seed more than on the code.  At 10 it does not open.
BREAKER_THRESHOLD = 10

#: ``--smoke`` sizes (scale, lanes, horizons per lane): every workload
#: shrunk to seconds.
SMOKE = (0.05, 4, 3)


@dataclass
class Prepared:
    """A set-up workload: its lanes and serving stack."""

    workload: Workload
    seed: int
    lanes: List
    fleet: object
    sharded: Optional[ShardedFleetMarshaller]
    max_horizons: Optional[int]

    @property
    def failure_policy(self) -> str:
        return "defer" if self.workload.fault_rate > 0 else "raise"

    def service(self):
        """A fresh service stack for one run (the seeded chaos replays);
        ``None`` when sharded, since each shard builds its own."""
        if self.sharded is not None:
            return None
        service = FleetCIService([lane.stream for lane in self.lanes])
        if self.workload.fault_rate <= 0:
            return service
        plan = FaultPlan(seed=self.seed).with_failure_rate(self.workload.fault_rate)
        return ResilientCIClient(
            FaultInjector(service, plan),
            policy=RetryPolicy(seed=self.seed),
            breaker=BreakerConfig(failure_threshold=BREAKER_THRESHOLD),
        )

    def run(self, service, tick: Callable[[int, int], None]):
        """One ``run`` call; ``tick(shard, tick)`` fires after every tick
        (single process: ``shard`` is 0)."""
        if self.sharded is not None:
            return self.sharded.run(
                self.lanes,
                max_horizons=self.max_horizons,
                failure_policy=self.failure_policy,
                on_heartbeat=tick,
            )
        return self.fleet.run(
            self.lanes,
            service,
            max_horizons=self.max_horizons,
            failure_policy=self.failure_policy,
            on_tick=lambda t: tick(0, t),
        )

    def reference(self):
        """The single-process run the sharded report must equal."""
        return self.fleet.run(
            self.lanes,
            FleetCIService([lane.stream for lane in self.lanes]),
            max_horizons=self.max_horizons,
            failure_policy=self.failure_policy,
        )


def prepare(workload: Workload, seed: int, smoke: bool = False) -> Prepared:
    """Train, calibrate and build lanes: everything ``setup_s`` times.

    The deployed model is pinned (trained with :data:`MODEL_SEED`); ``seed``
    generates what it serves: the fleet's streams and the fault draws.
    """
    if smoke:
        scale, lanes, max_horizons = SMOKE
    else:
        scale, lanes, max_horizons = workload.scale, workload.lanes, None
    experiment = run_experiment(
        workload.task, settings=ExperimentSettings(scale=scale, seed=MODEL_SEED)
    )
    fleet_lanes = build_fleet_lanes(experiment, lanes, seed=seed)
    fleet = fleet_marshaller(
        experiment,
        scheduler=workload.scheduler,
        tick_budget_frames=workload.tick_budget_frames,
    )
    sharded = None
    if workload.shards:
        sharded = ShardedFleetMarshaller(
            fleet,
            workload.shards,
            start_method="fork",
            heartbeat_every=1,
        )
    return Prepared(
        workload=workload,
        seed=seed,
        lanes=fleet_lanes,
        fleet=fleet,
        sharded=sharded,
        max_horizons=max_horizons,
    )
