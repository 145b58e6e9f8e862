"""Fleet harness: build multi-stream deployments and measure scaling.

Glue between one trained :class:`~repro.harness.experiments.Experiment`
and the fleet layer: generate N exchangeable streams of the task's
dataset process (fresh seeds of the same spec, like the train/cal/test
splits), extract their covariates, and drive a
:class:`~repro.fleet.FleetMarshaller` over them — plus the throughput
sweep behind the ``fleet`` CLI subcommand and the fleet benchmark, which
reports frames/s versus fleet size for batched-fleet and sequential
serving.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..cloud import CloudInferenceService, StreamMarshaller
from ..core import BatchedInference, make_engine
from ..features import CovariatePipeline, FeatureExtractor
from ..fleet import (
    FAIL_FAST,
    AdmissionConfig,
    ChaosServiceFactory,
    FleetCIService,
    FleetLane,
    FleetMarshaller,
    FleetReport,
    PlainServiceFactory,
    ShardedFleetMarshaller,
    ShardFaultPlan,
    SupervisorConfig,
)
from ..obs import log_info, span
from .chaos import chaos_marshaller
from .experiments import Experiment

__all__ = [
    "build_fleet_lanes",
    "fleet_marshaller",
    "run_fleet",
    "sequential_fleet_baseline",
    "fleet_throughput_sweep",
    "continual_gate_sweep",
    "sharded_fleet_marshaller",
    "sharded_throughput_sweep",
    "shard_chaos_sweep",
]

#: Seed offset separating fleet streams from the builder's train/cal/test
#: seeds (which use seed*101 + small offsets).
_FLEET_SEED_BASE = 7000


def build_fleet_lanes(
    experiment: Experiment,
    num_streams: int,
    seed: int = 0,
    partition=None,
):
    """N exchangeable camera lanes for the experiment's dataset process.

    Each lane is a fresh seed of the task's :class:`DatasetSpec` — same
    arrival/duration processes, different realisations — with covariates
    extracted by the standard detector-simulation pipeline.  Lane 0 always
    reuses the experiment's own test stream, so a size-1 fleet is exactly
    the familiar single-stream deployment.

    ``partition``, when given, is a callable ``partition(lanes) -> X``
    applied to the finished lane list before returning — the seam that
    guarantees sharded and sequential runs are built from *identical*
    lane objects (e.g. ``partition=lambda lanes:
    contiguous_partition(lanes, 4)`` returns the shard assignment the
    sharded run will use, computed from the very lanes the unsharded
    reference run serves).
    """
    if num_streams < 1:
        raise ValueError("num_streams must be >= 1")
    from ..video import make_stream

    spec = experiment.data.spec
    event_types = experiment.data.event_types
    extractor = FeatureExtractor()
    lanes = [
        FleetLane(
            stream=experiment.data.test_stream,
            features=experiment.data.test_features,
        )
    ]
    for i in range(1, num_streams):
        stream = make_stream(
            spec,
            seed=seed * 101 + _FLEET_SEED_BASE + i,
            name=f"{spec.name}-fleet{i}",
        )
        lanes.append(
            FleetLane(stream=stream, features=extractor.extract(stream, event_types))
        )
    if partition is not None:
        return partition(lanes)
    return lanes


def fleet_marshaller(
    experiment: Experiment,
    confidence: float = 0.9,
    alpha: float = 0.9,
    scheduler: str = "round-robin",
    tick_budget_frames: Optional[int] = None,
    engine: str = "windowed",
    gate_delta: Optional[float] = None,
) -> FleetMarshaller:
    """The deployment-shaped fleet engine (EHCR configuration).

    ``engine`` / ``gate_delta`` select the inference engine
    (:data:`~repro.core.continual.ENGINES`), exactly as in
    :func:`~repro.harness.chaos.chaos_marshaller`.
    """
    return FleetMarshaller(
        chaos_marshaller(
            experiment,
            confidence=confidence,
            alpha=alpha,
            engine=engine,
            gate_delta=gate_delta,
        ),
        scheduler=scheduler,
        tick_budget_frames=tick_budget_frames,
    )


def run_fleet(
    fleet: FleetMarshaller,
    lanes: Sequence[FleetLane],
    max_horizons: Optional[int] = None,
    failure_policy: str = "raise",
    on_tick=None,
    lifecycle=None,
) -> FleetReport:
    """One fleet run over a fresh shared service (convenience wrapper)."""
    service = FleetCIService([lane.stream for lane in lanes])
    return fleet.run(
        lanes,
        service,
        max_horizons=max_horizons,
        failure_policy=failure_policy,
        on_tick=on_tick,
        lifecycle=lifecycle,
    )


def sequential_fleet_baseline(
    marshaller: StreamMarshaller,
    lanes: Sequence[FleetLane],
    max_horizons: Optional[int] = None,
) -> Dict[str, object]:
    """Serve the same lanes one at a time with private services.

    The N-sequential-runs baseline the fleet's equivalence and speedup
    claims are measured against.
    """
    reports = {}
    for lane in lanes:
        service = CloudInferenceService(lane.stream)
        reports[lane.name] = marshaller.run(
            lane.stream, lane.features, service, max_horizons=max_horizons
        )
    return reports


def fleet_throughput_sweep(
    experiment: Experiment,
    fleet_sizes: Sequence[int] = (1, 2, 4, 8, 16),
    max_horizons: Optional[int] = 6,
    scheduler: str = "round-robin",
    tick_budget_frames: Optional[int] = None,
    confidence: float = 0.9,
    alpha: float = 0.9,
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Throughput (frames/s) versus fleet size, fleet versus sequential.

    For each size N the same lanes are served twice — batched through one
    :class:`FleetMarshaller` + shared service, then one at a time with
    private services — and each pass is timed with ``perf_counter``.
    Returns one row per size with covered-frames/s for both paths and the
    fleet:sequential speedup, ready for ``format_table``.
    """
    fleet = fleet_marshaller(
        experiment,
        confidence=confidence,
        alpha=alpha,
        scheduler=scheduler,
        tick_budget_frames=tick_budget_frames,
    )
    lanes_all = build_fleet_lanes(experiment, max(fleet_sizes), seed=seed)
    rows: List[Dict[str, float]] = []
    with span("fleet.sweep", sizes=len(list(fleet_sizes)), scheduler=scheduler):
        for size in fleet_sizes:
            lanes = lanes_all[:size]

            start = time.perf_counter()
            report = run_fleet(fleet, lanes, max_horizons=max_horizons)
            fleet_seconds = time.perf_counter() - start
            frames = report.fleet.frames_covered

            start = time.perf_counter()
            sequential_fleet_baseline(
                fleet.marshaller, lanes, max_horizons=max_horizons
            )
            seq_seconds = time.perf_counter() - start

            fleet_fps = frames / fleet_seconds if fleet_seconds > 0 else float("inf")
            seq_fps = frames / seq_seconds if seq_seconds > 0 else float("inf")
            row = {
                "streams": size,
                "frames": frames,
                "fleet_s": fleet_seconds,
                "seq_s": seq_seconds,
                "fleet_fps": fleet_fps,
                "seq_fps": seq_fps,
                "speedup": fleet_fps / seq_fps if seq_fps > 0 else float("inf"),
                "cost": report.shared_cost,
                "REC": report.fleet.frame_recall,
            }
            rows.append(row)
            log_info(
                "fleet.sweep_point",
                streams=size,
                fleet_fps=round(fleet_fps, 1),
                seq_fps=round(seq_fps, 1),
                speedup=round(row["speedup"], 2),
            )
    return rows


def sharded_fleet_marshaller(
    experiment: Experiment,
    num_shards: int,
    confidence: float = 0.9,
    alpha: float = 0.9,
    scheduler: str = "round-robin",
    tick_budget_frames: Optional[int] = None,
    engine: str = "windowed",
    gate_delta: Optional[float] = None,
    partition: str = "contiguous",
    fault_rate: float = 0.0,
    seed: int = 0,
    admission: Optional[AdmissionConfig] = None,
    start_method: Optional[str] = None,
    heartbeat_every: int = 1,
    supervisor: SupervisorConfig = FAIL_FAST,
    shard_fault_plan: Optional[ShardFaultPlan] = None,
) -> ShardedFleetMarshaller:
    """The deployment-shaped multi-process fleet engine.

    Wraps :func:`fleet_marshaller`'s stack in a
    :class:`~repro.fleet.ShardedFleetMarshaller`; ``fault_rate > 0``
    swaps the per-shard service factory to a seeded
    :class:`~repro.fleet.ChaosServiceFactory` (resilient client over a
    fault injector, shard-independent seeds).  ``supervisor`` defaults
    to fail-fast; a restart budget makes the coordinator self-healing, and
    ``shard_fault_plan`` injects seeded process-level chaos
    (:class:`~repro.fleet.ShardFaultPlan`) into the workers themselves.
    """
    fleet = fleet_marshaller(
        experiment,
        confidence=confidence,
        alpha=alpha,
        scheduler=scheduler,
        tick_budget_frames=tick_budget_frames,
        engine=engine,
        gate_delta=gate_delta,
    )
    if fault_rate > 0:
        factory = ChaosServiceFactory(fault_rate=fault_rate, seed=seed)
    else:
        factory = PlainServiceFactory()
    return ShardedFleetMarshaller(
        fleet,
        num_shards,
        partition=partition,
        service_factory=factory,
        admission=admission,
        start_method=start_method,
        heartbeat_every=heartbeat_every,
        supervisor=supervisor,
        fault_plan=shard_fault_plan,
    )


#: Generous deadlines: a loaded box never reaps a slow-but-healthy worker;
#: stalls are still caught (slowly), other faults kill the pipe outright.
_SWEEP_SUPERVISOR = SupervisorConfig(
    suspect_after=30.0, dead_after=60.0, checkpoint_every=4,
    poll_timeout=0.05,
)


def shard_chaos_sweep(
    experiment: Experiment,
    num_streams: int = 8,
    num_shards: int = 4,
    fault_rate: float = 0.5,
    max_horizons: Optional[int] = 2,
    seed: int = 0,
    kinds: Sequence[str] = ("crash", "sigkill", "stall"),
    supervisor: SupervisorConfig = _SWEEP_SUPERVISOR,
) -> List[Dict[str, object]]:
    """Recovery metrics for a supervised fleet under seeded shard chaos.

    Draws a :meth:`~repro.fleet.ShardFaultPlan.seeded` fault plan, runs
    the same lanes three times — fault-free under the default fail-fast
    config (the byte-identity reference), fault-free under
    ``supervisor``, and under ``supervisor`` with the plan — and reports
    one row per run with frames covered/lost, ledger cost, restarts,
    escalations, and whether the merged chaos report matched the
    fault-free reference byte-for-byte.  Every row must show
    ``frames_lost == 0``; the chaos row shows ``byte_identical``
    whenever replay succeeded for every faulted shard.  Backs the
    EXPERIMENTS.md recovery entry and the CI shard-chaos cell.
    """
    plan = ShardFaultPlan.seeded(
        num_shards, rate=fault_rate, seed=seed, kinds=tuple(kinds)
    )
    fleet = fleet_marshaller(experiment)
    lanes = build_fleet_lanes(experiment, num_streams, seed=seed)

    import json as _json

    def _canonical(report) -> str:
        return _json.dumps(report.to_dict(), sort_keys=True)

    with span("fleet.shard_chaos_sweep", shards=num_shards,
              faults=len(plan.faults)):
        service = FleetCIService([lane.stream for lane in lanes])
        fleet.run(lanes, service, max_horizons=max_horizons)

        rows: List[Dict[str, object]] = []
        reference: Optional[str] = None
        cells = (
            ("fault-free", FAIL_FAST, None),
            ("supervised", supervisor, None),
            ("shard-chaos", supervisor, plan),
        )
        for label, cfg, cell_plan in cells:
            sharded = ShardedFleetMarshaller(
                fleet, num_shards, supervisor=cfg, fault_plan=cell_plan
            )
            start = time.perf_counter()
            report = sharded.run(lanes, max_horizons=max_horizons)
            elapsed = time.perf_counter() - start
            canon = _canonical(report)
            if reference is None:
                reference = canon
            supervision = report.supervision
            row = {
                "cell": label,
                "streams": num_streams,
                "shards": num_shards,
                "faults": len(plan.faults) if cell_plan is not None else 0,
                "frames": report.fleet.frames_covered,
                "frames_lost": sum(
                    s.frames_lost for s in report.per_stream.values()
                ),
                "cost": report.ledger.total_cost,
                "restarts": sum(supervision.get("restarts", [])),
                "rescued": len(supervision.get("rescued_lanes", [])),
                "degraded": len(supervision.get("degraded_lanes", [])),
                "wall_s": elapsed,
                "byte_identical": canon == reference,
                "ledger_exact": report.ledger == service.ledger,
            }
            rows.append(row)
            log_info(
                "fleet.shard_chaos_point",
                cell=label,
                faults=row["faults"],
                frames_lost=row["frames_lost"],
                restarts=row["restarts"],
                byte_identical=row["byte_identical"],
            )
    return rows


def sharded_throughput_sweep(
    experiment: Experiment,
    stream_counts: Sequence[int] = (64, 256, 1024),
    num_shards: int = 4,
    max_horizons: Optional[int] = 2,
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Critical-path speedup of the sharded fleet versus one process.

    For each stream count the same lanes are served twice: once through
    a single-process :class:`FleetMarshaller` (timed with
    ``perf_counter``) and once through a ``num_shards``-way
    :class:`~repro.fleet.ShardedFleetMarshaller`.  The sharded figure of
    merit is the **critical path** — the busiest shard's CPU time plus
    coordination overhead — which equals sharded wall time on a machine
    with ``num_shards`` free cores but is reproducible on a loaded or
    single-core CI box, where wall time is not.  Backs the EXPERIMENTS.md
    scale-out curve and the sharded throughput benchmark.
    """
    fleet = fleet_marshaller(experiment)
    sharded = ShardedFleetMarshaller(fleet, num_shards)
    lanes_all = build_fleet_lanes(experiment, max(stream_counts), seed=seed)
    rows: List[Dict[str, float]] = []
    with span("fleet.sharded_sweep", sizes=len(list(stream_counts)),
              shards=num_shards):
        for count in stream_counts:
            lanes = lanes_all[:count]

            start = time.perf_counter()
            single = FleetCIService([lane.stream for lane in lanes])
            report = fleet.run(lanes, single, max_horizons=max_horizons)
            single_s = time.perf_counter() - start
            frames = report.fleet.frames_covered

            sharded_report = sharded.run(lanes, max_horizons=max_horizons)
            critical_s = sharded_report.critical_path_seconds
            row = {
                "streams": count,
                "shards": num_shards,
                "frames": frames,
                "single_s": single_s,
                "busy_max_s": max(sharded_report.shard_busy_seconds, default=0.0),
                "coordinator_s": sharded_report.coordinator_seconds,
                "critical_path_s": critical_s,
                "speedup": single_s / critical_s if critical_s > 0 else float("inf"),
                "single_fps": frames / single_s if single_s > 0 else float("inf"),
                "sharded_fps": frames / critical_s if critical_s > 0 else float("inf"),
            }
            rows.append(row)
            log_info(
                "fleet.sharded_sweep_point",
                streams=count,
                single_s=round(single_s, 3),
                critical_path_s=round(critical_s, 3),
                speedup=round(row["speedup"], 2),
            )
    return rows


def continual_gate_sweep(
    experiment: Experiment,
    deltas: Sequence[float] = (0.0, 0.01, 0.05, 0.1, 0.2),
    num_streams: int = 8,
    max_ticks: int = 64,
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Gated-engine speedup and score drift versus gate threshold.

    Serves ``num_streams`` lanes at stride 1 (one new frame per tick —
    the per-frame serving regime where continual inference pays off) for
    ``max_ticks`` ticks: once through the windowed engine (the speedup
    reference), once through the ungated continual engine (the *accuracy*
    reference — at stride 1 the carried state conditions on the whole
    prefix since warmup, so comparing gated scores to windowed would
    conflate gating error with that context difference), and once per
    gate threshold through the gated engine.  Each row reports the
    engine-level speedup over windowed, the fraction of lane-ticks the
    change gate absorbed, and the worst absolute score deviation from the
    ungated continual scores — pure gating error (δ=0 gates only
    bit-identical frames, so its drift row is exactly 0).  Backs the
    EXPERIMENTS.md curve and the CI chaos sweep.
    """
    if num_streams < 1:
        raise ValueError("num_streams must be >= 1")
    if max_ticks < 2:
        raise ValueError("max_ticks must be >= 2 (tick 0 is all warmups)")
    model = experiment.model
    pipeline = CovariatePipeline(
        experiment.data.spec.window_size,
        standardizer=experiment.data.standardizer,
    )
    lanes = build_fleet_lanes(experiment, num_streams, seed=seed)
    keys = [lane.name for lane in lanes]
    first = pipeline.min_frame()
    end_frames = [[first + t] * num_streams for t in range(max_ticks)]
    features = [lane.features for lane in lanes]
    ticks = [pipeline.windows_at(features, frames) for frames in end_frames]

    windowed = BatchedInference(model)
    start = time.perf_counter()
    for w in ticks:
        windowed.predict(w)
    windowed_s = time.perf_counter() - start

    ungated = make_engine("continual", model)
    reference = [
        ungated.update(w, keys, end_frames[t]).scores
        for t, w in enumerate(ticks)
    ]

    rows: List[Dict[str, float]] = []
    with span("continual.gate_sweep", deltas=len(list(deltas))):
        for delta in deltas:
            engine = make_engine("gated", model, gate_delta=delta)
            start = time.perf_counter()
            scores = [
                engine.update(w, keys, end_frames[t]).scores
                for t, w in enumerate(ticks)
            ]
            engine_s = time.perf_counter() - start
            hits = sum(engine.gate_stats(key)[0] for key in keys)
            drift = max(
                float(np.max(np.abs(s - r))) for s, r in zip(scores, reference)
            )
            row = {
                "delta": float(delta),
                "streams": num_streams,
                "ticks": max_ticks,
                "windowed_s": windowed_s,
                "gated_s": engine_s,
                "speedup": windowed_s / engine_s if engine_s > 0 else float("inf"),
                "gate_hit_rate": hits / (num_streams * max_ticks),
                "max_score_drift": drift,
            }
            rows.append(row)
            log_info(
                "continual.gate_sweep_point",
                delta=float(delta),
                speedup=round(row["speedup"], 2),
                gate_hit_rate=round(row["gate_hit_rate"], 3),
                max_score_drift=round(drift, 6),
            )
    return rows
