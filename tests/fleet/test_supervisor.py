"""Self-healing sharded fleet: supervisor, chaos, deterministic failover.

The load-bearing pins:

* a fault-free *supervised* run is byte-identical (full merged report
  dict) to the unsupervised run and per-stream identical to one
  single-process :class:`FleetMarshaller` — supervision is free in
  bytes;
* every injected process-level fault (crash, SIGKILL, heartbeat stall,
  startup hang) is healed by replay-from-start and the recovered merged
  report is **byte-identical** to the fault-free run, under fork *and*
  spawn — including the merged :class:`UsageLedger` (exactly-once
  billing);
* when the restart budget is exhausted the coordinator escalates:
  ``rescue`` replays the orphan lanes exactly, ``degrade`` serves them
  relay-all — in both modes ``frames_lost == 0``;
* the default fail-fast config (no restart budget, ``"raise"``
  escalation) fails fast on a hung startup or a wedged worker, naming
  the shard, takes no checkpoints, and never leaks worker processes on
  any failure path.

The FSM and checkpoint tests are pure (synthetic clocks, no processes);
the recovery tests spawn real workers and are marked ``chaos``.
"""

import json
import multiprocessing
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.pricing import FlatPricing
from repro.core import EventHitConfig, train_eventhit
from repro.data import build_experiment_data
from repro.features import CovariatePipeline, FeatureExtractor
from repro.fleet import (
    FAIL_FAST,
    SHARD_FAULT_KINDS,
    CheckpointCorruption,
    FleetCIService,
    FleetLane,
    FleetMarshaller,
    PlainServiceFactory,
    ShardCheckpoint,
    ShardedFleetMarshaller,
    ShardFault,
    ShardFaultPlan,
    ShardSupervisor,
    SupervisorConfig,
)
from repro.cloud import StreamMarshaller
from repro.video import make_stream, make_thumos

CONFIG = EventHitConfig(
    window_size=10,
    horizon=200,
    lstm_hidden=16,
    shared_hidden=(16,),
    head_hidden=(32,),
    dropout=0.0,
    learning_rate=5e-3,
    epochs=8,
    batch_size=32,
    seed=0,
)

NUM_LANES = 6
MAX_HORIZONS = 4
#: Dyadic price — merged ledger totals are equality-comparable.
PRICE = FlatPricing(0.25)

#: Generous liveness deadlines for cells whose faults kill the pipe
#: outright (crash/sigkill/hang): a loaded CI box must never reap a
#: slow-but-healthy worker mid-test.
PATIENT = SupervisorConfig(
    suspect_after=30.0, dead_after=60.0, checkpoint_every=2,
    poll_timeout=0.05,
)


@pytest.fixture(scope="module")
def setup():
    spec = make_thumos(scale=0.06).with_events(["E7"])
    data = build_experiment_data(spec, seed=0, max_records=150, stride=15)
    model, _ = train_eventhit(data.train, config=CONFIG)
    pipeline = CovariatePipeline(
        spec.window_size, standardizer=data.standardizer
    )
    marshaller = StreamMarshaller(
        model, data.event_types, pipeline, tau1=0.5, tau2=0.5
    )
    fleet = FleetMarshaller(marshaller)
    extractor = FeatureExtractor()
    lanes = [FleetLane(stream=data.test_stream, features=data.test_features)]
    for i in range(1, NUM_LANES):
        stream = make_stream(spec, seed=900 + i, name=f"lane{i}")
        lanes.append(
            FleetLane(
                stream=stream,
                features=extractor.extract(stream, data.event_types),
            )
        )
    return fleet, lanes


@pytest.fixture(scope="module")
def references(setup):
    """Fault-free single-process and default (fail-fast) sharded
    baselines."""
    fleet, lanes = setup
    service = FleetCIService([lane.stream for lane in lanes], pricing=PRICE)
    single = fleet.run(lanes, service, max_horizons=MAX_HORIZONS)
    unsup = ShardedFleetMarshaller(
        fleet, 3, service_factory=PlainServiceFactory(pricing=PRICE)
    )
    sharded = unsup.run(lanes, max_horizons=MAX_HORIZONS)
    return single, service, sharded


def supervised(fleet, plan=None, config=PATIENT, start_method=None,
               num_shards=3):
    return ShardedFleetMarshaller(
        fleet,
        num_shards,
        service_factory=PlainServiceFactory(pricing=PRICE),
        supervisor=config,
        fault_plan=plan,
        start_method=start_method,
    )


def canonical(report_dict):
    return json.dumps(report_dict, sort_keys=True)


# ----------------------------------------------------------------------
# Liveness FSM (pure: synthetic clock, no processes)
# ----------------------------------------------------------------------
def test_fsm_suspect_dead_and_recovery_transitions():
    config = SupervisorConfig(suspect_after=1.0, dead_after=3.0)
    sup = ShardSupervisor(config, 2)
    for shard in (0, 1):
        sup.register_spawn(shard, attempt=0, now=0.0)
        sup.on_hello(shard, attempt=0, now=0.1)
    sup.on_heartbeat(0, tick=1, now=0.5)
    sup.on_heartbeat(1, tick=1, now=0.5)
    assert sup.liveness == {0: "LIVE", 1: "LIVE"}

    # Shard 1 goes silent: LIVE -> SUSPECT at suspect_after ...
    sup.on_heartbeat(0, tick=2, now=2.0)
    assert sup.poll(2.0) == [(1, "suspect")]
    assert sup.liveness[1] == "SUSPECT"
    # ... then a late heartbeat recovers it ...
    sup.on_heartbeat(1, tick=2, now=2.5)
    assert sup.liveness[1] == "LIVE"
    assert any(e.kind == "recovered" for e in sup.events)
    # ... and terminal silence walks SUSPECT -> DEAD at dead_after.
    sup.on_heartbeat(0, tick=3, now=4.0)
    assert sup.poll(4.0) == [(1, "suspect")]
    sup.on_heartbeat(0, tick=4, now=5.9)
    assert sup.poll(6.0) == [(1, "dead")]
    sup.on_death(1, now=6.0, reason="heartbeat deadline")
    assert sup.liveness[1] == "DEAD"
    sup.on_done(0)
    assert sup.liveness[0] == "DONE"
    # Dead/done shards never fire deadlines again.
    assert sup.poll(100.0) == []


def test_fsm_startup_timeout_and_stale_generation_guard():
    config = SupervisorConfig(startup_deadline=5.0)
    sup = ShardSupervisor(config, 1)
    sup.register_spawn(0, attempt=0, now=0.0)
    assert sup.poll(4.0) == []
    assert sup.poll(5.5) == [(0, "startup-timeout")]
    # A hello from a stale (pre-restart) generation is ignored.
    sup.on_death(0, now=5.5, reason="startup deadline")
    sup.register_spawn(0, attempt=1, now=5.5)
    sup.on_hello(0, attempt=0, now=5.6)
    assert sup.liveness[0] == "STARTING"
    sup.on_hello(0, attempt=1, now=5.7)
    assert sup.liveness[0] == "LIVE"


def test_fsm_restart_budget_and_divergence_block_restarts():
    sup = ShardSupervisor(SupervisorConfig(max_restarts=1), 1)
    sup.register_spawn(0, attempt=0, now=0.0)
    assert sup.should_restart(0)
    assert sup.next_attempt(0) == 1
    sup.register_spawn(0, attempt=1, now=1.0)
    assert not sup.should_restart(0)  # budget spent
    sup.mark_failed(0, "restart budget exhausted")
    assert sup.failed_shards == [0]
    assert sup.liveness[0] == "FAILED"

    # A replay divergence is unsalvageable even with budget left.
    sup2 = ShardSupervisor(SupervisorConfig(max_restarts=5), 1)
    sup2.register_spawn(0, attempt=0, now=0.0)
    ref = ShardCheckpoint(shard=0, tick=2, lanes={"a": {"frame": 10}})
    div = ShardCheckpoint(shard=0, tick=2, lanes={"a": {"frame": 11}})
    assert sup2.on_checkpoint(0, ref) == "ok"
    assert sup2.on_checkpoint(0, div) == "divergence"
    assert not sup2.should_restart(0)


def test_fsm_checkpoint_reference_digests_across_attempts():
    sup = ShardSupervisor(SupervisorConfig(), 1)
    sup.register_spawn(0, attempt=0, now=0.0)
    first = ShardCheckpoint(shard=0, tick=4, attempt=0,
                            lanes={"a": {"frame": 8}})
    assert sup.on_checkpoint(0, first) == "ok"
    # The restarted attempt replays to the same digest: attempt is
    # excluded from the payload, so the reference matches.
    sup.register_spawn(0, attempt=1, now=1.0)
    replay = ShardCheckpoint(shard=0, tick=4, attempt=1,
                             lanes={"a": {"frame": 8}})
    assert replay.matches(first)
    assert sup.on_checkpoint(0, replay) == "ok"
    # Stale-generation checkpoints are ignored, not diverged.
    stale = ShardCheckpoint(shard=0, tick=4, attempt=0,
                            lanes={"a": {"frame": 999}})
    assert sup.on_checkpoint(0, stale) == "ok"
    assert sup.summary()["replay_divergences"] == 0


def test_supervisor_config_validation():
    with pytest.raises(ValueError, match="dead_after"):
        SupervisorConfig(suspect_after=5.0, dead_after=5.0)
    with pytest.raises(ValueError, match="escalation"):
        SupervisorConfig(escalation="panic")
    with pytest.raises(ValueError, match="max_restarts"):
        SupervisorConfig(max_restarts=-1)
    with pytest.raises(ValueError, match="checkpoint_every"):
        SupervisorConfig(checkpoint_every=0)
    with pytest.raises(ValueError, match="startup_deadline"):
        SupervisorConfig(startup_deadline=0.0)
    assert SupervisorConfig(escalation="raise").escalation == "raise"


# ----------------------------------------------------------------------
# Fault plans: validation, seeding, JSON round trips
# ----------------------------------------------------------------------
def test_shard_fault_validation():
    with pytest.raises(ValueError, match="kind"):
        ShardFault(shard=0, kind="meteor")
    with pytest.raises(ValueError, match="tick"):
        ShardFault(shard=0, kind="crash", tick=0)
    with pytest.raises(ValueError, match="factor"):
        ShardFault(shard=0, kind="slow", factor=1)
    with pytest.raises(ValueError, match="duplicate"):
        ShardFaultPlan(faults=(
            ShardFault(shard=1, kind="crash"),
            ShardFault(shard=1, kind="stall"),
        ))
    with pytest.raises(ValueError, match="unknown"):
        ShardFaultPlan.from_dict({"faults": [], "seed": 0, "extra": 1})


def test_shard_fault_plan_seeded_deterministic():
    a = ShardFaultPlan.seeded(8, rate=0.5, seed=42)
    b = ShardFaultPlan.seeded(8, rate=0.5, seed=42)
    assert a == b
    assert ShardFaultPlan.seeded(8, rate=0.0, seed=42).faults == ()
    everyone = ShardFaultPlan.seeded(8, rate=1.0, seed=42)
    assert sorted(f.shard for f in everyone.faults) == list(range(8))
    assert all(f.kind in SHARD_FAULT_KINDS for f in everyone.faults)
    assert a != ShardFaultPlan.seeded(8, rate=0.5, seed=43)


_fault = st.builds(
    ShardFault,
    shard=st.integers(min_value=0, max_value=7),
    kind=st.sampled_from(SHARD_FAULT_KINDS),
    tick=st.integers(min_value=1, max_value=32),
    attempt=st.integers(min_value=0, max_value=3),
    factor=st.integers(min_value=2, max_value=8),
)


@st.composite
def _plans(draw):
    faults = draw(st.lists(_fault, max_size=8))
    unique, seen = [], set()
    for fault in faults:
        key = (fault.shard, fault.attempt)
        if key not in seen:
            seen.add(key)
            unique.append(fault)
    return ShardFaultPlan(
        faults=tuple(unique),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
    )


@given(_plans())
@settings(max_examples=100, deadline=None)
def test_shard_fault_plan_json_round_trip(plan):
    assert ShardFaultPlan.from_json(plan.to_json()) == plan
    assert ShardFaultPlan.from_dict(plan.to_dict()) == plan


_lane_stats = st.fixed_dictionaries({
    "frame": st.integers(min_value=0, max_value=10**6),
    "done": st.integers(min_value=0, max_value=1),
    "covered": st.integers(min_value=0, max_value=10**6),
    "cost": st.floats(
        min_value=0, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
})

_checkpoints = st.builds(
    ShardCheckpoint,
    shard=st.integers(min_value=0, max_value=7),
    tick=st.integers(min_value=1, max_value=512),
    attempt=st.integers(min_value=0, max_value=3),
    lanes=st.dictionaries(
        st.text(
            alphabet=st.characters(min_codepoint=97, max_codepoint=122),
            min_size=1, max_size=8,
        ),
        _lane_stats,
        max_size=4,
    ),
    ledger=st.fixed_dictionaries({
        "frames_processed": st.integers(min_value=0, max_value=10**6),
        "total_cost": st.floats(
            min_value=0, max_value=1e6,
            allow_nan=False, allow_infinity=False,
        ),
    }),
)


@given(_checkpoints)
@settings(max_examples=100, deadline=None)
def test_checkpoint_json_round_trip_preserves_digest(ckpt):
    clone = ShardCheckpoint.from_json(ckpt.to_json())
    assert clone == ckpt
    assert clone.matches(ckpt)
    assert clone.digest == clone.compute_digest()


@given(_checkpoints, st.integers(min_value=1, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_checkpoint_corruption_is_detected(ckpt, bump):
    data = ckpt.to_dict()
    data["tick"] = data["tick"] + bump  # digest no longer matches
    with pytest.raises(CheckpointCorruption, match="digest"):
        ShardCheckpoint.from_dict(data)
    with pytest.raises(CheckpointCorruption, match="unknown"):
        ShardCheckpoint.from_dict({**ckpt.to_dict(), "extra": 1})
    # verify=False loads it anyway (for forensics on a corrupt dump).
    assert ShardCheckpoint.from_dict(data, verify=False).tick == data["tick"]


# ----------------------------------------------------------------------
# Recovery pins (real worker processes)
# ----------------------------------------------------------------------
@pytest.mark.chaos
def test_zero_fault_supervised_byte_identical(setup, references):
    """Supervision must be invisible in the output bytes."""
    fleet, lanes = setup
    single, service, unsup = references
    report = supervised(fleet).run(lanes, max_horizons=MAX_HORIZONS)
    assert canonical(report.to_dict()) == canonical(unsup.to_dict())
    for name in single.per_stream:
        assert canonical(report.per_stream[name].to_dict()) == canonical(
            single.per_stream[name].to_dict()
        ), name
    assert report.ledger == service.ledger
    assert report.supervision is not None
    assert report.supervision["restarts"] == [0, 0, 0]
    assert report.supervision["checkpoints_taken"] > 0
    # The supervision attachment never leaks into the serialized report.
    assert "supervision" not in report.to_dict()


@pytest.mark.chaos
@pytest.mark.parametrize("start_method", [None, "spawn"])
@pytest.mark.parametrize("kind", ["crash", "sigkill"])
def test_mid_run_fault_recovers_byte_identical(
    setup, references, kind, start_method
):
    """Crash-at-tick and SIGKILL heal by replay, under fork and spawn."""
    fleet, lanes = setup
    _, service, unsup = references
    plan = ShardFaultPlan(faults=(ShardFault(shard=1, kind=kind, tick=2),))
    report = supervised(fleet, plan, start_method=start_method).run(
        lanes, max_horizons=MAX_HORIZONS
    )
    assert canonical(report.to_dict()) == canonical(unsup.to_dict())
    assert report.ledger == service.ledger  # exactly-once billing
    assert sum(s.frames_lost for s in report.per_stream.values()) == 0
    assert report.supervision["restarts"] == [0, 1, 0]
    kinds = [e["kind"] for e in report.supervision["events"]]
    assert "dead" in kinds and "restart" in kinds


@pytest.mark.chaos
def test_stall_walks_suspect_dead_then_recovers(setup, references):
    fleet, lanes = setup
    _, _, unsup = references
    config = SupervisorConfig(
        suspect_after=0.3, dead_after=0.8, checkpoint_every=2,
        poll_timeout=0.05,
    )
    plan = ShardFaultPlan(faults=(ShardFault(shard=2, kind="stall", tick=3),))
    report = supervised(fleet, plan, config=config).run(
        lanes, max_horizons=MAX_HORIZONS
    )
    assert canonical(report.to_dict()) == canonical(unsup.to_dict())
    kinds = [e["kind"] for e in report.supervision["events"]]
    assert "suspect" in kinds and "dead" in kinds and "restart" in kinds


@pytest.mark.chaos
def test_startup_hang_supervised_restarts(setup, references):
    fleet, lanes = setup
    _, _, unsup = references
    config = SupervisorConfig(
        suspect_after=30.0, dead_after=60.0, startup_deadline=1.0,
        checkpoint_every=2, poll_timeout=0.05,
    )
    plan = ShardFaultPlan(faults=(ShardFault(shard=0, kind="startup_hang"),))
    report = supervised(fleet, plan, config=config).run(
        lanes, max_horizons=MAX_HORIZONS
    )
    assert canonical(report.to_dict()) == canonical(unsup.to_dict())
    kinds = [e["kind"] for e in report.supervision["events"]]
    assert "dead" in kinds and "restart" in kinds


@pytest.mark.chaos
def test_budget_exhausted_rescue_is_exact(setup, references):
    """Repeated faults burn the budget; the coordinator replays the
    orphan lanes itself, byte-identically, with a conserved ledger."""
    fleet, lanes = setup
    single, service, _ = references
    config = SupervisorConfig(
        suspect_after=30.0, dead_after=60.0, max_restarts=1,
        checkpoint_every=2, poll_timeout=0.05, escalation="rescue",
    )
    plan = ShardFaultPlan(faults=(
        ShardFault(shard=1, kind="crash", tick=2, attempt=0),
        ShardFault(shard=1, kind="crash", tick=3, attempt=1),
    ))
    report = supervised(fleet, plan, config=config).run(
        lanes, max_horizons=MAX_HORIZONS
    )
    for name in single.per_stream:
        assert canonical(report.per_stream[name].to_dict()) == canonical(
            single.per_stream[name].to_dict()
        ), name
    assert report.ledger == service.ledger
    assert report.supervision["rescued_lanes"]
    assert report.supervision["liveness"]["1"] == "FAILED"
    assert sum(s.frames_lost for s in report.per_stream.values()) == 0


@pytest.mark.chaos
def test_budget_exhausted_degrade_never_drops_frames(setup, references):
    fleet, lanes = setup
    single, _, _ = references
    config = SupervisorConfig(
        suspect_after=30.0, dead_after=60.0, max_restarts=0,
        checkpoint_every=2, poll_timeout=0.05, escalation="degrade",
    )
    plan = ShardFaultPlan(faults=(ShardFault(shard=1, kind="crash", tick=2),))
    report = supervised(fleet, plan, config=config).run(
        lanes, max_horizons=MAX_HORIZONS
    )
    assert sum(s.frames_lost for s in report.per_stream.values()) == 0
    degraded = report.supervision["degraded_lanes"]
    assert degraded
    for name in degraded:
        # Relay-all tier: at least as many frames shipped, none scored.
        assert (
            report.per_stream[name].frames_relayed
            >= single.per_stream[name].frames_relayed
        )


@pytest.mark.chaos
def test_supervised_chaos_run_is_deterministic(setup):
    fleet, lanes = setup
    plan = ShardFaultPlan(faults=(ShardFault(shard=1, kind="crash", tick=2),))
    first = supervised(fleet, plan).run(lanes, max_horizons=MAX_HORIZONS)
    second = supervised(fleet, plan).run(lanes, max_horizons=MAX_HORIZONS)
    assert canonical(first.to_dict()) == canonical(second.to_dict())


@pytest.mark.chaos
def test_slow_shard_decimates_heartbeats_not_bytes(setup, references):
    fleet, lanes = setup
    single, _, unsup = references
    plan = ShardFaultPlan(faults=(ShardFault(shard=0, kind="slow", factor=3),))
    report = supervised(fleet, plan).run(lanes, max_horizons=MAX_HORIZONS)
    for name in single.per_stream:
        assert canonical(report.per_stream[name].to_dict()) == canonical(
            single.per_stream[name].to_dict()
        ), name
    assert report.heartbeats < unsup.heartbeats


# ----------------------------------------------------------------------
# Failure-path hygiene (satellites: no leaks, fast startup diagnosis)
# ----------------------------------------------------------------------
@pytest.mark.chaos
def test_unsupervised_startup_hang_fails_fast_naming_shard(setup):
    fleet, lanes = setup
    plan = ShardFaultPlan(faults=(ShardFault(shard=1, kind="startup_hang"),))
    sharded = ShardedFleetMarshaller(
        fleet, 3, service_factory=PlainServiceFactory(pricing=PRICE),
        fault_plan=plan, supervisor=replace(FAIL_FAST, startup_deadline=1.0),
    )
    with pytest.raises(RuntimeError, match=r"shard\(s\) 1 failed to start"):
        sharded.run(lanes, max_horizons=MAX_HORIZONS)
    assert multiprocessing.active_children() == []


@pytest.mark.chaos
def test_no_workers_leak_after_any_failed_run(setup):
    """Every coordinator exit path — worker error, injected crash with
    no supervisor, startup timeout — reaps all children and closes
    pipes."""
    fleet, lanes = setup
    crash = ShardFaultPlan(faults=(ShardFault(shard=0, kind="crash", tick=1),))
    unsupervised = ShardedFleetMarshaller(
        fleet, 3, service_factory=PlainServiceFactory(pricing=PRICE),
        fault_plan=crash,
    )
    with pytest.raises(RuntimeError, match="shard"):
        unsupervised.run(lanes, max_horizons=MAX_HORIZONS)
    assert multiprocessing.active_children() == []

    sigkill = ShardFaultPlan(
        faults=(ShardFault(shard=2, kind="sigkill", tick=1),)
    )
    killed = ShardedFleetMarshaller(
        fleet, 3, service_factory=PlainServiceFactory(pricing=PRICE),
        fault_plan=sigkill,
    )
    with pytest.raises(RuntimeError, match="shard"):
        killed.run(lanes, max_horizons=MAX_HORIZONS)
    assert multiprocessing.active_children() == []


def test_sharded_validates_supervision_arguments(setup):
    """A non-positive startup deadline is refused before any worker
    spawns, as is a non-positive heartbeat cadence; with no config given
    the coordinator runs fail-fast."""
    fleet, _ = setup
    with pytest.raises(ValueError, match="startup_deadline"):
        ShardedFleetMarshaller(
            fleet, 2, supervisor=replace(FAIL_FAST, startup_deadline=0.0)
        )
    with pytest.raises(ValueError, match="heartbeat_every"):
        ShardedFleetMarshaller(fleet, 2, heartbeat_every=0)
    assert ShardedFleetMarshaller(fleet, 2).supervisor is FAIL_FAST


@pytest.mark.chaos
def test_default_fail_fast_reaps_a_wedged_worker(setup):
    """A stalled worker is declared dead by the heartbeat deadline and
    fails the run naming its shard — it can no longer hang it."""
    fleet, lanes = setup
    config = replace(
        FAIL_FAST, suspect_after=0.3, dead_after=0.8, poll_timeout=0.05
    )
    plan = ShardFaultPlan(faults=(ShardFault(shard=2, kind="stall", tick=3),))
    sharded = ShardedFleetMarshaller(
        fleet, 3, service_factory=PlainServiceFactory(pricing=PRICE),
        fault_plan=plan, supervisor=config,
    )
    with pytest.raises(RuntimeError, match=r"1 shard\(s\) failed:\n--- shard 2"):
        sharded.run(lanes, max_horizons=MAX_HORIZONS)
    assert multiprocessing.active_children() == []


@pytest.mark.chaos
def test_default_run_takes_no_checkpoints(setup, references):
    """Without a restart budget no replay can happen, so no checkpoints
    ship at any cadence.  The bytes still equal a checkpointing run's:
    ``test_zero_fault_supervised_byte_identical`` compares ``PATIENT``
    against the default run."""
    fleet, lanes = setup
    _, _, default = references
    eager = supervised(
        fleet, config=replace(FAIL_FAST, checkpoint_every=1)
    ).run(lanes, max_horizons=MAX_HORIZONS)
    for report in (default, eager):
        assert report.supervision["checkpoints_taken"] == 0
        assert report.supervision["restarts"] == [0, 0, 0]
    assert canonical(eager.to_dict()) == canonical(default.to_dict())
