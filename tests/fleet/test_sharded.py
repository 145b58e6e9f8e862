"""Sharded fleet marshalling: exactness pins for the multi-process path.

The load-bearing pins:

* with a fixed partition, the sharded run's per-stream report dicts are
  **byte-identical** to a single-process :class:`FleetMarshaller` over
  the same lanes — fault-free and under seeded chaos;
* the coordinator's merged :class:`UsageLedger` reproduces the pooled
  totals exactly (dyadic pricing makes float sums associative, so even
  ``total_cost`` is equality-comparable);
* shard workers are genuinely isolated: fresh obs registries per worker
  merge home without double counting, and the ``spawn`` start method
  (nothing inherited, everything pickled) produces the same bytes.
"""

import json
import pickle

import pytest

from repro.cloud import StreamMarshaller
from repro.cloud.pricing import FlatPricing
from repro.core import EventHitConfig, train_eventhit
from repro.data import build_experiment_data
from repro.features import CovariatePipeline, FeatureExtractor
from repro.fleet import (
    ChaosServiceFactory,
    FleetCIService,
    FleetLane,
    FleetMarshaller,
    PlainServiceFactory,
    ShardedFleetMarshaller,
    contiguous_partition,
    make_partition,
    striped_partition,
)
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    configure,
    get_flight_recorder,
    get_registry,
    set_flight_recorder,
    set_registry,
)
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
#: Dyadic per-frame price: shard-local float sums associate exactly, so
#: the merged ledger's total_cost is equality-comparable to the pooled
#: account's (frames and requests are ints — always exact).
PRICE = FlatPricing(0.25)


@pytest.fixture(scope="module")
def setup():
    spec = make_thumos(scale=0.06).with_events(["E7"])
    data = build_experiment_data(spec, seed=0, max_records=150, stride=15)
    model, _ = train_eventhit(data.train, config=CONFIG)
    pipeline = CovariatePipeline(spec.window_size, standardizer=data.standardizer)
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
                stream=stream, features=extractor.extract(stream, data.event_types)
            )
        )
    return fleet, lanes


def single_process_reference(fleet, lanes):
    service = FleetCIService([lane.stream for lane in lanes], pricing=PRICE)
    report = fleet.run(lanes, service, max_horizons=MAX_HORIZONS)
    return report, service


def canonical(report_dict):
    return json.dumps(report_dict, sort_keys=True)


# ----------------------------------------------------------------------
# Partition helpers
# ----------------------------------------------------------------------
def test_contiguous_partition_balanced_and_order_preserving():
    lanes = list(range(10))
    shards = contiguous_partition(lanes, 4)
    assert [len(s) for s in shards] == [3, 3, 2, 2]
    assert [x for shard in shards for x in shard] == lanes


def test_striped_partition_deals_round_robin():
    lanes = list(range(7))
    shards = striped_partition(lanes, 3)
    assert shards == [[0, 3, 6], [1, 4], [2, 5]]


def test_partition_more_shards_than_lanes_leaves_empties():
    assert contiguous_partition([1, 2], 4) == [[1], [2], [], []]
    assert striped_partition([1, 2], 4) == [[1], [2], [], []]


def test_make_partition_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown partition"):
        make_partition("zigzag")
    assert make_partition("striped") is striped_partition
    assert make_partition(contiguous_partition) is contiguous_partition


# ----------------------------------------------------------------------
# Exactness pins
# ----------------------------------------------------------------------
@pytest.mark.parametrize("partition", ["contiguous", "striped"])
def test_sharded_byte_identical_to_single_process(setup, partition):
    fleet, lanes = setup
    single, service = single_process_reference(fleet, lanes)

    sharded = ShardedFleetMarshaller(
        fleet,
        3,
        partition=partition,
        service_factory=PlainServiceFactory(pricing=PRICE),
    )
    report = sharded.run(lanes, max_horizons=MAX_HORIZONS)

    # Per-stream reports: byte-identical, in the original lane order.
    assert list(report.per_stream) == list(single.per_stream)
    for name in single.per_stream:
        assert canonical(report.per_stream[name].to_dict()) == canonical(
            single.per_stream[name].to_dict()
        ), name

    # Merged ledger reproduces the pooled account exactly.
    assert report.ledger.frames_processed == service.ledger.frames_processed
    assert report.ledger.requests == service.ledger.requests
    assert report.ledger.total_cost == service.ledger.total_cost
    assert report.ledger.frames_per_event == service.ledger.frames_per_event

    # Fleet-level aggregates.
    assert report.shared_frames == single.shared_frames
    assert report.shared_cost == single.shared_cost
    assert report.ticks == single.ticks
    assert canonical(report.fleet.to_dict()) == canonical(single.fleet.to_dict())
    assert report.num_shards == 3
    assert len(report.shard_busy_seconds) == 3
    assert report.critical_path_seconds > 0


def test_sharded_chaos_matches_per_shard_single_process(setup):
    """Under seeded chaos the sharded run equals N single-process runs,
    one per shard with the identical seeded service stack — and replays
    bit-for-bit."""
    fleet, lanes = setup
    rate, seed = 0.2, 7
    factory = ChaosServiceFactory(fault_rate=rate, seed=seed, pricing=PRICE)

    sharded = ShardedFleetMarshaller(fleet, 3, service_factory=factory)
    report = sharded.run(
        lanes, max_horizons=MAX_HORIZONS, failure_policy="defer"
    )
    replay = sharded.run(
        lanes, max_horizons=MAX_HORIZONS, failure_policy="defer"
    )
    assert canonical(report.to_dict()) == canonical(replay.to_dict())

    for index, shard in enumerate(contiguous_partition(lanes, 3)):
        service = factory(index, [lane.stream for lane in shard])
        reference = fleet.run(
            shard, service, max_horizons=MAX_HORIZONS, failure_policy="defer"
        )
        for name, lane_report in reference.per_stream.items():
            assert canonical(report.per_stream[name].to_dict()) == canonical(
                lane_report.to_dict()
            ), name


def test_sharded_spawn_start_method_byte_identical(setup):
    """``spawn`` inherits nothing — everything the worker needs must
    pickle — and still reproduces the fork/single-process bytes."""
    fleet, lanes = setup
    single, _ = single_process_reference(fleet, lanes[:4])
    sharded = ShardedFleetMarshaller(
        fleet,
        2,
        service_factory=PlainServiceFactory(pricing=PRICE),
        start_method="spawn",
    )
    report = sharded.run(lanes[:4], max_horizons=MAX_HORIZONS)
    for name in single.per_stream:
        assert canonical(report.per_stream[name].to_dict()) == canonical(
            single.per_stream[name].to_dict()
        ), name


def test_sharded_report_round_trips_through_pickle(setup):
    fleet, lanes = setup
    sharded = ShardedFleetMarshaller(
        fleet, 2, service_factory=PlainServiceFactory(pricing=PRICE)
    )
    report = sharded.run(lanes[:4], max_horizons=2)
    clone = pickle.loads(pickle.dumps(report))
    assert canonical(clone.to_dict()) == canonical(report.to_dict())


# ----------------------------------------------------------------------
# Observability isolation + merge
# ----------------------------------------------------------------------
def test_sharded_registry_merge_matches_single_process(setup):
    """Fresh per-worker registries merge home to exactly the counters a
    single-process run records — no double counting under fork, no loss
    under merge."""
    fleet, lanes = setup
    configure(enabled=True)
    old_registry = set_registry(MetricsRegistry())
    old_recorder = set_flight_recorder(FlightRecorder())
    try:
        single, _ = single_process_reference(fleet, lanes)
        reference = get_registry().snapshot()

        set_registry(MetricsRegistry())
        set_flight_recorder(FlightRecorder())
        sharded = ShardedFleetMarshaller(
            fleet, 3, service_factory=PlainServiceFactory(pricing=PRICE)
        )
        sharded.run(lanes, max_horizons=MAX_HORIZONS)
        merged = get_registry().snapshot()

        for name in (
            "marshal.horizons",
            "marshal.frames_covered",
            "marshal.frames_relayed",
            "ci.frames",
            "ci.requests",
            "fleet.sched.flushed",
        ):
            assert merged["counters"][name] == reference["counters"][name], name

        lanes_seen = get_flight_recorder().lanes()
        for lane in lanes:
            assert lane.name in lanes_seen
        # Each shard's fleet pseudo-lane arrives under a unique name.
        assert {"_fleet/shard0", "_fleet/shard1", "_fleet/shard2"} <= set(
            lanes_seen
        )
    finally:
        configure(enabled=False)
        set_registry(old_registry)
        set_flight_recorder(old_recorder)


# ----------------------------------------------------------------------
# Failure surfacing
# ----------------------------------------------------------------------
class _BoomFactory:
    """Picklable factory that detonates inside the worker."""

    def __call__(self, shard_index, streams):
        raise RuntimeError(f"boom in shard {shard_index}")


def test_shard_worker_crash_surfaces_with_traceback(setup):
    fleet, lanes = setup
    sharded = ShardedFleetMarshaller(fleet, 2, service_factory=_BoomFactory())
    with pytest.raises(RuntimeError, match="shard"):
        sharded.run(lanes[:4], max_horizons=2)


def test_sharded_validates_arguments(setup):
    fleet, lanes = setup
    with pytest.raises(ValueError, match="num_shards"):
        ShardedFleetMarshaller(fleet, 0)
    with pytest.raises(ValueError, match="at least one lane"):
        ShardedFleetMarshaller(fleet, 2).run([])
    bad = ShardedFleetMarshaller(
        fleet, 2, partition=lambda lanes, n: [list(lanes[:-1]), []]
    )
    with pytest.raises(ValueError, match="permutation"):
        bad.run(lanes[:4], max_horizons=1)
