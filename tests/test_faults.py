"""Golden pins and properties for the four seeded fault-plan layers.

The cloud, ingest, lifecycle and shard plans share one codec, one rate
validator and one seeded kind draw.  The pins below fix what a plan
writes to JSON and what a seeded injector does, byte for byte, so CI
plan artifacts written by any earlier release keep loading and every
seeded chaos run keeps replaying the same faults.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import CIError, CloudInferenceService, FaultInjector, FaultPlan
from repro.features.extractors import FeatureMatrix
from repro.fleet.shard_faults import ShardFault, ShardFaultPlan
from repro.ingest import INGEST_FAULT_KINDS, IngestFaultInjector, IngestFaultPlan
from repro.lifecycle import (
    LIFECYCLE_FAULT_KINDS,
    LifecycleFaultInjector,
    LifecycleFaultPlan,
    RetrainError,
)
from repro.video.events import EventInstance, EventSchedule, EventType
from repro.video.stream import StreamSegment, VideoStream

CLOUD_KINDS = ("timeout", "throttle", "transient", "partial", "latency_spike")

CLOUD_PLAN = FaultPlan(
    timeout_rate=0.1,
    throttle_rate=0.05,
    transient_rate=0.05,
    partial_rate=0.1,
    latency_spike_rate=0.05,
    latency_spike_seconds=2.5,
    retry_after_seconds=0.5,
    partial_fraction=0.25,
    outages=((3, 7),),
    bill_on_timeout=False,
    seed=7,
)
INGEST_PLAN = IngestFaultPlan(
    drop_rate=0.05,
    flap_rate=0.04,
    corrupt_rate=0.06,
    noise_rate=0.03,
    late_rate=0.02,
    corrupt_dims=3,
    noise_sigma=2.0,
    stalls=((40, 55),),
    seed=5,
)
LIFECYCLE_PLAN = LifecycleFaultPlan(
    torn_write_rate=0.3,
    manifest_corruption_rate=0.2,
    retrain_failure_rate=0.25,
    canary_flake_rate=0.1,
    torn_fraction=0.4,
    seed=9,
)
SHARD_PLAN = ShardFaultPlan(
    faults=(
        ShardFault(shard=0, kind="crash", tick=3),
        ShardFault(shard=1, kind="slow", attempt=1, factor=3),
    ),
    seed=4,
)

GOLDEN_JSON = {
    "cloud": (
        CLOUD_PLAN,
        '{\n  "bill_on_timeout": false,\n  "latency_spike_rate": 0.05,\n'
        '  "latency_spike_seconds": 2.5,\n  "outages": [\n    [\n      3,\n'
        '      7\n    ]\n  ],\n  "partial_fraction": 0.25,\n'
        '  "partial_rate": 0.1,\n  "retry_after_seconds": 0.5,\n'
        '  "seed": 7,\n  "throttle_rate": 0.05,\n  "timeout_rate": 0.1,\n'
        '  "transient_rate": 0.05\n}',
    ),
    "ingest": (
        INGEST_PLAN,
        '{\n  "corrupt_dims": 3,\n  "corrupt_rate": 0.06,\n'
        '  "drop_rate": 0.05,\n  "flap_rate": 0.04,\n  "late_rate": 0.02,\n'
        '  "noise_rate": 0.03,\n  "noise_sigma": 2.0,\n  "seed": 5,\n'
        '  "stalls": [\n    [\n      40,\n      55\n    ]\n  ]\n}',
    ),
    "lifecycle": (
        LIFECYCLE_PLAN,
        '{\n  "canary_flake_rate": 0.1,\n  "manifest_corruption_rate": 0.2,\n'
        '  "retrain_failure_rate": 0.25,\n  "seed": 9,\n'
        '  "torn_fraction": 0.4,\n  "torn_write_rate": 0.3\n}',
    ),
    "shard": (
        SHARD_PLAN,
        '{\n  "faults": [\n    {\n      "attempt": 0,\n      "factor": 4,\n'
        '      "kind": "crash",\n      "shard": 0,\n      "tick": 3\n'
        '    },\n    {\n      "attempt": 1,\n      "factor": 3,\n'
        '      "kind": "slow",\n      "shard": 1,\n      "tick": 1\n'
        '    }\n  ],\n  "seed": 4\n}',
    ),
}


@pytest.mark.parametrize("layer", sorted(GOLDEN_JSON))
def test_plan_json_is_byte_identical_and_loads(layer):
    plan, golden = GOLDEN_JSON[layer]
    assert plan.to_json() == golden
    assert type(plan).from_json(golden) == plan
    assert type(plan).from_dict(json.loads(golden)) == plan


# ----------------------------------------------------------------------
# Seeded fault sequences
# ----------------------------------------------------------------------
# One letter per call / frame; "." is a clean one.
_CLOUD_CODES = {
    "": ".", "outage": "O", "timeout": "T", "throttle": "H",
    "transient": "X", "partial": "P", "latency_spike": "L",
}
_INGEST_CODES = {
    "": ".", "stall": "S", "drop": "D", "flap": "F",
    "corrupt": "C", "noise": "N", "late": "L",
}

GOLDEN_CLOUD_KINDS = (
    "...OOOOPL.T...LPP.......PX.TT......PTX.P.T.XP....."
    "T.....T.LX.......X.P.T.P.L..H....HX..X.....PT...L."
    "T.TH.....L......X.T..H..T....PX.XL..LP............"
    "T...P.....L.PTP..H....L....XT....H.....TTTPPX.T.X."
)
GOLDEN_INGEST_KINDS = (
    "....F..DD..........F...F.....D.D......C.SSSSSSSSSS"
    "SSSSS..D.F.............C.........N...L.N.FDL......"
    ".........DDC.................FD...D...........L..."
    "...DD..N.L.C........CC.....F..F..DN..F.L...L......"
    ".F............C.....D...L.L.DFN...........F......."
    "F.L...........F....F....F..D..N...CL.........LCD.C"
    "..NL.....D..N.CDL....D..F..FDC..C..F.C......N....."
    "..C....D...DD...C......F........F.......C..DC....."
    "..C.D..D...C..........C...........CC.......C...N.."
    ".........CNDC...C.......D.F......D..D..C....C....."
)
GOLDEN_INGEST_SHA256 = (
    "8bcb4f9b0e0f4c9c4e6c0ea479d1c1b4ac8be1dbe709d533d1e37e31fa9ef419"
)
GOLDEN_LIFECYCLE_FIRES = (
    "00000000100110000000100000000100001110100001000000"
    "00000001100000000101100000000000000000100000000000"
    "00101000000000000010000000001010100110101010000000"
    "00000000000000100010001000000000000000000000001110"
)


def test_cloud_detect_sequence_is_pinned():
    et = EventType("truck", duration_mean=20, duration_std=2)
    schedule = EventSchedule(
        1000, [EventInstance(100, 149, et), EventInstance(600, 619, et)]
    )
    injector = FaultInjector(
        CloudInferenceService(VideoStream(1000, schedule, seed=0)), CLOUD_PLAN
    )
    kinds = []
    for call in range(200):
        before = dict(injector.stats.faults)
        start = (call * 37) % 950
        try:
            injector.detect(StreamSegment(start, start + 19), et)
        except CIError:
            pass
        fired = [
            kind
            for kind, count in injector.stats.faults.items()
            if count != before.get(kind, 0)
        ]
        kinds.append(fired[0] if fired else "")
    assert "".join(_CLOUD_CODES[kind] for kind in kinds) == GOLDEN_CLOUD_KINDS
    assert injector.stats.as_dict() == {
        "calls": 200,
        "faults": {
            "outage": 4, "partial": 17, "latency_spike": 10,
            "timeout": 20, "transient": 13, "throttle": 6,
        },
        "outage_rejections": 4,
        "billed_failures": 0,
        "unbilled_failures": 43,
        "frames_billed_on_failure": 0,
        "partial_responses": 17,
        "detections_truncated": 2,
        "latency_spikes": 10,
        "spike_seconds": 25.0,
        "failures": 43,
    }
    assert list(injector.stats.as_dict())[-1] == "failures"


def test_ingest_injection_is_pinned():
    rng = np.random.default_rng(3)
    matrix = FeatureMatrix(
        rng.normal(size=(500, 12)), [f"c{i}" for i in range(12)]
    )
    injector = IngestFaultInjector(INGEST_PLAN)
    corrupted = injector.inject(matrix)
    kinds = "".join(_INGEST_CODES[kind] for kind in injector.frame_kinds)
    assert kinds == GOLDEN_INGEST_KINDS
    digest = hashlib.sha256(corrupted.values.tobytes()).hexdigest()
    assert digest == GOLDEN_INGEST_SHA256
    stats = injector.stats.as_dict()
    assert stats["frames_faulted"] == 121
    assert stats["values_corrupted"] == 87
    assert stats["faults"] == {
        "stall": 15, "flap": 22, "drop": 31,
        "corrupt": 29, "noise": 11, "late": 13,
    }
    assert list(stats)[-1] == "frames_faulted"


def test_lifecycle_fire_pattern_is_pinned(tmp_path):
    injector = LifecycleFaultInjector(LIFECYCLE_PLAN)
    path = str(tmp_path / "artifact.bin")
    fired = []
    for _ in range(50):
        with open(path, "wb") as handle:
            handle.write(b"x" * 64)
        fired.append(injector.tear_write(path))
        with open(path, "wb") as handle:
            handle.write(b"y" * 64)
        fired.append(injector.corrupt_manifest(path))
        try:
            injector.fail_retrain()
            fired.append(False)
        except RetrainError:
            fired.append(True)
        fired.append(injector.flake_canary())
    pattern = "".join("1" if hit else "0" for hit in fired)
    assert pattern == GOLDEN_LIFECYCLE_FIRES
    assert injector.stats.as_dict() == {
        "draws": 200,
        "faults": {
            "torn_write": 14, "canary_flake": 5,
            "manifest_corruption": 4, "retrain_failure": 10,
        },
        "torn_writes": 14,
        "manifests_corrupted": 4,
        "retrain_failures": 10,
        "canary_flakes": 5,
        "total": 33,
    }


# ----------------------------------------------------------------------
# Codec and validation properties shared by the rate-driven plans
# ----------------------------------------------------------------------
_seeds = st.integers(min_value=0, max_value=2**31 - 1)
# Five one-draw rates of at most 0.2 each can never sum past 1.
_shares = st.floats(min_value=0.0, max_value=0.2)
_windows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=1, max_value=50),
    ).map(lambda pair: (pair[0], pair[0] + pair[1])),
    max_size=3,
).map(tuple)


def _positive(upper):
    return st.floats(min_value=0.0, max_value=upper, exclude_min=True)


_cloud_plans = st.builds(
    FaultPlan,
    **{f"{kind}_rate": _shares for kind in CLOUD_KINDS},
    latency_spike_seconds=st.floats(min_value=0.0, max_value=60.0),
    retry_after_seconds=st.floats(min_value=0.0, max_value=60.0),
    partial_fraction=_positive(1.0),
    outages=_windows,
    bill_on_timeout=st.booleans(),
    seed=_seeds,
)
_ingest_plans = st.builds(
    IngestFaultPlan,
    **{f"{kind}_rate": _shares for kind in INGEST_FAULT_KINDS},
    corrupt_dims=st.integers(min_value=1, max_value=16),
    noise_sigma=st.floats(min_value=0.0, max_value=20.0),
    stalls=_windows,
    seed=_seeds,
)
_lifecycle_plans = st.builds(
    LifecycleFaultPlan,
    **{
        f"{kind}_rate": st.floats(min_value=0.0, max_value=1.0)
        for kind in LIFECYCLE_FAULT_KINDS
    },
    torn_fraction=st.floats(
        min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True
    ),
    seed=_seeds,
)
_KINDS = {
    FaultPlan: CLOUD_KINDS,
    IngestFaultPlan: INGEST_FAULT_KINDS,
    LifecycleFaultPlan: LIFECYCLE_FAULT_KINDS,
}
_bad_rates = st.one_of(
    st.floats(min_value=1.0, max_value=1e6, exclude_min=True),
    st.floats(max_value=0.0, min_value=-1e6, exclude_max=True),
)


@given(
    plan=st.one_of(_cloud_plans, _ingest_plans, _lifecycle_plans),
    extra=st.text(min_size=1, max_size=12),
    bad=_bad_rates,
    pick=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=150, deadline=None)
def test_rate_plan_codec_and_validation(plan, extra, bad, pick):
    cls = type(plan)
    assert cls.from_json(plan.to_json()) == plan
    assert cls.from_dict(json.loads(plan.to_json())) == plan

    data = plan.to_dict()
    if extra not in data:
        with pytest.raises(ValueError, match=f"unknown {cls.__name__} fields"):
            cls.from_dict({**data, extra: 1})

    kinds = _KINDS[cls]
    kind = kinds[pick % len(kinds)]
    with pytest.raises(ValueError, match=f"{kind}_rate must be in"):
        cls.from_dict({**data, f"{kind}_rate": bad})
