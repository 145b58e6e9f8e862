"""Training throughput — the fused-LSTM/BPTT fast path behind the CI gate.

Times a full ``train_eventhit`` run twice on an identical synthetic
workload: once through the fused whole-sequence LSTM/BPTT autograd op
(the default) and once through the op-by-op reference graph
(``use_fused(False)``, :class:`repro.nn.use_fused`).  Like
the fleet gate, what is pinned is the *speedup ratio* — machine
independent — not absolute wall-clock: ``benchmarks/check_regression.py``
reads ``extra_info["speedup"]`` out of the ``--benchmark-json`` report and
fails the job if it falls more than 20% below
``benchmarks/BENCH_baseline.json``.

The workload leans long-sequence/small-hidden (window 128, hidden 16) —
the regime where the op-by-op graph's ~10-nodes-per-timestep overhead
dominates and which the paper's collection windows occupy.  Both paths
run the same batches in the same order, so the measured epochs do the
same arithmetic (the loss trajectories are pinned equal by
``tests/nn/test_fused.py``).
"""

import time

import numpy as np
import pytest

from repro.core.config import EventHitConfig
from repro.core.trainer import train_eventhit
from repro.data.records import RecordSet
from repro.harness import format_table
from repro.nn import use_fused
from repro.video.events import EventType

NUM_RECORDS = 256
NUM_EVENTS = 1
WINDOW = 128
CHANNELS = 4
HORIZON = 8
HIDDEN = 16
BATCH_SIZE = 32
EPOCHS = 2
ROUNDS = 3


def _make_records(seed: int = 0) -> RecordSet:
    rng = np.random.default_rng(seed)
    events = [EventType(f"bench{i}", 4.0, 1.0) for i in range(NUM_EVENTS)]
    labels = (rng.random((NUM_RECORDS, NUM_EVENTS)) < 0.5).astype(float)
    starts = np.zeros((NUM_RECORDS, NUM_EVENTS), dtype=int)
    ends = np.zeros((NUM_RECORDS, NUM_EVENTS), dtype=int)
    present = labels > 0
    starts[present] = rng.integers(1, HORIZON + 1, size=int(present.sum()))
    ends[present] = [
        rng.integers(s, HORIZON + 1) for s in starts[present]
    ]
    return RecordSet(
        event_types=events,
        horizon=HORIZON,
        frames=np.arange(NUM_RECORDS),
        covariates=rng.normal(size=(NUM_RECORDS, WINDOW, CHANNELS)),
        labels=labels,
        starts=starts,
        ends=ends,
        censored=np.zeros((NUM_RECORDS, NUM_EVENTS)),
    )


@pytest.mark.bench
def test_trainer_fused_speedup(benchmark, save_result):
    records = _make_records()
    config = EventHitConfig(
        window_size=WINDOW,
        horizon=HORIZON,
        lstm_hidden=HIDDEN,
        dropout=0.0,
        epochs=EPOCHS,
        batch_size=BATCH_SIZE,
        seed=3,
    )

    def train_fused():
        with use_fused(True):
            train_eventhit(records, config=config)

    def train_reference():
        with use_fused(False):
            train_eventhit(records, config=config)

    # Warm both paths (numpy ufunc dispatch caches, the fused workspace
    # pool) outside the timed region.
    train_fused()
    train_reference()

    benchmark.pedantic(train_fused, rounds=ROUNDS, iterations=1)
    fused_seconds = benchmark.stats.stats.min

    reference_seconds = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        train_reference()
        reference_seconds = min(reference_seconds, time.perf_counter() - start)

    speedup = reference_seconds / fused_seconds

    benchmark.extra_info["epochs"] = EPOCHS
    benchmark.extra_info["window"] = WINDOW
    benchmark.extra_info["hidden"] = HIDDEN
    benchmark.extra_info["fused_s"] = round(fused_seconds, 3)
    benchmark.extra_info["reference_s"] = round(reference_seconds, 3)
    benchmark.extra_info["speedup"] = round(speedup, 3)

    save_result(
        "trainer_throughput",
        format_table(
            [
                {
                    "window": WINDOW,
                    "hidden": HIDDEN,
                    "batch": BATCH_SIZE,
                    "fused_s": round(fused_seconds, 3),
                    "reference_s": round(reference_seconds, 3),
                    "speedup": round(speedup, 2),
                }
            ]
        ),
    )

    # Acceptance floor: the fused path must at least double training
    # throughput.  (Measured >3x; the CI gate guards the committed
    # baseline much more tightly than this hard floor.)
    assert speedup >= 2.0, f"fused speedup {speedup:.2f}x below 2x floor"
