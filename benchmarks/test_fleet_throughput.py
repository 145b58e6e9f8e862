"""Fleet throughput — the pinned workload behind the CI regression gate.

Serves a 16-camera fleet of the TA10 dataset process through one shared
:class:`~repro.fleet.FleetMarshaller` and times the same lanes served one
at a time with private services.  The gate compares the *speedup ratio*
(fleet frames/s over sequential frames/s), which is machine-independent,
rather than absolute wall-clock — CI runners vary too much for raw times
to be comparable.  ``benchmarks/check_regression.py`` reads the ratio out
of ``extra_info`` in the ``--benchmark-json`` report and fails the job if
it falls more than 20% below ``benchmarks/BENCH_baseline.json``.
"""

import time

import pytest

from repro.harness import (
    build_fleet_lanes,
    fleet_marshaller,
    format_table,
    run_fleet,
    sequential_fleet_baseline,
)

TASK = "TA10"
FLEET_SIZE = 16
MAX_HORIZONS = 6
ROUNDS = 3


@pytest.mark.bench
def test_fleet_throughput_16_streams(benchmark, get_experiment, save_result):
    experiment = get_experiment(TASK)
    fleet = fleet_marshaller(experiment)
    lanes = build_fleet_lanes(experiment, FLEET_SIZE)

    # Warm-up run: lazy engine and import state is built here, outside
    # either path's timed region.
    run_fleet(fleet, lanes, max_horizons=1)

    report = benchmark.pedantic(
        run_fleet,
        args=(fleet, lanes),
        kwargs=dict(max_horizons=MAX_HORIZONS),
        rounds=ROUNDS,
        iterations=1,
    )
    frames = report.fleet.frames_covered
    fleet_seconds = benchmark.stats.stats.min

    seq_seconds = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        sequential_fleet_baseline(fleet.marshaller, lanes, max_horizons=MAX_HORIZONS)
        seq_seconds = min(seq_seconds, time.perf_counter() - start)

    fleet_fps = frames / fleet_seconds
    seq_fps = frames / seq_seconds
    speedup = fleet_fps / seq_fps

    benchmark.extra_info["streams"] = FLEET_SIZE
    benchmark.extra_info["frames"] = frames
    benchmark.extra_info["fleet_fps"] = round(fleet_fps, 1)
    benchmark.extra_info["seq_fps"] = round(seq_fps, 1)
    benchmark.extra_info["speedup"] = round(speedup, 3)

    save_result(
        "fleet_throughput",
        format_table(
            [
                {
                    "streams": FLEET_SIZE,
                    "frames": frames,
                    "fleet_fps": round(fleet_fps, 1),
                    "seq_fps": round(seq_fps, 1),
                    "speedup": round(speedup, 2),
                }
            ]
        ),
    )

    # Acceptance floor: batching 16 streams must at least double frames/s
    # over sequential serving.  (Measured ~6x; the CI gate guards the
    # committed baseline much more tightly than this hard floor.)
    assert speedup >= 2.0, f"fleet speedup {speedup:.2f}x below 2x floor"
