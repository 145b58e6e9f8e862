"""Clean-path StreamGuard overhead — pinned by the CI regression gate.

The ingest guard's contract is that it costs (almost) nothing when
nothing is wrong: on a clean stream ``sanitize`` is one vectorized
finite/staleness pass returning the *same* feature object, so the
marshalling loop downstream of it is untouched.  This benchmark times the same TA10 marshalling run
guarded vs unguarded and publishes the machine-independent ratio
(unguarded seconds over guarded seconds — i.e. the guarded path's
relative throughput) through ``extra_info["speedup"]`` for
``benchmarks/check_regression.py`` to gate.
"""

import time

import pytest

from repro.cloud import CloudInferenceService
from repro.harness import chaos_marshaller, format_table
from repro.ingest import StreamGuard

TASK = "TA10"
MAX_HORIZONS = None  # full stream: amortizes the one-off sanitize scan
ROUNDS = 5


def _run(marshaller, experiment, guard):
    service = CloudInferenceService(experiment.data.test_stream)
    return marshaller.run(
        experiment.data.test_stream,
        experiment.data.test_features,
        service,
        max_horizons=MAX_HORIZONS,
        guard=guard,
    )


@pytest.mark.bench
def test_ingest_guard_clean_overhead(benchmark, get_experiment, save_result):
    experiment = get_experiment(TASK)
    marshaller = chaos_marshaller(experiment)
    guard = StreamGuard()

    # Warm lazy engine and import state so neither timed path pays
    # one-off preparation.
    _run(marshaller, experiment, None)
    _run(marshaller, experiment, guard)

    report = benchmark.pedantic(
        _run,
        args=(marshaller, experiment, guard),
        rounds=ROUNDS,
        iterations=1,
    )
    guarded_seconds = benchmark.stats.stats.min

    unguarded_seconds = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        _run(marshaller, experiment, None)
        unguarded_seconds = min(unguarded_seconds, time.perf_counter() - start)

    speedup = unguarded_seconds / guarded_seconds
    overhead_pct = (guarded_seconds / unguarded_seconds - 1.0) * 100

    benchmark.extra_info["frames"] = report.frames_covered
    benchmark.extra_info["guarded_s"] = round(guarded_seconds, 4)
    benchmark.extra_info["unguarded_s"] = round(unguarded_seconds, 4)
    benchmark.extra_info["overhead_pct"] = round(overhead_pct, 2)
    benchmark.extra_info["speedup"] = round(speedup, 3)

    save_result(
        "ingest_guard_overhead",
        format_table(
            [
                {
                    "frames": report.frames_covered,
                    "guarded_s": round(guarded_seconds, 4),
                    "unguarded_s": round(unguarded_seconds, 4),
                    "overhead_pct": round(overhead_pct, 2),
                    "speedup": round(speedup, 3),
                }
            ]
        ),
    )

    # The clean path must stay byte-identical AND cheap.  Acceptance
    # floor: the guarded run may not cost more than ~43% over unguarded
    # (measured ~6-9%; the CI gate guards the committed baseline much
    # more tightly than this hard floor).
    assert report.frames_invalid == 0
    assert speedup >= 0.7, (
        f"clean-path guard overhead {overhead_pct:.1f}% "
        f"(speedup {speedup:.3f} below 0.7 floor)"
    )
