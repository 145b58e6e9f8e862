"""Hot-swap pause — pinned by the CI regression gate.

The lifecycle contract says a model swap delays frames "by at most the
swap pause" and never drops any.  This benchmark puts a number on that
pause: one applied swap (install the candidate's engine, recalibrate both
conformal components on one forward over the audit buffer, rebase the
drift detectors)
measured against one marshalled horizon of ordinary serving work on the
same machine.  The gated ratio — horizon seconds over swap seconds,
published through ``extra_info["speedup"]`` — is machine-independent:
both arms are in-process numpy on the same model, so box speed cancels.

A regression here means the swap path started doing work proportional to
something other than the audit buffer (e.g. recalibrating on the full
calibration split, or retraining inside the swap), which would turn the
"pause" into a stall on a live fleet.
"""

import tempfile
import time

import pytest

from repro.cloud import CloudInferenceService
from repro.harness import format_table, lifecycle_marshaller
from repro.lifecycle import LifecycleController, ModelRegistry

TASK = "TA10"
MAX_HORIZONS = 24
ROUNDS = 5


@pytest.fixture(scope="module")
def swap_setup(get_experiment):
    experiment = get_experiment(TASK)
    marshaller = lifecycle_marshaller(experiment)
    root = tempfile.TemporaryDirectory()
    registry = ModelRegistry(root.name)
    controller = LifecycleController(
        marshaller,
        registry,
        audit_rate=1.0,
        # The buffer must fill, but no retrain may fire mid-measurement:
        # an astronomically high evidence floor disables the trigger.
        min_records=10**9,
    )
    controller.register_incumbent()
    yield experiment, marshaller, controller, registry
    root.cleanup()


@pytest.mark.bench
def test_hotswap_latency(benchmark, swap_setup, save_result):
    experiment, marshaller, controller, registry = swap_setup
    data = experiment.data

    # Arm 1: ordinary serving with the controller watching — fills the
    # audit buffer and times the per-horizon marshalling work.
    baseline = marshaller.run(
        data.test_stream,
        data.test_features,
        CloudInferenceService(data.test_stream),
        max_horizons=MAX_HORIZONS,
    )
    start = time.perf_counter()
    report = marshaller.run(
        data.test_stream,
        data.test_features,
        CloudInferenceService(data.test_stream),
        max_horizons=MAX_HORIZONS,
        lifecycle=controller,
    )
    horizon_s = (time.perf_counter() - start) / MAX_HORIZONS

    # The observed run must match the baseline frame for frame: no
    # retrains fired, so the lifecycle layer was invisible.
    assert controller.retrains == 0
    assert report.frames_covered == baseline.frames_covered
    assert report.frames_lost == 0
    assert len(controller.buffer) > 0

    # Arm 2: the swap pause.  A published copy of the incumbent, in a
    # rebound serving engine, stands in for a canary-approved candidate;
    # each round re-stages it so maybe_swap runs its full path (install
    # the engine + recalibrate on one forward + rebase the detectors).
    entry = registry.publish(marshaller.model, note="benchmark candidate")
    candidate = marshaller.inference.rebind(registry.load(entry.version))

    def stage():
        controller._pending = (entry, candidate)

    def swap():
        assert controller.maybe_swap([report], tick=MAX_HORIZONS)

    benchmark.pedantic(swap, setup=stage, rounds=ROUNDS, iterations=1)
    swap_s = benchmark.stats.stats.min
    speedup = horizon_s / swap_s

    benchmark.extra_info["horizon_s"] = round(horizon_s, 4)
    benchmark.extra_info["swap_s"] = round(swap_s, 4)
    benchmark.extra_info["buffer_records"] = len(controller.buffer)
    benchmark.extra_info["speedup"] = round(speedup, 3)

    save_result(
        "hotswap_latency",
        format_table(
            [
                {
                    "horizons": MAX_HORIZONS,
                    "horizon_s": round(horizon_s, 4),
                    "swap_s": round(swap_s, 4),
                    "buffer_records": len(controller.buffer),
                    "frames": report.frames_covered,
                    "speedup": round(speedup, 3),
                }
            ]
        ),
    )
