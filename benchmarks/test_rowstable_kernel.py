"""Row-stable kernel throughput — the tiled-GEMM gate.

Every affine map of the serving engines goes through
:func:`repro.core.rowstable_matmul`, whose contract is a per-row
accumulation order that never depends on the batch.  It meets that
contract with one fixed-shape ``(8, I) @ (I, O)`` BLAS GEMM per tile of
eight rows (the last tile zero-padded).  The reference here is
``np.einsum`` without path optimisation, which meets the same contract
with a fixed-order loop per output element.

The kernels are driven by one windowed
:meth:`repro.core.BatchedInference.predict` at the shapes of the
``multievent-ta9`` serving benchmark — 32 lanes, a 25-frame window of 12
channels, an LSTM of 16, three event heads of 32 → 501 — so every call
sees exactly the shapes and layouts the engine passes.  Both arms run the
same engine over the same windows; only the module's ``rowstable_matmul``
is swapped, and each swap-in is wrapped in a timer.

The gated metric (``extra_info["speedup"]``) is the kernel ratio: the
median over interleaved pairs of einsum time / row-stable time summed
over one ``predict``'s calls.  The whole-``predict`` ratio is published
too (``predict_speedup``) but not gated: the LSTM's elementwise gate work
is the same in both arms and dilutes it to ≈1.5 on a 2-vCPU x86 box.
``benchmarks/check_regression.py`` checks the gated ratio against
``benchmarks/BENCH_baseline.json``.
"""

import statistics
import time

import numpy as np
import pytest

from repro.core import BatchedInference, EventHit, EventHitConfig
from repro.core import batched
from repro.harness import format_table

LANES = 32
WINDOW = 25
CHANNELS = 12
EVENTS = 3
PAIRS = 200

CONFIG = EventHitConfig(
    window_size=WINDOW,
    horizon=500,
    lstm_hidden=16,
    shared_hidden=(16,),
    head_hidden=(32,),
    dropout=0.0,
    seed=0,
)


def einsum_rowstable(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """The einsum contraction the row-stable kernel replaced."""
    return np.einsum("...i,io->...o", x, weight)


def _timed_predict(engine, windows, kernel, monkeypatch):
    """One ``predict`` served by ``kernel``: (kernel seconds, wall seconds)."""
    spent = [0.0]

    def timed(x, weight):
        start = time.perf_counter()
        out = kernel(x, weight)
        spent[0] += time.perf_counter() - start
        return out

    monkeypatch.setattr(batched, "rowstable_matmul", timed)
    start = time.perf_counter()
    engine.predict(windows)
    return spent[0], time.perf_counter() - start


@pytest.mark.bench
def test_rowstable_kernel(benchmark, save_result, monkeypatch):
    model = EventHit(CHANNELS, EVENTS, config=CONFIG)
    engine = BatchedInference(model)
    windows = np.random.default_rng(0).normal(size=(LANES, WINDOW, CHANNELS))

    kernel = batched.rowstable_matmul
    fast = engine.predict(windows)
    monkeypatch.setattr(batched, "rowstable_matmul", einsum_rowstable)
    slow = engine.predict(windows)
    monkeypatch.setattr(batched, "rowstable_matmul", kernel)
    # Different kernels, different (fixed) summation orders: equal values
    # to round-off, never bitwise across the two.
    np.testing.assert_allclose(fast.scores, slow.scores, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(
        fast.frame_scores, slow.frame_scores, rtol=1e-10, atol=1e-12
    )

    # One predict per arm per pair, alternating, so a change in background
    # load lands on both arms of a pair alike; the median pair is the gate.
    kernel_ratios, predict_ratios = [], []
    rowstable_us = einsum_us = float("inf")
    for _ in range(PAIRS):
        fast_kernel, fast_wall = _timed_predict(engine, windows, kernel, monkeypatch)
        slow_kernel, slow_wall = _timed_predict(
            engine, windows, einsum_rowstable, monkeypatch
        )
        kernel_ratios.append(slow_kernel / fast_kernel)
        predict_ratios.append(slow_wall / fast_wall)
        rowstable_us = min(rowstable_us, fast_kernel * 1e6)
        einsum_us = min(einsum_us, slow_kernel * 1e6)
    monkeypatch.setattr(batched, "rowstable_matmul", kernel)
    benchmark.pedantic(engine.predict, args=(windows,), rounds=20, iterations=1)

    speedup = statistics.median(kernel_ratios)
    predict_speedup = statistics.median(predict_ratios)
    benchmark.extra_info["lanes"] = LANES
    benchmark.extra_info["window"] = WINDOW
    benchmark.extra_info["pairs"] = PAIRS
    benchmark.extra_info["rowstable_kernel_us_per_predict"] = round(rowstable_us, 1)
    benchmark.extra_info["einsum_kernel_us_per_predict"] = round(einsum_us, 1)
    benchmark.extra_info["predict_speedup"] = round(predict_speedup, 3)
    benchmark.extra_info["speedup"] = round(speedup, 3)

    save_result(
        "rowstable_kernel",
        format_table(
            [
                {
                    "lanes": LANES,
                    "window": WINDOW,
                    "events": EVENTS,
                    "einsum_kernel_us": round(einsum_us, 1),
                    "rowstable_kernel_us": round(rowstable_us, 1),
                    "kernel_speedup": round(speedup, 2),
                    "predict_speedup": round(predict_speedup, 2),
                }
            ]
        ),
    )

    # Acceptance floor: over a TA9-shaped predict, the tiled BLAS kernel
    # must run at least 1.5x faster than the einsum contraction.
    assert speedup >= 1.5, f"rowstable kernel speedup {speedup:.2f}x below 1.5x floor"
