"""Guard tests for the ``rowstable_matmul`` stability contract.

Every bitwise-equivalence claim in the repo (fleet == sequential,
sharded == single-process, continual == windowed, chunked == stacked)
bottoms out in one primitive: :func:`repro.core.rowstable_matmul`'s
per-row accumulation order must not depend on how many rows — or how
many leading batch dims — ride along.  This file is the tripwire for a
numpy/BLAS upgrade (or a well-meaning "switch to ``@``" refactor)
silently changing that: it drives random shapes through the primitive
and pins the contract bitwise.

How the primitive keeps it: each row is lifted to a ``(1, I)`` matrix, so
``np.matmul`` issues one vector-matrix BLAS call per row (GEMV; DOT for a
one-column output; numpy's own loop for a one-element contraction).  Which
kernel runs — and so the order its SIMD lanes sum in — is a function of
the weight's shape and the row's layout, never of the batch.  A plain
``x @ w`` over the whole batch is one GEMM whose blocking changes with the
row count, which is exactly what the bitwise pins below would catch.

A note on the reference loop: a BLAS kernel's *internal* reduction order
is SIMD-blocked, not the textbook sequential sum.  The naive loop
therefore anchors *values* within the rounding-error bound of two
summation orders, while the bitwise pins anchor the part the repo
actually relies on: whatever order the kernel picks is the same for a
row alone, in any batch, at any memory offset, and under any BLAS
thread count.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import rowstable_matmul


def fixed_order_loop(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Textbook contraction: one scalar accumulator, index order 0..K-1."""
    out = np.zeros(x.shape[:-1] + (w.shape[1],))
    flat_x = x.reshape(-1, x.shape[-1])
    flat_out = out.reshape(-1, w.shape[1])
    for r in range(flat_x.shape[0]):
        for o in range(w.shape[1]):
            acc = np.float64(0.0)
            for i in range(x.shape[-1]):
                acc = acc + flat_x[r, i] * w[i, o]
            flat_out[r, o] = acc
    return out


class TestRowstableGuard:
    @given(
        rows=st.integers(1, 9),
        contract=st.integers(1, 24),
        cols=st.integers(1, 7),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_values_match_fixed_order_loop(self, rows, contract, cols, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows, contract))
        w = rng.normal(size=(contract, cols))
        err = np.abs(rowstable_matmul(x, w) - fixed_order_loop(x, w))
        # Two summation orders of K products differ by at most
        # 2 * gamma_K * sum_i |x_i w_i| (gamma_K = K u / (1 - K u), u the
        # unit roundoff).  A tolerance relative to the result is no bound:
        # when the products cancel, a sub-ulp wobble in the terms is a large
        # fraction of the near-zero sum.
        u = np.finfo(np.float64).eps / 2
        gamma = contract * u / (1 - contract * u)
        bound = 2 * gamma * (np.abs(x) @ np.abs(w))
        assert np.all(err <= bound), (err / bound).max()

    @given(
        rows=st.integers(2, 32),
        contract=st.integers(1, 64),
        cols=st.integers(1, 48),
        take=st.integers(1, 8),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_bitwise_invariant_under_batching(
        self, rows, contract, cols, take, seed
    ):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows, contract))
        w = rng.normal(size=(contract, cols))
        take = min(take, rows)
        full = rowstable_matmul(x, w)
        part = rowstable_matmul(x[:take], w)
        assert np.array_equal(full[:take], part)
        # ...and each row alone: the strongest form of the contract.
        solo = rowstable_matmul(x[take - 1 : take], w)
        assert np.array_equal(full[take - 1], solo[0])

    @given(
        batch=st.integers(1, 5),
        time=st.integers(1, 10),
        contract=st.integers(1, 32),
        cols=st.integers(1, 32),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_3d_slices_bitwise_equal_2d_calls(
        self, batch, time, contract, cols, seed
    ):
        # The continual engine's warmup hoists a (B, T, D) projection in
        # one 3-D contraction and the step kernel projects (B, D) frames
        # one at a time; they agree bitwise only because the leading
        # batch shape never changes the per-element reduction.
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, time, contract))
        w = rng.normal(size=(contract, cols))
        hoisted = rowstable_matmul(x, w)
        for t in range(time):
            assert np.array_equal(hoisted[:, t, :], rowstable_matmul(x[:, t, :], w))
        for b in range(batch):
            assert np.array_equal(hoisted[b], rowstable_matmul(x[b], w))

    @pytest.mark.parametrize("shape", [(1, 1), (3, 17), (64, 128)])
    def test_deterministic_across_calls(self, shape):
        rng = np.random.default_rng(11)
        x = rng.normal(size=shape)
        w = rng.normal(size=(shape[1], 23))
        first = rowstable_matmul(x, w)
        for _ in range(3):
            assert np.array_equal(first, rowstable_matmul(x, w))

    # ------------------------------------------------------------------
    # The layouts and shapes the engines actually pass
    # ------------------------------------------------------------------
    @given(
        batch=st.integers(1, 6),
        time=st.integers(1, 8),
        contract=st.integers(1, 24),
        cols=st.integers(1, 40),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_row_strided_inputs_match_contiguous_rows(
        self, batch, time, contract, cols, seed
    ):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, time, contract))
        w = rng.normal(size=(contract, cols))
        # The last frame of every window (the head's ``last_vector``).
        last = x[:, -1, :]
        expected = rowstable_matmul(np.ascontiguousarray(last), w)
        assert np.array_equal(rowstable_matmul(last, w), expected)
        # A per-step slice of the hoisted time-major projection, fed on
        # into the next contraction as the recurrent step does.
        hoisted = rowstable_matmul(x, w).transpose(1, 0, 2)
        w2 = rng.normal(size=(cols, contract))
        for t in range(time):
            step = hoisted[t]
            dense = rowstable_matmul(np.ascontiguousarray(step), w2)
            assert np.array_equal(rowstable_matmul(step, w2), dense)
            for b in range(batch):
                assert np.array_equal(
                    rowstable_matmul(step[b : b + 1].copy(), w2)[0], dense[b]
                )

    @given(
        rows=st.integers(1, 16),
        contract=st.integers(1, 40),
        cols=st.integers(1, 40),
        offset=st.integers(1, 7),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_bitwise_invariant_under_memory_offset(
        self, rows, contract, cols, offset, seed
    ):
        # A fleet stacks lane windows into a fresh array, so a lane's row
        # sits at a different address (and SIMD alignment) than its solo
        # window does; the kernel must not care.
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows, contract))
        w = rng.normal(size=(contract, cols))
        buf = np.empty(rows * contract + offset)
        shifted = buf[offset:].reshape(rows, contract)
        shifted[...] = x
        assert np.array_equal(rowstable_matmul(shifted, w), rowstable_matmul(x, w))

    @pytest.mark.parametrize(
        "rows,contract,cols",
        [
            (5, 1, 9),  # contraction length 1: numpy's own loop
            (5, 9, 1),  # output width 1: one DOT per row
            (1, 9, 7),  # B = 1: the sequential marshaller's single lane
            (1, 1, 1),
        ],
    )
    def test_degenerate_shapes_stay_row_stable(self, rows, contract, cols):
        rng = np.random.default_rng(rows * 100 + contract * 10 + cols)
        x = rng.normal(size=(rows, contract))
        w = rng.normal(size=(contract, cols))
        full = rowstable_matmul(x, w)
        assert full.shape == (rows, cols)
        np.testing.assert_allclose(full, fixed_order_loop(x, w), rtol=1e-12, atol=0)
        for r in range(rows):
            assert np.array_equal(full[r], rowstable_matmul(x[r : r + 1].copy(), w)[0])
        # 1-D input: a single row without a batch axis.
        assert np.array_equal(rowstable_matmul(x[0], w), full[0])

    def test_wide_head_layer_above_blas_threading_threshold(self):
        # The (32, 32) @ (32, 501) head layer: 32 * 501 is above OpenBLAS's
        # default single-thread GEMV cutoff (m * n < 2304 * 4), so each
        # per-row call may run threaded.  Rows must still be
        # batch-invariant, and the bits must not depend on the thread
        # count: a one-thread subprocess must reproduce them exactly.
        rng = np.random.default_rng(501)
        x = rng.normal(size=(32, 32))
        w = rng.normal(size=(32, 501))
        full = rowstable_matmul(x, w)
        for r in (0, 7, 31):
            assert np.array_equal(full[r], rowstable_matmul(x[r : r + 1].copy(), w)[0])
        assert np.array_equal(full[:5], rowstable_matmul(x[:5], w))
        script = (
            "import sys, numpy as np\n"
            "from repro.core import rowstable_matmul\n"
            "rng = np.random.default_rng(501)\n"
            "x = rng.normal(size=(32, 32)); w = rng.normal(size=(32, 501))\n"
            "sys.stdout.write(rowstable_matmul(x, w).tobytes().hex())\n"
        )
        path = [os.path.dirname(os.path.dirname(repro.__file__))]
        path += [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            PYTHONPATH=os.pathsep.join(path),
        )
        single = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, check=True,
        ).stdout
        assert single == full.tobytes().hex()
