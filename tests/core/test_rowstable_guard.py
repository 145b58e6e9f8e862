"""Guard tests for the ``rowstable_matmul`` stability contract.

Every bitwise-equivalence claim in the repo (fleet == sequential,
sharded == single-process, chunked == stacked)
bottoms out in one primitive: :func:`repro.core.rowstable_matmul`'s
per-row accumulation order must not depend on how many rows — or how
many leading batch dims — ride along.  This file is the tripwire for a
numpy/BLAS upgrade (or a well-meaning "switch to ``@``" refactor)
silently changing that: it drives random shapes through the primitive
and pins the contract bitwise.

How the primitive keeps it: the rows are cut into fixed
``(TILE_ROWS, I)`` tiles (the last one zero-padded), and ``np.matmul``
over the stack of tiles issues one BLAS GEMM per tile.  Every call for a
given weight has the same ``(TILE_ROWS, I) @ (I, O)`` shape, so the
kernel — and the order its SIMD lanes sum in — is fixed by the weight
alone.  What still varies is a row's slot inside its tile; the slot pins
below check that the kernels sum every slot alike, and the subprocess
pins repeat that under other OpenBLAS kernel families
(``OPENBLAS_CORETYPE``) and one BLAS thread.  A plain ``x @ w`` over the
whole batch is one GEMM whose blocking changes with the row count, which
is exactly what the bitwise pins below would catch.

A note on the reference loop: a BLAS kernel's *internal* reduction order
is SIMD-blocked, not the textbook sequential sum.  The naive loop
therefore anchors *values* within the rounding-error bound of two
summation orders, while the bitwise pins anchor the part the repo
actually relies on: whatever order the kernel picks is the same for a
row alone, in any batch, at any tile slot, at any memory offset, and
under any BLAS thread count or kernel family.
"""

import os
import platform
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import rowstable_matmul
from repro.core.batched import TILE_ROWS


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
        # The recurrent forwards hoist a (B, T, D) projection in one 3-D
        # contraction; a frame's projection is the same bits as a 2-D call
        # only because the leading batch shape never changes the
        # per-element reduction.
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
            (5, 1, 9),  # contraction length 1
            (5, 9, 1),  # output width 1
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
        # The (32, 32) @ (32, 501) head layer, the widest the engines run.
        # Rows must be batch-invariant, and the bits must not depend on the
        # BLAS thread count: a one-thread subprocess must reproduce them.
        rng = np.random.default_rng(501)
        x = rng.normal(size=(32, 32))
        w = rng.normal(size=(32, 501))
        full = rowstable_matmul(x, w)
        for r in (0, 7, 31):
            assert np.array_equal(full[r], rowstable_matmul(x[r : r + 1].copy(), w)[0])
        assert np.array_equal(full[:5], rowstable_matmul(x[:5], w))
        one_thread = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        assert _subprocess_bytes(one_thread) == full.tobytes().hex()


def _subprocess_bytes(
    env_overrides, rows=32, contract=32, cols=501, solo=False
) -> str:
    """Hex bytes of ``rowstable_matmul`` on :func:`_seeded` inputs, computed
    in a fresh interpreter with ``env_overrides`` set before numpy loads
    (BLAS reads its thread count and kernel family at load time).  With
    ``solo`` every row is computed alone and the rows are concatenated."""
    product = (
        "np.concatenate([rowstable_matmul(r[None], w) for r in x])"
        if solo
        else "rowstable_matmul(x, w)"
    )
    script = (
        "import sys, numpy as np\n"
        "from repro.core import rowstable_matmul\n"
        "rng = np.random.default_rng(501)\n"
        f"x = rng.normal(size=({rows}, {contract}))\n"
        f"w = rng.normal(size=({contract}, {cols}))\n"
        f"sys.stdout.write({product}.tobytes().hex())\n"
    )
    path = [os.path.dirname(os.path.dirname(repro.__file__))]
    path += [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), **env_overrides)
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, check=True,
    ).stdout


def _seeded(rows, contract, cols):
    rng = np.random.default_rng(501)
    return rng.normal(size=(rows, contract)), rng.normal(size=(contract, cols))


#: (I, O) of every affine map the engines run on the e2e workloads: the
#: LSTM input and recurrent projections (16, 12 and 6 input channels into
#: 4H = 64), the shared layer (28 and 22 into 32: hidden + last frame),
#: and the 32 → H+1 head outputs (H = 500 and 200).
SERVING_SHAPES = [(16, 64), (12, 64), (6, 64), (28, 32), (22, 32), (32, 501), (32, 201)]


class TestTiles:
    """The tile layout itself: slots, padding and the serving shapes."""

    @given(
        contract=st.integers(1, 40),
        cols=st.integers(1, 40),
        slot=st.integers(0, TILE_ROWS - 1),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_is_bitwise_the_same_at_every_tile_slot(
        self, contract, cols, slot, seed
    ):
        rng = np.random.default_rng(seed)
        row = rng.normal(size=contract)
        w = rng.normal(size=(contract, cols))
        alone = rowstable_matmul(row[None], w)[0]
        tile = rng.normal(size=(TILE_ROWS, contract))
        tile[slot] = row
        assert np.array_equal(rowstable_matmul(tile, w)[slot], alone)
        # ...and in every slot of one full tile of copies.
        copies = np.repeat(row[None], TILE_ROWS, axis=0)
        for out in rowstable_matmul(copies, w):
            assert np.array_equal(out, alone)

    @pytest.mark.parametrize("tiles", [1, 2, 3])
    @pytest.mark.parametrize("remainder", [0, 1, 3, TILE_ROWS - 1])
    def test_padded_row_counts_match_single_rows(self, tiles, remainder):
        rows = tiles * TILE_ROWS + remainder
        rng = np.random.default_rng(rows)
        x = rng.normal(size=(rows, 13))
        w = rng.normal(size=(13, 29))
        full = rowstable_matmul(x, w)
        assert full.shape == (rows, 29)
        for r in range(rows):
            assert np.array_equal(full[r], rowstable_matmul(x[r : r + 1], w)[0])
        # Every prefix pads differently; its rows may not move.
        for take in range(1, rows):
            assert np.array_equal(rowstable_matmul(x[:take], w), full[:take])

    @pytest.mark.parametrize("contract,cols", SERVING_SHAPES)
    def test_serving_shapes_are_row_stable(self, contract, cols):
        rng = np.random.default_rng(contract * 1000 + cols)
        x = rng.normal(size=(37, contract))
        w = rng.normal(size=(contract, cols))
        full = rowstable_matmul(x, w)
        for r in range(37):
            assert np.array_equal(full[r], rowstable_matmul(x[r], w))
        for lanes in (1, 8, 16, 32):
            assert np.array_equal(rowstable_matmul(x[:lanes], w), full[:lanes])

    @pytest.mark.parametrize("contract,cols", [(16, 64), (6, 64)])
    def test_time_major_projection_matches_per_step_calls(self, contract, cols):
        # The LSTM forward projects a time-major (T, B, D) copy in one
        # call; per (t, b) that must give the bits of a one-frame (B, D)
        # call, so a frame's projection never depends on the window.
        rng = np.random.default_rng(cols)
        x = rng.normal(size=(5, 25, contract))  # (B, T, D)
        w = rng.normal(size=(contract, cols))
        hoisted = rowstable_matmul(np.ascontiguousarray(x.transpose(1, 0, 2)), w)
        for t in range(x.shape[1]):
            assert np.array_equal(hoisted[t], rowstable_matmul(x[:, t, :], w))
        assert np.array_equal(hoisted.transpose(1, 0, 2), rowstable_matmul(x, w))

    @pytest.mark.skipif(
        platform.machine().lower() not in ("x86_64", "amd64"),
        reason="OPENBLAS_CORETYPE names x86 kernel families",
    )
    @pytest.mark.parametrize("coretype", ["Haswell", "Sandybridge"])
    @pytest.mark.parametrize("contract,cols", [(32, 501), (16, 64)])
    def test_other_kernel_family_keeps_rows_stable(self, coretype, contract, cols):
        # Another kernel family may sum in another order, so its bits are
        # not compared to this process's.  What must hold inside it is the
        # contract: 19 rows (two full tiles and a padded one) give each
        # row's bits alone, and the values agree with this process's
        # within the error bound of two summation orders.
        env = {"OPENBLAS_CORETYPE": coretype}
        batched = _subprocess_bytes(env, rows=19, contract=contract, cols=cols)
        solo = _subprocess_bytes(env, rows=19, contract=contract, cols=cols, solo=True)
        assert batched == solo
        x, w = _seeded(19, contract, cols)
        got = np.frombuffer(bytes.fromhex(batched)).reshape(19, cols)
        u = np.finfo(np.float64).eps / 2
        gamma = contract * u / (1 - contract * u)
        assert np.all(
            np.abs(got - rowstable_matmul(x, w)) <= 2 * gamma * (np.abs(x) @ np.abs(w))
        )
