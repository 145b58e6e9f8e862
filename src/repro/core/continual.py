"""O(1)-per-tick continual inference.

:class:`~repro.core.batched.BatchedInference` re-runs the whole
``(window, features)`` recurrence for every decision, even though
consecutive windows of a live stream overlap in all but the stride's worth
of frames.  *Continual Inference* (Hedegaard & Iosifidis, 2022) shows that
carrying recurrent state across evaluations turns the per-step cost of an
online DNN from O(window) to O(1).  :class:`ContinualInference` applies
that to the marshalling predictor: a stateful sibling of
:class:`BatchedInference` that keeps per-lane ``(h, c)`` state and
consumes only the *new* frames of each incoming window (one
:func:`~repro.nn.fused.lstm_step_numpy` per frame instead of a full
window unroll).  Every score comes from a fresh recurrence over the
lane's frames, so the conformal layers, calibrated on fresh windows,
keep their guarantee on this path.

Correctness contract
--------------------
The stateful path is **bitwise-equal to the windowed forward,
warmup-aligned**: after a warm-up on window ``[a..b]`` and steps over
frames ``b+1..t``, the lane's output is bit-for-bit what
``BatchedInference.predict`` returns for the single window ``[a..t]``
(same prepared weights, same row-stable contraction, same op order — the
step kernel *is* the sequence forward's inner loop).  In particular, a
lane whose windows never overlap (stride ≥ window, the repo's default
horizon/window geometry) warms up every tick and the engine is
byte-identical to the windowed one.  Both pins live in
``tests/core/test_continual.py`` / ``tests/fleet/test_continual_fleet.py``.

Like the batched engine, every matmul goes through
:func:`~repro.core.batched.rowstable_matmul` — one fixed-shape BLAS GEMM
per 8-row tile, shaped by the weight alone — so per-lane results never
depend on which other lanes share the batch, and the warm-up's hoisted
time-major projection equals the step kernel's per-frame ones bit for
bit.  Fleet serving stays bitwise equivalent to sequential serving.

Carried state lives in row-indexed arrays (``h``, ``c``, the last
consumed frame index), one row per lane key, so a tick gathers and
scatters whole groups of lanes; the common case, every lane at one
stride, advances as one group.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..nn import gru_step_numpy, lstm_step_numpy
from ..obs import inc
from .batched import BatchedInference, rowstable_matmul
from .model import EventHit, EventHitOutput

__all__ = ["ContinualInference", "ENGINES", "make_engine"]

#: Engine registry names accepted by :func:`make_engine` (and the CLI's
#: ``--engine`` flag).
ENGINES = ("windowed", "continual")


class ContinualInference(BatchedInference):
    """Serve stacked stream windows with carried recurrent state.

    Parameters
    ----------
    model:
        A (trained) :class:`EventHit` with a recurrent encoder (``lstm``
        or ``gru``).  The ``mean`` encoder has no recurrence to carry and
        is rejected — use the windowed engine for it.

    Both engines share one prepared-weight cache, built on the first
    forward; :meth:`rebind` (the lifecycle controller's hot-swap path)
    starts a fresh engine, dropping all carried lane state, so every lane
    warms up from its next full window under the new weights, and
    :meth:`refresh_weights` drops the cache after an in-place parameter
    change.
    """

    def __init__(self, model: EventHit):
        super().__init__(model)
        if model.encoder_kind not in ("lstm", "gru"):
            raise ValueError(
                "ContinualInference requires a recurrent encoder (lstm/gru); "
                f"the {model.encoder_kind!r} encoder has no state to carry"
            )
        # Carried state lives in row-indexed arrays: ``_rows`` maps a lane
        # key to its row, and each array holds one entry per row.
        self._rows: Dict[str, int] = {}
        self._free: List[int] = []
        self._h = np.empty((0, model.encoder.hidden_size))
        self._c = np.empty_like(self._h)  # LSTM only
        self._end = np.empty(0, dtype=np.int64)  # last consumed frame index

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    def reset(self, keys: Optional[Sequence[str]] = None) -> None:
        """Drop carried state for ``keys`` (all lanes when ``None``).

        The marshalling loop calls this on quarantine entry, on guard-voided
        horizons, and at run start — any point where the carried state
        may have consumed frames the guard no longer vouches for.
        """
        if keys is None:
            self._rows.clear()
            self._free = list(range(len(self._end) - 1, -1, -1))
            return
        for key in keys:
            row = self._rows.pop(key, None)
            if row is not None:
                self._free.append(row)

    def has_state(self, key: str) -> bool:
        return key in self._rows

    # ------------------------------------------------------------------
    # The stateful update
    # ------------------------------------------------------------------
    def _lane_rows(self, keys: Sequence[str]) -> np.ndarray:
        """State rows for ``keys``; an unseen lane takes a free row."""
        rows, free = self._rows, self._free
        found = [rows.get(key) for key in keys]
        if None in found:
            fresh: List[int] = []
            for i, key in enumerate(keys):
                if key not in rows:
                    if not free:
                        self._grow()
                    rows[key] = free.pop()
                    fresh.append(rows[key])
                found[i] = rows[key]
            self._end[fresh] = -1
        return np.array(found, dtype=np.intp)

    def _grow(self) -> None:
        """Double the state arrays' rows and put the new ones on the free list."""
        capacity = len(self._end)
        extra = max(8, capacity)

        def grown(arr: np.ndarray) -> np.ndarray:
            pad = np.empty((extra,) + arr.shape[1:], dtype=arr.dtype)
            return np.concatenate([arr, pad])

        self._h, self._c = grown(self._h), grown(self._c)
        self._end = grown(self._end)
        self._free.extend(range(capacity + extra - 1, capacity - 1, -1))

    def update(
        self,
        windows: np.ndarray,
        keys: Sequence[str],
        end_frames: Sequence[int],
    ) -> EventHitOutput:
        """Advance every lane to its window's end frame and score it.

        Parameters
        ----------
        windows:
            ``(B, M, D)`` stacked collection windows, one per lane —
            exactly what :meth:`BatchedInference.predict` takes.
        keys:
            Lane identities (stream names); carried state is keyed by
            these.
        end_frames:
            Absolute index of each window's final frame.  The engine
            derives the stride from the lane's last consumed frame: new
            lanes (or gaps ≥ window) warm up on the full window, smaller
            strides step only the new frames.

        Returns the same :class:`EventHitOutput` shape as ``predict``;
        row ``i`` depends only on lane ``i``'s own history, never on the
        batch composition (row-stable contraction throughout).
        """
        x = np.asarray(windows, dtype=np.float64)
        if x.ndim != 3:
            raise ValueError(f"expected (B, M, D) covariates, got {x.shape}")
        batch, steps, features = x.shape
        if batch != len(keys) or batch != len(end_frames):
            raise ValueError("windows, keys, and end_frames must align")
        if features != self.model.num_features:
            raise ValueError(
                f"expected D={self.model.num_features} channels, got {features}"
            )
        if batch == 0 or steps == 0:
            raise ValueError("empty covariate batch")

        index = self._lane_rows(keys)
        ends = np.asarray(end_frames, dtype=np.int64)
        # Stride since each lane's last consumed frame; a new lane, a
        # restart or a rewind warms up on the full window.
        prev = self._end[index]
        stride = ends - prev
        stride[(prev < 0) | (stride <= 0)] = steps
        warmup = stride >= steps
        self._end[index] = ends

        is_lstm = self.model.encoder_kind == "lstm"
        h_rows = np.empty((batch, self.model.encoder.hidden_size))
        c_rows = np.empty_like(h_rows) if is_lstm else None

        def lanes(rows: np.ndarray):
            # A group that is the whole batch indexes by slice: no copies.
            return slice(None) if len(rows) == batch else rows

        # Warm-up rows: one stacked whole-window forward (bitwise the
        # windowed engine's encoding — same kernel, same contraction).
        warm = np.flatnonzero(warmup)
        if len(warm):
            if is_lstm:
                h_rows[lanes(warm)], c_rows[lanes(warm)] = self._eval_lstm(
                    x[lanes(warm)], return_state=True
                )
            else:
                h_rows[lanes(warm)] = self._eval_gru(x[lanes(warm)])
            inc("continual.warmups", len(warm))

        # Step rows, grouped by stride so each group advances in lock-step
        # (per-row math is batch-invariant, so grouping is free); a
        # stride-1 fleet is one group.
        step = np.flatnonzero(~warmup)
        if len(step):
            strides = stride[step]
            groups = (
                [(step, int(strides[0]))]
                if strides.min() == strides.max()
                else [(step[strides == g], g) for g in np.unique(strides).tolist()]
            )
        else:
            groups = []
        prepared = self._weights().encoder
        for rows, lane_stride in groups:
            h_g = self._h[index[rows]]
            c_g = self._c[index[rows]] if is_lstm else None
            # Time-major (stride, G, D): each step's frames are contiguous.
            frames = np.ascontiguousarray(
                x[lanes(rows), steps - lane_stride :, :].transpose(1, 0, 2)
            )
            for frame in frames:
                if is_lstm:
                    h_g, c_g = lstm_step_numpy(
                        frame, h_g, c_g, *prepared,
                        matmul=rowstable_matmul,
                    )
                else:
                    h_g = gru_step_numpy(
                        frame, h_g, *prepared,
                        matmul=rowstable_matmul,
                    )
            h_rows[lanes(rows)] = h_g
            if is_lstm:
                c_rows[lanes(rows)] = c_g
            inc("continual.steps", lane_stride * len(rows))

        self._h[index] = h_rows
        if is_lstm:
            self._c[index] = c_rows
        # Head pass over every row in one stacked call.
        return EventHitOutput.from_logits(self._head_logits(h_rows, x[:, -1, :]))


def make_engine(name: str, model: EventHit) -> BatchedInference:
    """Build an inference engine by registry name.

    ``"windowed"`` is the stateless batched engine, ``"continual"``
    carries per-lane recurrent state across ticks.
    """
    if name == "windowed":
        return BatchedInference(model)
    if name == "continual":
        return ContinualInference(model)
    raise ValueError(f"engine must be one of {ENGINES}, got {name!r}")
