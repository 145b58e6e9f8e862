"""O(1)-per-tick continual inference with change-gated recompute.

:class:`~repro.core.batched.BatchedInference` re-runs the whole
``(window, features)`` recurrence for every decision, even though
consecutive windows of a live stream overlap in all but the stride's worth
of frames.  *Continual Inference* (Hedegaard & Iosifidis, 2022) shows that
carrying recurrent state across evaluations turns the per-step cost of an
online DNN from O(window) to O(1); *CBinfer* (Cavigelli & Benini, 2017)
and *Event Neural Networks* (Dutson et al., 2022) show that change-based
gating skips recompute entirely on the near-static inputs that dominate
surveillance video.  This module applies both to the marshalling
predictor:

* :class:`ContinualInference` — a stateful sibling of
  :class:`BatchedInference` that keeps per-lane ``(h, c)`` state and
  consumes only the *new* frames of each incoming window (one
  :func:`~repro.nn.fused.lstm_step_numpy` per frame instead of a full
  window unroll).
* **Change gating** (``gate_delta``) — when every incoming frame's
  features are within ``gate_delta`` (∞-norm) of the features of the last
  frame the recurrence consumed, the engine skips the step *and* the head
  entirely and re-serves the lane's cached Θ scores.

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
byte-identical to the windowed one.  The gated path trades bounded score
error (controlled by ``gate_delta``) for skipped work and is byte-identical
to the ungated continual path whenever zero gates fire.  Both pins live in
``tests/core/test_continual.py`` / ``tests/fleet/test_continual_fleet.py``.

Like the batched engine, every matmul goes through
:func:`~repro.core.batched.rowstable_matmul` — one BLAS vector-matrix call
per row, shaped by the weight alone — so per-lane results never depend on
which other lanes share the batch, and the warm-up's 3-D hoisted
projection equals the step kernel's per-frame 2-D ones bit for bit.
Fleet serving stays bitwise equivalent to sequential serving.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import gru_step_numpy, lstm_forward_numpy, lstm_step_numpy
from ..obs import inc
from .batched import BatchedInference, rowstable_matmul
from .model import EventHit, EventHitOutput

__all__ = ["ContinualInference", "ContinualLaneState", "ENGINES", "make_engine"]

#: Engine registry names accepted by :func:`make_engine` (and the CLI's
#: ``--engine`` flag).
ENGINES = ("windowed", "continual", "gated")

#: Default ∞-norm feature threshold for the ``gated`` engine.  Features
#: are standardized (unit variance per channel), so 0.05σ is a
#: conservative "nothing moved" band.
DEFAULT_GATE_DELTA = 0.05


class ContinualLaneState:
    """One lane's carried recurrence state (private to the engine)."""

    __slots__ = ("h", "c", "end_frame", "ref", "theta", "gate_hits", "computes")

    def __init__(self) -> None:
        self.h: Optional[np.ndarray] = None  # (hidden,)
        self.c: Optional[np.ndarray] = None  # (hidden,) — LSTM only
        self.end_frame: int = -1  # absolute frame the state has consumed up to
        self.ref: Optional[np.ndarray] = None  # features of the last consumed frame
        self.theta: Optional[np.ndarray] = None  # cached (K, H+1) scores
        self.gate_hits: int = 0
        self.computes: int = 0


# Per-row actions resolved by _classify (module constants, not an enum, to
# keep the per-tick dispatch allocation-free).
_WARMUP, _STEP, _GATE = 0, 1, 2


class ContinualInference(BatchedInference):
    """Serve stacked stream windows with carried state and change gating.

    Parameters
    ----------
    model:
        A (trained) :class:`EventHit` with a recurrent encoder (``lstm``
        or ``gru``).  The ``mean`` encoder has no recurrence to carry and
        is rejected — use the windowed engine for it.
    gate_delta:
        ``None`` (default) disables change gating.  A float ≥ 0 enables
        it: an update whose new frames all lie within ``gate_delta``
        (∞-norm, per feature) of the last consumed frame's features
        reuses the lane's cached scores without touching state.

    Unlike the windowed engine, which reads model parameters live on every
    call, this engine caches the permuted/pre-doubled weight projections
    at bind time (they are rebuilt by :meth:`rebind` /
    :meth:`refresh_weights` — the lifecycle controller's hot-swap path).
    """

    def __init__(self, model: EventHit, gate_delta: Optional[float] = None):
        super().__init__(model)
        if model.encoder_kind not in ("lstm", "gru"):
            raise ValueError(
                "ContinualInference requires a recurrent encoder (lstm/gru); "
                f"the {model.encoder_kind!r} encoder has no state to carry"
            )
        if gate_delta is not None and gate_delta < 0:
            raise ValueError("gate_delta must be >= 0 (or None to disable)")
        self.gate_delta = gate_delta
        self._lanes: Dict[str, ContinualLaneState] = {}
        self.refresh_weights()

    # ------------------------------------------------------------------
    # Weight cache / lifecycle
    # ------------------------------------------------------------------
    def refresh_weights(self) -> None:
        """Rebuild the prepared weight cache from the bound model.

        Must be called after the encoder's parameters change in place
        (the hot-swap path goes through :meth:`rebind`, which starts from
        a fresh cache).  Carried lane state is *not* touched — callers
        that retrain in place must also :meth:`reset`.
        """
        model = self.model
        if model.encoder_kind == "lstm":
            cell = model.encoder.cell
            hidden = cell.hidden_size
            # Same preparation lstm_forward_numpy applies per call: permute
            # gate columns [i, f, g, o] → [o, i, f, g] and pre-double the
            # candidate block (tanh via 2σ(2x) − 1; ×2 is exact).
            from ..nn.fused import _gate_permutation

            perm = _gate_permutation(hidden)
            wx_p = cell.weight_x.data[:, perm]
            wh_p = cell.weight_h.data[:, perm]
            b_p = cell.bias.data[perm]
            wx_p[:, 3 * hidden :] *= 2.0
            wh_p[:, 3 * hidden :] *= 2.0
            b_p[3 * hidden :] *= 2.0
            self._prepared_weights = (wx_p, wh_p, b_p)
        else:  # gru
            cell = model.encoder.cell
            self._prepared_weights = (
                cell.weight_x_gates.data,
                cell.weight_h_gates.data,
                cell.bias_gates.data,
                cell.weight_x_cand.data,
                cell.weight_h_cand.data,
                cell.bias_cand.data,
            )

    def rebind(self, model: EventHit) -> "ContinualInference":
        """Fresh engine for ``model`` with this engine's gating config.

        All carried lane state is dropped — the state rebase after a
        hot-swap: every lane warms up from its next full window under the
        new weights, exactly as if the deployment had just started.
        """
        return type(self)(model, gate_delta=self.gate_delta)

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
            self._lanes.clear()
            return
        for key in keys:
            self._lanes.pop(key, None)

    def has_state(self, key: str) -> bool:
        return key in self._lanes

    def gate_stats(self, key: str) -> Tuple[int, int]:
        """``(gate_hits, computes)`` counters for one lane (0, 0 if unknown)."""
        slot = self._lanes.get(key)
        if slot is None:
            return (0, 0)
        return (slot.gate_hits, slot.computes)

    # ------------------------------------------------------------------
    # The stateful update
    # ------------------------------------------------------------------
    def _classify(
        self, slot: Optional[ContinualLaneState], window: np.ndarray, end_frame: int
    ) -> Tuple[int, int]:
        """(action, stride) for one lane's incoming window."""
        steps = window.shape[0]
        if slot is None or slot.end_frame < 0:
            stride = steps
        else:
            stride = end_frame - slot.end_frame
        if stride <= 0:
            stride = steps  # restart / rewind: treat as a fresh lane
        gated = (
            self.gate_delta is not None
            and slot is not None
            and slot.theta is not None
            and slot.ref is not None
        )
        if gated:
            new = window[-min(stride, steps) :]
            if np.max(np.abs(new - slot.ref)) <= self.gate_delta:
                return _GATE, stride
        if stride >= steps:
            return _WARMUP, steps
        return _STEP, stride

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
            strides step only the new frames, and gated lanes reuse
            cached scores.

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

        actions: List[Tuple[int, int]] = []
        slots: List[ContinualLaneState] = []
        for i, key in enumerate(keys):
            slot = self._lanes.get(key)
            actions.append(self._classify(slot, x[i], int(end_frames[i])))
            if slot is None:
                slot = ContinualLaneState()
                self._lanes[key] = slot
            slots.append(slot)

        hidden = self.model.encoder.hidden_size
        is_lstm = self.model.encoder_kind == "lstm"
        h_rows = np.empty((batch, hidden))
        c_rows = np.empty((batch, hidden)) if is_lstm else None

        # Warm-up rows: one stacked whole-window forward (bitwise the
        # windowed engine's encoding — same kernel, same contraction).
        warm = [i for i, (a, _) in enumerate(actions) if a == _WARMUP]
        if warm:
            if is_lstm:
                wx_p, wh_p, b_p = self._prepared_weights
                h_w, c_w = lstm_forward_numpy(
                    x[warm],
                    self.model.encoder.cell.weight_x.data,
                    self.model.encoder.cell.weight_h.data,
                    self.model.encoder.cell.bias.data,
                    matmul=rowstable_matmul,
                    return_state=True,
                )
                c_rows[warm] = c_w
            else:
                h_w = self._eval_gru(self.model.encoder, x[warm])
            h_rows[warm] = h_w
            inc("continual.warmups", len(warm))

        # Step rows, grouped by stride so each group advances in lock-step
        # (per-row math is batch-invariant, so grouping is free).
        step_rows = [i for i, (a, _) in enumerate(actions) if a == _STEP]
        by_stride: Dict[int, List[int]] = {}
        for i in step_rows:
            by_stride.setdefault(actions[i][1], []).append(i)
        for stride, rows in by_stride.items():
            h_g = np.stack([slots[i].h for i in rows])
            c_g = np.stack([slots[i].c for i in rows]) if is_lstm else None
            frames = x[rows, steps - stride :, :]  # (G, stride, D)
            for t in range(stride):
                if is_lstm:
                    wx_p, wh_p, b_p = self._prepared_weights
                    h_g, c_g = lstm_step_numpy(
                        frames[:, t], h_g, c_g, wx_p, wh_p, b_p,
                        matmul=rowstable_matmul,
                    )
                else:
                    h_g = gru_step_numpy(
                        frames[:, t], h_g, *self._prepared_weights,
                        matmul=rowstable_matmul,
                    )
            h_rows[rows] = h_g
            if is_lstm:
                c_rows[rows] = c_g
            inc("continual.steps", stride * len(rows))

        # Head pass over every computed row in one stacked call.
        computed = sorted(warm + step_rows)
        theta = np.empty(
            (batch, self.model.num_events, self.model.config.horizon + 1)
        )
        if computed:
            theta[computed] = self._head_theta(
                h_rows[computed], x[computed, -1, :]
            )

        gate_hits = 0
        for i, (action, _) in enumerate(actions):
            slot = slots[i]
            slot.end_frame = int(end_frames[i])
            if action == _GATE:
                theta[i] = slot.theta
                slot.gate_hits += 1
                gate_hits += 1
                inc(f"continual.gate.hits.{keys[i]}")
                continue
            slot.h = h_rows[i].copy()
            if is_lstm:
                slot.c = c_rows[i].copy()
            slot.ref = x[i, -1, :].copy()
            slot.theta = theta[i].copy()
            slot.computes += 1
        if gate_hits:
            inc("continual.gate.hits", gate_hits)

        return EventHitOutput(theta[:, :, 0], theta[:, :, 1:])


def make_engine(
    name: str,
    model: EventHit,
    gate_delta: Optional[float] = None,
) -> BatchedInference:
    """Build an inference engine by registry name.

    ``"windowed"`` is the stateless batched engine, ``"continual"``
    carries state with gating off, ``"gated"`` carries state with change
    gating at ``gate_delta`` (default :data:`DEFAULT_GATE_DELTA`).
    """
    if name == "windowed":
        return BatchedInference(model)
    if name == "continual":
        return ContinualInference(model)
    if name == "gated":
        delta = DEFAULT_GATE_DELTA if gate_delta is None else gate_delta
        return ContinualInference(model, gate_delta=delta)
    raise ValueError(f"engine must be one of {ENGINES}, got {name!r}")
