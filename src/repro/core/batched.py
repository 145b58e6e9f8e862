"""Batched, batch-size-invariant EventHit inference (the fleet hot path).

Serving many streams means running the EventHit forward pass over a
stacked ``(num_streams, window, features)`` tensor in *one* numpy call per
horizon instead of one call per stream — the batched/stateful-inference
idea NoScope and Continual Inference apply to per-frame models, applied
here to the marshalling predictor.

Correctness guarantee
---------------------
``BatchedInference.predict`` is **batch-size invariant**: for any stacking
``X`` and any row ``i``,

    ``predict(X).scores[i] == predict(X[i:i+1]).scores[0]``  (bitwise)

and likewise for ``frame_scores``.  BLAS-backed ``@`` does *not* satisfy
this (GEMM picks its blocking from the row count, which changes the
per-row accumulation order by up to an ulp and can flip a τ-threshold
decision), so every affine map here goes through :func:`rowstable_matmul`
— one fixed-shape ``(8, I) @ (I, O)`` BLAS GEMM per zero-padded tile of
eight rows, whose accumulation order depends only on the weight shape,
never on the batch size.  The guarantee is what makes a fleet run
byte-identical to N sequential runs; it is pinned by
``tests/core/test_batched.py`` and ``tests/core/test_rowstable_guard.py``.

The engine reads the model's parameters live (no copies), so a retrained
or fine-tuned model is served without rebuilding the engine.  Inference is
always in eval semantics (dropout off) and never touches the autograd
graph, which also makes the single-stream path measurably faster than
``EventHit.predict``.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..nn import (
    GRU,
    LSTM,
    MLP,
    Dropout,
    Linear,
    Sequential,
    gru_forward_numpy,
    lstm_forward_numpy,
)
from ..nn.layers import ReLU, Sigmoid, Tanh
from .model import EventHit, EventHitOutput, _sigmoid

__all__ = ["BatchedInference", "TILE_ROWS", "rowstable_matmul"]


#: Rows per BLAS call in :func:`rowstable_matmul`.  Every call for a given
#: weight has the shape ``(TILE_ROWS, I) @ (I, O)``.
TILE_ROWS = 8


def rowstable_matmul(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``x @ weight`` with a per-row accumulation order that does not
    depend on the number of rows.

    The rows (any leading batch shape, flattened) are cut into fixed
    ``(TILE_ROWS, I)`` tiles, the last one zero-padded, and one
    ``np.matmul`` over the ``(tiles, TILE_ROWS, I)`` stack makes one BLAS
    GEMM per tile.  Every call for a given weight therefore has the same
    shape, so the kernel — and the order it sums in — is fixed by the
    weight alone; how many rows ride along only changes how many calls
    run.  A row's slot inside its tile is the one thing that varies, and
    ``tests/core/test_rowstable_guard.py`` pins that the kernels sum every
    slot alike.  A plain ``x @ weight`` over the whole batch hands BLAS one
    GEMM whose blocking, and therefore partial sums, change with the row
    count.  Accepts any leading batch shape (the fused LSTM forward
    projects the whole ``(T, B, D)`` input in one call).
    """
    *lead, contract = x.shape
    rows = math.prod(lead)
    cols = weight.shape[1]
    tiles = rows // TILE_ROWS
    if rows % TILE_ROWS == 0 and x.flags.c_contiguous:
        out = np.matmul(x.reshape(tiles, TILE_ROWS, contract), weight)
        return out.reshape(*lead, cols)
    # Copy into C-contiguous tiles, the last one zero-padded.
    padded = np.zeros((tiles + (rows % TILE_ROWS > 0), TILE_ROWS, contract))
    padded.reshape(-1, contract)[:rows] = x.reshape(rows, contract)
    out = np.matmul(padded, weight).reshape(-1, cols)[:rows]
    return out.reshape(*lead, cols)


def _relu(x: np.ndarray) -> np.ndarray:
    # Mirrors Tensor.relu (x * mask), not np.maximum, so -0.0 handling and
    # rounding match the training-side implementation exactly.
    return x * (x > 0).astype(np.float64)


class BatchedInference:
    """Run EventHit forward passes over stacked per-stream windows.

    Parameters
    ----------
    model:
        A (trained) :class:`EventHit`.  All supported encoder kinds
        (``lstm``, ``gru``, ``mean``) are handled.

    The engine is a pure-numpy re-evaluation of the model graph: it walks
    the same ``Sequential``/``MLP`` structure the model holds, reading each
    layer's parameters in place, with every matmul routed through
    :func:`rowstable_matmul`.  Outputs therefore agree with
    ``EventHit.predict`` to floating-point round-off (~1 ulp) and agree
    with *themselves* bitwise across any batch split.
    """

    def __init__(self, model: EventHit):
        if not isinstance(model, EventHit):
            raise TypeError("BatchedInference serves EventHit models")
        self.model = model

    def rebind(self, model: EventHit) -> "BatchedInference":
        """A fresh engine of this engine's kind bound to ``model``.

        The hot-swap hook: the lifecycle controller rebinds whatever
        engine class the deployment selected (windowed, continual, gated)
        without knowing which — stateful engines override this to carry
        their configuration across the swap while dropping all carried
        state (the post-swap warm-up is the state rebase).
        """
        return type(self)(model)

    # ------------------------------------------------------------------
    # Serving protocol: the marshalling loop calls only these two
    # ------------------------------------------------------------------
    def update(
        self,
        windows: np.ndarray,
        keys: Sequence[str],
        end_frames: Sequence[int],
    ) -> EventHitOutput:
        """Score one tick's stacked windows for the lanes ``keys``.

        This engine carries no state between ticks, so it is
        :meth:`predict`; stateful engines override it to advance each
        lane to its window's end frame (``end_frames``).
        """
        return self.predict(windows)

    def reset(self, keys: Optional[Sequence[str]] = None) -> None:
        """Drop carried state for ``keys`` (all lanes when ``None``).

        A no-op here; stateful engines override it.
        """

    # ------------------------------------------------------------------
    # Layer evaluators (eval-mode, raw numpy)
    # ------------------------------------------------------------------
    def _eval_layer(self, layer, x: np.ndarray) -> np.ndarray:
        if isinstance(layer, Linear):
            out = rowstable_matmul(x, layer.weight.data)
            if layer.bias is not None:
                out += layer.bias.data
            return out
        if isinstance(layer, Tanh):
            return np.tanh(x)
        if isinstance(layer, Sigmoid):
            return _sigmoid(x)
        if isinstance(layer, ReLU):
            return _relu(x)
        if isinstance(layer, Dropout):
            return x  # inference is always eval-mode
        if isinstance(layer, MLP):
            return self._eval_sequential(layer.net, x)
        if isinstance(layer, Sequential):
            return self._eval_sequential(layer, x)
        raise TypeError(
            f"BatchedInference cannot evaluate layer {type(layer).__name__}"
        )

    def _eval_sequential(self, seq: Sequential, x: np.ndarray) -> np.ndarray:
        for layer in seq._layers:
            x = self._eval_layer(layer, x)
        return x

    def _eval_lstm(self, encoder: LSTM, x: np.ndarray) -> np.ndarray:
        # Delegate to the fused sequence kernel with the row-stable
        # contraction injected.  Every non-matmul op in the kernel is
        # elementwise per row, so batch-size invariance is preserved while
        # the recurrence reuses the fused path's hoisted input projection
        # and preallocated gate buffers.
        cell = encoder.cell
        return lstm_forward_numpy(
            x,
            cell.weight_x.data,
            cell.weight_h.data,
            cell.bias.data,
            matmul=rowstable_matmul,
        )

    def _eval_gru(self, encoder: GRU, x: np.ndarray) -> np.ndarray:
        cell = encoder.cell
        return gru_forward_numpy(
            x,
            cell.weight_x_gates.data,
            cell.weight_h_gates.data,
            cell.bias_gates.data,
            cell.weight_x_cand.data,
            cell.weight_h_cand.data,
            cell.bias_cand.data,
            matmul=rowstable_matmul,
        )

    # ------------------------------------------------------------------
    def predict(self, covariates: np.ndarray) -> EventHitOutput:
        """One fused forward pass over stacked windows.

        Parameters
        ----------
        covariates:
            ``(B, M, D)`` array — one collection window per stream.

        Returns
        -------
        :class:`EventHitOutput` with ``(B, K)`` scores and ``(B, K, H)``
        frame scores, built :meth:`~EventHitOutput.from_logits`: the frame
        scores are activated on first use, or only for the pairs a
        decision keeps.  Row ``i`` is bitwise identical to the row a
        single-window call would produce, so chunking a fleet across
        several calls can never change a marshalling decision.
        """
        model = self.model
        x = np.asarray(covariates, dtype=np.float64)
        if x.ndim != 3:
            raise ValueError(f"expected (B, M, D) covariates, got {x.shape}")
        if x.shape[2] != model.num_features:
            raise ValueError(
                f"expected D={model.num_features} channels, got {x.shape[2]}"
            )
        if x.shape[0] == 0 or x.shape[1] == 0:
            raise ValueError("empty covariate batch")

        last_vector = x[:, -1, :]
        if model.encoder_kind == "lstm":
            encoded = self._eval_lstm(model.encoder, x)
        elif model.encoder_kind == "gru":
            encoded = self._eval_gru(model.encoder, x)
        else:  # mean encoder: Tensor.mean == sum * (1/count)
            pooled = x.sum(axis=1) * (1.0 / x.shape[1])
            encoded = self._eval_layer(model.encoder, pooled)

        return EventHitOutput.from_logits(self._head_logits(encoded, last_vector))

    def _head_theta(self, encoded: np.ndarray, last_vector: np.ndarray) -> np.ndarray:
        """The activated Θ ``(B, K, H+1)``: :meth:`_head_logits` through the
        heads' output sigmoid, over every row and event."""
        return _sigmoid(self._head_logits(encoded, last_vector))

    def _head_logits(self, encoded: np.ndarray, last_vector: np.ndarray) -> np.ndarray:
        """Shared sub-network + heads over encoded states: Θ logits ``(B, K, H+1)``.

        Every op here is row-independent (row-stable matmuls, elementwise
        activations), so this stage is batch-size invariant on its own —
        the continual engine reuses it over per-step hidden states, and
        the windowed path reuses it over whole-window encodings, with
        bitwise-equal rows whenever the encodings are bitwise equal.

        Each head must end in ``Linear → Sigmoid`` (as EventHit builds
        them): its last ``Linear`` runs whole (the GEMM shapes, and so the
        bits, are the same for every batch) and writes straight into the
        head's contiguous block of one head-major ``(K, B, H+1)`` buffer;
        the result is that buffer's ``(B, K, H+1)`` transposed view.  The
        output sigmoid is *not* applied: :meth:`EventHitOutput.from_logits`
        activates the existence column at once and the occurrence columns
        only where they are read.
        """
        z = self._eval_sequential(self.model.shared, encoded)
        head_input = np.concatenate([z, last_vector], axis=1)
        heads = self.model.heads()
        theta = np.empty(
            (len(heads), head_input.shape[0], self.model.config.horizon + 1)
        )
        for k, head in enumerate(heads):
            layers = head.net._layers if isinstance(head, MLP) else []
            if not (
                len(layers) >= 2
                and isinstance(layers[-2], Linear)
                and isinstance(layers[-1], Sigmoid)
            ):
                raise TypeError(
                    "BatchedInference needs every head to end in Linear -> Sigmoid"
                )
            hidden = head_input
            for layer in layers[:-2]:
                hidden = self._eval_layer(layer, hidden)
            last = layers[-2]
            product = rowstable_matmul(hidden, last.weight.data)
            if last.bias is not None:
                np.add(product, last.bias.data, out=theta[k])
            else:
                theta[k] = product
        return theta.transpose(1, 0, 2)
