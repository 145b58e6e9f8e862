"""Batched, batch-size-invariant EventHit inference (the fleet hot path).

Serving many streams means running the EventHit forward pass over a
stacked ``(num_streams, window, features)`` tensor in *one* numpy call per
horizon instead of one call per stream — the batched-inference idea
NoScope applies to per-frame models, applied here to the marshalling
predictor.  It is the only inference engine: the paper decides once per
horizon, and at every task's defaults the horizon is longer than the
collection window, so consecutive windows of a stream never overlap and
there is no state worth carrying from one decision to the next.

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

The engine prepares the weights it runs once per bind, on the first
forward: the LSTM's permuted, sign-folded projections and each head
layer's weights and biases stacked over the K heads, so the heads run as
one stack of GEMMs per layer position.  :meth:`BatchedInference.rebind`
returns a fresh engine; a caller that changes the bound model's
parameters in place calls :meth:`BatchedInference.refresh_weights`.
Inference is always in eval semantics (dropout off) and never touches the
autograd graph.

This is the one inference forward: the fleet serves through it, and
calibration, the §VI.B figures, recalibration and the canary score
through it, so the conformal guarantees hold for the scores served.
``EventHit.forward`` is the training forward and the tests' reference.
"""

from __future__ import annotations

import math
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..nn import (
    MLP,
    Dropout,
    Linear,
    Sequential,
    gru_forward_numpy,
    lstm_forward_numpy,
    prepare_lstm_weights,
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


#: Eval-mode activations by layer type.
_ACTIVATIONS = {Tanh: np.tanh, Sigmoid: _sigmoid, ReLU: _relu}


class _StackedLinear(NamedTuple):
    """One head ``Linear`` stacked over the K heads."""

    weight: np.ndarray  # (K, 1, I, O)
    bias: Optional[np.ndarray]  # (K, 1, 1, O)


_HeadOp = Union[_StackedLinear, Callable[[np.ndarray], np.ndarray]]


class _Weights(NamedTuple):
    """What an engine prepares once per bind."""

    #: LSTM: the :func:`~repro.nn.prepare_lstm_weights` triple; GRU: the
    #: cell's six arrays; mean encoder: empty.
    encoder: Tuple[np.ndarray, ...]
    #: The heads' layers up to the output sigmoid, each ``Linear`` stacked
    #: over K and each activation as its eval function.
    heads: List[_HeadOp]


def _stack_heads(heads: Sequence) -> List[_HeadOp]:
    """Stack the K heads layer position by layer position.

    Every head must be an ``MLP`` ending in ``Linear → Sigmoid`` (as
    EventHit builds them), and all heads must have the same layers with
    the same shapes; dropout is dropped (inference is eval-mode).  The
    output sigmoid is left off: the engine hands out Θ logits.
    """
    per_head = []
    for head in heads:
        layers = head.net._layers if isinstance(head, MLP) else []
        if not (
            len(layers) >= 2
            and isinstance(layers[-2], Linear)
            and isinstance(layers[-1], Sigmoid)
        ):
            raise TypeError(
                "BatchedInference needs every head to end in Linear -> Sigmoid"
            )
        per_head.append([l for l in layers[:-1] if not isinstance(l, Dropout)])
    if len({tuple(map(type, layers)) for layers in per_head}) > 1:
        raise TypeError("BatchedInference needs every head to have the same layers")
    ops: List[_HeadOp] = []
    for position in zip(*per_head):
        first = position[0]
        if isinstance(first, Linear):
            if len({(layer.weight.shape, layer.bias is None) for layer in position}) > 1:
                raise TypeError(
                    "BatchedInference needs every head's layers to have the same shapes"
                )
            weight = np.stack([layer.weight.data for layer in position])[:, None]
            bias = (
                None
                if first.bias is None
                else np.stack([layer.bias.data for layer in position])[:, None, None]
            )
            ops.append(_StackedLinear(weight, bias))
        elif type(first) in _ACTIVATIONS:
            ops.append(_ACTIVATIONS[type(first)])
        else:
            raise TypeError(
                f"BatchedInference cannot evaluate layer {type(first).__name__}"
            )
    return ops


class BatchedInference:
    """Run EventHit forward passes over stacked per-stream windows.

    Parameters
    ----------
    model:
        A (trained) :class:`EventHit`.  All supported encoder kinds
        (``lstm``, ``gru``, ``mean``) are handled.

    The engine is a pure-numpy re-evaluation of the model graph: it walks
    the same ``Sequential``/``MLP`` structure the model holds, with every
    matmul routed through :func:`rowstable_matmul` or, for the K heads, one
    ``np.matmul`` over the same ``(TILE_ROWS, I)`` tiles per head.  The
    recurrent encoder's and the heads' weights come from a cache built on
    the first forward (:meth:`refresh_weights`).  Outputs therefore agree
    with ``EventHit.forward`` to floating-point round-off (~1 ulp) and
    agree with *themselves* bitwise across any batch split.
    """

    def __init__(self, model: EventHit):
        if not isinstance(model, EventHit):
            raise TypeError("BatchedInference serves EventHit models")
        self.model = model
        self._cache: Optional[_Weights] = None

    def rebind(self, model: EventHit) -> "BatchedInference":
        """A fresh engine bound to ``model``.

        The hot-swap hook: the lifecycle controller swaps the served
        model by rebinding the marshaller's engine.  The new engine
        prepares ``model``'s weights on its first forward.
        """
        return type(self)(model)

    # ------------------------------------------------------------------
    # Weight cache / lifecycle
    # ------------------------------------------------------------------
    def refresh_weights(self) -> None:
        """Drop the prepared weight cache; the next forward rebuilds it.

        Must be called after the bound model's parameters change in place
        (the hot-swap path goes through :meth:`rebind`, which starts from
        an empty cache).
        """
        self._cache = None

    def _weights(self) -> _Weights:
        """The prepared weight cache, built from the bound model on first use."""
        if self._cache is None:
            model = self.model
            if model.encoder_kind == "lstm":
                cell = model.encoder.cell
                encoder = prepare_lstm_weights(
                    cell.weight_x.data, cell.weight_h.data, cell.bias.data
                )
            elif model.encoder_kind == "gru":
                cell = model.encoder.cell
                encoder = (
                    cell.weight_x_gates.data,
                    cell.weight_h_gates.data,
                    cell.bias_gates.data,
                    cell.weight_x_cand.data,
                    cell.weight_h_cand.data,
                    cell.bias_cand.data,
                )
            else:
                encoder = ()
            self._cache = _Weights(encoder, _stack_heads(model.heads()))
        return self._cache

    # ------------------------------------------------------------------
    # Layer evaluators (eval-mode, raw numpy)
    # ------------------------------------------------------------------
    def _eval_layer(self, layer, x: np.ndarray) -> np.ndarray:
        if isinstance(layer, Linear):
            out = rowstable_matmul(x, layer.weight.data)
            if layer.bias is not None:
                out += layer.bias.data
            return out
        if type(layer) in _ACTIVATIONS:
            return _ACTIVATIONS[type(layer)](x)
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

    def _eval_lstm(self, x: np.ndarray) -> np.ndarray:
        # The fused sequence kernel on the cached prepared weights, with
        # the row-stable contraction injected.  Every non-matmul op in the
        # kernel is elementwise per row, so batch-size invariance is
        # preserved while the recurrence reuses the fused path's hoisted
        # input projection and preallocated gate buffers.
        return lstm_forward_numpy(
            x, *self._weights().encoder, matmul=rowstable_matmul, prepared=True
        )

    def _eval_gru(self, x: np.ndarray) -> np.ndarray:
        return gru_forward_numpy(x, *self._weights().encoder, matmul=rowstable_matmul)

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
            encoded = self._eval_lstm(x)
        elif model.encoder_kind == "gru":
            encoded = self._eval_gru(x)
        else:  # mean encoder: Tensor.mean == sum * (1/count)
            pooled = x.sum(axis=1) * (1.0 / x.shape[1])
            encoded = self._eval_layer(model.encoder, pooled)

        return EventHitOutput.from_logits(self._head_logits(encoded, last_vector))

    def _head_logits(self, encoded: np.ndarray, last_vector: np.ndarray) -> np.ndarray:
        """Shared sub-network + heads over encoded states: Θ logits ``(B, K, H+1)``.

        Every op here is row-independent (row-stable matmuls, elementwise
        activations), so this stage is batch-size invariant on its own:
        rows are bitwise equal whenever the encodings are bitwise equal.

        The heads run as one stack (:func:`_stack_heads`): ``z ⊕ X_n`` is
        cut into zero-padded ``(TILE_ROWS, I)`` tiles once, and each layer
        position is one ``np.matmul`` of the ``(K, tiles, TILE_ROWS, I)``
        block against the ``(K, 1, I, O)`` weight stack, then one bias add
        and one activation over the whole block.  Every BLAS call is the
        ``(TILE_ROWS, I) @ (I, O)`` GEMM :func:`rowstable_matmul` makes for
        one head, so the bits are those of a head-by-head pass.  The last
        layer's block is the head-major ``(K, B, H+1)`` Θ buffer; the
        result is its ``(B, K, H+1)`` transposed view.  The output sigmoid
        is *not* applied: :meth:`EventHitOutput.from_logits` activates the
        existence column at once and the occurrence columns only where
        they are read.
        """
        heads = self._weights().heads
        z = self._eval_sequential(self.model.shared, encoded)
        batch, latent = z.shape
        tiles = -(-batch // TILE_ROWS)
        # z ⊕ X_n, written straight into the padded tiles.
        hidden = np.zeros((tiles * TILE_ROWS, latent + last_vector.shape[1]))
        hidden[:batch, :latent] = z
        hidden[:batch, latent:] = last_vector
        hidden = hidden.reshape(1, tiles, TILE_ROWS, -1)
        for op in heads:
            if isinstance(op, _StackedLinear):
                hidden = np.matmul(hidden, op.weight)
                if op.bias is not None:
                    hidden += op.bias
            else:
                hidden = op(hidden)
        theta = hidden.reshape(len(hidden), tiles * TILE_ROWS, -1)[:, :batch]
        return theta.transpose(1, 0, 2)
