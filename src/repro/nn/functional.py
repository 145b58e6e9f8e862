"""Functional wrappers over :class:`repro.nn.tensor.Tensor` operations.

These mirror the ``torch.nn.functional`` convention: stateless functions that
operate on tensors.  Layers in :mod:`repro.nn.layers` delegate here.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .fused import fused_binary_cross_entropy, fused_enabled
from .tensor import Tensor, _ensure_tensor, concat, stack, where

__all__ = [
    "sigmoid",
    "tanh",
    "relu",
    "linear",
    "dropout",
    "binary_cross_entropy",
    "log_safe",
    "softplus",
    "concat",
    "stack",
    "where",
]

_EPS = 1e-12


def sigmoid(x: Tensor) -> Tensor:
    return _ensure_tensor(x).sigmoid()


def tanh(x: Tensor) -> Tensor:
    return _ensure_tensor(x).tanh()


def relu(x: Tensor) -> Tensor:
    return _ensure_tensor(x).relu()


def softplus(x: Tensor) -> Tensor:
    """Numerically stable ``log(1 + exp(x))``.

    Used by the point-process baseline to keep intensities positive.
    """
    x = _ensure_tensor(x)
    # softplus(x) = max(x, 0) + log1p(exp(-|x|)); we build it from primitives
    # so gradients flow through the autograd graph.
    pos = x.relu()
    neg_abs = -(x.relu() + (-x).relu())
    return pos + (neg_abs.exp() + 1.0).log()


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight + bias`` with ``weight`` of shape (in, out)."""
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out


def dropout(
    x: Tensor,
    p: float,
    training: bool,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Inverted dropout: identity at eval time, rescaled mask when training."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    rng = rng if rng is not None else np.random.default_rng()
    mask = (rng.random(x.shape) >= p).astype(np.float64) / (1.0 - p)
    return x * Tensor(mask)


def log_safe(x: Tensor) -> Tensor:
    """``log(max(x, eps))`` to keep BCE finite for saturated sigmoids."""
    return x.clip(_EPS, 1.0).log()


def binary_cross_entropy(
    prediction: Tensor,
    target: np.ndarray,
    weight: Optional[np.ndarray] = None,
    reduction: str = "mean",
) -> Tensor:
    """Elementwise BCE between probabilities and {0,1} targets.

    Parameters
    ----------
    prediction:
        Probabilities in [0, 1] (e.g. sigmoid outputs).
    target:
        Array of the same shape with values in {0, 1}.
    weight:
        Optional per-element weights (broadcastable).
    reduction:
        One of ``"mean"``, ``"sum"`` or ``"none"``.
    """
    target = np.asarray(target, dtype=np.float64)
    if target.shape != prediction.shape:
        raise ValueError(
            f"target shape {target.shape} != prediction shape {prediction.shape}"
        )
    if reduction not in ("mean", "sum", "none"):
        raise ValueError(f"unknown reduction {reduction!r}")
    if fused_enabled():
        return fused_binary_cross_entropy(
            _ensure_tensor(prediction), target, weight, reduction
        )
    pos = Tensor(target)
    neg = Tensor(1.0 - target)
    loss = -(pos * log_safe(prediction) + neg * log_safe(1.0 - prediction))
    if weight is not None:
        loss = loss * Tensor(np.asarray(weight, dtype=np.float64))
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    if reduction == "none":
        return loss
    raise ValueError(f"unknown reduction {reduction!r}")
