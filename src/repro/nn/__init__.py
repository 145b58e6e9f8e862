"""Minimal deep-learning substrate (numpy autograd) for the reproduction.

The paper's EventHit model is a small LSTM encoder plus per-event MLP heads
trained end-to-end; this package provides everything needed to train it
without an external DL framework:

* :mod:`repro.nn.tensor` — reverse-mode autograd ``Tensor``.
* :mod:`repro.nn.layers` — ``Module``, ``Linear``, ``Dropout``, activations,
  ``Sequential``/``MLP`` containers.
* :mod:`repro.nn.lstm` — ``LSTMCell`` / ``LSTM`` encoder.
* :mod:`repro.nn.fused` — the fused fast path: whole-sequence LSTM/BPTT
  autograd op, graph-free ``no_grad`` forwards, fused BCE/L1/L2 loss
  kernels (default on; ``use_fused(False)`` restores the op-by-op graph).
* :mod:`repro.nn.optim` — ``SGD`` / ``Adam`` and gradient clipping.
* :mod:`repro.nn.losses` — the paper's L1 (existence) and L2 (interval)
  cross-entropy losses.
* :mod:`repro.nn.serialization` — ``.npz`` checkpoints.
"""

from .tensor import Tensor, concat, is_grad_enabled, no_grad, stack, where
from .fused import (
    fused_binary_cross_entropy,
    fused_enabled,
    fused_weighted_bce_sum,
    gru_forward_numpy,
    lstm_forward_numpy,
    lstm_fused,
    prepare_lstm_weights,
    use_fused,
)
from .layers import (
    MLP,
    Dropout,
    Linear,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from .lstm import LSTM, LSTMCell
from .gru import GRU, GRUCell
from .optim import Adam, Optimizer, SGD, clip_grad_norm
from .schedulers import CosineDecay, LinearWarmup, Scheduler, StepDecay, chain
from .losses import existence_loss, interval_loss, interval_weights, total_loss
from .serialization import load_module, load_state, save_module, save_state
from . import functional

__all__ = [
    "Tensor",
    "concat",
    "stack",
    "where",
    "no_grad",
    "is_grad_enabled",
    "fused_enabled",
    "use_fused",
    "lstm_fused",
    "lstm_forward_numpy",
    "prepare_lstm_weights",
    "gru_forward_numpy",
    "fused_weighted_bce_sum",
    "fused_binary_cross_entropy",
    "Module",
    "Parameter",
    "Linear",
    "Dropout",
    "Sigmoid",
    "Tanh",
    "ReLU",
    "Sequential",
    "MLP",
    "LSTM",
    "LSTMCell",
    "GRU",
    "GRUCell",
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "Scheduler",
    "StepDecay",
    "CosineDecay",
    "LinearWarmup",
    "chain",
    "existence_loss",
    "interval_loss",
    "interval_weights",
    "total_loss",
    "save_module",
    "load_module",
    "save_state",
    "load_state",
    "functional",
]
