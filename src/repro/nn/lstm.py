"""LSTM encoder used by EventHit's shared sub-network (paper §III, Fig. 3).

The paper: *"It first utilizes a Long Short Term Memory (LSTM) encoder that is
suitable for modeling temporal relationships in the video stream across
frames.  The LSTM encoder processes the feature vectors in sequence, updating
corresponding hidden states at each time-step: h_m = LSTM(h_{m-1}, X_m)."*

We implement a single fused-gate LSTM cell and a sequence wrapper that
returns either the full hidden-state sequence or only the final hidden state
``h_n`` (the quantity consumed by the fully connected layers).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from . import init
from .fused import fused_enabled, lstm_fused
from .layers import Module, Parameter
from .tensor import Tensor

__all__ = ["LSTMCell", "LSTM"]


class LSTMCell(Module):
    """A single LSTM step with fused gate weights.

    Gate layout along the last axis of the fused projection is
    ``[input, forget, cell, output]``, matching the standard formulation:

    .. math::
        i, f, g, o &= \\mathrm{split}(x W_x + h W_h + b) \\\\
        c' &= \\sigma(f + b_f) \\odot c + \\sigma(i) \\odot \\tanh(g) \\\\
        h' &= \\sigma(o) \\odot \\tanh(c')

    A unit forget-gate bias is applied at initialisation, the usual trick to
    keep long-range gradients alive early in training.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError("input_size and hidden_size must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_x = Parameter(
            init.xavier_uniform(input_size, 4 * hidden_size, rng)
        )
        self.weight_h = Parameter(
            np.concatenate(
                [init.orthogonal(hidden_size, hidden_size, rng) for _ in range(4)],
                axis=1,
            )
        )
        bias = init.zeros(4 * hidden_size)
        bias[hidden_size : 2 * hidden_size] = 1.0  # forget-gate bias
        self.bias = Parameter(bias)

    def forward(
        self, x: Tensor, state: Tuple[Tensor, Tensor]
    ) -> Tuple[Tensor, Tensor]:
        """Advance one time-step.

        Parameters
        ----------
        x:
            Input of shape (batch, input_size).
        state:
            Tuple ``(h, c)`` each of shape (batch, hidden_size).

        Returns
        -------
        The new ``(h, c)`` state.
        """
        h_prev, c_prev = state
        gates = x @ self.weight_x + h_prev @ self.weight_h + self.bias
        hs = self.hidden_size
        i = gates[:, 0 * hs : 1 * hs].sigmoid()
        f = gates[:, 1 * hs : 2 * hs].sigmoid()
        g = gates[:, 2 * hs : 3 * hs].tanh()
        o = gates[:, 3 * hs : 4 * hs].sigmoid()
        c = f * c_prev + i * g
        h = o * c.tanh()
        return h, c

    def initial_state(self, batch_size: int) -> Tuple[Tensor, Tensor]:
        zeros = np.zeros((batch_size, self.hidden_size))
        return Tensor(zeros), Tensor(zeros.copy())


class LSTM(Module):
    """Run an :class:`LSTMCell` over a (batch, time, feature) sequence."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)
        self.input_size = input_size
        self.hidden_size = hidden_size

    def forward(
        self,
        sequence: Tensor,
        state: Optional[Tuple[Tensor, Tensor]] = None,
        return_sequence: bool = False,
    ):
        """Encode a batched sequence.

        Parameters
        ----------
        sequence:
            Tensor of shape (batch, time, input_size).
        state:
            Optional initial ``(h, c)``; zeros when omitted.
        return_sequence:
            When true, additionally return the list of per-step hidden states.

        Returns
        -------
        ``h_n`` of shape (batch, hidden_size), or ``(h_n, [h_1..h_n])`` when
        ``return_sequence`` is set.

        Notes
        -----
        The default execution path is :func:`repro.nn.fused.lstm_fused` —
        one autograd node for the whole sequence with a hand-derived BPTT
        backward.  ``use_fused(False)`` (or ``return_sequence=True``, which
        needs per-step graph outputs) falls back to the op-by-op reference
        loop below, which is kept as the ground truth for the fused-vs-
        reference equivalence tests.
        """
        if sequence.ndim != 3:
            raise ValueError(
                f"expected (batch, time, features) input, got shape {sequence.shape}"
            )
        batch, steps, features = sequence.shape
        if features != self.input_size:
            raise ValueError(
                f"expected feature dim {self.input_size}, got {features}"
            )
        if steps == 0:
            raise ValueError("cannot encode an empty sequence")
        if fused_enabled() and not return_sequence:
            cell = self.cell
            h0, c0 = state if state is not None else (None, None)
            return lstm_fused(
                sequence, cell.weight_x, cell.weight_h, cell.bias, h0, c0
            )
        if state is None:
            state = self.cell.initial_state(batch)
        outputs: List[Tensor] = []
        for t in range(steps):  # reference-loop: op-by-op autograd ground truth
            x_t = sequence[:, t, :]
            state = self.cell(x_t, state)
            if return_sequence:
                outputs.append(state[0])
        if return_sequence:
            return state[0], outputs
        return state[0]
