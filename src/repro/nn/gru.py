"""GRU encoder — the standard lighter alternative to the LSTM (§III).

The paper uses an LSTM; a GRU has ~25% fewer parameters at comparable
quality on short windows, so it is offered as an encoder ablation
(``EventHit(..., encoder="gru")``).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from . import init
from .fused import fused_enabled, gru_forward_numpy
from .layers import Module, Parameter
from .tensor import Tensor, is_grad_enabled

__all__ = ["GRUCell", "GRU"]


class GRUCell(Module):
    """A single GRU step with fused gate weights.

    Gate layout along the fused projection is ``[reset, update]`` plus a
    separate candidate projection:

    .. math::
        r &= \\sigma(x W_{xr} + h W_{hr} + b_r) \\\\
        z &= \\sigma(x W_{xz} + h W_{hz} + b_z) \\\\
        n &= \\tanh(x W_{xn} + (r \\odot h) W_{hn} + b_n) \\\\
        h' &= (1 - z) \\odot n + z \\odot h
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
        self.weight_x_gates = Parameter(
            init.xavier_uniform(input_size, 2 * hidden_size, rng)
        )
        self.weight_h_gates = Parameter(
            np.concatenate(
                [init.orthogonal(hidden_size, hidden_size, rng) for _ in range(2)],
                axis=1,
            )
        )
        self.bias_gates = Parameter(init.zeros(2 * hidden_size))
        self.weight_x_cand = Parameter(
            init.xavier_uniform(input_size, hidden_size, rng)
        )
        self.weight_h_cand = Parameter(init.orthogonal(hidden_size, hidden_size, rng))
        self.bias_cand = Parameter(init.zeros(hidden_size))

    def forward(self, x: Tensor, h_prev: Tensor) -> Tensor:
        """Advance one step; returns the new hidden state (batch, hidden)."""
        gates = (
            x @ self.weight_x_gates + h_prev @ self.weight_h_gates + self.bias_gates
        )
        hs = self.hidden_size
        r = gates[:, 0:hs].sigmoid()
        z = gates[:, hs : 2 * hs].sigmoid()
        candidate = (
            x @ self.weight_x_cand
            + (r * h_prev) @ self.weight_h_cand
            + self.bias_cand
        ).tanh()
        return (1.0 - z) * candidate + z * h_prev

    def initial_state(self, batch_size: int) -> Tensor:
        return Tensor(np.zeros((batch_size, self.hidden_size)))


class GRU(Module):
    """Run a :class:`GRUCell` over a (batch, time, feature) sequence."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.cell = GRUCell(input_size, hidden_size, rng=rng)
        self.input_size = input_size
        self.hidden_size = hidden_size

    def forward(
        self,
        sequence: Tensor,
        state: Optional[Tensor] = None,
        return_sequence: bool = False,
    ):
        """Encode a batched sequence; mirrors :class:`repro.nn.LSTM`.

        Under ``no_grad`` the fused graph-free numpy forward
        (:func:`repro.nn.fused.gru_forward_numpy`) is used; the op-by-op
        loop below remains the training path (the GRU is an ablation
        encoder, so only its inference side is on the fused fast path) and
        the reference for the fused-equivalence tests.
        """
        if sequence.ndim != 3:
            raise ValueError(
                f"expected (batch, time, features) input, got shape {sequence.shape}"
            )
        batch, steps, features = sequence.shape
        if features != self.input_size:
            raise ValueError(f"expected feature dim {self.input_size}, got {features}")
        if steps == 0:
            raise ValueError("cannot encode an empty sequence")
        if fused_enabled() and not return_sequence and not is_grad_enabled():
            cell = self.cell
            return Tensor(
                gru_forward_numpy(
                    sequence.data,
                    cell.weight_x_gates.data,
                    cell.weight_h_gates.data,
                    cell.bias_gates.data,
                    cell.weight_x_cand.data,
                    cell.weight_h_cand.data,
                    cell.bias_cand.data,
                    state.data if state is not None else None,
                )
            )
        h = state if state is not None else self.cell.initial_state(batch)
        outputs: List[Tensor] = []
        for t in range(steps):  # reference-loop: op-by-op autograd ground truth
            h = self.cell(sequence[:, t, :], h)
            if return_sequence:
                outputs.append(h)
        if return_sequence:
            return h, outputs
        return h
