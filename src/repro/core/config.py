"""Configuration for the EventHit model and trainer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["EventHitConfig"]


@dataclass(frozen=True)
class EventHitConfig:
    """Hyper-parameters of EventHit (paper §III, Fig. 3).

    Attributes
    ----------
    window_size:
        Collection window length M.
    horizon:
        Time horizon H — each event head emits 1 existence score plus H
        per-offset occurrence scores.
    lstm_hidden:
        Hidden width of the shared LSTM encoder.
    shared_hidden:
        Widths of the fully connected layer(s) after the LSTM that produce
        the latent vector z.
    head_hidden:
        Widths of each event-specific sub-network's hidden layers.
    dropout:
        Dropout probability in the shared sub-network (paper: "fully
        connected and dropout layer(s)").
    betas / gammas:
        Per-event loss weights β_k / γ_k (default: all ones).  The paper
        tunes them by grid search; :mod:`repro.harness.sweeps` provides one.
    learning_rate / epochs / batch_size:
        Optimiser settings (paper reports batch size 128).
    grad_clip:
        Global gradient-norm clip applied every step.
    seed:
        Seed for weight init and batch shuffling.
    """

    window_size: int = 25
    horizon: int = 500
    lstm_hidden: int = 64
    shared_hidden: Tuple[int, ...] = (64,)
    head_hidden: Tuple[int, ...] = (64,)
    dropout: float = 0.1
    betas: Optional[Tuple[float, ...]] = None
    gammas: Optional[Tuple[float, ...]] = None
    learning_rate: float = 3e-3
    epochs: int = 30
    batch_size: int = 128
    grad_clip: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.window_size <= 0 or self.horizon <= 0:
            raise ValueError("window_size and horizon must be positive")
        if self.lstm_hidden <= 0:
            raise ValueError("lstm_hidden must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive")
