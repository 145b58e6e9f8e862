"""The EventHit network (paper §III, Fig. 3).

Architecture, verbatim from the paper:

* a **shared sub-network**: an LSTM encoder processes the covariate window
  X_n ∈ R^{M×D} frame by frame; the last hidden state h_n goes through fully
  connected + dropout layer(s) to produce the latent vector z; z is then
  concatenated with X_n's last feature vector;
* **K event-specific sub-networks**, each a stack of fully connected layers
  with independent weights and a sigmoid output, mapping z ⊕ X_n to the
  output vector Θ_k = [b_k, θ_{k,1}, …, θ_{k,H}] — an existence score plus
  one occurrence score per horizon offset.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .. import nn
from ..nn import GRU, LSTM, MLP, Dropout, Linear, Module, Sequential, Tensor
from ..nn.fused import _sigmoid_inplace
from .config import EventHitConfig

__all__ = ["EventHit", "EventHitOutput"]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Same formula as Tensor.sigmoid, for bitwise agreement of the
    # elementwise path.
    return 1.0 / (1.0 + np.exp(-x))


class EventHitOutput:
    """Numpy view of one forward pass: Θ vectors split into b and θ parts.

    Attributes
    ----------
    scores:
        (B, K) existence scores b_k ∈ [0, 1].
    frame_scores:
        (B, K, H) per-offset occurrence scores θ_{k,v} ∈ [0, 1].

    An output built :meth:`from_logits` (the serving engines) activates
    ``scores`` at once but ``frame_scores`` only on first access, then
    caches them: a decision reads the occurrence scores of the (row,
    event) pairs it keeps through :meth:`kept_frame_scores`, which
    activates just those rows.  Either way every value is bitwise what
    the eager sigmoid over the whole Θ buffer gives.
    """

    def __init__(self, scores: np.ndarray, frame_scores: np.ndarray):
        scores = np.asarray(scores, dtype=np.float64)
        frame_scores = np.asarray(frame_scores, dtype=np.float64)
        if scores.ndim != 2 or frame_scores.ndim != 3:
            raise ValueError("scores must be (B, K); frame_scores (B, K, H)")
        if scores.shape != frame_scores.shape[:2]:
            raise ValueError("scores and frame_scores disagree on (B, K)")
        self.scores = scores
        self._frame_scores: Optional[np.ndarray] = frame_scores
        self._frame_logits: Optional[np.ndarray] = None

    @classmethod
    def from_logits(cls, theta: np.ndarray) -> "EventHitOutput":
        """An output over pre-activation Θ logits ``(B, K, 1 + H)``."""
        theta = np.asarray(theta, dtype=np.float64)
        if theta.ndim != 3 or theta.shape[2] < 2:
            raise ValueError("theta logits must be (B, K, 1 + H) with H >= 1")
        out = cls.__new__(cls)
        out.scores = _sigmoid(theta[:, :, 0])
        out._frame_scores = None
        out._frame_logits = theta[:, :, 1:]
        return out

    @property
    def frame_scores(self) -> np.ndarray:
        if self._frame_scores is None:
            self._frame_scores = _sigmoid_inplace(
                np.array(self._frame_logits, order="C")
            )
        return self._frame_scores

    def kept_frame_scores(
        self, exists: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, events, scores)`` for the pairs ``exists`` keeps.

        ``rows``/``events`` are the indices of ``exists``'s True entries
        in row-major order and ``scores`` the ``(N, H)`` occurrence scores
        of those pairs, activated here if the full array has not been.
        """
        exists = np.asarray(exists, dtype=bool)
        if exists.shape != self.scores.shape:
            raise ValueError("exists must be shaped (B, K) like the scores")
        rows, events = np.nonzero(exists)
        if self._frame_scores is not None:
            return rows, events, self._frame_scores[rows, events]
        return rows, events, _sigmoid_inplace(self._frame_logits[rows, events])

    @property
    def batch_size(self) -> int:
        return self.scores.shape[0]

    @property
    def num_events(self) -> int:
        return self.scores.shape[1]

    @property
    def horizon(self) -> int:
        if self._frame_scores is not None:
            return self._frame_scores.shape[2]
        return self._frame_logits.shape[2]


class EventHit(Module):
    """EventHit: shared LSTM encoder + per-event prediction heads.

    Parameters
    ----------
    num_features:
        Covariate channel count D.
    num_events:
        Number of event types K (one head each).
    config:
        Hyper-parameters (window M, horizon H, widths, dropout, ...).
    encoder:
        "lstm" (paper architecture), "gru" (lighter recurrent ablation), or
        "mean" — an order-blind encoder that mean-pools the window and
        passes it through an MLP; the latter two feed the encoder ablation
        benchmark.
    """

    def __init__(
        self,
        num_features: int,
        num_events: int,
        config: Optional[EventHitConfig] = None,
        encoder: str = "lstm",
    ):
        super().__init__()
        if num_features <= 0 or num_events <= 0:
            raise ValueError("num_features and num_events must be positive")
        if encoder not in ("lstm", "gru", "mean"):
            raise ValueError(f"unknown encoder {encoder!r}")
        self.config = config or EventHitConfig()
        self.num_features = num_features
        self.num_events = num_events
        self.encoder_kind = encoder

        rng = np.random.default_rng(self.config.seed)
        cfg = self.config

        if encoder == "lstm":
            self.encoder = LSTM(num_features, cfg.lstm_hidden, rng=rng)
        elif encoder == "gru":
            self.encoder = GRU(num_features, cfg.lstm_hidden, rng=rng)
        else:
            self.encoder = MLP(
                num_features,
                [cfg.lstm_hidden],
                cfg.lstm_hidden,
                activation="tanh",
                rng=rng,
            )
        encoder_out = cfg.lstm_hidden

        # Fully connected + dropout layers producing the latent vector z.
        shared_layers: List[Module] = []
        previous = encoder_out
        for width in cfg.shared_hidden:
            shared_layers.append(Linear(previous, width, rng=rng))
            shared_layers.append(nn.Tanh())
            shared_layers.append(Dropout(cfg.dropout, rng=rng))
            previous = width
        self.shared = Sequential(*shared_layers)
        self.latent_dim = previous

        # One head per event: z ⊕ X_n  →  [b_k, θ_{k,1..H}], sigmoid.
        head_in = self.latent_dim + num_features
        for k in range(num_events):
            head = MLP(
                head_in,
                list(cfg.head_hidden),
                cfg.horizon + 1,
                dropout=0.0,
                activation="relu",
                output_activation="sigmoid",
                rng=rng,
            )
            setattr(self, f"head{k}", head)

    # ------------------------------------------------------------------
    def heads(self) -> List[Module]:
        return [getattr(self, f"head{k}") for k in range(self.num_events)]

    def forward(self, covariates) -> Tuple[Tensor, Tensor]:
        """Forward pass.

        Parameters
        ----------
        covariates:
            (B, M, D) array or Tensor of collection-window features.

        Returns
        -------
        ``(scores, frame_scores)`` Tensors of shapes (B, K) and (B, K, H).
        """
        x = covariates if isinstance(covariates, Tensor) else Tensor(covariates)
        if x.ndim != 3:
            raise ValueError(f"expected (B, M, D) covariates, got {x.shape}")
        if x.shape[2] != self.num_features:
            raise ValueError(
                f"expected D={self.num_features} channels, got {x.shape[2]}"
            )
        last_vector = x[:, -1, :]  # X_n, the newest feature vector

        if self.encoder_kind in ("lstm", "gru"):
            encoded = self.encoder(x)
        else:
            encoded = self.encoder(x.mean(axis=1))

        z = self.shared(encoded)
        head_input = nn.concat([z, last_vector], axis=1)

        outputs = [head(head_input) for head in self.heads()]  # each (B, H+1)
        theta = nn.stack(outputs, axis=1)  # (B, K, H+1)
        scores = theta[:, :, 0]
        frame_scores = theta[:, :, 1:]
        return scores, frame_scores
