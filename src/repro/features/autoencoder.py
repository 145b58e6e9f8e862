"""Autoencoder dimensionality reduction for covariates (paper §III).

The paper: *"Other feature engineering approaches can be utilized in this
stage, such as dimensionality reduction [26] via auto-encoders [27]."*
This module implements that alternative on the :mod:`repro.nn` substrate —
a per-frame MLP autoencoder trained to reconstruct feature vectors, whose
encoder half then maps each frame's D channels to a compact latent code
before the collection-window pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..nn import Adam, MLP, Module, Tensor, no_grad
from .extractors import FeatureMatrix

__all__ = ["Autoencoder", "AutoencoderReducer"]


class Autoencoder(Module):
    """Symmetric MLP autoencoder: D → hidden → latent → hidden → D."""

    def __init__(
        self,
        num_features: int,
        latent_dim: int,
        hidden: Sequence[int] = (32,),
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if num_features <= 0 or latent_dim <= 0:
            raise ValueError("num_features and latent_dim must be positive")
        if latent_dim >= num_features:
            raise ValueError("latent_dim must be smaller than num_features")
        rng = rng if rng is not None else np.random.default_rng()
        self.num_features = num_features
        self.latent_dim = latent_dim
        self.encoder = MLP(
            num_features, list(hidden), latent_dim, activation="tanh", rng=rng
        )
        self.decoder = MLP(
            latent_dim, list(reversed(list(hidden))), num_features,
            activation="tanh", rng=rng,
        )

    def forward(self, x: Tensor) -> Tensor:
        return self.decoder(self.encoder(x))

    def encode(self, values: np.ndarray, batch_size: int = 4096) -> np.ndarray:
        """Latent codes for a (N, D) array (eval mode, batched)."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != self.num_features:
            raise ValueError(f"expected (N, {self.num_features}) input")
        was_training = self.training
        self.eval()
        parts = []
        try:
            with no_grad():
                for lo in range(0, values.shape[0], batch_size):
                    parts.append(self.encoder(Tensor(values[lo : lo + batch_size])).data)
        finally:
            self.train(was_training)
        return np.concatenate(parts, axis=0)


@dataclass
class AutoencoderHistory:
    """Reconstruction-loss trace of autoencoder training."""

    losses: List[float] = field(default_factory=list)


class AutoencoderReducer:
    """Fit-once / transform-many reducer over feature matrices.

    Standardise inputs implicitly by fitting on already-standardised
    features (as the covariate pipeline does) or raw ones — the autoencoder
    does not care, but fit and transform must see the same convention.
    """

    def __init__(
        self,
        latent_dim: int,
        hidden: Sequence[int] = (32,),
        epochs: int = 30,
        batch_size: int = 256,
        learning_rate: float = 1e-3,
        seed: int = 0,
    ):
        if epochs <= 0 or batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.latent_dim = latent_dim
        self.hidden = tuple(hidden)
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.seed = seed
        self.model: Optional[Autoencoder] = None
        self.history = AutoencoderHistory()

    @property
    def is_fitted(self) -> bool:
        return self.model is not None

    def fit(self, features: FeatureMatrix) -> "AutoencoderReducer":
        """Train the autoencoder on a feature matrix (MSE reconstruction)."""
        rng = np.random.default_rng(self.seed)
        values = features.values
        model = Autoencoder(
            num_features=values.shape[1],
            latent_dim=self.latent_dim,
            hidden=self.hidden,
            rng=rng,
        )
        optimizer = Adam(model.parameters(), lr=self.learning_rate)
        n = values.shape[0]
        for _ in range(self.epochs):
            order = rng.permutation(n)
            epoch_loss, seen = 0.0, 0
            for lo in range(0, n, self.batch_size):
                batch = values[order[lo : lo + self.batch_size]]
                optimizer.zero_grad()
                recon = model(Tensor(batch))
                loss = ((recon - Tensor(batch)) ** 2).mean()
                loss.backward()
                optimizer.step()
                epoch_loss += loss.item() * batch.shape[0]
                seen += batch.shape[0]
            self.history.losses.append(epoch_loss / max(seen, 1))
        model.eval()
        self.model = model
        return self

    def transform(self, features: FeatureMatrix) -> FeatureMatrix:
        """Reduced feature matrix with channels ``latent:0..latent:L-1``."""
        if self.model is None:
            raise RuntimeError("fit() before transform()")
        codes = self.model.encode(features.values)
        names = [f"latent:{i}" for i in range(self.latent_dim)]
        return FeatureMatrix(codes, names)

    def reconstruction_error(self, features: FeatureMatrix) -> float:
        """Mean squared reconstruction error on a feature matrix."""
        if self.model is None:
            raise RuntimeError("fit() before reconstruction_error()")
        values = features.values
        with no_grad():
            recon = self.model(Tensor(values)).data
        return float(np.mean((recon - values) ** 2))
