"""First-order optimisers for :mod:`repro.nn` parameters.

EventHit is trained with Adam in our reproduction (the paper does not name
its optimiser; Adam is the standard choice for small LSTM models and is what
the DeepHit lineage the paper cites uses).  SGD with momentum is provided for
ablations and tests.

Both optimisers are part of the fused training fast path: ``step()`` updates
moments and parameters strictly in place through a single preallocated
scratch buffer per parameter (no per-step temporaries in the default
no-weight-decay configuration), and ``zero_grad()`` is lazy — it drops
gradients to ``None`` instead of zero-filling, so parameters untouched by a
backward pass cost nothing in ``step()``.  Because a silently skipped
``None`` gradient is also how a lazy-zero_grad regression would hide,
``step()`` counts skips into the ``train.params_skipped`` observability
counter.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from ..obs import inc
from .layers import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "clip_grad_norm"]


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in-place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm, mirroring the torch utility.  LSTMs are
    prone to occasional exploding gradients; the EventHit trainer clips at a
    configurable norm every step.  ``max_norm`` is validated *before* any
    norm computation, and the reduction short-circuits when no parameter
    carries a gradient (the common lazy-``zero_grad`` case for frozen
    sub-networks).
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    params = [p for p in parameters if p.grad is not None]
    if not params:
        return 0.0
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in params)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total


class Optimizer:
    """Base optimiser holding a parameter list."""

    def __init__(self, parameters: Iterable[Parameter]):
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    @staticmethod
    def _count_skipped(skipped: int) -> None:
        """Publish silently skipped ``None``-grad parameters.

        Lazy ``zero_grad`` makes a missing gradient legal; the
        ``train.params_skipped`` counter keeps an unexpected regression
        (e.g. a backward pass that stopped reaching the encoder) visible
        in the metrics registry instead of silently freezing weights.
        """
        if skipped:
            inc("train.params_skipped", skipped)


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-2,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        skipped = 0
        for p, v in zip(self.parameters, self._velocity):
            if p.grad is None:
                skipped += 1
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += grad
                grad = v
            p.data -= self.lr * grad
        self._count_skipped(skipped)


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction.

    ``step()`` is fully in place: per parameter it reuses one preallocated
    scratch buffer for every intermediate (the ``(1-β)·g`` terms, ``g²``,
    and the ``√v̂ + ε`` denominator), so the hot training loop performs no
    per-step array allocation.  The update folds the bias corrections into
    scalar factors — ``p ← p − (lr/c₁) · m / (√(v/c₂) + ε)`` — which is
    algebraically identical to the textbook form.
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.lr = lr
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._scratch = [np.empty_like(p.data) for p in self.parameters]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        correction1 = 1.0 - b1**self._t
        correction2 = 1.0 - b2**self._t
        step_scale = self.lr / correction1
        skipped = 0
        for p, m, v, buf in zip(self.parameters, self._m, self._v, self._scratch):
            if p.grad is None:
                skipped += 1
                continue
            grad = p.grad
            if self.weight_decay:
                # Decay needs grad twice while ``buf`` is busy, so this
                # (ablation-only) branch pays one temporary.
                grad = grad + self.weight_decay * p.data
            np.multiply(grad, 1.0 - b1, out=buf)
            m *= b1
            m += buf
            np.multiply(grad, grad, out=buf)
            buf *= 1.0 - b2
            v *= b2
            v += buf
            np.divide(v, correction2, out=buf)
            np.sqrt(buf, out=buf)
            buf += self.eps
            np.divide(m, buf, out=buf)
            buf *= step_scale
            p.data -= buf
        self._count_skipped(skipped)
