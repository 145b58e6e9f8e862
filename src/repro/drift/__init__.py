"""Drift detection — the paper's §VIII future work.

* :class:`PValueDriftDetector` — KS test on positives' conformal p-values.
* :class:`MissRateCusum` — CUSUM chart on audited miss indicators against
  the 1 − c guarantee budget.

The response to a drift signal lives in
:class:`~repro.lifecycle.LifecycleController`, inside the serving loop:
recalibrate the conformal layers on audited horizons (no registry) or
retrain, canary-gate and hot-swap the model (with one).
"""

from .detector import DriftVerdict, MissRateCusum, PValueDriftDetector

__all__ = [
    "DriftVerdict",
    "PValueDriftDetector",
    "MissRateCusum",
]
