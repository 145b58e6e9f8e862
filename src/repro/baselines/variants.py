"""The four EventHit variants of §VI.B: one rule, the one serving decides
through (:func:`~repro.core.inference.decide_intervals`), with two switches:

* **EHO** — raw EventHit output with thresholds τ1/τ2 (Eqs. 4–6);
* **EHC** — C-CLASSIFY existence (knob c) + Eq. 5 intervals;
* **EHR** — Eq. 4 existence + C-REGRESS intervals (knob α);
* **EHCR** — C-CLASSIFY + C-REGRESS (knobs c and α).
"""

from __future__ import annotations

from typing import Optional

from ..conformal.classify import ConformalClassifier
from ..conformal.regress import ConformalRegressor
from ..core.inference import PredictionBatch, decide_intervals
from ..core.model import EventHit
from ..data.records import RecordSet
from .base import OutputCache

__all__ = ["EventHitRule", "EHO", "EHC", "EHR", "EHCR"]


class EventHitRule:
    """A trained model, a forward-pass cache and the §VI.B decision rule.

    The layers it holds name it (EHO, EHC, EHR or EHCR) and fix its knobs:
    ``confidence`` with a classifier, else ``tau1``, for existence;
    ``alpha`` with a regressor, else ``tau2``, for intervals.  The
    constructor's values are the knobs' defaults; :meth:`predict` accepts
    overrides of those knobs only.  C-REGRESS extracts its raw intervals
    at the regressor's own τ2.
    """

    def __init__(
        self,
        model: EventHit,
        classifier: Optional[ConformalClassifier] = None,
        regressor: Optional[ConformalRegressor] = None,
        confidence: float = 0.9,
        alpha: float = 0.9,
        tau1: float = 0.5,
        tau2: float = 0.5,
    ):
        if classifier is not None and not classifier.is_calibrated:
            raise ValueError("classifier must be calibrated")
        if regressor is not None and not regressor.is_calibrated:
            raise ValueError("regressor must be calibrated")
        self.model = model
        self.classifier = classifier
        self.regressor = regressor
        layers = "C" * (classifier is not None) + "R" * (regressor is not None)
        self.name = "EH" + (layers or "O")
        self.knobs = {
            **({"tau1": tau1} if classifier is None else {"confidence": confidence}),
            **({"tau2": tau2} if regressor is None else {"alpha": alpha}),
        }
        self._cache = OutputCache(model)

    def predict(self, records: RecordSet, **knobs) -> PredictionBatch:
        unknown = knobs.keys() - self.knobs.keys()
        if unknown:
            raise TypeError(f"unexpected knobs {sorted(unknown)}")
        knobs = {**self.knobs, **knobs}
        if "tau1" in knobs and not 0.0 <= knobs["tau1"] <= 1.0:
            raise ValueError("tau1 must be in [0, 1]")
        return decide_intervals(
            self._cache.output_for(records), self.classifier, self.regressor, **knobs
        )


def EHO(model: EventHit, tau1: float = 0.5, tau2: float = 0.5) -> EventHitRule:
    """EventHit output only; both thresholds default to 0.5 (§VI.B item 1)."""
    return EventHitRule(model, tau1=tau1, tau2=tau2)


def EHC(
    model: EventHit,
    classifier: ConformalClassifier,
    confidence: float = 0.9,
    tau2: float = 0.5,
) -> EventHitRule:
    """C-CLASSIFY existence + EventHit intervals (§VI.B item 2).

    The classifier must already be calibrated on D_c-calib.
    """
    return EventHitRule(model, classifier=classifier, confidence=confidence, tau2=tau2)


def EHR(
    model: EventHit,
    regressor: ConformalRegressor,
    alpha: float = 0.9,
    tau1: float = 0.5,
) -> EventHitRule:
    """EventHit existence + C-REGRESS intervals (§VI.B item 3)."""
    return EventHitRule(model, regressor=regressor, alpha=alpha, tau1=tau1)


def EHCR(
    model: EventHit,
    classifier: ConformalClassifier,
    regressor: ConformalRegressor,
    confidence: float = 0.9,
    alpha: float = 0.9,
) -> EventHitRule:
    """C-CLASSIFY + C-REGRESS: the full proposal (§VI.B item 4)."""
    return EventHitRule(
        model, classifier, regressor, confidence=confidence, alpha=alpha
    )
