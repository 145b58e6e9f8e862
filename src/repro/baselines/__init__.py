"""All algorithms compared in §VI.B.

EventHit decision rules: :class:`EventHitRule`, the rule serving decides
through, in the configurations :func:`EHO`, :func:`EHC`, :func:`EHR` and
:func:`EHCR`.  Reference points: :class:`Oracle` (OPT) and
:class:`BruteForce` (BF).  External baselines: :class:`CoxPredictor`
(survival regression), :class:`VQSPredictor` (BlazeIt-style filter), and
:class:`PointProcessPredictor` (APP-VAE surrogate).
"""

from .base import OutputCache, Predictor
from .variants import EHC, EHCR, EHO, EHR, EventHitRule
from .oracle import Oracle
from .brute_force import BruteForce
from .cox import CoxModel, CoxPredictor, fit_cox
from .vqs import TrainedVQSPredictor, VQSPredictor
from .appvae import PointProcessPredictor

__all__ = [
    "Predictor",
    "OutputCache",
    "EventHitRule",
    "EHO",
    "EHC",
    "EHR",
    "EHCR",
    "Oracle",
    "BruteForce",
    "CoxPredictor",
    "CoxModel",
    "fit_cox",
    "VQSPredictor",
    "TrainedVQSPredictor",
    "PointProcessPredictor",
]
