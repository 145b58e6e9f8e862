"""Score and calibrate through the serving engine, the one inference forward."""

from repro.conformal import ConformalClassifier, ConformalRegressor
from repro.core import BatchedInference


def engine_predict(model, covariates):
    """``model``'s output over ``covariates`` from a fresh serving engine."""
    return BatchedInference(model).predict(covariates)


def calibrated_classifier(model, records, nonconformity=None):
    """A C-CLASSIFY layer calibrated on ``records`` for ``model``."""
    output = engine_predict(model, records.covariates)
    return ConformalClassifier(nonconformity).calibrate(output, records)


def calibrated_regressor(model, records, tau2=0.5):
    """A C-REGRESS layer calibrated on ``records`` for ``model``."""
    output = engine_predict(model, records.covariates)
    return ConformalRegressor(tau2).calibrate(output, records)


def calibrated(model, records, tau2=0.5):
    """``(classifier, regressor)`` calibrated on one forward over ``records``."""
    output = engine_predict(model, records.covariates)
    return (
        ConformalClassifier().calibrate(output, records),
        ConformalRegressor(tau2).calibrate(output, records),
    )
