"""Conformal prediction layer: the paper's two novel optimizations.

* :class:`ConformalClassifier` — C-CLASSIFY (§IV, Algorithm 1), tunable
  existence recall via the confidence level c.
* :class:`ConformalRegressor` — C-REGRESS (§V, Algorithm 2), tunable
  interval coverage via the level α.
"""

from .base import (
    conformal_p_values,
    margin_nonconformity,
    nonconformity_from_score,
    residual_quantile,
)
from .classify import ConformalClassifier
from .regress import ConformalRegressor

__all__ = [
    "conformal_p_values",
    "nonconformity_from_score",
    "margin_nonconformity",
    "residual_quantile",
    "ConformalClassifier",
    "ConformalRegressor",
]
