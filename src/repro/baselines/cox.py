"""COX — Cox proportional-hazards survival baseline (§VI.B item 7).

The paper adapts Cox's model [39]: fit a survival regression on the
covariates where the "survival time" is the offset of the next event onset
within the horizon (records without the event are right-censored at H).
At prediction time, scan the horizon for the first frame whose cumulative
event probability crosses a threshold τ_cox and assume the event runs from
that frame to the end of the horizon (the paper notes the Cox model can
only regress one variable, so the end point is not modelled).

Everything is implemented from scratch: Newton–Raphson maximisation of the
ridge-penalised Breslow partial likelihood, then the Breslow estimator of
the baseline cumulative hazard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.inference import PredictionBatch
from ..data.records import RecordSet

__all__ = ["CoxModel", "CoxPredictor"]


def _window_features(records: RecordSet) -> np.ndarray:
    """Collapse (B, M, D) covariates to (B, D) by window mean.

    The Cox model is linear in a fixed-size covariate vector; the mean of
    the collection window is the standard summary.
    """
    return records.covariates.mean(axis=1)


@dataclass
class CoxModel:
    """A fitted Cox PH model for one event type."""

    beta: np.ndarray  # (D,)
    baseline_times: np.ndarray  # (T,) sorted distinct event times
    baseline_hazard: np.ndarray  # (T,) Breslow increments dΛ0
    feature_mean: np.ndarray  # centring used at fit time

    def risk(self, x: np.ndarray) -> np.ndarray:
        """exp(xβ) for (B, D) covariates."""
        x = np.atleast_2d(x) - self.feature_mean
        return np.exp(np.clip(x @ self.beta, -30, 30))

    def cumulative_hazard(self, t: np.ndarray) -> np.ndarray:
        """Λ0(t) via the Breslow step function."""
        t = np.atleast_1d(t)
        idx = np.searchsorted(self.baseline_times, t, side="right")
        cum = np.concatenate([[0.0], np.cumsum(self.baseline_hazard)])
        return cum[idx]

    def survival(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        """S(t | x) = exp(−Λ0(t)·exp(xβ)) for (B, D) x and (T,) t → (B, T)."""
        risk = self.risk(x)  # (B,)
        lam = self.cumulative_hazard(t)  # (T,)
        return np.exp(-np.outer(risk, lam))


def fit_cox(
    features: np.ndarray,
    times: np.ndarray,
    events: np.ndarray,
    ridge: float = 1e-3,
    max_iter: int = 50,
    tol: float = 1e-7,
) -> CoxModel:
    """Fit Cox PH by Newton–Raphson on the Breslow partial likelihood.

    Parameters
    ----------
    features:
        (B, D) covariates.
    times:
        (B,) event/censoring times (positive ints).
    events:
        (B,) 1 if the event was observed at ``times``, 0 if censored.
    ridge:
        L2 penalty keeping the Hessian well conditioned.
    """
    features = np.asarray(features, dtype=float)
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=float)
    if features.ndim != 2:
        raise ValueError("features must be (B, D)")
    b, d = features.shape
    if times.shape != (b,) or events.shape != (b,):
        raise ValueError("times and events must be (B,)")
    if np.any(times <= 0):
        raise ValueError("times must be positive")
    if not set(np.unique(events)) <= {0.0, 1.0}:
        raise ValueError("events must be binary")

    mean = features.mean(axis=0)
    x = features - mean
    order = np.argsort(times)
    x, times_sorted, events_sorted = x[order], times[order], events[order]

    beta = np.zeros(d)
    for _ in range(max_iter):
        eta = np.clip(x @ beta, -30, 30)
        w = np.exp(eta)
        # Reverse cumulative sums give the risk-set aggregates at each time.
        s0 = np.cumsum(w[::-1])[::-1]  # Σ_{j in R(t_i)} w_j
        s1 = np.cumsum((w[:, None] * x)[::-1], axis=0)[::-1]  # (B, D)
        grad = np.zeros(d)
        hess = np.zeros((d, d))
        for i in np.flatnonzero(events_sorted > 0):
            xbar = s1[i] / s0[i]
            grad += x[i] - xbar
            # E[xx^T] over risk set, computed lazily below.
            risk_slice = slice(i, b)
            xw = x[risk_slice] * w[risk_slice, None]
            s2 = x[risk_slice].T @ xw / s0[i]
            hess -= s2 - np.outer(xbar, xbar)
        grad -= ridge * beta
        hess -= ridge * np.eye(d)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        beta_new = beta - step
        if np.max(np.abs(beta_new - beta)) < tol:
            beta = beta_new
            break
        beta = beta_new

    # Breslow baseline hazard increments at distinct event times.
    eta = np.clip(x @ beta, -30, 30)
    w = np.exp(eta)
    s0 = np.cumsum(w[::-1])[::-1]
    event_times = times_sorted[events_sorted > 0]
    distinct = np.unique(event_times)
    increments = np.zeros(distinct.size)
    for j, t in enumerate(distinct):
        at_t = (times_sorted == t) & (events_sorted > 0)
        first_idx = np.searchsorted(times_sorted, t, side="left")
        increments[j] = at_t.sum() / s0[first_idx]
    return CoxModel(
        beta=beta,
        baseline_times=distinct,
        baseline_hazard=increments,
        feature_mean=mean,
    )


class CoxPredictor:
    """The §VI.B COX strategy: one Cox model per event type.

    Fit with :meth:`fit` on training records, then sweep ``tau`` in
    :meth:`predict` for the REC–SPL curve.
    """

    name = "COX"

    def __init__(self, ridge: float = 1e-3):
        self.ridge = ridge
        self._models: Optional[List[CoxModel]] = None
        self._horizon: Optional[int] = None

    @property
    def is_fitted(self) -> bool:
        return self._models is not None

    def fit(self, train: RecordSet) -> "CoxPredictor":
        features = _window_features(train)
        models = []
        for k in range(train.num_events):
            present = train.labels[:, k] > 0
            times = np.where(present, train.starts[:, k], train.horizon).astype(float)
            times = np.maximum(times, 1.0)
            models.append(
                fit_cox(features, times, present.astype(float), ridge=self.ridge)
            )
        self._models = models
        self._horizon = train.horizon
        return self

    def predict(self, records: RecordSet, **knobs) -> PredictionBatch:
        """Threshold scan: start = first t with 1 − S(t|x) ≥ τ; end = H."""
        tau = knobs.pop("tau", 0.5)
        if knobs:
            raise TypeError(f"unexpected knobs {sorted(knobs)}")
        if self._models is None:
            raise RuntimeError("call fit() before predict()")
        if not 0.0 < tau < 1.0:
            raise ValueError("tau must be in (0, 1)")
        if records.horizon != self._horizon:
            raise ValueError("records horizon differs from the fitted horizon")
        features = _window_features(records)
        horizon = records.horizon
        grid = np.arange(1, horizon + 1, dtype=float)
        b, k = records.labels.shape
        exists = np.zeros((b, k), dtype=bool)
        starts = np.zeros((b, k), dtype=int)
        ends = np.zeros((b, k), dtype=int)
        for j, model in enumerate(self._models):
            survival = model.survival(features, grid)  # (B, H)
            crossed = (1.0 - survival) >= tau
            any_cross = crossed.any(axis=1)
            first = np.where(crossed, grid[None, :], horizon + 1).min(axis=1)
            exists[:, j] = any_cross
            starts[:, j] = np.where(any_cross, first.astype(int), 0)
            ends[:, j] = np.where(any_cross, horizon, 0)
        return PredictionBatch(exists=exists, starts=starts, ends=ends, horizon=horizon)
