"""Classical survival-analysis estimators (paper §VII lineage).

EventHit is "inspired by survival analysis [17], [18]" and the COX baseline
is a survival regression; this module provides the classical nonparametric
toolkit those methods rest on, implemented from scratch:

* :class:`SurvivalData` — right-censored (time, event) samples;
* :class:`KaplanMeier` — product-limit estimator of the survival function
  S(t) with Greenwood variance;
* :class:`NelsonAalen` — cumulative-hazard estimator Λ(t);
* :func:`logrank_test` — two-sample log-rank test of survival-curve
  equality.

The experiment harness uses them to characterise event inter-arrival
distributions, and the Cox baseline's Breslow step function is the
covariate-adjusted sibling of :class:`NelsonAalen`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy import stats

__all__ = [
    "SurvivalData",
    "KaplanMeier",
    "NelsonAalen",
    "LogRankResult",
    "logrank_test",
]


@dataclass(frozen=True)
class SurvivalData:
    """Right-censored survival samples.

    Attributes
    ----------
    times:
        (N,) positive observation times (event or censoring).
    events:
        (N,) indicators — 1 if the event was observed at ``times[i]``,
        0 if the observation was censored there.
    """

    times: np.ndarray
    events: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        events = np.asarray(self.events, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("times must be a non-empty 1-D array")
        if events.shape != times.shape:
            raise ValueError("events must match times in shape")
        if np.any(times <= 0):
            raise ValueError("times must be positive")
        if not set(np.unique(events)) <= {0.0, 1.0}:
            raise ValueError("events must be binary indicators")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "events", events)

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def num_events(self) -> int:
        return int(self.events.sum())

    def risk_table(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(distinct event times t_i, events d_i at t_i, at-risk n_i).

        ``n_i`` counts observations with time >= t_i, the standard
        risk-set definition.
        """
        event_times = np.unique(self.times[self.events > 0])
        deaths = np.array(
            [np.sum((self.times == t) & (self.events > 0)) for t in event_times]
        )
        at_risk = np.array([np.sum(self.times >= t) for t in event_times])
        return event_times, deaths.astype(float), at_risk.astype(float)


class KaplanMeier:
    """Product-limit estimator: Ŝ(t) = Π_{t_i ≤ t} (1 − d_i/n_i)."""

    def __init__(self, data: SurvivalData):
        self.data = data
        times, deaths, at_risk = data.risk_table()
        self.event_times = times
        with np.errstate(divide="ignore", invalid="ignore"):
            factors = 1.0 - deaths / at_risk
        self.survival_steps = np.cumprod(factors)
        # Greenwood's formula for Var[ln Ŝ]; guard the d == n boundary.
        denom = at_risk * (at_risk - deaths)
        terms = np.where(denom > 0, deaths / np.maximum(denom, 1e-300), np.inf)
        self._greenwood_cumsum = np.cumsum(terms)

    def survival(self, t) -> np.ndarray:
        """Ŝ(t) evaluated at arbitrary times (right-continuous step)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.searchsorted(self.event_times, t, side="right")
        steps = np.concatenate([[1.0], self.survival_steps])
        return steps[idx]

    def variance(self, t) -> np.ndarray:
        """Greenwood variance estimate of Ŝ(t)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.searchsorted(self.event_times, t, side="right")
        cumsum = np.concatenate([[0.0], self._greenwood_cumsum])
        s = self.survival(t)
        return s**2 * cumsum[idx]

    def confidence_band(self, t, level: float = 0.95):
        """Pointwise normal-approximation band for Ŝ(t)."""
        if not 0.0 < level < 1.0:
            raise ValueError("level must be in (0, 1)")
        s = self.survival(t)
        half = stats.norm.ppf(0.5 + level / 2) * np.sqrt(self.variance(t))
        return np.clip(s - half, 0, 1), np.clip(s + half, 0, 1)

    def median_survival_time(self) -> float:
        """Smallest event time with Ŝ(t) ≤ 0.5 (inf if never reached)."""
        below = self.survival_steps <= 0.5
        if not below.any():
            return float("inf")
        return float(self.event_times[np.argmax(below)])


class NelsonAalen:
    """Cumulative-hazard estimator: Λ̂(t) = Σ_{t_i ≤ t} d_i/n_i."""

    def __init__(self, data: SurvivalData):
        self.data = data
        times, deaths, at_risk = data.risk_table()
        self.event_times = times
        self.hazard_steps = np.cumsum(deaths / at_risk)

    def cumulative_hazard(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.searchsorted(self.event_times, t, side="right")
        steps = np.concatenate([[0.0], self.hazard_steps])
        return steps[idx]

    def survival(self, t) -> np.ndarray:
        """The Breslow-type survival transform exp(−Λ̂(t))."""
        return np.exp(-self.cumulative_hazard(t))


@dataclass(frozen=True)
class LogRankResult:
    """Outcome of a two-sample log-rank test."""

    statistic: float
    p_value: float
    observed: Tuple[float, float]
    expected: Tuple[float, float]

    @property
    def significant(self) -> bool:
        return self.p_value < 0.05


def logrank_test(group_a: SurvivalData, group_b: SurvivalData) -> LogRankResult:
    """Two-sample log-rank test of H0: identical survival functions.

    Used by the drift tooling to compare pre/post-deployment inter-arrival
    distributions: a significant statistic is independent evidence of
    occurrence-distribution drift.
    """
    times = np.concatenate([group_a.times, group_b.times])
    events = np.concatenate([group_a.events, group_b.events])
    groups = np.concatenate(
        [np.zeros(len(group_a)), np.ones(len(group_b))]
    )
    event_times = np.unique(times[events > 0])

    observed_a = 0.0
    expected_a = 0.0
    variance = 0.0
    for t in event_times:
        at_risk = times >= t
        n = at_risk.sum()
        n_a = (at_risk & (groups == 0)).sum()
        d = ((times == t) & (events > 0)).sum()
        d_a = ((times == t) & (events > 0) & (groups == 0)).sum()
        observed_a += d_a
        expected_a += d * n_a / n
        if n > 1:
            variance += d * (n_a / n) * (1 - n_a / n) * (n - d) / (n - 1)
    total_events = float(events.sum())
    observed_b = total_events - observed_a
    expected_b = total_events - expected_a
    if variance <= 0:
        return LogRankResult(0.0, 1.0, (observed_a, observed_b),
                             (expected_a, expected_b))
    statistic = (observed_a - expected_a) ** 2 / variance
    p_value = float(stats.chi2.sf(statistic, df=1))
    return LogRankResult(
        statistic=float(statistic),
        p_value=p_value,
        observed=(float(observed_a), float(observed_b)),
        expected=(float(expected_a), float(expected_b)),
    )
