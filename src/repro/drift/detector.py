"""Drift detection for event-occurrence distributions (paper §VIII).

The paper's conclusions: *"we have assumed that the occurrence of each type
of event follows a stationary underlying distribution.  For future work, it
would be interesting to investigate how to detect and adapt to changes in
the occurrence distribution over time."*  This module implements that
future work on top of the conformal machinery.

Two complementary detectors:

* :class:`PValueDriftDetector` — under exchangeability, the conformal
  p-values of *positive* records are (super-)uniform on [0, 1].  When the
  occurrence distribution drifts, EventHit's scores degrade and the
  p-values of true positives collapse toward 0.  A two-sample
  Kolmogorov–Smirnov test between a reference window (collected right
  after calibration) and a recent window flags the change.

* :class:`MissRateCusum` — a CUSUM control chart on the audited miss
  indicator stream.  C-CLASSIFY guarantees a miss rate ≤ 1 − c under
  exchangeability; auditing (fully relaying a random fraction of horizons,
  see :class:`~repro.lifecycle.LifecycleController`) yields unbiased
  miss observations, and the CUSUM accumulates evidence that the true miss
  rate exceeds the budget.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque

import numpy as np
from scipy import stats

__all__ = ["DriftVerdict", "PValueDriftDetector", "MissRateCusum"]


@dataclass(frozen=True)
class DriftVerdict:
    """Outcome of one drift check."""

    drifted: bool
    statistic: float
    threshold: float
    samples: int

    def __bool__(self) -> bool:
        return self.drifted


class PValueDriftDetector:
    """KS test between reference and recent conformal p-value windows.

    Parameters
    ----------
    window:
        Number of recent p-values compared against the reference window.
    significance:
        KS-test significance level; lower = fewer false alarms.
    min_samples:
        Both windows must hold at least this many points before a verdict
        other than "no drift" can be issued.
    """

    def __init__(
        self,
        window: int = 50,
        significance: float = 0.01,
        min_samples: int = 10,
    ):
        if window <= 0:
            raise ValueError("window must be positive")
        if not 0.0 < significance < 1.0:
            raise ValueError("significance must be in (0, 1)")
        if min_samples <= 1:
            raise ValueError("min_samples must be > 1")
        self.window = window
        self.significance = significance
        self.min_samples = min_samples
        self._reference: Deque[float] = deque(maxlen=window)
        self._recent: Deque[float] = deque(maxlen=window)
        self._reference_frozen = False

    # ------------------------------------------------------------------
    @property
    def reference_size(self) -> int:
        return len(self._reference)

    @property
    def recent_size(self) -> int:
        return len(self._recent)

    def freeze_reference(self) -> None:
        """Stop filling the reference window; subsequent points go to
        the recent window.  Called automatically once the reference fills."""
        self._reference_frozen = True

    def observe(self, p_value: float) -> None:
        """Feed one conformal p-value of a *positive* (audited) record."""
        if not 0.0 <= p_value <= 1.0:
            raise ValueError("p-values lie in [0, 1]")
        if not self._reference_frozen and len(self._reference) < self.window:
            self._reference.append(p_value)
            if len(self._reference) == self.window:
                self._reference_frozen = True
        else:
            self._recent.append(p_value)

    def observe_many(self, p_values) -> None:
        for p in np.atleast_1d(np.asarray(p_values, dtype=float)):
            self.observe(float(p))

    def check(self) -> DriftVerdict:
        """KS verdict comparing recent p-values with the reference."""
        n = min(len(self._reference), len(self._recent))
        if n < self.min_samples:
            return DriftVerdict(False, 0.0, self.significance, n)
        result = stats.ks_2samp(list(self._reference), list(self._recent))
        return DriftVerdict(
            drifted=bool(result.pvalue < self.significance),
            statistic=float(result.statistic),
            threshold=self.significance,
            samples=n,
        )

    def reset(self, keep_recent_as_reference: bool = False) -> None:
        """Clear state after adaptation.

        With ``keep_recent_as_reference`` the recent window becomes the new
        post-drift reference (the world has changed; recalibrate to it).
        The carried reference freezes as soon as it can support a verdict
        (``min_samples``), not only when completely full: a partially full
        reference that kept absorbing post-reset points would mix the two
        regimes into one baseline and stall the next verdict by a whole
        window (regression-pinned in ``tests/drift``).
        """
        if keep_recent_as_reference:
            self._reference = deque(self._recent, maxlen=self.window)
            self._reference_frozen = len(self._reference) >= self.min_samples
        else:
            self._reference = deque(maxlen=self.window)
            self._reference_frozen = False
        self._recent = deque(maxlen=self.window)

    def rebase(self, p_values) -> None:
        """Hand the detector over to a new model/calibration regime.

        Seeds the reference window from ``p_values`` — the buffered
        positives' p-values *recomputed under the new regime* — so
        detection resumes immediately instead of restarting cold, and
        without carrying stale p-values that were computed against the
        old calibration set.  The newest ``window`` values are kept, and
        the reference freezes once it can support a verdict.
        """
        values = np.atleast_1d(np.asarray(p_values, dtype=float)).ravel()
        if values.size and (values.min() < 0.0 or values.max() > 1.0):
            raise ValueError("p-values lie in [0, 1]")
        self._reference = deque(values[-self.window:], maxlen=self.window)
        self._reference_frozen = len(self._reference) >= self.min_samples
        self._recent = deque(maxlen=self.window)


class MissRateCusum:
    """One-sided CUSUM on audited miss indicators.

    Tracks S_t = max(0, S_{t-1} + (x_t − budget − slack)) where x_t ∈ {0,1}
    is "the audited horizon contained an event we failed to predict".
    Signals when S_t crosses ``threshold``.

    Parameters
    ----------
    budget:
        The guaranteed miss rate 1 − c the marshaller runs at.
    slack:
        Extra allowance before evidence accumulates (reduces false alarms
        from guarantee-level misses).
    threshold:
        Accumulated-evidence level that triggers the drift signal;
        roughly "this many excess misses beyond budget+slack".
    """

    def __init__(self, budget: float, slack: float = 0.05, threshold: float = 3.0):
        if not 0.0 <= budget < 1.0:
            raise ValueError("budget must be in [0, 1)")
        if slack < 0:
            raise ValueError("slack must be non-negative")
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.budget = budget
        self.slack = slack
        self.threshold = threshold
        self._statistic = 0.0
        self._observations = 0
        self._misses = 0

    @property
    def statistic(self) -> float:
        return self._statistic

    @property
    def observed_miss_rate(self) -> float:
        if self._observations == 0:
            return float("nan")
        return self._misses / self._observations

    def observe(self, missed: bool) -> DriftVerdict:
        """Feed one audited horizon outcome; returns the current verdict."""
        self._observations += 1
        self._misses += int(bool(missed))
        increment = float(bool(missed)) - (self.budget + self.slack)
        self._statistic = max(0.0, self._statistic + increment)
        return self.check()

    def check(self) -> DriftVerdict:
        return DriftVerdict(
            drifted=self._statistic >= self.threshold,
            statistic=self._statistic,
            threshold=self.threshold,
            samples=self._observations,
        )

    def reset(self) -> None:
        self._statistic = 0.0
        self._observations = 0
        self._misses = 0
