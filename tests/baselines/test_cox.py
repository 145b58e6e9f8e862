"""Tests for the from-scratch Cox proportional-hazards baseline."""

import numpy as np
import pytest

from repro.baselines import CoxPredictor, fit_cox
from repro.data import RecordSet
from repro.metrics import existence_recall, spillage
from repro.video.events import EventType

H = 30


def survival_dataset(b=400, seed=0, effect=1.5):
    """Exponential survival times whose rate depends on one covariate."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(b, 2))
    rate = 0.08 * np.exp(effect * x[:, 0])
    times = rng.exponential(1.0 / rate)
    censor_at = 25.0
    events = (times <= censor_at).astype(float)
    observed = np.minimum(times, censor_at)
    return x, np.maximum(observed, 1.0), events


class TestFitCox:
    def test_recovers_effect_direction_and_size(self):
        x, times, events = survival_dataset()
        model = fit_cox(x, times, events)
        assert model.beta[0] > 1.0, "strong positive effect expected"
        assert abs(model.beta[1]) < 0.4, "null covariate should be near zero"

    def test_cumulative_hazard_monotone(self):
        x, times, events = survival_dataset()
        model = fit_cox(x, times, events)
        grid = np.linspace(0, 30, 50)
        hazard = model.cumulative_hazard(grid)
        assert np.all(np.diff(hazard) >= 0)
        assert hazard[0] == 0.0

    def test_survival_decreasing_in_time_and_risk(self):
        x, times, events = survival_dataset()
        model = fit_cox(x, times, events)
        grid = np.arange(1.0, 26.0)
        low_risk = np.array([[-1.0, 0.0]])
        high_risk = np.array([[1.0, 0.0]])
        s_low = model.survival(low_risk, grid)[0]
        s_high = model.survival(high_risk, grid)[0]
        assert np.all(np.diff(s_low) <= 1e-12)
        assert np.all(s_high <= s_low + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_cox(np.zeros(5), np.ones(5), np.ones(5))
        with pytest.raises(ValueError):
            fit_cox(np.zeros((5, 2)), np.ones(4), np.ones(5))
        with pytest.raises(ValueError):
            fit_cox(np.zeros((5, 2)), np.zeros(5), np.ones(5))
        with pytest.raises(ValueError):
            fit_cox(np.zeros((5, 2)), np.ones(5), np.full(5, 2.0))

    def test_no_events_all_censored_is_stable(self):
        x = np.random.default_rng(0).normal(size=(20, 2))
        model = fit_cox(x, np.full(20, 10.0), np.zeros(20))
        np.testing.assert_allclose(model.beta, 0, atol=1e-6)
        assert model.baseline_times.size == 0


def records_with_signal(b=300, seed=0):
    """Records where covariate channel 0's window mean predicts onset."""
    rng = np.random.default_rng(seed)
    labels = (rng.random((b, 1)) < 0.6).astype(float)
    covariates = rng.normal(0, 0.3, size=(b, 5, 3))
    starts = np.zeros((b, 1), dtype=int)
    ends = np.zeros((b, 1), dtype=int)
    for i in range(b):
        if labels[i, 0]:
            start = int(rng.integers(1, H - 5))
            starts[i, 0] = start
            ends[i, 0] = min(H, start + 5)
            covariates[i, :, 0] += 2.0 * (1.0 - start / H)
    return RecordSet(
        event_types=[EventType("e", 6, 1)],
        horizon=H,
        frames=np.arange(b),
        covariates=covariates,
        labels=labels,
        starts=starts,
        ends=ends,
        censored=np.zeros((b, 1)),
    )


class TestCoxPredictor:
    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            CoxPredictor().predict(records_with_signal(b=10))

    def test_tau_validation(self):
        cox = CoxPredictor().fit(records_with_signal(b=50, seed=1))
        with pytest.raises(ValueError):
            cox.predict(records_with_signal(b=10), tau=0.0)

    def test_rejects_unknown_knobs(self):
        cox = CoxPredictor().fit(records_with_signal(b=50, seed=1))
        with pytest.raises(TypeError):
            cox.predict(records_with_signal(b=10), alpha=0.5)

    def test_horizon_mismatch(self):
        cox = CoxPredictor().fit(records_with_signal(b=50, seed=1))
        other = records_with_signal(b=10)
        object.__setattr__(other, "horizon", H)  # same H is fine
        cox.predict(other, tau=0.5)

    def test_intervals_run_to_horizon_end(self):
        cox = CoxPredictor().fit(records_with_signal(seed=1))
        pred = cox.predict(records_with_signal(b=50, seed=2), tau=0.3)
        relayed = pred.exists
        assert relayed.any()
        assert np.all(pred.ends[relayed] == H)

    def test_lower_tau_more_positives(self):
        cox = CoxPredictor().fit(records_with_signal(seed=1))
        test = records_with_signal(b=100, seed=2)
        loose = cox.predict(test, tau=0.1)
        strict = cox.predict(test, tau=0.9)
        assert loose.exists.sum() >= strict.exists.sum()

    def test_recall_spillage_tradeoff(self):
        cox = CoxPredictor().fit(records_with_signal(seed=1))
        test = records_with_signal(b=200, seed=2)
        loose = cox.predict(test, tau=0.2)
        strict = cox.predict(test, tau=0.8)
        assert existence_recall(loose, test) >= existence_recall(strict, test)
        assert spillage(loose, test) >= spillage(strict, test)

    def test_beats_chance_on_learnable_task(self):
        cox = CoxPredictor().fit(records_with_signal(seed=1))
        test = records_with_signal(b=200, seed=2)
        pred = cox.predict(test, tau=0.4)
        rec_c = existence_recall(pred, test)
        spl = spillage(pred, test)
        # Informative covariate ⇒ meaningfully better than relay-everything.
        assert rec_c > 0.6
        assert spl < 0.95

    def test_multi_event_records(self):
        rng = np.random.default_rng(0)
        single = records_with_signal(b=80, seed=3)
        double = RecordSet(
            event_types=single.event_types * 2,
            horizon=H,
            frames=single.frames,
            covariates=single.covariates,
            labels=np.hstack([single.labels, single.labels]),
            starts=np.hstack([single.starts, single.starts]),
            ends=np.hstack([single.ends, single.ends]),
            censored=np.hstack([single.censored, single.censored]),
        )
        cox = CoxPredictor().fit(double)
        pred = cox.predict(double, tau=0.5)
        assert pred.exists.shape == (80, 2)
