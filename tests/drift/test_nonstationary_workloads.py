"""Tests linking non-stationary (MMPP) workloads to the drift tooling."""

import numpy as np

from repro.survival import gaps_as_survival, logrank_test, onset_drift_test
from repro.video import MarkovModulatedPoissonArrivals
from repro.video.events import EventInstance, EventSchedule, EventType

ET = EventType("burst", duration_mean=15, duration_std=2, lead_time=60)


def schedule_from_onsets(onsets, length):
    instances = []
    last_end = -1
    for onset in onsets:
        if onset <= last_end:
            continue
        end = min(onset + 14, length - 1)
        instances.append(EventInstance(onset, end, ET))
        last_end = end
    return EventSchedule(length, instances)


class TestMMPPDriftDetection:
    def test_regime_change_detected_by_logrank(self):
        """A quiet→busy MMPP regime switch shows up as survival drift."""
        length = 300_000
        process = MarkovModulatedPoissonArrivals(
            quiet_rate=1 / 3000, busy_rate=1 / 400, switch_prob=1e-9,
        )
        rng = np.random.default_rng(0)
        quiet_onsets = process.sample(length, rng)
        busy_process = MarkovModulatedPoissonArrivals(
            quiet_rate=1 / 3000, busy_rate=1 / 400, switch_prob=1e-9,
            start_busy=True,
        )
        busy_onsets = busy_process.sample(length, np.random.default_rng(1))
        quiet_schedule = schedule_from_onsets(quiet_onsets, length)
        busy_schedule = schedule_from_onsets(busy_onsets, length)
        result = onset_drift_test(quiet_schedule, busy_schedule, ET)
        assert result.significant
        assert result.p_value < 1e-4

    def test_same_regime_not_flagged(self):
        length = 300_000
        process = MarkovModulatedPoissonArrivals(
            quiet_rate=1 / 3000, busy_rate=1 / 400, switch_prob=1e-9,
        )
        a = schedule_from_onsets(
            process.sample(length, np.random.default_rng(2)), length
        )
        b = schedule_from_onsets(
            process.sample(length, np.random.default_rng(3)), length
        )
        result = onset_drift_test(a, b, ET)
        assert result.p_value > 0.01

    def test_within_stream_window_comparison(self):
        """Compare the first and second halves of a stream that switches
        regimes mid-way — the deployment-time drift check."""
        length = 400_000
        half = length // 2
        rng = np.random.default_rng(4)
        quiet = MarkovModulatedPoissonArrivals(
            quiet_rate=1 / 4000, busy_rate=1 / 300, switch_prob=1e-9,
        ).sample(half, rng)
        busy = MarkovModulatedPoissonArrivals(
            quiet_rate=1 / 4000, busy_rate=1 / 300, switch_prob=1e-9,
            start_busy=True,
        ).sample(half, rng)
        onsets = quiet + [t + half for t in busy]
        schedule = schedule_from_onsets(onsets, length)
        first = gaps_as_survival(schedule, ET, start=0, end=half)
        second = gaps_as_survival(schedule, ET, start=half, end=length)
        result = logrank_test(first, second)
        assert result.significant
