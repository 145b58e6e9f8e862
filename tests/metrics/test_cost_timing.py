"""Tests for the expense and timing models."""

import numpy as np
import pytest

from repro.core.inference import PredictionBatch
from repro.data import RecordSet
from repro.metrics import (
    REKOGNITION_PRICE_PER_FRAME,
    StageBreakdown,
    TimingModel,
    brute_force_expense,
    expense,
    optimal_expense,
)
from repro.video.events import EventType

H = 10


def make_records():
    return RecordSet(
        event_types=[EventType("a", 3, 1)],
        horizon=H,
        frames=np.arange(3),
        covariates=np.zeros((3, 2, 1)),
        labels=np.array([[1.0], [1.0], [0.0]]),
        starts=np.array([[2], [5], [0]]),
        ends=np.array([[4], [9], [0]]),
        censored=np.zeros((3, 1)),
    )


class TestExpense:
    def test_rekognition_price(self):
        assert REKOGNITION_PRICE_PER_FRAME == 0.001

    def test_expense_counts_relayed_frames(self):
        pred = PredictionBatch(
            exists=np.array([[True], [False], [True]]),
            starts=np.array([[1], [0], [3]]),
            ends=np.array([[5], [0], [4]]),
            horizon=H,
        )
        # 5 + 0 + 2 = 7 frames
        assert expense(pred) == pytest.approx(7 * 0.001)
        assert expense(pred, price_per_frame=0.01) == pytest.approx(0.07)

    def test_optimal_expense(self):
        # true frames: 3 + 5 = 8
        assert optimal_expense(make_records()) == pytest.approx(0.008)

    def test_brute_force_expense(self):
        # 3 records × 1 event × 10 frames
        assert brute_force_expense(make_records()) == pytest.approx(0.030)

    def test_ordering_opt_le_bf(self):
        records = make_records()
        assert optimal_expense(records) <= brute_force_expense(records)

    def test_negative_price_rejected(self):
        pred = PredictionBatch(np.array([[False]]), np.array([[0]]),
                               np.array([[0]]), H)
        with pytest.raises(ValueError):
            expense(pred, price_per_frame=-1)
        with pytest.raises(ValueError):
            optimal_expense(make_records(), price_per_frame=-1)
        with pytest.raises(ValueError):
            brute_force_expense(make_records(), price_per_frame=-1)


class TestStageBreakdown:
    def test_total_and_proportions(self):
        bd = StageBreakdown(feature_extraction=1.0, predictor=0.5,
                            cloud_inference=2.5)
        assert bd.total == 4.0
        props = bd.proportions()
        assert props["feature_extraction"] == pytest.approx(0.25)
        assert props["cloud_inference"] == pytest.approx(0.625)
        assert sum(props.values()) == pytest.approx(1.0)

    def test_zero_total_raises(self):
        with pytest.raises(ValueError):
            StageBreakdown(0, 0, 0).proportions()


class TestTimingModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimingModel(feature_fps=0)
        with pytest.raises(ValueError):
            TimingModel(ci_fps=0)
        with pytest.raises(ValueError):
            TimingModel(predictor_latency=-1)

    def test_pipeline_arithmetic(self):
        model = TimingModel(feature_fps=100, predictor_latency=0.01, ci_fps=10)
        timing = model.pipeline(
            frames_covered=1000,
            frames_featurized=1000,
            predictions_made=10,
            frames_relayed=100,
        )
        assert timing.breakdown.feature_extraction == pytest.approx(10.0)
        assert timing.breakdown.predictor == pytest.approx(0.1)
        assert timing.breakdown.cloud_inference == pytest.approx(10.0)
        assert timing.fps == pytest.approx(1000 / 20.1)

    def test_fewer_relayed_frames_higher_fps(self):
        model = TimingModel()
        fast = model.pipeline(1000, 1000, 10, 50)
        slow = model.pipeline(1000, 1000, 10, 800)
        assert fast.fps > slow.fps

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            TimingModel().pipeline(-1, 0, 0, 0)

    def test_ci_dominates_default_calibration(self):
        """Fig. 10 shape: CI >> feature extraction >> predictor."""
        model = TimingModel()
        # A typical EHCR run: ~15% of frames relayed.
        timing = model.pipeline(10_000, 10_000, 400, 1500)
        props = timing.breakdown.proportions()
        assert props["cloud_inference"] > 0.6
        assert props["feature_extraction"] < 0.3
        assert props["predictor"] < 0.02

    def test_triple_digit_fps_feasible_at_low_relay(self):
        """Fig. 9 shape: EHCR-like relay fractions sustain >100 FPS."""
        model = TimingModel()
        timing = model.pipeline(10_000, 10_000, 400, 1500)
        assert timing.fps > 100

    def test_infinite_fps_with_zero_work(self):
        timing = TimingModel().pipeline(100, 0, 0, 0)
        assert timing.fps == float("inf")
