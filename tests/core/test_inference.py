"""Tests for threshold inference (Eqs. 4-6)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EventHitOutput,
    PredictionBatch,
    extract_intervals,
    predict_existence,
    threshold_predictions,
)
from repro.core.inference import decide_intervals


class TestPredictExistence:
    def test_threshold_inclusive(self):
        scores = np.array([[0.5, 0.49], [0.9, 0.1]])
        out = predict_existence(scores, tau1=0.5)
        np.testing.assert_array_equal(out, [[True, False], [True, False]])

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            predict_existence(np.zeros((1, 1)), tau1=1.5)

    def test_tau_zero_all_positive(self):
        assert predict_existence(np.zeros((2, 2)), tau1=0.0).all()


class TestExtractIntervals:
    def test_contiguous_block(self):
        frames = np.zeros((1, 1, 10))
        frames[0, 0, 3:7] = 0.9
        starts, ends = extract_intervals(frames, tau2=0.5)
        assert starts[0, 0] == 4 and ends[0, 0] == 7  # offsets are 1-based

    def test_discontinuous_block_spanned(self):
        """Eq. 6: min/max of above-threshold offsets — gaps are bridged."""
        frames = np.zeros((1, 1, 10))
        frames[0, 0, 1] = 0.9
        frames[0, 0, 8] = 0.9
        starts, ends = extract_intervals(frames, tau2=0.5)
        assert starts[0, 0] == 2 and ends[0, 0] == 9

    def test_argmax_fallback(self):
        frames = np.full((1, 1, 10), 0.1)
        frames[0, 0, 4] = 0.3
        starts, ends = extract_intervals(frames, tau2=0.5)
        assert starts[0, 0] == ends[0, 0] == 5

    def test_all_above_threshold_full_horizon(self):
        frames = np.full((1, 1, 8), 0.9)
        starts, ends = extract_intervals(frames, tau2=0.5)
        assert starts[0, 0] == 1 and ends[0, 0] == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            extract_intervals(np.zeros((1, 10)), tau2=0.5)
        with pytest.raises(ValueError):
            extract_intervals(np.zeros((1, 1, 10)), tau2=-0.1)

    def test_batch_independence(self):
        frames = np.zeros((2, 1, 6))
        frames[0, 0, 0] = 0.9
        frames[1, 0, 5] = 0.9
        starts, ends = extract_intervals(frames)
        assert (starts[0, 0], ends[0, 0]) == (1, 1)
        assert (starts[1, 0], ends[1, 0]) == (6, 6)


class TestPredictionBatch:
    def test_absent_events_zeroed(self):
        batch = PredictionBatch(
            exists=np.array([[True, False]]),
            starts=np.array([[2, 7]]),
            ends=np.array([[4, 9]]),
            horizon=10,
        )
        assert batch.starts[0, 1] == 0 and batch.ends[0, 1] == 0

    def test_predicted_frames(self):
        batch = PredictionBatch(
            exists=np.array([[True, False]]),
            starts=np.array([[2, 0]]),
            ends=np.array([[4, 0]]),
            horizon=10,
        )
        np.testing.assert_array_equal(batch.predicted_frames(), [[3, 0]])

    def test_validation(self):
        with pytest.raises(ValueError):
            PredictionBatch(
                exists=np.array([[True]]),
                starts=np.array([[0]]),
                ends=np.array([[5]]),
                horizon=10,
            )
        with pytest.raises(ValueError):
            PredictionBatch(
                exists=np.array([[True]]),
                starts=np.array([[5]]),
                ends=np.array([[11]]),
                horizon=10,
            )
        with pytest.raises(ValueError):
            PredictionBatch(
                exists=np.array([[True]]),
                starts=np.array([[6]]),
                ends=np.array([[5]]),
                horizon=10,
            )

    def test_with_intervals(self):
        batch = PredictionBatch(
            exists=np.array([[True]]),
            starts=np.array([[3]]),
            ends=np.array([[5]]),
            horizon=10,
        )
        widened = batch.with_intervals(np.array([[1]]), np.array([[9]]))
        assert widened.starts[0, 0] == 1 and widened.ends[0, 0] == 9
        assert batch.starts[0, 0] == 3  # original untouched


class TestThresholdPredictions:
    def test_end_to_end(self):
        scores = np.array([[0.8, 0.2]])
        frames = np.zeros((1, 2, 10))
        frames[0, 0, 2:5] = 0.9
        frames[0, 1, 7:9] = 0.9  # present scores, but event predicted absent
        out = EventHitOutput(scores, frames)
        batch = threshold_predictions(out, tau1=0.5, tau2=0.5)
        assert batch.exists[0, 0] and not batch.exists[0, 1]
        assert (batch.starts[0, 0], batch.ends[0, 0]) == (3, 5)
        assert batch.starts[0, 1] == 0

    def test_default_taus_are_half(self):
        scores = np.array([[0.5]])
        frames = np.full((1, 1, 4), 0.5)
        batch = threshold_predictions(EventHitOutput(scores, frames))
        assert batch.exists[0, 0]
        assert (batch.starts[0, 0], batch.ends[0, 0]) == (1, 4)

    def test_tau1_range_checked_here_not_in_the_shared_rule(self):
        # Serving passes the shared rule a τ1 above 1 to keep nothing; a
        # user passing it offline gets an error.
        out = EventHitOutput(np.array([[1.0]]), np.full((1, 1, 4), 0.5))
        with pytest.raises(ValueError):
            threshold_predictions(out, tau1=2.0)
        assert not decide_intervals(out, tau1=2.0).exists.any()


def where_min_max_intervals(frame_scores, tau2):
    """The five-pass where/min/max extraction, kept as the oracle for
    :func:`extract_intervals`'s argmax passes."""
    above = frame_scores >= tau2
    any_above = above.any(axis=2)
    horizon = frame_scores.shape[2]
    offsets = np.arange(1, horizon + 1)
    first = np.where(above, offsets[None, None, :], horizon + 1).min(axis=2)
    last = np.where(above, offsets[None, None, :], 0).max(axis=2)
    peak = frame_scores.argmax(axis=2) + 1
    starts = np.where(any_above, first, peak)
    ends = np.where(any_above, last, peak)
    return starts.astype(int), ends.astype(int)


class TestExtractIntervalsOracle:
    @given(
        batch=st.integers(1, 6),
        events=st.integers(1, 4),
        horizon=st.integers(1, 40),
        tau2=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_where_min_max_oracle(self, batch, events, horizon, tau2, seed):
        rng = np.random.default_rng(seed)
        # Quarter steps: ties with each other and with τ2 are common.
        scores = rng.integers(0, 5, size=(batch, events, horizon)) / 4.0
        rows = rng.random((batch, events))
        scores[rows < 0.2] = -0.5  # all below τ2 (argmax fallback, ties)
        scores[(rows >= 0.2) & (rows < 0.3)] = np.nan  # NaN rows
        partial = (rows >= 0.3) & (rows < 0.4)
        scores[partial, rng.integers(0, horizon)] = np.nan  # one NaN offset
        got = extract_intervals(scores, tau2)
        want = where_min_max_intervals(scores, tau2)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)

    def test_fallback_rows_next_to_above_rows(self):
        scores = np.array([[[0.1, 0.3, 0.3, 0.2]], [[0.1, 0.6, 0.2, 0.7]]])
        starts, ends = extract_intervals(scores, tau2=0.5)
        np.testing.assert_array_equal(starts, [[2], [2]])
        np.testing.assert_array_equal(ends, [[2], [4]])
