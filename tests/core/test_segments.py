"""Tests for multi-instance interval segments (paper footnote 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import extract_interval_segments, extract_intervals
from repro.metrics import recall_from_masks, spillage_from_masks


def scores_from_runs(runs, horizon=20):
    scores = np.full((1, 1, horizon), 0.1)
    for start, end in runs:
        scores[0, 0, start - 1 : end] = 0.9
    return scores


class TestExtractSegments:
    def test_single_run(self):
        segments = extract_interval_segments(scores_from_runs([(3, 7)]))
        assert segments[0][0] == [(3, 7)]

    def test_two_runs_kept_separate(self):
        segments = extract_interval_segments(
            scores_from_runs([(2, 4), (15, 18)]), min_gap=5
        )
        assert segments[0][0] == [(2, 4), (15, 18)]

    def test_close_runs_merged(self):
        segments = extract_interval_segments(
            scores_from_runs([(2, 4), (7, 9)]), min_gap=5
        )
        assert segments[0][0] == [(2, 9)]

    def test_min_gap_boundary(self):
        # Gap of exactly min_gap offsets stays split.
        segments = extract_interval_segments(
            scores_from_runs([(2, 4), (8, 9)]), min_gap=3
        )
        assert segments[0][0] == [(2, 4), (8, 9)]
        segments = extract_interval_segments(
            scores_from_runs([(2, 4), (7, 9)]), min_gap=3
        )
        assert segments[0][0] == [(2, 9)]

    def test_argmax_fallback(self):
        scores = np.full((1, 1, 10), 0.2)
        scores[0, 0, 6] = 0.4
        segments = extract_interval_segments(scores, tau2=0.5)
        assert segments[0][0] == [(7, 7)]

    def test_full_horizon(self):
        scores = np.full((1, 1, 8), 0.9)
        assert extract_interval_segments(scores)[0][0] == [(1, 8)]

    def test_validation(self):
        with pytest.raises(ValueError):
            extract_interval_segments(np.zeros((1, 10)))
        with pytest.raises(ValueError):
            extract_interval_segments(np.zeros((1, 1, 10)), tau2=2.0)
        with pytest.raises(ValueError):
            extract_interval_segments(np.zeros((1, 1, 10)), min_gap=0)

    def test_span_consistency_with_eq6(self):
        """The segments' overall span equals Eq. 6's single interval."""
        scores = scores_from_runs([(2, 4), (10, 12), (17, 19)])
        segments = extract_interval_segments(scores, min_gap=1)[0][0]
        starts, ends = extract_intervals(scores)
        assert segments[0][0] == starts[0, 0]
        assert segments[-1][1] == ends[0, 0]

    def test_multi_event_batch(self):
        scores = np.full((2, 2, 10), 0.1)
        scores[0, 1, 0:3] = 0.9
        scores[1, 0, 5:7] = 0.9
        segments = extract_interval_segments(scores)
        assert segments[0][1] == [(1, 3)]
        assert segments[1][0] == [(6, 7)]

    @given(st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_segments_reconstruct_threshold_mask(self, seed):
        """With min_gap=1, segments exactly tile the above-threshold set."""
        rng = np.random.default_rng(seed)
        scores = rng.random((1, 1, 30))
        segments = extract_interval_segments(scores, tau2=0.5, min_gap=1)
        above = scores[0, 0] >= 0.5
        if above.any():
            mask = np.zeros(30, dtype=bool)
            for start, end in segments[0][0]:
                mask[start - 1 : end] = True
            np.testing.assert_array_equal(mask, above)


class TestMaskMetrics:
    def test_perfect_recall_zero_spillage(self):
        truth = np.zeros((1, 1, 10), dtype=bool)
        truth[0, 0, 2:5] = True
        assert recall_from_masks(truth, truth) == 1.0
        assert spillage_from_masks(truth, truth) == 0.0

    def test_relay_everything(self):
        truth = np.zeros((1, 1, 10), dtype=bool)
        truth[0, 0, 2:5] = True
        relay = np.ones_like(truth)
        assert recall_from_masks(relay, truth) == 1.0
        assert spillage_from_masks(relay, truth) == 1.0

    def test_partial(self):
        truth = np.zeros((1, 1, 10), dtype=bool)
        truth[0, 0, 0:4] = True
        relay = np.zeros_like(truth)
        relay[0, 0, 2:6] = True
        assert recall_from_masks(relay, truth) == pytest.approx(0.5)
        assert spillage_from_masks(relay, truth) == pytest.approx(2 / 6)

    def test_nan_cases(self):
        empty_truth = np.zeros((1, 1, 4), dtype=bool)
        assert np.isnan(recall_from_masks(empty_truth, empty_truth))
        full_truth = np.ones((1, 1, 4), dtype=bool)
        assert np.isnan(spillage_from_masks(full_truth, full_truth))

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            recall_from_masks(np.zeros((1, 1, 4)), np.zeros((1, 1, 5)))
        with pytest.raises(ValueError):
            spillage_from_masks(np.zeros((4,)), np.zeros((4,)))

    @given(st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_bounded(self, seed):
        rng = np.random.default_rng(seed)
        relay = rng.random((2, 2, 12)) < 0.4
        truth = rng.random((2, 2, 12)) < 0.3
        for value in (recall_from_masks(relay, truth),
                      spillage_from_masks(relay, truth)):
            assert np.isnan(value) or 0.0 <= value <= 1.0
