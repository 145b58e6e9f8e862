"""Tests for the run extractor: Eq. 6 spans and footnote-1 runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EventHitOutput, kept_pair_runs
from repro.core.inference import merge_runs
from repro.metrics import recall_from_masks, spillage_from_masks
from tests.helpers import loop_runs


def scores_from_runs(runs, horizon=20):
    scores = np.full((1, 1, horizon), 0.1)
    for start, end in runs:
        scores[0, 0, start - 1 : end] = 0.9
    return scores


def nested_runs(scores, tau2=0.5, min_gap=1, exists=None):
    """:func:`kept_pair_runs` over every pair of ``(B, K, H)`` scores (or
    those ``exists`` keeps) as ``runs[b][k] = [(start, end), ...]``."""
    scores = np.asarray(scores, dtype=float)
    if exists is None:
        exists = np.ones(scores.shape[:2], dtype=bool)
    output = EventHitOutput(np.ones(scores.shape[:2]), scores)
    rows, cols, starts, ends = kept_pair_runs(output, exists, tau2, min_gap)
    runs = [[[] for _ in range(scores.shape[1])] for _ in range(scores.shape[0])]
    for row, col, start, end in zip(
        rows.tolist(), cols.tolist(), starts.tolist(), ends.tolist()
    ):
        runs[row][col].append((start, end))
    return runs


class TestExtractSegments:
    def test_single_run(self):
        segments = nested_runs(scores_from_runs([(3, 7)]))
        assert segments[0][0] == [(3, 7)]

    def test_two_runs_kept_separate(self):
        segments = nested_runs(scores_from_runs([(2, 4), (15, 18)]), min_gap=5)
        assert segments[0][0] == [(2, 4), (15, 18)]

    def test_close_runs_merged(self):
        segments = nested_runs(scores_from_runs([(2, 4), (7, 9)]), min_gap=5)
        assert segments[0][0] == [(2, 9)]

    def test_min_gap_boundary(self):
        # Gap of exactly min_gap offsets stays split.
        segments = nested_runs(scores_from_runs([(2, 4), (8, 9)]), min_gap=3)
        assert segments[0][0] == [(2, 4), (8, 9)]
        segments = nested_runs(scores_from_runs([(2, 4), (7, 9)]), min_gap=3)
        assert segments[0][0] == [(2, 9)]

    def test_argmax_fallback(self):
        scores = np.full((1, 1, 10), 0.2)
        scores[0, 0, 6] = 0.4
        segments = nested_runs(scores, tau2=0.5)
        assert segments[0][0] == [(7, 7)]

    def test_full_horizon(self):
        scores = np.full((1, 1, 8), 0.9)
        assert nested_runs(scores)[0][0] == [(1, 8)]
        assert nested_runs(scores, min_gap=None)[0][0] == [(1, 8)]

    def test_validation(self):
        output = EventHitOutput(np.ones((1, 1)), np.zeros((1, 1, 10)))
        keep = np.ones((1, 1), dtype=bool)
        with pytest.raises(ValueError):
            kept_pair_runs(output, np.ones((1, 2), dtype=bool))
        with pytest.raises(ValueError):
            kept_pair_runs(output, keep, tau2=2.0)
        with pytest.raises(ValueError):
            kept_pair_runs(output, keep, min_gap=0)

    def test_span_consistency_with_eq6(self):
        """The runs' overall span is Eq. 6's single interval, which is
        the ``min_gap=None`` run."""
        scores = scores_from_runs([(2, 4), (10, 12), (17, 19)])
        segments = nested_runs(scores, min_gap=1)[0][0]
        assert nested_runs(scores, min_gap=None)[0][0] == [
            (segments[0][0], segments[-1][1])
        ]

    def test_multi_event_batch(self):
        scores = np.full((2, 2, 10), 0.1)
        scores[0, 1, 0:3] = 0.9
        scores[1, 0, 5:7] = 0.9
        segments = nested_runs(scores)
        assert segments[0][1] == [(1, 3)]
        assert segments[1][0] == [(6, 7)]

    @given(st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_segments_reconstruct_threshold_mask(self, seed):
        """With min_gap=1, segments exactly tile the above-threshold set."""
        rng = np.random.default_rng(seed)
        scores = rng.random((1, 1, 30))
        segments = nested_runs(scores, tau2=0.5, min_gap=1)
        above = scores[0, 0] >= 0.5
        if above.any():
            mask = np.zeros(30, dtype=bool)
            for start, end in segments[0][0]:
                mask[start - 1 : end] = True
            np.testing.assert_array_equal(mask, above)


class TestRunsEqualLoopOracle:
    """The vectorised extractor against the per-pair Python loop."""

    @given(
        batch=st.integers(1, 6),
        events=st.integers(1, 4),
        horizon=st.integers(1, 40),
        tau2=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        min_gap=st.sampled_from([1, 2, 5, None]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_loop_oracle(self, batch, events, horizon, tau2, min_gap, seed):
        rng = np.random.default_rng(seed)
        # Quarter steps: ties with each other and with τ2 are common.
        scores = rng.integers(0, 5, size=(batch, events, horizon)) / 4.0
        kind = rng.random((batch, events))
        scores[kind < 0.15] = -0.5  # nothing above τ2 (argmax fallback)
        scores[(kind >= 0.15) & (kind < 0.3)] = 2.0  # all above τ2
        edges = (kind >= 0.3) & (kind < 0.45)
        scores[edges, 0] = scores[edges, -1] = 2.0  # runs touch 1 and H
        scores[(kind >= 0.45) & (kind < 0.5)] = np.nan  # NaN rows
        exists = rng.random((batch, events)) < 0.8
        got = nested_runs(scores, tau2, min_gap, exists)
        for b in range(batch):
            for k in range(events):
                want = loop_runs(scores[b, k], tau2, min_gap) if exists[b, k] else []
                assert got[b][k] == want, (b, k)

    def test_flat_arrays_are_row_major_in_offset_order(self):
        scores = np.full((2, 2, 12), 0.1)
        scores[0, 1, [0, 1, 5, 11]] = 0.9
        scores[1, 0, [3, 9]] = 0.9
        output = EventHitOutput(np.ones((2, 2)), scores)
        rows, cols, starts, ends = kept_pair_runs(
            output, np.ones((2, 2), dtype=bool), min_gap=1
        )
        assert list(zip(rows, cols, starts, ends)) == [
            (0, 0, 1, 1),  # argmax fallback: the first of equal scores
            (0, 1, 1, 2), (0, 1, 6, 6), (0, 1, 12, 12),
            (1, 0, 4, 4), (1, 0, 10, 10),
            (1, 1, 1, 1),
        ]
        for array in (rows, cols, starts, ends):
            assert array.dtype == np.intp

    def test_nothing_kept(self):
        output = EventHitOutput(np.ones((3, 2)), np.ones((3, 2, 5)))
        for min_gap in (1, None):
            runs = kept_pair_runs(output, np.zeros((3, 2), dtype=bool),
                                  min_gap=min_gap)
            assert [len(array) for array in runs] == [0, 0, 0, 0]


class TestMergeRuns:
    def test_gap_threshold_and_pairs(self):
        pairs = np.array([0, 0, 0, 1, 1])
        starts = np.array([1, 6, 9, 10, 12])
        ends = np.array([3, 7, 9, 10, 13])
        # Gaps inside pair 0: 2 and 1 offsets; pair 1's gap is 1.
        for min_gap, want in (
            (1, [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]),
            (2, [(0, 0), (1, 2), (3, 4)]),
            (3, [(0, 2), (3, 4)]),
            (None, [(0, 2), (3, 4)]),
        ):
            first, last = merge_runs(pairs, starts, ends, min_gap)
            assert list(zip(first.tolist(), last.tolist())) == want, min_gap

    def test_empty(self):
        empty = np.zeros(0, dtype=np.intp)
        first, last = merge_runs(empty, empty, empty, 1)
        assert len(first) == len(last) == 0


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
