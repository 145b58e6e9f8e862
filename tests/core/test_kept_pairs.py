"""Bitwise pins for lazy frame scores and kept-pair decisions.

The serving engines hand ``decide`` an :class:`EventHitOutput` over Θ
logits: existence scores activated at once, occurrence scores only for
the (row, event) pairs the existence decision keeps.  Every pin here
compares against the full activation that ran before — the output
sigmoid in place over the whole ``(B, K, 1 + H)`` buffer — and the
decision rule applied to all pairs and filtered afterwards.
"""

import numpy as np
import pytest

from repro.cloud import StreamMarshaller
from repro.core import BatchedInference, EventHit, EventHitConfig, EventHitOutput
from repro.core.inference import (
    PredictionBatch,
    decide_intervals,
    extract_interval_segments,
    extract_intervals,
    kept_pair_intervals,
)
from repro.data import RecordSet
from repro.features import CovariatePipeline
from repro.video.events import EventType
from tests.helpers import calibrated

HORIZON = 40
EVENTS = 3
FEATURES = 4
CONFIG = EventHitConfig(window_size=6, horizon=HORIZON, lstm_hidden=8,
                        shared_hidden=(8,), head_hidden=(16,), dropout=0.0,
                        seed=3)


def eager_activation(theta):
    """The output sigmoid as it ran before: in place over the whole buffer."""
    theta = np.array(theta, dtype=np.float64)
    np.negative(theta, out=theta)
    np.exp(theta, out=theta)
    theta += 1.0
    np.divide(1.0, theta, out=theta)
    return theta


def random_logits(seed, batch=29):
    # Wide, shifted logits so occurrence scores both clear and miss τ2,
    # in runs and gaps, and existence scores spread over (0, 1).
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=(batch, EVENTS, 1 + HORIZON)) * 4.0
    theta[:, :, 1:] += np.sin(np.arange(HORIZON) / 3.0) * 3.0
    return theta


def eager_output(theta):
    full = eager_activation(theta)
    return EventHitOutput(full[:, :, 0], full[:, :, 1:])


def random_records(seed, n=60):
    rng = np.random.default_rng(seed)
    labels = np.ones((n, EVENTS))
    # Truth placed differently per event, so each event calibrates its
    # own widening quantiles.
    k = np.arange(EVENTS)
    starts = rng.integers(1 + 8 * k, 4 + 8 * k, size=(n, EVENTS))
    ends = starts + rng.integers(0, 3 + 5 * k, size=(n, EVENTS))
    return RecordSet(
        event_types=[EventType(f"e{k}", 4, 1) for k in range(EVENTS)],
        horizon=HORIZON,
        frames=np.arange(n),
        covariates=rng.normal(size=(n, CONFIG.window_size, FEATURES)),
        labels=labels,
        starts=starts,
        ends=ends,
        censored=np.zeros((n, EVENTS)),
    )


@pytest.fixture(scope="module")
def layers():
    model = EventHit(FEATURES, EVENTS, config=CONFIG)
    calibration = random_records(0)
    return (model, *calibrated(model, calibration))


def merge_runs(runs):
    merged = []
    for start, end in sorted(runs):
        if merged and start <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def oracle_decide(m, output):
    """``decide`` over every pair, filtered by existence afterwards."""
    if m.classifier is not None:
        exists = m.classifier.predict(output, m.confidence)
    else:
        exists = output.scores >= m.tau1
    if m.segmented:
        raw = extract_interval_segments(output.frame_scores, m.tau2,
                                        min_gap=m.segment_min_gap)
        if m.regressor is not None:
            q = m.regressor.quantiles(m.alpha)
            raw = [
                [
                    merge_runs([(max(1, s - int(q[k, 0])),
                                 min(m.horizon, e + int(q[k, 1])))
                                for s, e in runs])
                    for k, runs in enumerate(row)
                ]
                for row in raw
            ]
        return exists, [
            [runs if exists[b, k] else [] for k, runs in enumerate(row)]
            for b, row in enumerate(raw)
        ]
    starts, ends = extract_intervals(output.frame_scores, m.tau2)
    if m.regressor is not None:
        widened = m.regressor.widen(
            PredictionBatch(exists, np.where(exists, starts, 0),
                            np.where(exists, ends, 0), m.horizon),
            m.alpha,
        )
        starts, ends = widened.starts, widened.ends
    return exists, [
        [[(int(starts[b, k]), int(ends[b, k]))] if exists[b, k] else []
         for k in range(EVENTS)]
        for b in range(exists.shape[0])
    ]


class TestLazyFrameScores:
    @pytest.mark.parametrize("seed", range(4))
    def test_equal_to_eager_sigmoid(self, seed):
        theta = random_logits(seed)
        want = eager_activation(theta)
        out = EventHitOutput.from_logits(theta)
        assert np.array_equal(out.scores, want[:, :, 0])
        assert out.horizon == HORIZON
        assert np.array_equal(out.frame_scores, want[:, :, 1:])
        assert out.frame_scores is out.frame_scores  # activated once, cached

    @pytest.mark.parametrize("batch", [1, 5])
    def test_activation_leaves_logits_untouched(self, batch):
        # One row and one event make the occurrence-logit slice contiguous:
        # activating it must still work on a copy.
        theta = random_logits(2, batch=batch)[:, :1]
        before = theta.copy()
        out = EventHitOutput.from_logits(theta)
        out.kept_frame_scores(np.ones((batch, 1), dtype=bool))
        assert out.frame_scores.flags.c_contiguous
        assert np.array_equal(theta, before)
        assert np.array_equal(out.frame_scores, eager_activation(before)[:, :, 1:])

    def test_engine_output_equals_eager_sigmoid_of_its_logits(self):
        model = EventHit(FEATURES, EVENTS, config=CONFIG)
        engine = BatchedInference(model)
        x = np.random.default_rng(5).normal(size=(11, CONFIG.window_size, FEATURES))
        encoded = engine._eval_lstm(x)
        want = eager_activation(engine._head_logits(encoded, x[:, -1, :]))
        out = engine.predict(x)
        assert np.array_equal(out.scores, want[:, :, 0])
        assert np.array_equal(out.frame_scores, want[:, :, 1:])

    @pytest.mark.parametrize("keep", [0.0, 0.3, 1.0])
    def test_kept_pairs_equal_full_activation_rows(self, keep):
        theta = random_logits(7)
        exists = np.random.default_rng(8).random(theta.shape[:2]) < keep
        want = eager_activation(theta)[:, :, 1:]
        lazy = EventHitOutput.from_logits(theta)
        rows, events, scores = lazy.kept_frame_scores(exists)
        assert np.array_equal(rows * EVENTS + events, np.flatnonzero(exists))
        assert np.array_equal(scores, want[rows, events])
        # Same rows once the full array exists, and from an eager output.
        assert lazy.frame_scores.shape == want.shape
        assert np.array_equal(lazy.kept_frame_scores(exists)[2], scores)
        assert np.array_equal(eager_output(theta).kept_frame_scores(exists)[2], scores)

    def test_kept_pairs_reject_misshaped_exists(self):
        lazy = EventHitOutput.from_logits(random_logits(0, batch=3))
        with pytest.raises(ValueError):
            lazy.kept_frame_scores(np.ones((3, EVENTS + 1), dtype=bool))


#: (classifier, tau1, confidence) settings keeping no, some and all pairs.
KEEP = {
    "tau1-none": (False, 2.0, 0.9),
    "tau1-some": (False, 0.5, 0.9),
    "tau1-all": (False, 0.0, 0.9),
    "cclassify-none": (True, 0.5, 0.0),
    "cclassify-some": (True, 0.5, 0.8),
    "cclassify-all": (True, 0.5, 1.0),
}


class TestKeptPairDecide:
    @pytest.mark.parametrize("segmented", [False, True], ids=["span", "segmented"])
    @pytest.mark.parametrize("regress", [False, True], ids=["tau2", "cregress"])
    @pytest.mark.parametrize("keep", sorted(KEEP))
    @pytest.mark.parametrize("seed", range(3))
    def test_decide_equals_full_activation_oracle(
        self, layers, segmented, regress, keep, seed
    ):
        model, classifier, regressor = layers
        use_classifier, tau1, confidence = KEEP[keep]
        m = StreamMarshaller(
            model,
            [EventType(f"e{k}", 4, 1) for k in range(EVENTS)],
            CovariatePipeline(CONFIG.window_size),
            classifier=classifier if use_classifier else None,
            regressor=regressor if regress else None,
            confidence=confidence,
            alpha=0.8,
            tau1=tau1,
            segmented=segmented,
            segment_min_gap=3,
        )
        theta = random_logits(seed)
        lazy = EventHitOutput.from_logits(theta)
        exists, kept = m.decide(lazy)
        want_exists, want_segments = oracle_decide(m, eager_output(theta))
        assert np.array_equal(exists, want_exists)
        # Every kept pair, in row-major order, with the oracle's runs.
        assert kept == [
            (b, k, runs)
            for b, row in enumerate(want_segments)
            for k, runs in enumerate(row)
            if want_exists[b, k]
        ]
        if regress:
            quantiles = regressor.quantiles(m.alpha)
            assert len({tuple(q) for q in quantiles}) == EVENTS
        # The decision activated only the kept pairs' occurrence scores.
        assert lazy._frame_scores is None
        share = exists.mean()
        if keep.endswith("none"):
            assert share == 0.0
        elif keep.endswith("all"):
            assert share == 1.0
        else:
            assert 0.0 < share < 1.0

    @pytest.mark.parametrize("keep", [0.0, 0.25, 1.0])
    @pytest.mark.parametrize("alpha", [0.5, 0.9, 1.0])
    def test_regressor_predict_equals_full_activation_oracle(
        self, layers, keep, alpha
    ):
        _, _, regressor = layers
        theta = random_logits(11)
        exists = np.random.default_rng(12).random(theta.shape[:2]) < keep
        lazy = EventHitOutput.from_logits(theta)
        got = regressor.predict(lazy, exists, alpha)
        starts, ends = extract_intervals(eager_output(theta).frame_scores,
                                         regressor.tau2)
        want = regressor.widen(
            PredictionBatch(exists, np.where(exists, starts, 0),
                            np.where(exists, ends, 0), HORIZON),
            alpha,
        )
        assert np.array_equal(got.exists, want.exists)
        assert np.array_equal(got.starts, want.starts)
        assert np.array_equal(got.ends, want.ends)
        assert lazy._frame_scores is None

    def test_kept_intervals_zero_outside_kept_pairs(self):
        theta = random_logits(13)
        exists = np.random.default_rng(14).random(theta.shape[:2]) < 0.4
        output = EventHitOutput.from_logits(theta)
        batch = PredictionBatch.from_kept(
            exists, *kept_pair_intervals(output, exists), HORIZON
        )
        starts, ends = batch.starts, batch.ends
        full_starts, full_ends = extract_intervals(eager_output(theta).frame_scores)
        assert np.array_equal(starts, np.where(exists, full_starts, 0))
        assert np.array_equal(ends, np.where(exists, full_ends, 0))


def full_array_intervals(output, exists, tau2, regressor=None, alpha=None):
    """(B, K) intervals built the full-array way: Eqs. 5-6 over every pair,
    masked by existence, then the C-REGRESS widening over the whole
    arrays and masked again."""
    starts, ends = extract_intervals(output.frame_scores, tau2)
    starts, ends = np.where(exists, starts, 0), np.where(exists, ends, 0)
    if regressor is not None:
        q = regressor.quantiles(alpha)
        widened_starts = np.maximum(1, starts - q[None, :, 0].astype(int))
        widened_ends = np.minimum(HORIZON, ends + q[None, :, 1].astype(int))
        starts = np.where(exists, widened_starts, 0)
        ends = np.where(exists, widened_ends, 0)
    return starts, ends


class TestKeptPairBatch:
    """The decision's kept-pair PredictionBatch against full arrays."""

    @pytest.mark.parametrize("lazy", [True, False], ids=["lazy", "eager"])
    @pytest.mark.parametrize("regress", [False, True], ids=["tau2", "cregress"])
    @pytest.mark.parametrize("tau1", [2.0, 0.5, 0.0], ids=["none", "some", "all"])
    @pytest.mark.parametrize("seed", range(3))
    def test_kept_and_materialized_arrays_equal_full_arrays(
        self, layers, lazy, regress, tau1, seed
    ):
        _, _, regressor = layers
        theta = random_logits(seed)
        output = EventHitOutput.from_logits(theta) if lazy else eager_output(theta)
        batch = decide_intervals(
            output, regressor=regressor if regress else None, alpha=0.8,
            tau1=tau1, tau2=0.4,
        )
        exists = eager_output(theta).scores >= tau1
        tau2 = regressor.tau2 if regress else 0.4
        want_starts, want_ends = full_array_intervals(
            eager_output(theta), exists, tau2,
            regressor if regress else None, 0.8,
        )
        assert np.array_equal(batch.exists, exists)
        # Built in kept-pair form: nothing (B, K) until it is read.
        assert batch._starts is None and batch._ends is None
        rows, cols, starts, ends = batch.kept()
        want_rows, want_cols = np.nonzero(exists)
        assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
        assert np.array_equal(starts, want_starts[rows, cols])
        assert np.array_equal(ends, want_ends[rows, cols])
        assert np.array_equal(batch.starts, want_starts)
        assert np.array_equal(batch.ends, want_ends)
        assert batch.starts.dtype == want_starts.dtype
        eager = PredictionBatch(exists, want_starts, want_ends, HORIZON)
        assert np.array_equal(batch.predicted_frames(), eager.predicted_frames())
        for got, want in zip(eager.kept(), batch.kept()):
            assert np.array_equal(got, want)
        if lazy:
            assert output._frame_scores is None

    def test_from_kept_validates_only_the_kept_values(self):
        exists = np.array([[True, False], [False, True]])
        rows, cols = np.nonzero(exists)
        ok = PredictionBatch.from_kept(
            exists, rows, cols, np.array([1, 3]), np.array([2, HORIZON]), HORIZON
        )
        assert ok.starts.tolist() == [[1, 0], [0, 3]]
        for starts, ends in (([0, 3], [2, 4]), ([1, 3], [2, HORIZON + 1]),
                             ([3, 3], [2, 4])):
            with pytest.raises(ValueError):
                PredictionBatch.from_kept(
                    exists, rows, cols, np.array(starts), np.array(ends), HORIZON
                )
        with pytest.raises(ValueError):
            PredictionBatch.from_kept(
                exists, rows, cols, np.array([1]), np.array([2]), HORIZON
            )
