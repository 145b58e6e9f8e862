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
from repro.conformal import ConformalRegressor
from repro.core import (
    BatchedInference,
    EventHit,
    EventHitConfig,
    EventHitOutput,
    kept_pair_runs,
)
from repro.core.inference import decide_intervals
from repro.data import RecordSet
from repro.features import CovariatePipeline
from repro.video.events import EventType
from tests.helpers import (
    calibrated,
    loop_runs,
    merge_touching,
    where_min_max_intervals,
)

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
    # C-REGRESS at a τ2 of its own, apart from the marshaller default.
    return (model, *calibrated(model, calibration, tau2=0.6))


def widened_loop_runs(regressor, alpha, k, runs):
    """Eq. 11 on one pair's runs, then overlapping or touching runs merged."""
    q = regressor.quantiles(alpha)
    return merge_touching(
        [(max(1, s - int(q[k, 0])), min(HORIZON, e + int(q[k, 1]))) for s, e in runs]
    )


def oracle_decide(m, output):
    """``decide`` by the per-pair loop over every pair, filtered by
    existence afterwards; C-REGRESS extracts at its own τ2."""
    if m.classifier is not None:
        exists = m.classifier.predict(output, m.confidence)
    else:
        exists = output.scores >= m.tau1
    tau2 = m.tau2 if m.regressor is None else m.regressor.tau2
    relays = []
    for b in range(exists.shape[0]):
        for k in range(EVENTS):
            runs = loop_runs(output.frame_scores[b, k], tau2, m.segment_min_gap)
            if m.regressor is not None:
                runs = widened_loop_runs(m.regressor, m.alpha, k, runs)
            if exists[b, k]:
                relays += [(b, k, s, e) for s, e in runs]
    return exists, relays


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
    @pytest.mark.parametrize("min_gap", [None, 3], ids=["span", "segmented"])
    @pytest.mark.parametrize("regress", [False, True], ids=["tau2", "cregress"])
    @pytest.mark.parametrize("keep", sorted(KEEP))
    @pytest.mark.parametrize("seed", range(3))
    def test_decide_equals_full_activation_oracle(
        self, layers, min_gap, regress, keep, seed
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
            # Apart from the regressor's τ2: C-REGRESS extracts at its own.
            tau2=0.4,
            segment_min_gap=min_gap,
        )
        theta = random_logits(seed)
        lazy = EventHitOutput.from_logits(theta)
        exists, relays = m.decide(lazy)
        want_exists, want_relays = oracle_decide(m, eager_output(theta))
        assert np.array_equal(exists, want_exists)
        # Every kept pair's runs, in row-major order, as the oracle's.
        assert relays == want_relays
        assert all(type(value) is int for relay in relays for value in relay)
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

    @pytest.mark.parametrize("min_gap", [None, 2])
    @pytest.mark.parametrize("keep", [0.0, 0.25, 1.0])
    @pytest.mark.parametrize("alpha", [0.5, 0.9, 1.0])
    def test_regressor_predict_equals_full_activation_oracle(
        self, layers, keep, alpha, min_gap
    ):
        _, _, regressor = layers
        theta = random_logits(11)
        exists = np.random.default_rng(12).random(theta.shape[:2]) < keep
        lazy = EventHitOutput.from_logits(theta)
        rows, cols, starts, ends = regressor.predict(lazy, exists, alpha, min_gap)
        scores = eager_output(theta).frame_scores
        want = [
            (b, k, s, e)
            for b, k in zip(*np.nonzero(exists))
            for s, e in widened_loop_runs(
                regressor, alpha, k, loop_runs(scores[b, k], regressor.tau2, min_gap)
            )
        ]
        got = list(zip(rows.tolist(), cols.tolist(), starts.tolist(), ends.tolist()))
        assert got == want
        if min_gap is None:
            # Span mode is Eq. 11 on the where/min/max intervals.
            q = regressor.quantiles(alpha).astype(int)
            full_starts, full_ends = where_min_max_intervals(scores, regressor.tau2)
            assert np.array_equal(
                starts, np.maximum(1, full_starts - q[None, :, 0])[exists]
            )
            assert np.array_equal(
                ends, np.minimum(HORIZON, full_ends + q[None, :, 1])[exists]
            )
        assert lazy._frame_scores is None

    def test_regressor_extracts_at_its_own_tau2(self):
        # Calibrated on truths equal to its own Eq. 6 spans at τ2 = 0.6,
        # the layer widens by nothing, so its runs are the extractor's at
        # 0.6 and not at the 0.5 default.
        theta = random_logits(15)
        output = eager_output(theta)
        exists = np.ones(theta.shape[:2], dtype=bool)
        starts, ends = where_min_max_intervals(output.frame_scores, 0.6)
        records = RecordSet(
            event_types=[EventType(f"e{k}", 4, 1) for k in range(EVENTS)],
            horizon=HORIZON, frames=np.arange(len(theta)),
            covariates=np.zeros((len(theta), 1, 1)), labels=np.ones(exists.shape),
            starts=starts, ends=ends, censored=np.zeros(exists.shape),
        )
        regressor = ConformalRegressor(tau2=0.6).calibrate(output, records)
        assert not regressor.quantiles(1.0).any()
        for min_gap in (None, 2):
            got = regressor.predict(output, exists, 0.9, min_gap)
            at_own = kept_pair_runs(output, exists, 0.6, min_gap)
            at_default = kept_pair_runs(output, exists, 0.5, min_gap)
            assert all(np.array_equal(g, w) for g, w in zip(got, at_own))
            assert not all(np.array_equal(g, w) for g, w in zip(got, at_default))

    def test_kept_intervals_zero_outside_kept_pairs(self):
        theta = random_logits(13)
        output = EventHitOutput.from_logits(theta)
        batch = decide_intervals(output, tau1=0.6)
        exists = output.scores >= 0.6
        assert 0.0 < exists.mean() < 1.0
        full_starts, full_ends = where_min_max_intervals(
            eager_output(theta).frame_scores, 0.5
        )
        assert np.array_equal(batch.exists, exists)
        assert np.array_equal(batch.starts, np.where(exists, full_starts, 0))
        assert np.array_equal(batch.ends, np.where(exists, full_ends, 0))
        assert output._frame_scores is None
