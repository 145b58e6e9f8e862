"""Tests for C-CLASSIFY and C-REGRESS against a trained EventHit."""

import numpy as np
import pytest

from repro.conformal import ConformalClassifier, ConformalRegressor, margin_nonconformity
from repro.conformal.base import conformal_p_values, residual_quantile
from repro.core import (
    EventHit,
    EventHitConfig,
    EventHitOutput,
    train_eventhit,
)
from repro.data import RecordSet
from repro.video.events import EventType
from tests.helpers import (
    calibrated_classifier,
    calibrated_regressor,
    engine_predict,
    where_min_max_intervals,
)


def synthetic_records(b=96, h=16, seed=0, m=6, d=4):
    """Same learnable generator as the trainer tests (ramp → onset)."""
    rng = np.random.default_rng(seed)
    labels = (rng.random((b, 1)) < 0.5).astype(float)
    covariates = rng.normal(0, 0.2, size=(b, m, d))
    starts = np.zeros((b, 1), dtype=int)
    ends = np.zeros((b, 1), dtype=int)
    for i in range(b):
        if labels[i, 0]:
            start = int(rng.integers(1, h - 4))
            starts[i, 0] = start
            ends[i, 0] = start + 3
            signal = 1.0 - start / h
            covariates[i, :, 0] += np.linspace(signal - 0.2, signal, m)
    return RecordSet(
        event_types=[EventType("e", 4, 1)],
        horizon=h,
        frames=np.arange(b),
        covariates=covariates,
        labels=labels,
        starts=starts,
        ends=ends,
        censored=np.zeros((b, 1)),
    )


CONFIG = EventHitConfig(
    window_size=6, horizon=16, lstm_hidden=12, shared_hidden=(12,),
    head_hidden=(16,), dropout=0.0, learning_rate=5e-3, epochs=30,
    batch_size=32, seed=0,
)


@pytest.fixture(scope="module")
def trained():
    train = synthetic_records(b=160, seed=0)
    calib = synthetic_records(b=120, seed=1)
    test = synthetic_records(b=120, seed=2)
    model, _ = train_eventhit(train, config=CONFIG)
    return model, calib, test


class TestConformalClassifier:
    def test_requires_calibration(self, trained):
        model, calib, test = trained
        clf = ConformalClassifier()
        with pytest.raises(RuntimeError):
            clf.p_values(engine_predict(model, test.covariates))

    def test_event_count_mismatch(self, trained):
        model, calib, test = trained
        two_events = engine_predict(EventHit(4, 2, config=CONFIG), calib.covariates)
        with pytest.raises(ValueError, match="calibration is"):
            ConformalClassifier().calibrate(two_events, calib)

    def test_record_count_mismatch(self, trained):
        model, calib, test = trained
        with pytest.raises(ValueError, match="calibration is"):
            ConformalClassifier().calibrate(
                engine_predict(model, test.covariates[:-1]), calib
            )

    def test_no_positives_raises(self, trained):
        model, calib, _ = trained
        negatives = calib.subset(np.flatnonzero(calib.labels[:, 0] == 0))
        with pytest.raises(ValueError):
            calibrated_classifier(model, negatives)

    def test_p_values_shape_and_range(self, trained):
        model, calib, test = trained
        clf = calibrated_classifier(model, calib)
        p = clf.p_values(engine_predict(model, test.covariates))
        assert p.shape == (len(test), 1)
        assert np.all((p >= 0) & (p <= 1))

    def test_confidence_monotonicity(self, trained):
        """Eq. 10: higher c ⇒ superset of predicted-positive records."""
        model, calib, test = trained
        clf = calibrated_classifier(model, calib)
        output = engine_predict(model, test.covariates)
        low = clf.predict(output, confidence=0.6)
        high = clf.predict(output, confidence=0.95)
        assert np.all(high[low])  # low-positives ⊆ high-positives
        assert high.sum() >= low.sum()

    def test_recall_guarantee_theorem42(self, trained):
        """Empirical recall of positives ≥ c (up to finite-sample slack)."""
        model, calib, test = trained
        clf = calibrated_classifier(model, calib)
        output = engine_predict(model, test.covariates)
        for c in (0.7, 0.9):
            predicted = clf.predict(output, confidence=c)
            truth = test.labels > 0
            recall = predicted[truth].mean()
            assert recall >= c - 0.12, f"recall {recall} at c={c}"

    def test_confidence_one_predicts_all_positive(self, trained):
        model, calib, test = trained
        clf = calibrated_classifier(model, calib)
        predicted = clf.predict(engine_predict(model, test.covariates), confidence=1.0)
        assert predicted.all()

    def test_confidence_validation(self, trained):
        model, calib, test = trained
        clf = calibrated_classifier(model, calib)
        with pytest.raises(ValueError):
            clf.predict(engine_predict(model, test.covariates), confidence=1.2)

    def test_custom_nonconformity_measure(self, trained):
        """Theorem 4.1 holds for any measure: margin-based recall also ≥ c."""
        model, calib, test = trained
        clf = calibrated_classifier(model, calib, nonconformity=margin_nonconformity)
        predicted = clf.predict(engine_predict(model, test.covariates), confidence=0.9)
        truth = test.labels > 0
        assert predicted[truth].mean() >= 0.78


class TestConformalRegressor:
    def test_requires_calibration(self, trained):
        model, _, test = trained
        reg = ConformalRegressor()
        with pytest.raises(RuntimeError):
            reg.quantiles(0.5)

    def test_tau2_validation(self, trained):
        model = trained[0]
        with pytest.raises(ValueError):
            ConformalRegressor(tau2=1.5)

    def test_output_shape_mismatch(self, trained):
        model, calib, test = trained
        two_events = engine_predict(EventHit(4, 2, config=CONFIG), calib.covariates)
        with pytest.raises(ValueError, match="calibration is"):
            ConformalRegressor().calibrate(two_events, calib)
        with pytest.raises(ValueError, match="calibration is"):
            ConformalRegressor().calibrate(
                engine_predict(model, test.covariates), calib.subset(np.arange(3))
            )

    def test_quantiles_monotone_in_alpha(self, trained):
        model, calib, _ = trained
        reg = calibrated_regressor(model, calib)
        q_low = reg.quantiles(0.3)
        q_high = reg.quantiles(0.95)
        assert np.all(q_high >= q_low)

    def test_alpha_validation(self, trained):
        model, calib, _ = trained
        reg = calibrated_regressor(model, calib)
        with pytest.raises(ValueError):
            reg.quantiles(0.0)

    def test_widen_expands_and_clamps(self, trained):
        model, calib, _ = trained
        reg = calibrated_regressor(model, calib)
        scores = np.zeros((1, 1, 16))
        scores[0, 0, 1:15] = 0.9  # the run [2, 15]
        output = EventHitOutput(np.ones((1, 1)), scores)
        _, _, starts, ends = reg.predict(output, np.ones((1, 1), dtype=bool), 0.9)
        assert starts[0] <= 2
        assert ends[0] >= 15
        assert starts[0] >= 1
        assert ends[0] <= 16

    def test_widen_ignores_absent_events(self, trained):
        model, calib, _ = trained
        reg = calibrated_regressor(model, calib)
        output = EventHitOutput(np.ones((1, 1)), np.full((1, 1, 16), 0.9))
        runs = reg.predict(output, np.zeros((1, 1), dtype=bool), 0.9)
        assert [len(array) for array in runs] == [0, 0, 0, 0]

    def test_coverage_theorem52(self, trained):
        """True starts/ends fall inside ±q̂ with frequency ≥ α − slack."""
        model, calib, test = trained
        reg = calibrated_regressor(model, calib)
        output = engine_predict(model, test.covariates)
        pred_starts, pred_ends = where_min_max_intervals(output.frame_scores, 0.5)
        alpha = 0.8
        q = reg.quantiles(alpha)
        positive = test.labels[:, 0] > 0
        start_cov = (
            np.abs(pred_starts[positive, 0] - test.starts[positive, 0]) <= q[0, 0]
        ).mean()
        end_cov = (
            np.abs(pred_ends[positive, 0] - test.ends[positive, 0]) <= q[0, 1]
        ).mean()
        assert start_cov >= alpha - 0.12, f"start coverage {start_cov}"
        assert end_cov >= alpha - 0.12, f"end coverage {end_cov}"

    def test_predict_full_pass(self, trained):
        model, calib, test = trained
        reg = calibrated_regressor(model, calib)
        output = engine_predict(model, test.covariates)
        exists = output.scores >= 0.5
        rows, cols, starts, ends = reg.predict(output, exists, alpha=0.7)
        # Span mode: one run per kept pair, in row-major order.
        want_rows, want_cols = np.nonzero(exists)
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(cols, want_cols)
        assert np.all((1 <= starts) & (starts <= ends) & (ends <= 16))

    def test_predict_exists_shape_checked(self, trained):
        model, calib, test = trained
        reg = calibrated_regressor(model, calib)
        output = engine_predict(model, test.covariates)
        with pytest.raises(ValueError):
            reg.predict(output, np.ones((3, 3), dtype=bool), alpha=0.5)

    def test_higher_alpha_wider_intervals(self, trained):
        model, calib, test = trained
        reg = calibrated_regressor(model, calib)
        output = engine_predict(model, test.covariates)
        exists = np.ones_like(output.scores, dtype=bool)
        _, _, narrow_starts, narrow_ends = reg.predict(output, exists, alpha=0.2)
        _, _, wide_starts, wide_ends = reg.predict(output, exists, alpha=0.99)
        assert (wide_starts <= narrow_starts).all()
        assert (wide_ends >= narrow_ends).all()


def three_event_records(b=80, h=16, seed=0):
    """Random labels for three events over random covariates."""
    rng = np.random.default_rng(seed)
    labels = (rng.random((b, 3)) < 0.5).astype(float)
    starts = np.where(labels > 0, rng.integers(1, h - 4, size=(b, 3)), 0)
    ends = np.where(labels > 0, starts + rng.integers(0, 4, size=(b, 3)), 0)
    return RecordSet(
        event_types=[EventType(name, 4, 1) for name in ("a", "b", "c")],
        horizon=h,
        frames=np.arange(b),
        covariates=rng.normal(0, 0.5, size=(b, 6, 4)),
        labels=labels,
        starts=starts,
        ends=ends,
        censored=np.zeros((b, 3)),
    )


class TestDecideRewriteOracles:
    """The one-pass decide helpers against the reference functions."""

    @pytest.mark.parametrize("measure", [None, margin_nonconformity])
    def test_p_values_equal_conformal_p_values_per_column(self, measure):
        model = EventHit(4, 3, config=CONFIG)
        calib, test = three_event_records(seed=3), three_event_records(seed=4)
        clf = calibrated_classifier(model, calib, nonconformity=measure)
        measure = clf.nonconformity
        calib_scores = measure(engine_predict(model, calib.covariates).scores)
        output = engine_predict(model, test.covariates)
        test_scores = measure(output.scores)
        got = clf.p_values(output)
        assert got.shape == (len(test), 3)
        for k in range(3):
            positive = calib.labels[:, k] > 0
            want = conformal_p_values(test_scores[:, k], calib_scores[positive, k])
            assert np.array_equal(got[:, k], want)

    def test_quantiles_memo_is_invalidated_by_calibrate(self, trained):
        model, calib, test = trained
        reg = calibrated_regressor(model, calib)
        before = reg.quantiles(0.9)
        reg.calibrate(engine_predict(model, test.covariates), test)
        fresh = calibrated_regressor(model, test).quantiles(0.9)
        np.testing.assert_array_equal(reg.quantiles(0.9), fresh)
        assert not np.array_equal(before, fresh)  # the fixture can tell

    def test_quantiles_returns_a_copy(self, trained):
        model, calib, _ = trained
        reg = calibrated_regressor(model, calib)
        first = reg.quantiles(0.9)
        want = first.copy()
        first[:] = -1.0
        np.testing.assert_array_equal(reg.quantiles(0.9), want)
        reg.quantiles(0.9)[:] = 99.0
        np.testing.assert_array_equal(reg.quantiles(0.9), want)

    def test_quantiles_equal_residual_quantile_per_alpha(self, trained):
        model, calib, _ = trained
        reg = calibrated_regressor(model, calib)
        starts, ends = where_min_max_intervals(
            engine_predict(model, calib.covariates).frame_scores, reg.tau2
        )
        positive = calib.labels[:, 0] > 0
        start_res = np.abs(starts[positive, 0] - calib.starts[positive, 0])
        end_res = np.abs(ends[positive, 0] - calib.ends[positive, 0])
        for alpha in (0.3, 0.9, 0.3, 1.0):
            q = reg.quantiles(alpha)
            assert q[0, 0] == residual_quantile(start_res, alpha)
            assert q[0, 1] == residual_quantile(end_res, alpha)

    def test_predict_equals_widen_of_thresholded_batch(self, trained):
        model, calib, test = trained
        reg = calibrated_regressor(model, calib)
        output = engine_predict(model, test.covariates)
        exists = output.scores >= 0.5
        starts, ends = where_min_max_intervals(output.frame_scores, reg.tau2)
        q = reg.quantiles(0.9).astype(int)
        rows, cols, got_starts, got_ends = reg.predict(output, exists, 0.9)
        want_rows, want_cols = np.nonzero(exists)
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(cols, want_cols)
        np.testing.assert_array_equal(
            got_starts, np.maximum(1, starts[exists] - q[want_cols, 0])
        )
        np.testing.assert_array_equal(
            got_ends, np.minimum(output.horizon, ends[exists] + q[want_cols, 1])
        )


def labelled_records(labels):
    """Records carrying only ``labels``: what calibration reads of them."""
    b, k = labels.shape
    offsets = np.where(labels > 0, 1, 0)
    return RecordSet(
        event_types=[EventType(f"e{i}", 4, 1) for i in range(k)],
        horizon=4,
        frames=np.arange(b),
        covariates=np.zeros((b, 1, 1)),
        labels=labels,
        starts=offsets,
        ends=offsets,
        censored=np.zeros((b, k)),
    )


def scores_output(scores):
    scores = np.asarray(scores, dtype=float)
    return EventHitOutput(scores, np.zeros(scores.shape + (4,)))


def confidences(ns):
    """A grid of c with both ends, plus every boundary 1 − m/(n+1) of the
    p-value rule at these calibration sizes and its float neighbours: where
    the compiled rule must land on the same side as ``p ≥ 1 − c``."""
    cs = set(np.linspace(0.0, 1.0, 41))
    for n in ns:
        for m in range(n + 2):
            c = 1.0 - m / (n + 1.0)
            cs |= {c, np.nextafter(c, 0.0), np.nextafter(c, 1.0)}
    return sorted(c for c in cs if 0.0 <= c <= 1.0)


class TestCompiledThresholds:
    """Serving compiles Eq. 9 to ``a ≤ t_k(c)``; that must be the p-value
    rule ``p ≥ 1 − c`` bit for bit."""

    @pytest.mark.parametrize("measure", [None, margin_nonconformity])
    @pytest.mark.parametrize("seed", range(6))
    def test_thresholds_equal_the_p_value_rule(self, measure, seed):
        rng = np.random.default_rng(seed)
        n_records = (1, 2, 5, 12, 30, 60)[seed]
        # Scores on a coarse grid, so calibration positives tie with each
        # other and test scores land exactly on calibration scores.
        grid = np.linspace(0.0, 1.0, 11)
        labels = (rng.random((n_records, 3)) < 0.5).astype(float)
        labels[0] = 1.0  # every event has a positive; n = 1 when seed = 0
        calib = rng.choice(grid, size=labels.shape)
        clf = ConformalClassifier(measure).calibrate(
            scores_output(calib), labelled_records(labels)
        )
        test = scores_output(
            np.concatenate([rng.choice(grid, size=(40, 3)), calib])
        )
        p = clf.p_values(test)
        for c in confidences(labels.sum(axis=0).astype(int)):
            np.testing.assert_array_equal(
                clf.predict(test, c), p >= 1.0 - c, err_msg=f"c={c}"
            )

    def test_ends_keep_all_and_none(self):
        clf = ConformalClassifier().calibrate(
            scores_output([[0.2], [0.9]]), labelled_records(np.ones((2, 1)))
        )
        assert clf.thresholds(1.0)[0] == np.inf
        assert clf.thresholds(0.0)[0] == -np.inf
        test = scores_output([[0.0], [0.5], [1.0]])
        assert clf.predict(test, 1.0).all()
        assert not clf.predict(test, 0.0).any()

    def test_thresholds_are_memoized_read_only(self):
        clf = ConformalClassifier().calibrate(
            scores_output([[0.2], [0.9]]), labelled_records(np.ones((2, 1)))
        )
        assert clf.thresholds(0.5) is clf.thresholds(0.5)
        with pytest.raises(ValueError):
            clf.thresholds(0.5)[0] = 0.0

    def test_predict_requires_calibration(self):
        with pytest.raises(RuntimeError):
            ConformalClassifier().predict(scores_output([[0.5]]), 0.9)

    def test_thresholds_memo_is_invalidated_by_calibrate(self, trained):
        # Lifecycle recalibration reuses the classifier object.
        model, calib, test = trained
        clf = calibrated_classifier(model, calib)
        before = clf.thresholds(0.9).copy()
        clf.calibrate(engine_predict(model, test.covariates), test)
        fresh = calibrated_classifier(model, test).thresholds(0.9)
        np.testing.assert_array_equal(clf.thresholds(0.9), fresh)
        assert not np.array_equal(before, fresh)  # the fixture can tell
