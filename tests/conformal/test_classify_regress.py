"""Tests for C-CLASSIFY and C-REGRESS against a trained EventHit."""

import numpy as np
import pytest

from repro.conformal import ConformalClassifier, ConformalRegressor, margin_nonconformity
from repro.conformal.base import conformal_p_values, residual_quantile
from repro.core import EventHit, EventHitConfig, threshold_predictions, train_eventhit
from repro.core.inference import PredictionBatch, extract_intervals
from repro.data import RecordSet
from repro.video.events import EventType


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
        clf = ConformalClassifier(model)
        with pytest.raises(RuntimeError):
            clf.p_values(model.predict(test.covariates))

    def test_event_count_mismatch(self, trained):
        model, calib, test = trained
        two_event_model = EventHit(4, 2, config=CONFIG)
        clf = ConformalClassifier(two_event_model)
        with pytest.raises(ValueError):
            clf.calibrate(calib)

    def test_no_positives_raises(self, trained):
        model, calib, _ = trained
        negatives = calib.subset(np.flatnonzero(calib.labels[:, 0] == 0))
        with pytest.raises(ValueError):
            ConformalClassifier(model).calibrate(negatives)

    def test_p_values_shape_and_range(self, trained):
        model, calib, test = trained
        clf = ConformalClassifier(model).calibrate(calib)
        p = clf.p_values(model.predict(test.covariates))
        assert p.shape == (len(test), 1)
        assert np.all((p >= 0) & (p <= 1))

    def test_confidence_monotonicity(self, trained):
        """Eq. 10: higher c ⇒ superset of predicted-positive records."""
        model, calib, test = trained
        clf = ConformalClassifier(model).calibrate(calib)
        output = model.predict(test.covariates)
        low = clf.predict(output, confidence=0.6)
        high = clf.predict(output, confidence=0.95)
        assert np.all(high[low])  # low-positives ⊆ high-positives
        assert high.sum() >= low.sum()

    def test_recall_guarantee_theorem42(self, trained):
        """Empirical recall of positives ≥ c (up to finite-sample slack)."""
        model, calib, test = trained
        clf = ConformalClassifier(model).calibrate(calib)
        output = model.predict(test.covariates)
        for c in (0.7, 0.9):
            predicted = clf.predict(output, confidence=c)
            truth = test.labels > 0
            recall = predicted[truth].mean()
            assert recall >= c - 0.12, f"recall {recall} at c={c}"

    def test_confidence_one_predicts_all_positive(self, trained):
        model, calib, test = trained
        clf = ConformalClassifier(model).calibrate(calib)
        predicted = clf.predict(model.predict(test.covariates), confidence=1.0)
        assert predicted.all()

    def test_confidence_validation(self, trained):
        model, calib, test = trained
        clf = ConformalClassifier(model).calibrate(calib)
        with pytest.raises(ValueError):
            clf.predict(model.predict(test.covariates), confidence=1.2)

    def test_custom_nonconformity_measure(self, trained):
        """Theorem 4.1 holds for any measure: margin-based recall also ≥ c."""
        model, calib, test = trained
        clf = ConformalClassifier(model, nonconformity=margin_nonconformity)
        clf.calibrate(calib)
        predicted = clf.predict(model.predict(test.covariates), confidence=0.9)
        truth = test.labels > 0
        assert predicted[truth].mean() >= 0.78


class TestConformalRegressor:
    def test_requires_calibration(self, trained):
        model, _, test = trained
        reg = ConformalRegressor(model)
        with pytest.raises(RuntimeError):
            reg.quantiles(0.5)

    def test_tau2_validation(self, trained):
        model = trained[0]
        with pytest.raises(ValueError):
            ConformalRegressor(model, tau2=1.5)

    def test_quantiles_monotone_in_alpha(self, trained):
        model, calib, _ = trained
        reg = ConformalRegressor(model).calibrate(calib)
        q_low = reg.quantiles(0.3)
        q_high = reg.quantiles(0.95)
        assert np.all(q_high >= q_low)

    def test_alpha_validation(self, trained):
        model, calib, _ = trained
        reg = ConformalRegressor(model).calibrate(calib)
        with pytest.raises(ValueError):
            reg.quantiles(0.0)

    def test_widen_expands_and_clamps(self, trained):
        model, calib, _ = trained
        reg = ConformalRegressor(model).calibrate(calib)
        batch = PredictionBatch(
            exists=np.array([[True]]),
            starts=np.array([[2]]),
            ends=np.array([[15]]),
            horizon=16,
        )
        widened = reg.widen(batch, alpha=0.9)
        assert widened.starts[0, 0] <= 2
        assert widened.ends[0, 0] >= 15
        assert widened.starts[0, 0] >= 1
        assert widened.ends[0, 0] <= 16

    def test_widen_ignores_absent_events(self, trained):
        model, calib, _ = trained
        reg = ConformalRegressor(model).calibrate(calib)
        batch = PredictionBatch(
            exists=np.array([[False]]),
            starts=np.array([[0]]),
            ends=np.array([[0]]),
            horizon=16,
        )
        widened = reg.widen(batch, alpha=0.9)
        assert widened.starts[0, 0] == 0 and widened.ends[0, 0] == 0

    def test_coverage_theorem52(self, trained):
        """True starts/ends fall inside ±q̂ with frequency ≥ α − slack."""
        model, calib, test = trained
        reg = ConformalRegressor(model).calibrate(calib)
        output = model.predict(test.covariates)
        pred_starts, pred_ends = extract_intervals(output.frame_scores, 0.5)
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
        reg = ConformalRegressor(model).calibrate(calib)
        output = model.predict(test.covariates)
        exists = output.scores >= 0.5
        batch = reg.predict(output, exists, alpha=0.7)
        assert batch.exists.shape == (len(test), 1)
        np.testing.assert_array_equal(batch.exists, exists)

    def test_predict_exists_shape_checked(self, trained):
        model, calib, test = trained
        reg = ConformalRegressor(model).calibrate(calib)
        output = model.predict(test.covariates)
        with pytest.raises(ValueError):
            reg.predict(output, np.ones((3, 3), dtype=bool), alpha=0.5)

    def test_higher_alpha_wider_intervals(self, trained):
        model, calib, test = trained
        reg = ConformalRegressor(model).calibrate(calib)
        output = model.predict(test.covariates)
        exists = np.ones_like(output.scores, dtype=bool)
        narrow = reg.predict(output, exists, alpha=0.2)
        wide = reg.predict(output, exists, alpha=0.99)
        assert (wide.predicted_frames() >= narrow.predicted_frames()).all()


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
        clf = ConformalClassifier(model, nonconformity=measure).calibrate(calib)
        measure = clf.nonconformity
        calib_scores = measure(model.predict(calib.covariates).scores)
        output = model.predict(test.covariates)
        test_scores = measure(output.scores)
        got = clf.p_values(output)
        assert got.shape == (len(test), 3)
        for k in range(3):
            positive = calib.labels[:, k] > 0
            want = conformal_p_values(test_scores[:, k], calib_scores[positive, k])
            assert np.array_equal(got[:, k], want)

    def test_quantiles_memo_is_invalidated_by_calibrate(self, trained):
        model, calib, test = trained
        reg = ConformalRegressor(model).calibrate(calib)
        before = reg.quantiles(0.9)
        reg.calibrate(test)
        fresh = ConformalRegressor(model).calibrate(test).quantiles(0.9)
        np.testing.assert_array_equal(reg.quantiles(0.9), fresh)
        assert not np.array_equal(before, fresh)  # the fixture can tell

    def test_quantiles_returns_a_copy(self, trained):
        model, calib, _ = trained
        reg = ConformalRegressor(model).calibrate(calib)
        first = reg.quantiles(0.9)
        want = first.copy()
        first[:] = -1.0
        np.testing.assert_array_equal(reg.quantiles(0.9), want)
        reg.quantiles(0.9)[:] = 99.0
        np.testing.assert_array_equal(reg.quantiles(0.9), want)

    def test_quantiles_equal_residual_quantile_per_alpha(self, trained):
        model, calib, _ = trained
        reg = ConformalRegressor(model).calibrate(calib)
        starts, ends = extract_intervals(
            model.predict(calib.covariates).frame_scores, reg.tau2
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
        reg = ConformalRegressor(model).calibrate(calib)
        output = model.predict(test.covariates)
        exists = output.scores >= 0.5
        starts, ends = extract_intervals(output.frame_scores, reg.tau2)
        raw = PredictionBatch(
            exists=exists,
            starts=np.where(exists, starts, 0),
            ends=np.where(exists, ends, 0),
            horizon=output.horizon,
        )
        want = reg.widen(raw, 0.9)
        got = reg.predict(output, exists, 0.9)
        for field in ("exists", "starts", "ends"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
        assert got.exists is not exists
