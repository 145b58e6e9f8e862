"""Tests for the EHO/EHC/EHR/EHCR configurations of the decision rule."""

import numpy as np
import pytest

from repro.baselines import EHC, EHCR, EHO, EHR, EventHitRule
from repro.conformal import ConformalClassifier, ConformalRegressor
from repro.core import EventHitConfig, train_eventhit
from repro.data import RecordSet
from repro.metrics import evaluate, existence_recall, recall, spillage
from repro.video.events import EventType


def synthetic_records(b=96, h=16, seed=0, m=6, d=4):
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
def stack():
    train = synthetic_records(b=160, seed=0)
    calib = synthetic_records(b=120, seed=1)
    test = synthetic_records(b=120, seed=2)
    model, _ = train_eventhit(train, config=CONFIG)
    classifier = ConformalClassifier(model).calibrate(calib)
    regressor = ConformalRegressor(model).calibrate(calib)
    return model, classifier, regressor, test


class TestEHO:
    def test_predict_shapes(self, stack):
        model, _, _, test = stack
        pred = EHO(model).predict(test)
        assert pred.exists.shape == (len(test), 1)

    def test_knob_override(self, stack):
        model, _, _, test = stack
        eho = EHO(model)
        strict = eho.predict(test, tau1=0.99)
        loose = eho.predict(test, tau1=0.01)
        assert loose.exists.sum() >= strict.exists.sum()

    def test_rejects_unknown_knobs(self, stack):
        model, _, _, test = stack
        with pytest.raises(TypeError):
            EHO(model).predict(test, confidence=0.9)

    def test_reasonable_quality(self, stack):
        model, _, _, test = stack
        summary = evaluate(EHO(model).predict(test), test)
        assert summary.rec > 0.5
        assert summary.spl < 0.5


class TestEHC:
    def test_requires_calibrated_classifier(self, stack):
        model, _, _, _ = stack
        with pytest.raises(ValueError):
            EHC(model, ConformalClassifier(model))

    def test_confidence_raises_recall(self, stack):
        model, classifier, _, test = stack
        ehc = EHC(model, classifier)
        low = ehc.predict(test, confidence=0.5)
        high = ehc.predict(test, confidence=0.99)
        assert existence_recall(high, test) >= existence_recall(low, test)
        assert spillage(high, test) >= spillage(low, test) - 1e-9

    def test_higher_recall_than_eho_at_high_c(self, stack):
        model, classifier, _, test = stack
        eho_rec_c = existence_recall(EHO(model).predict(test), test)
        ehc_rec_c = existence_recall(
            EHC(model, classifier).predict(test, confidence=0.99), test
        )
        assert ehc_rec_c >= eho_rec_c

    def test_rejects_unknown_knobs(self, stack):
        model, classifier, _, test = stack
        with pytest.raises(TypeError):
            EHC(model, classifier).predict(test, alpha=0.9)
        with pytest.raises(TypeError):  # C-CLASSIFY replaces τ1
            EHC(model, classifier).predict(test, tau1=0.5)


class TestEHR:
    def test_requires_calibrated_regressor(self, stack):
        model, _, _, _ = stack
        with pytest.raises(ValueError):
            EHR(model, ConformalRegressor(model))

    def test_alpha_widens_intervals(self, stack):
        model, _, regressor, test = stack
        ehr = EHR(model, regressor)
        narrow = ehr.predict(test, alpha=0.2)
        wide = ehr.predict(test, alpha=0.95)
        assert wide.predicted_frames().sum() >= narrow.predicted_frames().sum()
        assert recall(wide, test) >= recall(narrow, test)

    def test_rejects_unknown_knobs(self, stack):
        model, _, regressor, test = stack
        with pytest.raises(TypeError):  # C-REGRESS extracts at its own τ2
            EHR(model, regressor).predict(test, tau2=0.5)

    def test_existence_same_as_eho(self, stack):
        model, _, regressor, test = stack
        np.testing.assert_array_equal(
            EHR(model, regressor).predict(test, alpha=0.5).exists,
            EHO(model).predict(test).exists,
        )


class TestEHCR:
    def test_requires_both_calibrations(self, stack):
        model, classifier, regressor, _ = stack
        with pytest.raises(ValueError):
            EHCR(model, ConformalClassifier(model), regressor)
        with pytest.raises(ValueError):
            EHCR(model, classifier, ConformalRegressor(model))

    def test_can_reach_high_recall(self, stack):
        """The paper's key claim: EHCR reaches ~max REC with both knobs up."""
        model, classifier, regressor, test = stack
        ehcr = EHCR(model, classifier, regressor)
        pred = ehcr.predict(test, confidence=1.0, alpha=1.0)
        assert recall(pred, test) > 0.95

    def test_dominates_eho_recall_at_max_knobs(self, stack):
        model, classifier, regressor, test = stack
        eho_rec = recall(EHO(model).predict(test), test)
        ehcr_rec = recall(
            EHCR(model, classifier, regressor).predict(
                test, confidence=1.0, alpha=1.0
            ),
            test,
        )
        assert ehcr_rec >= eho_rec

    def test_knob_monotonicity(self, stack):
        model, classifier, regressor, test = stack
        ehcr = EHCR(model, classifier, regressor)
        values = []
        for c in (0.6, 0.8, 0.95, 1.0):
            pred = ehcr.predict(test, confidence=c, alpha=c)
            values.append((recall(pred, test), spillage(pred, test)))
        recs = [v[0] for v in values]
        assert recs == sorted(recs), f"REC not monotone: {recs}"

    def test_rejects_unknown_knobs(self, stack):
        model, classifier, regressor, test = stack
        with pytest.raises(TypeError):
            EHCR(model, classifier, regressor).predict(test, tau=0.5)


class TestEventHitRule:
    def test_layers_name_the_variant_and_fix_its_knobs(self, stack):
        model, classifier, regressor, _ = stack
        built = {
            "EHO": (EHO(model, tau1=0.3), {"tau1": 0.3, "tau2": 0.5}),
            "EHC": (EHC(model, classifier), {"confidence": 0.9, "tau2": 0.5}),
            "EHR": (EHR(model, regressor, alpha=0.7), {"alpha": 0.7, "tau1": 0.5}),
            "EHCR": (EHCR(model, classifier, regressor),
                     {"confidence": 0.9, "alpha": 0.9}),
        }
        for name, (rule, knobs) in built.items():
            assert isinstance(rule, EventHitRule)
            assert rule.name == name
            assert rule.knobs == knobs

    def test_tau1_range_checked_offline(self, stack):
        model, _, regressor, test = stack
        for rule in (EHO(model), EHR(model, regressor)):
            with pytest.raises(ValueError):
                rule.predict(test, tau1=2.0)
