"""Offline ≡ served: the §VI.B variants decide exactly as serving does.

Every Fig. 4–8 number comes from :class:`~repro.baselines.EventHitRule`
over a cached forward pass; the fleet serves
:meth:`StreamMarshaller.decide <repro.cloud.StreamMarshaller.decide>`.
Both call :func:`~repro.core.inference.decide_intervals`.  The first pin
runs the two entry points on one trained model's test output; the second
holds the shared rule to a full-array reference: ``extract_intervals``
over every pair masked by existence, and ``ConformalRegressor.widen``
over those raw intervals.
"""

import numpy as np
import pytest

from repro.baselines import EHC, EHCR, EHO, EHR, EventHitRule
from repro.cloud import StreamMarshaller
from repro.conformal import ConformalClassifier, ConformalRegressor
from repro.core import EventHitConfig, EventHitOutput, train_eventhit
from repro.core.inference import PredictionBatch, decide_intervals, extract_intervals
from repro.data import RecordSet
from repro.features import CovariatePipeline
from repro.video.events import EventType

HORIZON = 24
EVENTS = 2
WINDOW = 6
FEATURES = 4
EVENT_TYPES = [EventType(f"e{k}", 4, 1) for k in range(EVENTS)]
CONFIG = EventHitConfig(
    window_size=WINDOW, horizon=HORIZON, lstm_hidden=8, shared_hidden=(8,),
    head_hidden=(16,), dropout=0.0, learning_rate=5e-3, epochs=12,
    batch_size=32, seed=0,
)
#: The regressor extracts raw intervals at its own τ2, never the rule's.
REGRESSOR_TAU2 = 0.4


def records(seed, n=120):
    """Two events whose onsets the first covariate channels announce."""
    rng = np.random.default_rng(seed)
    labels = (rng.random((n, EVENTS)) < 0.5).astype(float)
    labels[:4] = 1.0  # every split has positives of every event
    covariates = rng.normal(0, 0.2, size=(n, WINDOW, FEATURES))
    starts = np.zeros((n, EVENTS), dtype=int)
    ends = np.zeros((n, EVENTS), dtype=int)
    for i, k in zip(*np.nonzero(labels)):
        start = int(rng.integers(1, HORIZON - 6))
        starts[i, k] = start
        ends[i, k] = start + int(rng.integers(1, 5))
        covariates[i, :, k] += np.linspace(0.8, 1.0, WINDOW) * (1 - start / HORIZON)
    return RecordSet(
        event_types=EVENT_TYPES, horizon=HORIZON, frames=np.arange(n),
        covariates=covariates, labels=labels, starts=starts, ends=ends,
        censored=np.zeros((n, EVENTS)),
    )


@pytest.fixture(scope="module")
def trained():
    model, _ = train_eventhit(records(0, n=160), config=CONFIG)
    calibration = records(1)
    return (
        model,
        ConformalClassifier(model).calibrate(calibration),
        ConformalRegressor(model, tau2=REGRESSOR_TAU2).calibrate(calibration),
        records(2),
    )


#: Per variant: its layers and knob settings, off the defaults included.
SETTINGS = {
    "EHO": (False, False, [{}, {"tau1": 0.3, "tau2": 0.7},
                           {"tau1": 0.8, "tau2": 0.2}]),
    "EHC": (True, False, [{}, {"confidence": 0.5, "tau2": 0.3},
                          {"confidence": 1.0}]),
    "EHR": (False, True, [{}, {"alpha": 0.3, "tau1": 0.2},
                          {"alpha": 1.0, "tau1": 0.7}]),
    "EHCR": (True, True, [{}, {"confidence": 0.6, "alpha": 0.4},
                          {"confidence": 1.0, "alpha": 1.0}]),
}
#: The served side's values for the knobs a variant does not read.
UNREAD = {"confidence": 0.3, "alpha": 0.2, "tau1": 0.9, "tau2": 0.8}


def rule_for(trained, name):
    model, classifier, regressor, _ = trained
    use_classifier, use_regressor, _ = SETTINGS[name]
    return EventHitRule(
        model,
        classifier=classifier if use_classifier else None,
        regressor=regressor if use_regressor else None,
    )


class TestOfflineEqualsServed:
    @pytest.mark.parametrize("name", sorted(SETTINGS))
    def test_rule_predict_equals_span_decide(self, trained, name):
        model, _, _, test = trained
        rule = rule_for(trained, name)
        assert rule.name == name
        for knobs in SETTINGS[name][2]:
            served = StreamMarshaller(
                model, EVENT_TYPES, CovariatePipeline(WINDOW),
                classifier=rule.classifier, regressor=rule.regressor,
                **{**UNREAD, **rule.knobs, **knobs},
            )
            offline = rule.predict(test, **knobs)
            exists, segments = served.decide(model.predict(test.covariates))
            assert np.array_equal(offline.exists, exists)
            assert 0 < exists.sum() <= exists.size
            assert segments == [
                [
                    [(int(offline.starts[b, k]), int(offline.ends[b, k]))]
                    if exists[b, k] else []
                    for k in range(EVENTS)
                ]
                for b in range(len(test))
            ]

    def test_constructors_are_the_rule(self, trained):
        model, classifier, regressor, test = trained
        built = {
            "EHO": EHO(model),
            "EHC": EHC(model, classifier),
            "EHR": EHR(model, regressor),
            "EHCR": EHCR(model, classifier, regressor),
        }
        for name, predictor in built.items():
            want = rule_for(trained, name).predict(test)
            got = predictor.predict(test)
            assert predictor.name == name
            assert np.array_equal(got.exists, want.exists)
            assert np.array_equal(got.starts, want.starts)
            assert np.array_equal(got.ends, want.ends)


# ---------------------------------------------------------------------------
# The shared rule against the full-array reference.
# ---------------------------------------------------------------------------


def random_logits(seed, batch=31):
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=(batch, EVENTS, 1 + HORIZON)) * 3.0
    theta[:, :, 1:] += np.sin(np.arange(HORIZON) / 2.0) * 2.0
    # Zero logits activate to exactly 0.5: scores on the τ1 = τ2 = 0.5
    # boundary, where ``>=`` and ``>`` part.
    theta[::3, :, 0] = 0.0
    theta[1::4, :, 1::5] = 0.0
    return theta


def eager_output(theta):
    full = 1.0 / (1.0 + np.exp(-theta))
    return EventHitOutput(full[:, :, 0], full[:, :, 1:])


def full_array_rule(output, classifier, regressor, confidence, alpha, tau1, tau2):
    if classifier is not None:
        exists = classifier.predict(output, confidence)
    else:
        exists = output.scores >= tau1
    tau2 = regressor.tau2 if regressor is not None else tau2
    starts, ends = extract_intervals(output.frame_scores, tau2)
    raw = PredictionBatch(exists, np.where(exists, starts, 0),
                          np.where(exists, ends, 0), output.horizon)
    return raw if regressor is None else regressor.widen(raw, alpha)


class TestRuleEqualsFullArrayForm:
    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    @pytest.mark.parametrize("name", sorted(SETTINGS))
    @pytest.mark.parametrize("seed", range(3))
    def test_decide_intervals(self, trained, lazy, name, seed):
        use_classifier, use_regressor, _ = SETTINGS[name]
        classifier = trained[1] if use_classifier else None
        regressor = trained[2] if use_regressor else None
        # Widening leaves room inside the horizon, so the raw intervals
        # still show through.
        assert trained[2].quantiles(0.5).max() < HORIZON // 2
        theta = random_logits(seed)
        for confidence in (0.4, 0.9):
            for alpha, tau1, tau2 in ((0.5, 0.5, 0.5), (0.3, 0.2, 0.7)):
                output = (EventHitOutput.from_logits(theta) if lazy
                          else eager_output(theta))
                got = decide_intervals(output, classifier, regressor,
                                       confidence, alpha, tau1, tau2)
                want = full_array_rule(eager_output(theta), classifier, regressor,
                                   confidence, alpha, tau1, tau2)
                assert np.array_equal(got.exists, want.exists)
                assert np.array_equal(got.starts, want.starts)
                assert np.array_equal(got.ends, want.ends)
                assert got.horizon == HORIZON
                if lazy:  # only the kept pairs were activated
                    assert output._frame_scores is None
