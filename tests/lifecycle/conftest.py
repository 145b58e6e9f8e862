"""Shared fixtures for the lifecycle suite.

Mirrors the fleet-test setup (tiny THUMOS slice, one event type, fast
training config) so the byte-identity pins compare against the exact
marshaller behavior the rest of the suite locks down.  Marshallers are
built fresh per test because hot-swaps recalibrate the conformal
components in place.
"""

import pytest

from repro.cloud import StreamMarshaller
from repro.core import EventHitConfig, train_eventhit
from repro.data import build_experiment_data
from repro.features import CovariatePipeline
from repro.video import make_thumos
from tests.helpers import calibrated

CONFIG = EventHitConfig(
    window_size=10,
    horizon=200,
    lstm_hidden=16,
    shared_hidden=(16,),
    head_hidden=(32,),
    dropout=0.0,
    learning_rate=5e-3,
    epochs=8,
    batch_size=32,
    seed=0,
)

#: Fast retrain config for controller tests — same architecture, fewer
#: epochs, so drift-triggered retrains stay cheap.
RETRAIN_CONFIG = EventHitConfig(
    window_size=10,
    horizon=200,
    lstm_hidden=16,
    shared_hidden=(16,),
    head_hidden=(32,),
    dropout=0.0,
    learning_rate=5e-3,
    epochs=2,
    batch_size=32,
    seed=1,
)

MAX_HORIZONS = 5


@pytest.fixture(scope="session")
def setup():
    spec = make_thumos(scale=0.06).with_events(["E7"])
    data = build_experiment_data(spec, seed=0, max_records=150, stride=15)
    model, _ = train_eventhit(data.train, config=CONFIG)
    pipeline = CovariatePipeline(spec.window_size, standardizer=data.standardizer)
    return spec, data, model, pipeline


@pytest.fixture
def make_marshaller(setup):
    """Factory for a fresh serving marshaller with freshly calibrated
    conformal components (swaps mutate them in place)."""
    spec, data, model, pipeline = setup

    def build(**kwargs):
        kwargs.setdefault("tau1", 0.5)
        kwargs.setdefault("tau2", 0.5)
        classifier, regressor = calibrated(
            model, data.calibration, tau2=kwargs["tau2"]
        )
        return StreamMarshaller(
            model,
            data.event_types,
            pipeline,
            classifier=classifier,
            regressor=regressor,
            **kwargs,
        )

    return build
