"""One inference forward per site: calibration, recalibration, the canary
and the hot swap each score through a serving engine, once per model.

The counts are of :meth:`BatchedInference.predict` calls (with their row
counts) and of ``EventHit.forward`` calls, the training forward, which
none of these sites may run.  The lifecycle marshaller runs none at all:
it copies the experiment's calibrated layers.
"""

import pickle

import pytest

import repro.harness.experiments as experiments
import repro.lifecycle.controller as controller_module
from repro.cloud import CloudInferenceService
from repro.core import BatchedInference, EventHit
from repro.harness import ExperimentSettings, lifecycle_marshaller, run_experiment
from repro.lifecycle import LifecycleController, ModelRegistry
from tests.lifecycle.conftest import RETRAIN_CONFIG


@pytest.fixture
def forwards(monkeypatch):
    """Live counts: ``engine`` lists each engine forward's row count,
    ``model`` counts ``EventHit.forward`` calls."""
    calls = {"engine": [], "model": 0}
    predict, forward = BatchedInference.predict, EventHit.forward

    def counted_predict(self, covariates):
        calls["engine"].append(len(covariates))
        return predict(self, covariates)

    def counted_forward(self, covariates):
        calls["model"] += 1
        return forward(self, covariates)

    monkeypatch.setattr(BatchedInference, "predict", counted_predict)
    monkeypatch.setattr(EventHit, "forward", counted_forward)
    return calls


def reset(calls):
    calls["engine"].clear()
    calls["model"] = 0


def count_after_training(monkeypatch, module, calls):
    """Zero ``calls`` once ``module``'s training run returns, so the count
    covers only what the site scores after training."""
    train = module.train_eventhit

    def trained(*args, **kwargs):
        out = train(*args, **kwargs)
        reset(calls)
        return out

    monkeypatch.setattr(module, "train_eventhit", trained)


def test_run_experiment_calibrates_on_one_forward(monkeypatch, forwards):
    count_after_training(monkeypatch, experiments, forwards)
    settings = ExperimentSettings(scale=0.05, max_records=60, epochs=1, seed=0)
    experiment = run_experiment("TA10", settings=settings)
    assert forwards == {"engine": [len(experiment.data.calibration)], "model": 0}
    reset(forwards)
    marshaller = lifecycle_marshaller(experiment)
    assert forwards == {"engine": [], "model": 0}

    # The lifecycle marshaller's layers are private copies of the
    # experiment's: the same bytes in other objects, so recalibrating them
    # in place (what a swap does) leaves the experiment's layers alone.
    shared = (experiment.classifier, experiment.regressor)
    private = (marshaller.classifier, marshaller.regressor)
    before = [pickle.dumps(layer) for layer in shared]
    assert [pickle.dumps(layer) for layer in private] == before
    assert all(mine is not theirs for mine, theirs in zip(private, shared))
    test = experiment.data.test
    output = marshaller.inference.predict(test.covariates)
    for layer in private:
        layer.calibrate(output, test)
    assert all(pickle.dumps(layer) != was for layer, was in zip(private, before))
    assert [pickle.dumps(layer) for layer in shared] == before


def filled_controller(setup, marshaller, registry):
    """A controller whose audit buffer a run filled without triggering."""
    spec, data, model, pipeline = setup
    controller = LifecycleController(
        marshaller, registry, audit_rate=1.0, min_records=10**9,
        min_positives=1, retrain_config=RETRAIN_CONFIG,
        recall_margin=1.0, brier_margin=2.0,
    )
    if registry is not None:
        controller.register_incumbent()
    marshaller.run(
        data.test_stream, data.test_features,
        CloudInferenceService(data.test_stream), max_horizons=12,
        lifecycle=controller,
    )
    assert controller.buffer.ready_for_calibration(1)
    return controller


def test_registryless_recalibration_is_one_forward(setup, make_marshaller, forwards):
    controller = filled_controller(setup, make_marshaller(), None)
    reset(forwards)
    controller._recalibrate_in_place(tick=12, reason="schedule")
    assert controller.recalibrations == 1
    assert forwards == {"engine": [len(controller.buffer)], "model": 0}


def test_canary_and_swap_are_one_forward_per_model(
    setup, make_marshaller, forwards, monkeypatch, tmp_path
):
    marshaller = make_marshaller()
    controller = filled_controller(setup, marshaller, ModelRegistry(tmp_path))
    incumbent = marshaller.inference
    count_after_training(monkeypatch, controller_module, forwards)
    controller._retrain(tick=12, reason="schedule")
    (verdict,) = controller.canary_verdicts
    assert verdict.passed and controller.has_pending_swap
    assert forwards == {"engine": [verdict.records] * 2, "model": 0}

    reset(forwards)
    assert controller.maybe_swap([], tick=13)
    assert forwards == {"engine": [len(controller.buffer)], "model": 0}
    assert marshaller.inference is not incumbent
    assert type(marshaller.inference) is type(incumbent)
    assert marshaller.model is marshaller.inference.model
