"""Tests for the EventHit training loop, including learnability integration."""

import io
import json

import numpy as np
import pytest

from repro import obs
from repro.core import EventHit, EventHitConfig, Trainer, threshold_predictions, train_eventhit
from repro.data import build_experiment_data
from repro.video import make_thumos
from tests.helpers import engine_predict


def synthetic_records(b=64, k=1, m=6, d=4, h=16, seed=0):
    """Records where a ramp in channel 0 predicts event onset at a fixed lag."""
    from repro.data import RecordSet
    from repro.video.events import EventType

    rng = np.random.default_rng(seed)
    labels = (rng.random((b, k)) < 0.5).astype(float)
    covariates = rng.normal(0, 0.2, size=(b, m, d))
    starts = np.zeros((b, k), dtype=int)
    ends = np.zeros((b, k), dtype=int)
    for i in range(b):
        if labels[i, 0]:
            start = int(rng.integers(1, h - 4))
            starts[i, 0] = start
            ends[i, 0] = start + 3
            # Ramp whose final value encodes the time-to-onset.
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
        censored=np.zeros((b, k)),
    )


def small_config(**kw):
    defaults = dict(
        window_size=6, horizon=16, lstm_hidden=12, shared_hidden=(12,),
        head_hidden=(16,), dropout=0.0, learning_rate=5e-3, epochs=25,
        batch_size=32, seed=0,
    )
    defaults.update(kw)
    return EventHitConfig(**defaults)


class TestTrainerMechanics:
    def test_loss_decreases(self):
        records = synthetic_records()
        model, history = train_eventhit(records, config=small_config(epochs=10))
        assert history.train_losses[-1] < history.train_losses[0]
        assert history.epochs_run == 10

    def test_event_count_mismatch_raises(self):
        records = synthetic_records()
        model = EventHit(num_features=4, num_events=2, config=small_config())
        with pytest.raises(ValueError):
            Trainer(model).fit(records)

    def test_horizon_mismatch_raises(self):
        records = synthetic_records()
        with pytest.raises(ValueError):
            train_eventhit(records, config=small_config(horizon=99))

    def test_patience_validation(self):
        model = EventHit(4, 1, config=small_config())
        with pytest.raises(ValueError):
            Trainer(model, patience=0)

    def test_early_stopping_triggers(self):
        records = synthetic_records(b=48)
        val = synthetic_records(b=24, seed=9)
        config = small_config(epochs=200, learning_rate=1e-2)
        model, history = train_eventhit(
            records, config=config, validation=val, patience=3
        )
        assert history.stopped_early
        assert history.epochs_run < 200
        assert len(history.val_losses) == history.epochs_run

    def test_evaluate_loss_no_grad_side_effects(self):
        records = synthetic_records(b=16)
        model = EventHit(4, 1, config=small_config())
        trainer = Trainer(model)
        loss = trainer.evaluate_loss(records)
        assert np.isfinite(loss)
        assert all(p.grad is None for p in model.parameters())

    def test_model_left_in_eval_mode(self):
        records = synthetic_records(b=16)
        model, _ = train_eventhit(records, config=small_config(epochs=1))
        assert not model.training

    def test_history_final_loss_nan_when_empty(self):
        from repro.core.trainer import TrainingHistory

        assert np.isnan(TrainingHistory().final_train_loss)

    def test_deterministic_training(self):
        records = synthetic_records(b=32)
        m1, h1 = train_eventhit(records, config=small_config(epochs=3))
        m2, h2 = train_eventhit(records, config=small_config(epochs=3))
        np.testing.assert_allclose(h1.train_losses, h2.train_losses)
        np.testing.assert_array_equal(
            m1.state_dict()["head0.net.layer0.weight"],
            m2.state_dict()["head0.net.layer0.weight"],
        )


class TestTrainingObservability:
    @pytest.fixture(autouse=True)
    def clean_obs(self):
        obs.reset()
        yield
        obs.reset()

    def test_epoch_seconds_populated_without_instrumentation(self):
        records = synthetic_records(b=32)
        _, history = train_eventhit(records, config=small_config(epochs=4))
        assert len(history.epoch_seconds) == history.epochs_run == 4
        assert all(s >= 0 for s in history.epoch_seconds)
        # The total keeps its original meaning: wall time of the whole fit,
        # which contains every epoch interval.
        assert history.seconds >= sum(history.epoch_seconds) - 1e-9
        assert not obs.get_tracer().records  # disabled → nothing recorded

    def test_epoch_seconds_tracks_early_stopping(self):
        records = synthetic_records(b=48)
        val = synthetic_records(b=24, seed=9)
        config = small_config(epochs=200, learning_rate=1e-2)
        _, history = train_eventhit(
            records, config=config, validation=val, patience=3
        )
        assert history.stopped_early
        assert len(history.epoch_seconds) == history.epochs_run

    def test_spans_gauges_and_grad_norms_recorded_when_enabled(self):
        obs.configure(enabled=True)
        records = synthetic_records(b=32)
        _, history = train_eventhit(records, config=small_config(epochs=3))
        names = [r.name for r in obs.get_tracer().records]
        assert names.count("train") == 1
        assert names.count("train.epoch") == 3
        epoch_records = [
            r for r in obs.get_tracer().records if r.name == "train.epoch"
        ]
        assert all(r.parent == "train" for r in epoch_records)
        np.testing.assert_allclose(
            [r.seconds for r in epoch_records], history.epoch_seconds
        )
        snap = obs.get_registry().snapshot()
        assert snap["gauges"]["train.loss"]["value"] == pytest.approx(
            history.train_losses[-1]
        )
        assert snap["histograms"]["train.grad_norm"]["count"] > 0

    def test_verbose_emits_structured_log_lines(self):
        sink = io.StringIO()
        obs.configure(log_level="error", log_sink=sink)  # verbose must force
        records = synthetic_records(b=32)
        train_eventhit(records, config=small_config(epochs=2), verbose=True)
        lines = [json.loads(l) for l in sink.getvalue().strip().splitlines()]
        epochs = [l for l in lines if l["event"] == "train.epoch"]
        assert [l["epoch"] for l in epochs] == [1, 2]
        assert all("train_loss" in l for l in epochs)


class TestLearnability:
    """Integration: EventHit learns both *if* and *when* on a learnable task."""

    def test_existence_beats_chance_on_synthetic(self):
        train = synthetic_records(b=128, seed=0)
        test = synthetic_records(b=64, seed=1)
        model, _ = train_eventhit(train, config=small_config(epochs=40))
        out = engine_predict(model, test.covariates)
        pred = out.scores[:, 0] >= 0.5
        truth = test.labels[:, 0] > 0
        accuracy = (pred == truth).mean()
        assert accuracy > 0.8, f"existence accuracy {accuracy}"

    def test_interval_prediction_correlates(self):
        train = synthetic_records(b=192, seed=0)
        test = synthetic_records(b=64, seed=1)
        model, _ = train_eventhit(train, config=small_config(epochs=60))
        out = engine_predict(model, test.covariates)
        batch = threshold_predictions(out, tau1=0.5, tau2=0.5)
        truth_mask = test.labels[:, 0] > 0
        predicted_starts = batch.starts[truth_mask & batch.exists[:, 0], 0]
        true_starts = test.starts[truth_mask & batch.exists[:, 0], 0]
        assert len(predicted_starts) > 10
        error = np.abs(predicted_starts - true_starts).mean()
        assert error < 4.0, f"mean start error {error}"

    def test_end_to_end_on_dataset_pipeline(self):
        """Full pipeline: synthetic THUMOS stream → records → training."""
        spec = make_thumos(scale=0.06).with_events(["E7"])
        data = build_experiment_data(spec, seed=0, max_records=150, stride=15)
        config = EventHitConfig(
            window_size=spec.window_size,
            horizon=spec.horizon,
            lstm_hidden=16,
            shared_hidden=(16,),
            head_hidden=(32,),
            dropout=0.0,
            learning_rate=5e-3,
            epochs=15,
            batch_size=32,
            seed=0,
        )
        model, history = train_eventhit(data.train, config=config)
        assert history.train_losses[-1] < history.train_losses[0]
        out = engine_predict(model, data.test.covariates)
        pred = out.scores[:, 0] >= 0.5
        truth = data.test.labels[:, 0] > 0
        # Must beat the majority-class baseline by a margin.
        majority = max(truth.mean(), 1 - truth.mean())
        accuracy = (pred == truth).mean()
        assert accuracy > majority - 0.05
