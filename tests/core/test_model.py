"""Tests for the EventHit network architecture."""

import numpy as np
import pytest

from repro.core import EventHit, EventHitConfig, EventHitOutput
from tests.helpers import engine_predict


def small_config(**kwargs):
    defaults = dict(
        window_size=6,
        horizon=20,
        lstm_hidden=8,
        shared_hidden=(8,),
        head_hidden=(8,),
        dropout=0.0,
        epochs=2,
        seed=0,
    )
    defaults.update(kwargs)
    return EventHitConfig(**defaults)


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = EventHitConfig()
        assert cfg.window_size == 25 and cfg.horizon == 500
        assert cfg.batch_size == 128  # paper §VI.H

    def test_validation(self):
        with pytest.raises(ValueError):
            EventHitConfig(window_size=0)
        with pytest.raises(ValueError):
            EventHitConfig(dropout=1.0)
        with pytest.raises(ValueError):
            EventHitConfig(learning_rate=0)
        with pytest.raises(ValueError):
            EventHitConfig(grad_clip=0)
        with pytest.raises(ValueError):
            EventHitConfig(epochs=0)


class TestEventHitOutput:
    def test_validation(self):
        with pytest.raises(ValueError):
            EventHitOutput(np.zeros((2, 3)), np.zeros((2, 4, 5)))
        with pytest.raises(ValueError):
            EventHitOutput(np.zeros(3), np.zeros((1, 3, 5)))

    def test_properties(self):
        out = EventHitOutput(np.zeros((4, 2)), np.zeros((4, 2, 7)))
        assert out.batch_size == 4
        assert out.num_events == 2
        assert out.horizon == 7


class TestForward:
    def test_output_shapes(self):
        model = EventHit(num_features=5, num_events=3, config=small_config())
        scores, frames = model(np.zeros((4, 6, 5)))
        assert scores.shape == (4, 3)
        assert frames.shape == (4, 3, 20)

    def test_outputs_in_unit_interval(self):
        model = EventHit(num_features=4, num_events=2, config=small_config())
        rng = np.random.default_rng(0)
        scores, frames = model(rng.normal(size=(8, 6, 4)))
        assert np.all((scores.data > 0) & (scores.data < 1))
        assert np.all((frames.data > 0) & (frames.data < 1))

    def test_input_validation(self):
        model = EventHit(num_features=4, num_events=1, config=small_config())
        with pytest.raises(ValueError):
            model(np.zeros((4, 6)))
        with pytest.raises(ValueError):
            model(np.zeros((4, 6, 7)))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            EventHit(num_features=0, num_events=1)
        with pytest.raises(ValueError):
            EventHit(num_features=1, num_events=0)
        with pytest.raises(ValueError):
            EventHit(num_features=1, num_events=1, encoder="transformer")

    def test_heads_have_independent_weights(self):
        model = EventHit(num_features=4, num_events=2, config=small_config())
        h0, h1 = model.heads()
        w0 = next(p for n, p in h0.named_parameters() if "weight" in n)
        w1 = next(p for n, p in h1.named_parameters() if "weight" in n)
        assert not np.array_equal(w0.data, w1.data)

    def test_deterministic_given_seed(self):
        a = EventHit(4, 2, config=small_config(seed=5))
        b = EventHit(4, 2, config=small_config(seed=5))
        x = np.random.default_rng(0).normal(size=(3, 6, 4))
        a.eval(), b.eval()
        sa, _ = a(x)
        sb, _ = b(x)
        np.testing.assert_array_equal(sa.data, sb.data)

    def test_mean_encoder_variant(self):
        model = EventHit(4, 1, config=small_config(), encoder="mean")
        scores, frames = model(np.zeros((2, 6, 4)))
        assert scores.shape == (2, 1)

    def test_mean_encoder_order_invariant_lstm_not(self):
        """The ablation encoder ignores order; the LSTM does not."""
        cfg = small_config()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 6, 4))
        # The heads consume the window's last vector directly; equalise the
        # endpoints so only the encoder's order sensitivity is measured.
        x[:, 0, :] = x[:, -1, :]
        x_rev = x[:, ::-1, :].copy()

        mean_model = EventHit(4, 1, config=cfg, encoder="mean")
        mean_model.eval()
        s1, _ = mean_model(x)
        s2, _ = mean_model(x_rev)
        np.testing.assert_allclose(s1.data, s2.data)

        lstm_model = EventHit(4, 1, config=cfg, encoder="lstm")
        lstm_model.eval()
        s3, _ = lstm_model(x)
        s4, _ = lstm_model(x_rev)
        assert not np.allclose(s3.data, s4.data)


class TestPredict:
    """Inference goes through the serving engine, in eval semantics."""

    def test_predict_restores_training_mode(self):
        model = EventHit(4, 1, config=small_config())
        model.train()
        engine_predict(model, np.zeros((2, 6, 4)))
        assert model.training

    def test_predict_with_dropout_deterministic(self):
        """Dropout must be disabled during inference."""
        model = EventHit(4, 1, config=small_config(dropout=0.5))
        x = np.random.default_rng(0).normal(size=(3, 6, 4))
        a = engine_predict(model, x).scores
        b = engine_predict(model, x).scores
        np.testing.assert_array_equal(a, b)
