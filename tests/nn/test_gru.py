"""Tests for the GRU encoder (forward semantics + gradcheck)."""

import numpy as np
import pytest

from repro.nn import Adam, GRU, GRUCell, Tensor
from tests.nn.test_gradcheck import _module_gradcheck

RNG = np.random.default_rng(11)


class TestGRUCell:
    def test_state_shape(self):
        cell = GRUCell(3, 5, rng=np.random.default_rng(0))
        h = cell.initial_state(4)
        h2 = cell(Tensor(np.zeros((4, 3))), h)
        assert h2.shape == (4, 5)

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            GRUCell(0, 4)

    def test_hidden_bounded(self):
        cell = GRUCell(2, 4, rng=np.random.default_rng(0))
        h = cell.initial_state(1)
        x = Tensor(np.full((1, 2), 50.0))
        for _ in range(20):
            h = cell(x, h)
        assert np.all(np.abs(h.data) <= 1.0)

    def test_update_gate_interpolates(self):
        """From zero state with zero input, h stays near zero (z·0 + ...)."""
        cell = GRUCell(2, 3, rng=np.random.default_rng(0))
        h = cell(Tensor(np.zeros((1, 2))), cell.initial_state(1))
        assert np.all(np.abs(h.data) < 1.0)

    def test_fewer_parameters_than_lstm(self):
        gru = GRUCell(8, 16, rng=np.random.default_rng(0))
        from repro.nn import LSTMCell

        lstm = LSTMCell(8, 16, rng=np.random.default_rng(0))
        assert gru.num_parameters() < lstm.num_parameters()


class TestGRU:
    def test_final_hidden_shape(self):
        gru = GRU(4, 6, rng=np.random.default_rng(0))
        out = gru(Tensor(np.zeros((3, 7, 4))))
        assert out.shape == (3, 6)

    def test_return_sequence(self):
        gru = GRU(2, 3, rng=np.random.default_rng(0))
        final, seq = gru(Tensor(np.zeros((2, 5, 2))), return_sequence=True)
        assert len(seq) == 5
        np.testing.assert_array_equal(final.data, seq[-1].data)

    def test_input_validation(self):
        gru = GRU(2, 3)
        with pytest.raises(ValueError):
            gru(Tensor(np.zeros((5, 2))))
        with pytest.raises(ValueError):
            gru(Tensor(np.zeros((1, 4, 5))))
        with pytest.raises(ValueError):
            gru(Tensor(np.zeros((1, 0, 2))))

    def test_order_sensitivity(self):
        gru = GRU(1, 4, rng=np.random.default_rng(0))
        ramp = np.linspace(0, 1, 6).reshape(1, 6, 1)
        out_up = gru(Tensor(ramp)).data
        out_down = gru(Tensor(ramp[:, ::-1, :].copy())).data
        assert not np.allclose(out_up, out_down)

    def test_gradcheck_sequence(self):
        gru = GRU(2, 3, rng=np.random.default_rng(3))
        x = RNG.normal(size=(2, 4, 2))
        _module_gradcheck(gru, x, tol=5e-4)

    def test_can_learn_sign_task(self):
        rng = np.random.default_rng(5)
        gru = GRU(1, 8, rng=rng)
        from repro.nn import Linear
        from repro.nn.functional import binary_cross_entropy

        head = Linear(8, 1, rng=rng)
        opt = Adam(gru.parameters() + head.parameters(), lr=0.02)
        x = rng.normal(size=(64, 5, 1))
        y = (x.sum(axis=(1, 2)) > 0).astype(float).reshape(-1, 1)
        first = None
        for _ in range(120):
            opt.zero_grad()
            loss = binary_cross_entropy(head(gru(Tensor(x))).sigmoid(), y)
            loss.backward()
            opt.step()
            first = first if first is not None else loss.item()
        pred = head(gru(Tensor(x))).sigmoid().data
        assert ((pred > 0.5).astype(float) == y).mean() > 0.9


class TestEventHitGRUEncoder:
    def test_gru_encoder_option(self):
        from repro.core import EventHit, EventHitConfig

        config = EventHitConfig(
            window_size=4, horizon=10, lstm_hidden=8, shared_hidden=(8,),
            head_hidden=(8,), dropout=0.0, epochs=1,
        )
        model = EventHit(3, 2, config=config, encoder="gru")
        scores, frames = model(np.zeros((2, 4, 3)))
        assert scores.shape == (2, 2)
        assert frames.shape == (2, 2, 10)

    def test_gru_trains_on_synthetic(self):
        from repro.core import train_eventhit
        from tests.core.test_trainer import small_config, synthetic_records

        records = synthetic_records(b=96, seed=0)
        model, history = train_eventhit(
            records, config=small_config(epochs=20), encoder="gru"
        )
        assert history.train_losses[-1] < history.train_losses[0] * 0.7
