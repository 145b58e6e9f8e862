"""The batched engine's batch-size-invariance contract (bitwise)."""

import importlib.util

import numpy as np
import pytest

import repro.core
from repro.core import BatchedInference, EventHit, EventHitConfig, rowstable_matmul
from repro.core.batched import _relu, _sigmoid
from repro.nn import MLP, no_grad
from repro.nn.layers import Tanh

CONFIG = EventHitConfig(
    window_size=12,
    horizon=40,
    lstm_hidden=16,
    shared_hidden=(16,),
    head_hidden=(24,),
    dropout=0.3,  # must be ignored at inference time
    seed=7,
)

NUM_FEATURES = 9
NUM_EVENTS = 3


def make_model(encoder: str) -> EventHit:
    # Random (untrained) parameters: invariance is a property of the
    # forward pass, not of the weights.
    return EventHit(NUM_FEATURES, NUM_EVENTS, config=CONFIG, encoder=encoder)


def make_batch(batch: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(batch, CONFIG.window_size, NUM_FEATURES))


class TestRowstableMatmul:
    def test_matches_matmul_values(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(17, 33))
        w = rng.normal(size=(33, 21))
        np.testing.assert_allclose(rowstable_matmul(x, w), x @ w, rtol=1e-12)

    @pytest.mark.parametrize("rows", [1, 2, 3, 7, 16, 63])
    def test_rows_invariant_under_batching(self, rows):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(64, 48))
        w = rng.normal(size=(48, 32))
        full = rowstable_matmul(x, w)
        part = rowstable_matmul(x[:rows], w)
        assert np.array_equal(full[:rows], part)

    def test_elementwise_helpers_match_tensor_formulas(self):
        x = np.array([-3.0, -0.0, 0.0, 0.5, 4.0])
        np.testing.assert_array_equal(_sigmoid(x), 1.0 / (1.0 + np.exp(-x)))
        np.testing.assert_array_equal(_relu(x), x * (x > 0).astype(np.float64))


class TestBatchInvariance:
    """predict(X)[i] must equal predict(X[i:i+1])[0] bitwise."""

    @pytest.mark.parametrize("encoder", ["lstm", "gru", "mean"])
    def test_rows_equal_solo_rows_bitwise(self, encoder):
        engine = BatchedInference(make_model(encoder))
        x = make_batch(16)
        full = engine.predict(x)
        for i in range(x.shape[0]):
            solo = engine.predict(x[i : i + 1])
            assert np.array_equal(full.scores[i], solo.scores[0]), encoder
            assert np.array_equal(
                full.frame_scores[i], solo.frame_scores[0]
            ), encoder

    @pytest.mark.parametrize("split", [1, 3, 5, 8])
    def test_chunking_is_safe(self, split):
        """Any chunking of a fleet across calls yields identical rows,
        for every encoder and for one head as for several."""
        for model in (
            *(make_model(encoder) for encoder in ("lstm", "gru", "mean")),
            EventHit(NUM_FEATURES, 1, config=CONFIG),
        ):
            engine = BatchedInference(model)
            x = make_batch(16, seed=3)
            full = engine.predict(x)
            chunks = [engine.predict(x[i : i + split]) for i in range(0, 16, split)]
            scores = np.concatenate([c.scores for c in chunks])
            frame_scores = np.concatenate([c.frame_scores for c in chunks])
            assert np.array_equal(full.scores, scores)
            assert np.array_equal(full.frame_scores, frame_scores)

    @pytest.mark.parametrize("encoder", ["lstm", "gru", "mean"])
    def test_agrees_with_model_predict(self, encoder):
        """Same math as the training forward ``EventHit.forward`` in eval
        mode, to float round-off: the training forward stays the
        reference the engine is held to."""
        model = make_model(encoder)
        engine = BatchedInference(model)
        x = make_batch(8, seed=4)
        batched = engine.predict(x)
        model.eval()
        with no_grad():
            scores, frame_scores = model(x)
        np.testing.assert_allclose(
            batched.scores, scores.data, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            batched.frame_scores, frame_scores.data, rtol=0, atol=1e-12
        )

    def test_output_shapes(self):
        engine = BatchedInference(make_model("lstm"))
        out = engine.predict(make_batch(5))
        assert out.scores.shape == (5, NUM_EVENTS)
        assert out.frame_scores.shape == (5, NUM_EVENTS, CONFIG.horizon)


class TestValidation:
    def test_rejects_non_eventhit(self):
        with pytest.raises(TypeError):
            BatchedInference(object())

    def test_rejects_bad_rank(self):
        engine = BatchedInference(make_model("lstm"))
        with pytest.raises(ValueError):
            engine.predict(np.zeros((CONFIG.window_size, NUM_FEATURES)))

    def test_rejects_wrong_channels(self):
        engine = BatchedInference(make_model("lstm"))
        with pytest.raises(ValueError):
            engine.predict(np.zeros((2, CONFIG.window_size, NUM_FEATURES + 1)))

    def test_rejects_empty_batch(self):
        engine = BatchedInference(make_model("lstm"))
        with pytest.raises(ValueError):
            engine.predict(np.zeros((0, CONFIG.window_size, NUM_FEATURES)))

    def test_rejects_head_not_ending_in_linear_sigmoid(self):
        model = make_model("lstm")
        model.head1.net._layers[-1] = Tanh()
        with pytest.raises(TypeError, match="Linear -> Sigmoid"):
            BatchedInference(model).predict(make_batch(2))


def per_head_logits(engine, encoded, last_vector):
    """Θ logits with the heads evaluated one after another, every layer
    through the engine's single-layer evaluator (each ``Linear`` one
    :func:`rowstable_matmul`): the pass the stacked heads replace."""
    z = engine._eval_sequential(engine.model.shared, encoded)
    head_input = np.concatenate([z, last_vector], axis=1)
    theta = []
    for head in engine.model.heads():
        hidden = head_input
        for layer in head.net._layers[:-1]:  # all but the output sigmoid
            hidden = engine._eval_layer(layer, hidden)
        theta.append(hidden)
    return np.stack(theta, axis=1)


class TestStackedHeads:
    """The K heads as one GEMM stack, bitwise the head-by-head pass."""

    @pytest.mark.parametrize("head_hidden", [(), (24,), (24, 12)])
    @pytest.mark.parametrize("events", [1, 2, 3, 4])
    def test_equals_per_head_evaluation_bitwise(self, events, head_hidden):
        config = EventHitConfig(
            window_size=4, horizon=40, lstm_hidden=16, shared_hidden=(16,),
            head_hidden=head_hidden, seed=events,
        )
        engine = BatchedInference(EventHit(NUM_FEATURES, events, config=config))
        rng = np.random.default_rng(events)
        for batch in range(1, 71):
            encoded = rng.normal(size=(batch, config.lstm_hidden))
            last = rng.normal(size=(batch, NUM_FEATURES))
            got = engine._head_logits(encoded, last)
            want = per_head_logits(engine, encoded, last)
            assert got.shape == (batch, events, config.horizon + 1)
            assert np.ascontiguousarray(got).tobytes() == want.tobytes(), batch

    def test_rejects_heads_of_different_shapes(self):
        model = make_model("lstm")
        model.head2 = MLP(model.head0.net._layers[0].in_features, [8],
                          CONFIG.horizon + 1, output_activation="sigmoid")
        with pytest.raises(TypeError, match="same shapes"):
            BatchedInference(model).predict(make_batch(2))

    def test_rejects_heads_of_different_layers(self):
        model = make_model("lstm")
        model.head1 = MLP(model.head0.net._layers[0].in_features, [24, 24],
                          CONFIG.horizon + 1, output_activation="sigmoid")
        with pytest.raises(TypeError, match="same layers"):
            BatchedInference(model).predict(make_batch(2))


class TestPreparedWeights:
    """Weights are prepared once per bind; refresh_weights re-reads them."""

    @pytest.mark.parametrize("encoder", ["lstm", "gru"])
    def test_refresh_after_in_place_change_equals_fresh_engine(self, encoder):
        model = make_model(encoder)
        engine = BatchedInference(model)
        x = make_batch(5)

        def serve(e):
            out = e.predict(x)
            return out.scores, out.frame_scores

        serve(engine)  # builds the cache
        # Change the cached weights in place: the encoder and every head.
        cached = list(model.encoder.parameters())
        for head in model.heads():
            cached.extend(head.parameters())
        for param in cached:
            param.data *= 1.25
        stale = serve(engine)
        fresh = serve(BatchedInference(model))
        assert not np.array_equal(stale[0], fresh[0])
        engine.refresh_weights()
        refreshed = serve(engine)
        assert all(np.array_equal(a, b) for a, b in zip(refreshed, fresh))

    def test_rebind_prepares_the_new_model(self):
        engine = BatchedInference(make_model("lstm"))
        x = make_batch(3)
        engine.predict(x)
        other = EventHit(NUM_FEATURES, NUM_EVENTS,
                         config=EventHitConfig(**{**CONFIG.__dict__, "seed": 8}))
        rebound = engine.rebind(other)
        assert type(rebound) is BatchedInference and rebound.model is other
        assert np.array_equal(
            rebound.predict(x).scores, BatchedInference(other).predict(x).scores
        )
        assert not np.array_equal(rebound.predict(x).scores, engine.predict(x).scores)


def test_batched_is_the_only_engine():
    for name in ("ContinualInference", "make_engine", "ENGINES"):
        assert not hasattr(repro.core, name)
        assert name not in repro.core.__all__
    assert importlib.util.find_spec("repro.core.continual") is None
    assert not hasattr(BatchedInference, "update")
    assert not hasattr(BatchedInference, "reset")
