"""Tests for the streaming covariate ring buffer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import (
    CovariatePipeline,
    FeatureMatrix,
    Standardizer,
    StreamingCovariateBuffer,
)
from tests.helpers import engine_predict


class TestBufferBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingCovariateBuffer(0, 3)
        with pytest.raises(ValueError):
            StreamingCovariateBuffer(3, 0)

    def test_not_ready_until_full(self):
        buffer = StreamingCovariateBuffer(3, 2)
        assert not buffer.is_ready
        buffer.push(np.zeros(2))
        buffer.push(np.zeros(2))
        assert not buffer.is_ready
        with pytest.raises(ValueError):
            buffer.window()
        buffer.push(np.zeros(2))
        assert buffer.is_ready

    def test_window_order_oldest_first(self):
        buffer = StreamingCovariateBuffer(3, 1)
        for v in (1.0, 2.0, 3.0, 4.0):
            buffer.push(np.array([v]))
        np.testing.assert_array_equal(buffer.window().ravel(), [2, 3, 4])

    def test_push_shape_checked(self):
        buffer = StreamingCovariateBuffer(3, 2)
        with pytest.raises(ValueError):
            buffer.push(np.zeros(3))
        with pytest.raises(ValueError):
            buffer.push_many(np.zeros((2, 3)))

    def test_push_many(self):
        buffer = StreamingCovariateBuffer(2, 1)
        buffer.push_many(np.array([[1.0], [2.0], [3.0]]))
        np.testing.assert_array_equal(buffer.window().ravel(), [2, 3])

    def test_reset(self):
        buffer = StreamingCovariateBuffer(2, 1)
        buffer.push_many(np.ones((4, 1)))
        buffer.reset()
        assert buffer.frames_seen == 0
        assert not buffer.is_ready

    def test_window_is_a_copy(self):
        buffer = StreamingCovariateBuffer(2, 1)
        buffer.push_many(np.array([[1.0], [2.0]]))
        window = buffer.window()
        window[0, 0] = 99.0
        np.testing.assert_array_equal(buffer.window().ravel(), [1, 2])


class TestBatchEquivalence:
    @given(st.integers(0, 200), st.integers(2, 8))
    @settings(max_examples=30, deadline=None)
    def test_matches_batch_pipeline(self, seed, window_size):
        """Streaming windows equal batch windows at every valid frame."""
        rng = np.random.default_rng(seed)
        n, d = 40, 3
        values = rng.normal(size=(n, d))
        features = FeatureMatrix(values, [f"f{i}" for i in range(d)])
        standardizer = Standardizer.fit(values)
        batch = CovariatePipeline(window_size, standardizer=standardizer)
        stream_buffer = StreamingCovariateBuffer(
            window_size, d, standardizer=standardizer
        )
        for frame in range(n):
            stream_buffer.push(values[frame])
            if frame >= window_size - 1:
                np.testing.assert_allclose(
                    stream_buffer.window(),
                    batch.covariates_at(features, frame),
                )

    def test_model_prediction_matches_offline(self):
        """A model fed from the ring buffer reproduces offline outputs."""
        from repro.core import EventHit, EventHitConfig

        config = EventHitConfig(
            window_size=5, horizon=10, lstm_hidden=8, shared_hidden=(8,),
            head_hidden=(8,), dropout=0.0, epochs=1,
        )
        model = EventHit(3, 1, config=config)
        rng = np.random.default_rng(0)
        values = rng.normal(size=(20, 3))
        buffer = StreamingCovariateBuffer(5, 3)
        buffer.push_many(values[:5])
        online = engine_predict(model, buffer.window()[None])
        offline = engine_predict(model, values[0:5][None])
        np.testing.assert_allclose(online.scores, offline.scores)
