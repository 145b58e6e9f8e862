"""Hot-swap hooks of the serving engine across ticks.

Serving carries nothing from one tick to the next but the prepared
weights of the bound model: a rebind must start a fresh engine that
scores as the new model, with nothing of the old model left in it.
"""

import dataclasses

import numpy as np

from repro.core import BatchedInference, EventHit, EventHitConfig

CONFIG = EventHitConfig(
    window_size=8,
    horizon=12,
    lstm_hidden=12,
    shared_hidden=(12,),
    head_hidden=(16,),
    dropout=0.2,  # must be ignored at inference time
    seed=3,
)

NUM_FEATURES = 5
NUM_EVENTS = 2
M = CONFIG.window_size


def make_model(seed: int = CONFIG.seed) -> EventHit:
    # Random (untrained) weights: the hooks are properties of the engine,
    # not of the fit.
    return EventHit(
        NUM_FEATURES,
        NUM_EVENTS,
        config=dataclasses.replace(CONFIG, seed=seed),
        encoder="lstm",
    )


def make_frames(length: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(length, NUM_FEATURES))


class TestLifecycleHooks:
    def test_rebind_swaps_model_and_drops_state(self):
        old = make_model()
        # Another seed, so an engine still serving ``old`` cannot pass.
        new = make_model(CONFIG.seed + 1)
        engine = BatchedInference(old)
        frames = make_frames(M, seed=13)
        before = engine.predict(frames[None])
        assert engine._cache is not None  # old weights prepared
        swapped = engine.rebind(new)
        assert type(swapped) is BatchedInference
        assert swapped.model is new
        # Nothing prepared from ``old`` is carried into the new engine.
        assert swapped._cache is None
        got = swapped.predict(frames[None])
        want = BatchedInference(new).predict(frames[None])
        assert np.array_equal(want.scores, got.scores)
        assert np.array_equal(want.frame_scores, got.frame_scores)
        assert not np.array_equal(before.scores, got.scores)
        # The old engine is left as it was, still serving ``old``.
        assert engine.model is old
        assert np.array_equal(engine.predict(frames[None]).scores, before.scores)

    def test_windowed_rebind_stays_windowed(self):
        model = make_model()
        engine = BatchedInference(model)
        rebound = engine.rebind(model)
        assert type(rebound) is BatchedInference
        assert rebound is not engine and rebound.model is model
        frames = make_frames(M + 4, seed=14)
        windows = np.stack([frames[i : i + M] for i in range(5)])
        assert np.array_equal(
            rebound.predict(windows).scores, engine.predict(windows).scores
        )
