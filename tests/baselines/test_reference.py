"""Tests for OPT / BF and the output cache."""

import numpy as np
import pytest

from repro.baselines import BruteForce, OutputCache, Oracle, Predictor
from repro.core import EventHit, EventHitConfig
from repro.data import RecordSet
from repro.metrics import recall, spillage
from repro.video.events import EventType
from tests.helpers import engine_predict

H = 12


def make_records(seed=0, b=10, k=2):
    rng = np.random.default_rng(seed)
    labels = (rng.random((b, k)) < 0.5).astype(float)
    starts = np.zeros((b, k), dtype=int)
    ends = np.zeros((b, k), dtype=int)
    for i in range(b):
        for j in range(k):
            if labels[i, j]:
                starts[i, j] = rng.integers(1, H - 2)
                ends[i, j] = rng.integers(starts[i, j], H + 1)
    return RecordSet(
        event_types=[EventType(f"e{j}", 4, 1) for j in range(k)],
        horizon=H,
        frames=np.arange(b),
        covariates=rng.normal(size=(b, 4, 3)),
        labels=labels,
        starts=starts,
        ends=ends,
        censored=np.zeros((b, k)),
    )


class TestOracle:
    def test_perfect_scores(self):
        records = make_records()
        pred = Oracle().predict(records)
        assert recall(pred, records) == 1.0
        assert spillage(pred, records) == 0.0

    def test_rejects_knobs(self):
        with pytest.raises(TypeError):
            Oracle().predict(make_records(), tau=0.5)

    def test_satisfies_protocol(self):
        assert isinstance(Oracle(), Predictor)


class TestBruteForce:
    def test_full_recall_full_spillage(self):
        records = make_records()
        pred = BruteForce().predict(records)
        assert recall(pred, records) == 1.0
        assert spillage(pred, records) == pytest.approx(1.0)

    def test_relays_everything(self):
        records = make_records(b=4, k=1)
        pred = BruteForce().predict(records)
        assert pred.predicted_frames().sum() == 4 * 1 * H

    def test_rejects_knobs(self):
        with pytest.raises(TypeError):
            BruteForce().predict(make_records(), alpha=0.5)

    def test_satisfies_protocol(self):
        assert isinstance(BruteForce(), Predictor)


class TestOutputCache:
    def test_caches_by_identity(self):
        records = make_records(k=1)
        config = EventHitConfig(window_size=4, horizon=H, lstm_hidden=8,
                                shared_hidden=(8,), head_hidden=(8,),
                                dropout=0.0, epochs=1)
        model = EventHit(3, 1, config=config)
        cache = OutputCache(model)
        a = cache.output_for(records)
        b = cache.output_for(records)
        assert a is b

    def test_reused_id_recomputes(self):
        # Python reuses an id once its object is collected.  Plant the
        # entry of one RecordSet under a live one's id, as such a reuse
        # would leave it: the cache must recompute, not serve it.
        records, other = make_records(seed=1, k=1), make_records(seed=2, k=1)
        config = EventHitConfig(window_size=4, horizon=H, lstm_hidden=8,
                                shared_hidden=(8,), head_hidden=(8,),
                                dropout=0.0, epochs=1)
        model = EventHit(3, 1, config=config)
        cache = OutputCache(model)
        stale = cache.output_for(other)
        cache._store[id(records)] = cache._store.pop(id(other))
        fresh = cache.output_for(records)
        assert fresh is not stale
        np.testing.assert_array_equal(
            fresh.scores, engine_predict(model, records.covariates).scores
        )
        assert not np.array_equal(fresh.scores, stale.scores)

    def test_clear(self):
        records = make_records(k=1)
        config = EventHitConfig(window_size=4, horizon=H, lstm_hidden=8,
                                shared_hidden=(8,), head_hidden=(8,),
                                dropout=0.0, epochs=1)
        model = EventHit(3, 1, config=config)
        cache = OutputCache(model)
        a = cache.output_for(records)
        cache.clear()
        assert cache.output_for(records) is not a
