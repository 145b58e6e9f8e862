"""Ablation — feature engineering paths (paper §III's alternatives).

The paper selects features by correlation analysis and notes autoencoder
dimensionality reduction as an alternative.  This bench compares three
covariate pipelines feeding the same EventHit architecture on TA10:

* ``full``      — all channels (3 per event + 3 context);
* ``selected``  — correlation-selected channels (context rejected);
* ``autoenc``   — autoencoder latent codes (D → 4).

Expectation: selection matches the full pipeline (the dropped channels are
uninformative); the autoencoder path stays usable (clearly above chance)
while compressing the input.
"""

import numpy as np
import pytest

from benchmarks.conftest import bench_settings
from repro.core import (
    BatchedInference,
    EventHitConfig,
    threshold_predictions,
    train_eventhit,
)
from repro.data import DatasetBuilder
from repro.features import (
    AutoencoderReducer,
    CovariatePipeline,
    FeatureExtractor,
    FeatureMatrix,
    Standardizer,
    select_features,
)
from repro.harness import format_table, get_task
from repro.metrics import evaluate
from repro.video.datasets import EVENT_TYPES, make_stream


def _pipeline_run(kind, spec, seed=0):
    """Train/evaluate EventHit over one covariate pipeline variant."""
    extractor = FeatureExtractor()
    event_types = [EVENT_TYPES[e] for e in spec.event_ids]
    streams = {
        name: make_stream(spec, seed=seed * 101 + i)
        for i, name in enumerate(("train", "calib", "test"))
    }
    features = {
        name: extractor.extract(stream, event_types)
        for name, stream in streams.items()
    }

    if kind == "selected":
        occupancy = np.stack(
            [streams["train"].schedule.occupancy_mask(et) for et in event_types],
            axis=1,
        ).astype(float)
        selection = select_features(features["train"], occupancy, min_score=0.05)
        features = {k: selection.apply(v) for k, v in features.items()}
    elif kind == "autoenc":
        reducer = AutoencoderReducer(latent_dim=4, epochs=15,
                                     learning_rate=3e-3, seed=seed)
        reducer.fit(features["train"])
        features = {k: reducer.transform(v) for k, v in features.items()}
    elif kind != "full":
        raise ValueError(kind)

    standardizer = Standardizer.fit(features["train"].values)
    pipeline = CovariatePipeline(spec.window_size, standardizer=standardizer)
    builder = DatasetBuilder(spec.window_size, spec.horizon,
                             stride=spec.window_size, pipeline=pipeline)
    rng = np.random.default_rng(seed)
    train = builder.build(streams["train"], features["train"], event_types,
                          max_records=350, rng=rng)
    test = builder.build(streams["test"], features["test"], event_types,
                         max_records=350, rng=rng)
    settings = bench_settings()
    config = settings.model_config(spec.window_size, spec.horizon)
    model, _ = train_eventhit(train, config=config)
    output = BatchedInference(model).predict(test.covariates)
    prediction = threshold_predictions(output)
    return evaluate(prediction, test), features["train"].num_channels


def test_feature_pipeline_ablation(benchmark, save_result):
    def run():
        spec = get_task("TA10").spec(bench_settings().scale)
        rows = []
        for kind in ("full", "selected", "autoenc"):
            summary, channels = _pipeline_run(kind, spec)
            rows.append({"pipeline": kind, "channels": channels,
                         **summary.as_dict()})
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result("ablation_features", format_table(rows))

    by_kind = {r["pipeline"]: r for r in rows}
    # Correlation selection rejects the context channels...
    assert by_kind["selected"]["channels"] < by_kind["full"]["channels"]
    # ...without giving up quality.
    assert by_kind["selected"]["REC"] >= by_kind["full"]["REC"] - 0.15
    # The autoencoder compresses to 4 channels and stays usable.
    assert by_kind["autoenc"]["channels"] == 4
    assert by_kind["autoenc"]["REC_c"] > 0.5
    assert by_kind["autoenc"]["SPL"] < 0.5
