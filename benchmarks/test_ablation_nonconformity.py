"""Ablation — nonconformity measure choice in C-CLASSIFY.

Theorem 4.1 says the recall guarantee holds for *any* nonconformity
measure; DESIGN.md calls this out as a design choice to verify.  We compare
the paper's ``a = 1 − b`` with a margin measure and with Mondrian-vs-pooled
calibration, asserting that validity (REC_c ≥ c − slack) holds for all and
recording the efficiency (SPL) differences.
"""

import numpy as np
import pytest

from benchmarks.conftest import bench_settings
from repro.baselines import EHC
from repro.conformal import (
    ConformalClassifier,
    margin_nonconformity,
    nonconformity_from_score,
)
from repro.core import BatchedInference
from repro.harness import format_table, run_experiment
from repro.metrics import evaluate


@pytest.fixture(scope="module")
def experiment():
    return run_experiment("TA10", settings=bench_settings())


def _evaluate_measure(experiment, measure, confidence=0.9):
    calibration = experiment.data.calibration
    output = BatchedInference(experiment.model).predict(calibration.covariates)
    classifier = ConformalClassifier(measure).calibrate(output, calibration)
    ehc = EHC(experiment.model, classifier)
    prediction = ehc.predict(experiment.data.test, confidence=confidence)
    return evaluate(prediction, experiment.data.test)


def test_measure_independent_validity(benchmark, experiment, save_result):
    def run():
        rows = []
        for name, measure in (
            ("1-b", nonconformity_from_score),
            ("margin", margin_nonconformity),
        ):
            for c in (0.8, 0.9, 0.95):
                summary = _evaluate_measure(experiment, measure, confidence=c)
                rows.append(
                    {"measure": name, "c": c, **summary.as_dict()}
                )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result("ablation_nonconformity", format_table(rows))

    for row in rows:
        assert row["REC_c"] >= row["c"] - 0.15, row

    # The two measures are monotone transforms of each other here, so the
    # predictions should agree exactly — the documented sanity property.
    for c in (0.8, 0.9, 0.95):
        one = next(r for r in rows if r["measure"] == "1-b" and r["c"] == c)
        margin = next(r for r in rows if r["measure"] == "margin" and r["c"] == c)
        assert one["REC_c"] == pytest.approx(margin["REC_c"], abs=1e-9)


def test_pooled_vs_mondrian_calibration(benchmark, save_result):
    """Per-event (Mondrian, the paper's Algorithm 1) vs pooled calibration.

    Pooling calibration scores across events loses the per-event guarantee
    when score distributions differ; we measure both on a two-event task.
    """
    experiment = run_experiment("TA7", settings=bench_settings())

    def run():
        engine = BatchedInference(experiment.model)
        output = engine.predict(experiment.data.test.covariates)
        calib_output = engine.predict(experiment.data.calibration.covariates)
        calib_labels = experiment.data.calibration.labels > 0
        c = 0.9

        # Mondrian: the library classifier (per-event calibration sets).
        mondrian = experiment.classifier.predict(output, confidence=c)

        # Pooled: one calibration set mixing both events' positives.
        pooled_scores = np.sort(
            1.0 - calib_output.scores[calib_labels]
        )
        from repro.conformal import conformal_p_values

        test_nc = 1.0 - output.scores
        pooled = np.zeros_like(mondrian)
        for k in range(output.num_events):
            p = conformal_p_values(test_nc[:, k], pooled_scores)
            pooled[:, k] = p >= (1.0 - c)

        truth = experiment.data.test.labels > 0
        rows = []
        for name, pred in (("mondrian", mondrian), ("pooled", pooled)):
            for k in range(output.num_events):
                event = experiment.data.event_types[k].name
                mask = truth[:, k]
                recall_k = pred[mask, k].mean() if mask.any() else float("nan")
                rows.append(
                    {
                        "calibration": name,
                        "event": event,
                        "c": c,
                        "recall": float(recall_k),
                        "calib_positives": int(calib_labels[:, k].sum()),
                        "test_positives": int(mask.sum()),
                    }
                )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result("ablation_mondrian", format_table(rows))

    # Mondrian guarantees hold per event, with finite-sample slack scaled
    # to the per-event calibration/test positive counts (the guarantee is
    # marginal over both draws; variance ≈ sqrt(c(1-c)/n_test) and the
    # p-value granularity is 1/(n_calib_pos + 1)).
    for row in rows:
        if row["calibration"] == "mondrian":
            import math

            slack = (
                0.1
                + 1.5 / (row["calib_positives"] + 1)
                + 2.0 * math.sqrt(0.09 / max(row["test_positives"], 1))
            )
            assert row["recall"] >= row["c"] - slack, row
    # Pooled calibration must cover on average but may miss per event; we
    # record it for the report without asserting per-event validity.
    pooled = [r["recall"] for r in rows if r["calibration"] == "pooled"]
    assert np.mean(pooled) >= 0.6
