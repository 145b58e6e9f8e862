"""Ablation — calibration-set size vs guarantee tightness.

Conformal guarantees are marginal and degrade gracefully with small
calibration sets: p-values quantise to multiples of 1/(n+1).  We shrink
D_c-calib / D_r-calib and record the achieved REC_c / interval coverage,
asserting the guarantee holds (with wider finite-sample slack for the
smallest sets).
"""

import numpy as np
import pytest

from benchmarks.conftest import bench_settings
from repro.baselines import EHC, EHCR
from repro.conformal import ConformalClassifier, ConformalRegressor
from repro.core import BatchedInference
from repro.harness import format_table, run_experiment
from repro.metrics import evaluate, existence_recall


@pytest.fixture(scope="module")
def experiment():
    return run_experiment("TA10", settings=bench_settings())


def test_calibration_size(benchmark, experiment, save_result):
    def run():
        calibration = experiment.data.calibration
        test = experiment.data.test
        rng = np.random.default_rng(0)
        engine = BatchedInference(experiment.model)
        rows = []
        for fraction in (0.1, 0.25, 0.5, 1.0):
            size = max(10, int(len(calibration) * fraction))
            subset = calibration.subset(
                rng.choice(len(calibration), size=size, replace=False)
            )
            if not (subset.labels > 0).any():
                continue
            output = engine.predict(subset.covariates)
            classifier = ConformalClassifier().calibrate(output, subset)
            regressor = ConformalRegressor().calibrate(output, subset)
            ehcr = EHCR(experiment.model, classifier, regressor)
            for c in (0.8, 0.9):
                prediction = ehcr.predict(test, confidence=c, alpha=c)
                summary = evaluate(prediction, test)
                positives = int(subset.labels.sum())
                rows.append(
                    {
                        "calib_records": size,
                        "calib_positives": positives,
                        "c": c,
                        "REC_c": summary.rec_c,
                        "REC": summary.rec,
                        "SPL": summary.spl,
                    }
                )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result("ablation_calibration_size", format_table(rows))

    assert rows, "no calibration subsets produced positives"
    for row in rows:
        # Slack widens as the positive calibration count shrinks: the
        # p-value granularity is 1/(n_pos + 1).
        slack = 0.1 + 1.5 / (row["calib_positives"] + 1)
        assert row["REC_c"] >= row["c"] - slack, row

    # The full calibration set should be at least as tight as the smallest.
    full = [r for r in rows if r["calib_records"] == max(x["calib_records"] for x in rows)]
    for row in full:
        assert row["REC_c"] >= row["c"] - 0.12, row
