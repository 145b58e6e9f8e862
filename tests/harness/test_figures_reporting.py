"""Tests for the figure generators and text reporting."""

import pytest

from repro.harness import (
    ExperimentSettings,
    algorithm_timing,
    fig10_stage_breakdown,
    fig4_rec_spl,
    fig5_cclassify,
    fig6_cregress,
    fig8_cost,
    fig9_fps,
    format_curve,
    format_table,
    format_value,
    run_experiment,
    summarize_frontier,
    table1_rows,
    table2_rows,
)

FAST = ExperimentSettings(scale=0.05, max_records=120, epochs=8, seed=0)
SMALL_GRID = dict(confidences=(0.8, 1.0), alphas=(0.5, 1.0))


@pytest.fixture(scope="module")
def experiment():
    return run_experiment("TA10", settings=FAST)


class TestTables:
    def test_table1_rows_complete(self):
        rows = table1_rows(scale=0.2)
        assert len(rows) == 12
        for row in rows:
            assert row["measured_occurrences"] > 0

    def test_table2_rows(self):
        rows = table2_rows()
        assert len(rows) == 16
        ta7 = next(r for r in rows if r["task"] == "TA7")
        assert ta7["events"] == "{E1, E5}"


class TestFig4:
    def test_rows_have_all_algorithms(self, experiment):
        rows = fig4_rec_spl("TA10", experiment=experiment, **SMALL_GRID,
                            cox_taus=(0.3, 0.7), vqs_taus=(5, 40))
        algorithms = {r["algorithm"] for r in rows}
        assert algorithms == {"OPT", "BF", "EHO", "EHC", "EHR", "EHCR",
                              "COX", "VQS"}

    def test_opt_and_bf_corners(self, experiment):
        rows = fig4_rec_spl("TA10", experiment=experiment, **SMALL_GRID,
                            cox_taus=(0.5,), vqs_taus=(5,))
        opt = next(r for r in rows if r["algorithm"] == "OPT")
        bf = next(r for r in rows if r["algorithm"] == "BF")
        assert opt["REC"] == 1.0 and opt["SPL"] == 0.0
        assert bf["REC"] == 1.0 and bf["SPL"] == pytest.approx(1.0)


class TestFig5And6:
    def test_fig5_rec_c_monotone(self, experiment):
        rows = fig5_cclassify("TA10", experiment=experiment,
                              confidences=(0.5, 0.9, 1.0))
        rec_c = [r["REC_c"] for r in rows]
        assert rec_c == sorted(rec_c)
        assert rec_c[-1] == pytest.approx(1.0)

    def test_fig6_alpha_widens(self, experiment):
        rows = fig6_cregress("TA10", experiment=experiment,
                             alphas=(0.2, 0.9, 1.0))
        spl = [r["SPL"] for r in rows]
        assert spl == sorted(spl)


class TestFig8:
    def test_cost_rows(self, experiment):
        rows = fig8_cost("TA10", experiment=experiment, **SMALL_GRID,
                         cox_taus=(0.3,))
        opt = next(r for r in rows if r["algorithm"] == "OPT")
        bf = next(r for r in rows if r["algorithm"] == "BF")
        assert opt["expense"] < bf["expense"]
        ehcr = [r for r in rows if r["algorithm"] == "EHCR"]
        assert all(r["expense"] <= bf["expense"] for r in ehcr)

    def test_ehcr_cheaper_than_bf_at_high_rec(self, experiment):
        """Fig. 8 claim: ~100% REC at a fraction of BF's expense."""
        rows = fig8_cost("TA10", experiment=experiment,
                         confidences=(0.9, 0.95, 0.99, 1.0),
                         alphas=(0.5, 0.9, 0.95, 1.0), cox_taus=(0.3,))
        bf = next(r for r in rows if r["algorithm"] == "BF")["expense"]
        good = [r for r in rows if r["algorithm"] == "EHCR" and r["REC"] >= 0.8]
        assert good, "EHCR should reach REC >= 0.8"
        # At this reduced test scale the claim is looser than the paper's
        # (< 1/5 of BF); the full-strength check lives in the benchmarks.
        assert min(r["expense"] for r in good) < 0.5 * bf


class TestFig9And10:
    def test_fig9_rows(self, experiment):
        rows = fig9_fps("TA10", experiment=experiment, **SMALL_GRID,
                        cox_taus=(0.3,), vqs_taus=(5,))
        assert {r["algorithm"] for r in rows} == {"EHCR", "COX", "VQS"}
        assert all(r["FPS"] > 0 for r in rows)

    def test_ehcr_dominates_vqs_fps(self, experiment):
        """Fig. 9 shape: at comparable REC, EHCR has higher FPS than VQS."""
        rows = fig9_fps("TA10", experiment=experiment,
                        confidences=(0.9, 0.95), alphas=(0.5, 0.9),
                        cox_taus=(0.2,), vqs_taus=(1,))
        ehcr = [r for r in rows if r["algorithm"] == "EHCR"]
        vqs = [r for r in rows if r["algorithm"] == "VQS"]
        best_ehcr = max(r["FPS"] for r in ehcr if r["REC"] > 0.7)
        best_vqs = max(r["FPS"] for r in vqs if r["REC"] > 0.7)
        assert best_ehcr > best_vqs

    def test_fig10_proportions_sum_to_one(self, experiment):
        props = fig10_stage_breakdown("TA10", rec_target=0.8,
                                      experiment=experiment, **SMALL_GRID)
        stage_sum = (props["feature_extraction"] + props["predictor"]
                     + props["cloud_inference"])
        assert stage_sum == pytest.approx(1.0)

    def test_fig10_ci_dominates(self, experiment):
        props = fig10_stage_breakdown("TA10", rec_target=0.8,
                                      experiment=experiment, **SMALL_GRID)
        assert props["cloud_inference"] > props["feature_extraction"]
        assert props["feature_extraction"] > props["predictor"]

    def test_appvae_timing_pays_history_cost(self, experiment):
        timing = algorithm_timing(experiment, "APP-VAE")
        assert timing.breakdown.feature_extraction > 0
        ehcr_timing = algorithm_timing(experiment, "EHCR",
                                       confidence=0.9, alpha=0.9)
        # Action-detector over a large window is far slower.
        assert (timing.breakdown.feature_extraction
                > ehcr_timing.breakdown.feature_extraction)


class TestReporting:
    def test_format_value(self):
        assert format_value(0.5) == "0.5"
        assert format_value(float("nan")) == "nan"
        assert format_value(float("inf")) == "inf"
        assert format_value(123456.0) == "1.235e+05"
        assert format_value(True) == "True"
        assert format_value("x") == "x"

    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": 0.5}, {"a": 22, "b": 0.25}]
        table = format_table(rows)
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "22" in lines[3]

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_table_custom_columns(self):
        rows = [{"a": 1, "b": 2}]
        table = format_table(rows, columns=["b"])
        assert "a" not in table.splitlines()[0]

    def test_format_curve(self):
        rows = [{"x": 1.0, "y": 2.0}, {"x": 3.0, "y": 4.0}]
        out = format_curve(rows, "x", "y", label="series")
        assert out == "series: (1, 2), (3, 4)"

    def test_summarize_frontier(self):
        rows = [
            {"algorithm": "EHO", "REC": 0.8, "SPL": 0.1},
            {"algorithm": "EHO", "REC": 0.9, "SPL": 0.2},
            {"algorithm": "BF", "REC": 1.0, "SPL": 1.0},
        ]
        text = summarize_frontier(rows)
        assert "EHO: max REC=0.9" in text
        assert "BF" in text
