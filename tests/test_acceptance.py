"""Acceptance test: the paper's full §VI story on one task, in one place.

This is the single test to read to understand what the reproduction
claims.  It trains one EventHit on TA10, calibrates both conformal layers,
and walks the paper's findings end to end: baseline orderings, knob
monotonicity, guarantee validity, cost savings, and throughput dominance.
Runs in a few seconds at reduced scale.
"""

import pytest

from repro import ExperimentSettings, run_experiment
from repro.harness import algorithm_timing, min_spl_at_rec
from repro.metrics import brute_force_expense, expense, optimal_expense


@pytest.fixture(scope="module")
def experiment():
    return run_experiment(
        "TA10",
        ExperimentSettings(scale=0.12, max_records=350, epochs=25, seed=0),
    )


CONFS = (0.5, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0)
ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0)


class TestPaperStory:
    def test_1_reference_corners(self, experiment):
        """OPT is free-and-perfect; BF is perfect-and-maximally-wasteful."""
        opt = experiment.evaluate("OPT")
        bf = experiment.evaluate("BF")
        assert (opt.rec, opt.spl) == (1.0, 0.0)
        assert bf.rec == 1.0 and bf.spl > 0.95

    def test_2_eventhit_beats_nonpredictive_baselines(self, experiment):
        """§VI.D: EHO significantly outperforms COX and VQS — at EHO's
        spillage budget, neither baseline approaches its recall."""
        eho = experiment.evaluate("EHO")
        assert eho.spl < 0.1
        for name, knob, values in (
            ("COX", "tau", (0.1, 0.3, 0.5, 0.7, 0.9)),
            ("VQS", "tau", (1, 5, 10, 20, 40, 80)),
        ):
            best = 0.0
            for v in values:
                summary = experiment.evaluate(name, **{knob: v})
                if summary.spl <= eho.spl + 0.01:
                    best = max(best, summary.rec)
            assert eho.rec >= best - 0.05, (name, eho.rec, best)

    def test_3_conformal_knobs_are_monotone(self, experiment):
        """§IV/§V: c and α trade SPL for REC monotonically."""
        rec_c = [experiment.evaluate("EHC", confidence=c).rec_c for c in CONFS]
        assert all(b >= a - 1e-9 for a, b in zip(rec_c, rec_c[1:]))
        assert rec_c[-1] == pytest.approx(1.0)  # c → 1 ⇒ REC_c → 1

        spl = [experiment.evaluate("EHR", alpha=a).spl for a in ALPHAS]
        assert all(b >= a - 1e-9 for a, b in zip(spl, spl[1:]))

    def test_4_guarantees_hold(self, experiment):
        """Theorems 4.2 / 5.2 empirically (finite-sample slack)."""
        for c in (0.8, 0.9):
            summary = experiment.evaluate("EHC", confidence=c)
            assert summary.rec_c >= c - 0.12, (c, summary.rec_c)
        wide = experiment.evaluate("EHR", alpha=0.95)
        assert wide.rec_r >= 0.9

    def test_5_only_ehcr_reaches_full_recall(self, experiment):
        """§VI.D: EHC and EHR alone stall; EHCR reaches ≈1."""
        ehc_max = max(experiment.evaluate("EHC", confidence=c).rec for c in CONFS)
        ehr_max = max(experiment.evaluate("EHR", alpha=a).rec for a in ALPHAS)
        ehcr_max = max(
            experiment.evaluate("EHCR", confidence=c, alpha=a).rec
            for c in (0.95, 1.0) for a in (0.95, 1.0)
        )
        assert ehcr_max > 0.97
        assert ehcr_max >= ehc_max and ehcr_max >= ehr_max

    def test_6_cost_case_study(self, experiment):
        """Fig. 8: near-full recall at a small fraction of BF's bill."""
        records = experiment.data.test
        bf = brute_force_expense(records)
        assert optimal_expense(records) < bf / 10
        points = experiment.ehcr_grid(CONFS, ALPHAS)
        affordable = [
            expense(experiment._predict(
                "EHCR", confidence=p.knobs["confidence"], alpha=p.knobs["alpha"]
            ))
            for p in points if p.rec >= 0.9
        ]
        assert affordable and min(affordable) < bf / 4

    def test_7_throughput_dominance(self, experiment):
        """Fig. 9/10: EHCR sustains high FPS and the CI dominates time."""
        timing = algorithm_timing(experiment, "EHCR", confidence=0.95, alpha=0.9)
        assert timing.fps > 100
        shares = timing.breakdown.proportions()
        assert shares["cloud_inference"] > shares["feature_extraction"]
        assert shares["predictor"] < 0.01

    def test_8_tunable_frontier_is_usable(self, experiment):
        """An operator can buy REC ≥ 0.9 for modest spillage."""
        points = experiment.ehcr_grid(CONFS, ALPHAS)
        assert min_spl_at_rec(points, 0.9) < 0.3
