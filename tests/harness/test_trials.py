"""Tests for multi-trial aggregation."""

import pytest

from repro.harness import ExperimentSettings, aggregate_rows, run_trials

FAST = ExperimentSettings(scale=0.05, max_records=100, epochs=6)


class TestRunTrials:
    def test_validation(self):
        with pytest.raises(ValueError):
            run_trials("TA10", [{"algorithm": "EHO"}], num_trials=0)
        with pytest.raises(ValueError):
            run_trials("TA10", [], num_trials=2)

    def test_aggregates_across_trials(self):
        results = run_trials(
            "TA10",
            [
                {"algorithm": "EHO"},
                {"algorithm": "EHCR", "confidence": 0.9, "alpha": 0.9},
            ],
            num_trials=3,
            settings=FAST,
        )
        assert len(results) == 2
        eho, ehcr = results
        assert eho.algorithm == "EHO" and eho.num_trials == 3
        assert ehcr.knobs == {"confidence": 0.9, "alpha": 0.9}
        for result in results:
            assert 0.0 <= result.mean["REC"] <= 1.0
            assert result.std["REC"] >= 0.0

    def test_reference_algorithms_have_zero_variance(self):
        results = run_trials(
            "TA10", [{"algorithm": "OPT"}, {"algorithm": "BF"}],
            num_trials=3, settings=FAST,
        )
        opt, bf = results
        assert opt.mean["REC"] == 1.0 and opt.std["REC"] == 0.0
        assert bf.mean["REC"] == 1.0 and bf.std["REC"] == 0.0
        # BF's SPL can dip below 1 when an event spans a whole horizon
        # (degenerate Eq. 13 rows), so only the level is pinned, not std.
        assert bf.mean["SPL"] > 0.97

    def test_trials_vary_with_seed(self):
        """Different trials see different worlds, so EHO's REC has spread."""
        results = run_trials(
            "TA10", [{"algorithm": "EHO"}], num_trials=3, settings=FAST,
        )
        assert results[0].std["REC"] > 0.0

    def test_rows_flatten(self):
        results = run_trials(
            "TA10", [{"algorithm": "EHCR", "confidence": 0.9, "alpha": 0.9}],
            num_trials=2, settings=FAST,
        )
        rows = aggregate_rows(results)
        assert rows[0]["algorithm"] == "EHCR"
        assert rows[0]["knob_confidence"] == 0.9
        assert "REC" in rows[0] and "REC_std" in rows[0]
        assert rows[0]["trials"] == 2
