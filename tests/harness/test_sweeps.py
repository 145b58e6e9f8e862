"""Tests for hyper-parameter sweeps and the loss-weight grid search."""

import numpy as np

from repro.harness import ExperimentSettings, sweep_horizon, sweep_window_size
from repro.harness.sweeps import grid_search_loss_weights

FAST = ExperimentSettings(scale=0.05, max_records=100, epochs=6, seed=0)
GRID = dict(confidences=(0.9, 1.0), alphas=(0.5, 1.0))


class TestSensitivitySweeps:
    def test_window_size_sweep_shape(self):
        rows = sweep_window_size(
            "TA10", window_sizes=[5, 10], rec_levels=[0.6, 0.9],
            settings=FAST, **GRID,
        )
        assert len(rows) == 2
        assert rows[0]["M"] == 5.0
        assert "SPL@REC>=0.6" in rows[0]
        assert "SPL@REC>=0.9" in rows[0]

    def test_horizon_sweep_shape(self):
        rows = sweep_horizon(
            "TA10", horizons=[100, 200], rec_levels=[0.6],
            settings=FAST, **GRID,
        )
        assert [r["H"] for r in rows] == [100.0, 200.0]
        for row in rows:
            value = row["SPL@REC>=0.6"]
            assert np.isnan(value) or 0.0 <= value <= 1.0


class TestGridSearch:
    def test_returns_best_cell(self):
        from tests.core.test_trainer import small_config, synthetic_records

        train = synthetic_records(b=64, seed=0)
        val = synthetic_records(b=32, seed=1)
        config = small_config(epochs=4)
        betas, gammas, loss = grid_search_loss_weights(
            train, val, config, beta_grid=(0.5, 1.0), gamma_grid=(1.0,)
        )
        assert betas in {(0.5,), (1.0,)}
        assert gammas == (1.0,)
        assert np.isfinite(loss)
