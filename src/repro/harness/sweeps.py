"""Parameter sweeps: knob curves, frontier queries, and hyper-parameter
sensitivity (Figs. 5–7) plus the β/γ grid search mentioned in §III."""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import EventHitConfig, Trainer, train_eventhit
from ..data import RecordSet
from ..video.datasets import DatasetSpec
from .experiments import CurvePoint, ExperimentSettings, run_experiment
from .tasks import get_task

__all__ = [
    "min_spl_at_rec",
    "pareto_frontier",
    "sweep_window_size",
    "sweep_horizon",
    "grid_search_loss_weights",
    "DEFAULT_CONFIDENCES",
    "DEFAULT_ALPHAS",
]

#: Default knob grids used by the figure benchmarks.
DEFAULT_CONFIDENCES: Tuple[float, ...] = (0.5, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0)
DEFAULT_ALPHAS: Tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0)


def min_spl_at_rec(points: Sequence[CurvePoint], rec_level: float) -> float:
    """Smallest SPL among sweep points achieving REC ≥ rec_level.

    Returns NaN when the level is unreachable — Fig. 7 reports exactly this
    quantity per (M, H, REC-level) cell.
    """
    eligible = [p.spl for p in points if p.rec >= rec_level]
    return min(eligible) if eligible else float("nan")


def pareto_frontier(points: Sequence[CurvePoint]) -> List[CurvePoint]:
    """Non-dominated (REC up, SPL down) subset, sorted by SPL."""
    ordered = sorted(points, key=lambda p: (p.spl, -p.rec))
    frontier: List[CurvePoint] = []
    best_rec = -np.inf
    for point in ordered:
        if point.rec > best_rec:
            frontier.append(point)
            best_rec = point.rec
    return frontier


def _spec_with(spec: DatasetSpec, window_size=None, horizon=None) -> DatasetSpec:
    changes = {}
    if window_size is not None:
        changes["window_size"] = window_size
    if horizon is not None:
        changes["horizon"] = horizon
    return replace(spec, **changes)


def sweep_window_size(
    task,
    window_sizes: Sequence[int],
    rec_levels: Sequence[float],
    settings: Optional[ExperimentSettings] = None,
    confidences: Sequence[float] = DEFAULT_CONFIDENCES,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
) -> List[Dict[str, float]]:
    """Fig. 7 (left): SPL of EHCR at fixed REC levels vs M.

    One experiment (train + calibrate) per M; each experiment sweeps the
    EHCR (c, α) grid and reports the minimum SPL reaching each REC level.
    """
    settings = settings or ExperimentSettings()
    if isinstance(task, str):
        task = get_task(task)
    rows = []
    for m in window_sizes:
        spec = _spec_with(task.spec(settings.scale), window_size=m)
        experiment = run_experiment(task, settings=settings, spec_override=spec)
        points = experiment.ehcr_grid(confidences, alphas)
        row: Dict[str, float] = {"M": float(m)}
        for level in rec_levels:
            row[f"SPL@REC>={level}"] = min_spl_at_rec(points, level)
        rows.append(row)
    return rows


def sweep_horizon(
    task,
    horizons: Sequence[int],
    rec_levels: Sequence[float],
    settings: Optional[ExperimentSettings] = None,
    confidences: Sequence[float] = DEFAULT_CONFIDENCES,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
) -> List[Dict[str, float]]:
    """Fig. 7 (right): SPL of EHCR at fixed REC levels vs H."""
    settings = settings or ExperimentSettings()
    if isinstance(task, str):
        task = get_task(task)
    rows = []
    for h in horizons:
        spec = _spec_with(task.spec(settings.scale), horizon=h)
        experiment = run_experiment(task, settings=settings, spec_override=spec)
        points = experiment.ehcr_grid(confidences, alphas)
        row: Dict[str, float] = {"H": float(h)}
        for level in rec_levels:
            row[f"SPL@REC>={level}"] = min_spl_at_rec(points, level)
        rows.append(row)
    return rows


def grid_search_loss_weights(
    train: RecordSet,
    validation: RecordSet,
    config: EventHitConfig,
    beta_grid: Sequence[float] = (0.5, 1.0, 2.0),
    gamma_grid: Sequence[float] = (0.5, 1.0, 2.0),
) -> Tuple[Tuple[float, ...], Tuple[float, ...], float]:
    """Grid search over uniform β/γ loss weights (paper §III).

    Trains one model per (β, γ) cell and returns the pair minimising the
    validation L_total, plus that loss.  Uniform per-event weights keep the
    grid small; per-event grids explode combinatorially and the paper only
    states "tuned by grid search".
    """
    best = (None, None, float("inf"))
    k = train.num_events
    for beta in beta_grid:
        for gamma in gamma_grid:
            candidate = replace(
                config, betas=(beta,) * k, gammas=(gamma,) * k
            )
            model, _ = train_eventhit(train, config=candidate)
            val_loss = Trainer(model).evaluate_loss(validation)
            if val_loss < best[2]:
                best = ((beta,) * k, (gamma,) * k, val_loss)
    return best
