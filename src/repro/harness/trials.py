"""Multi-trial experiment aggregation (paper §VI.D: "We take the average of
10 independent trials for each combination of task and algorithm").

A trial re-draws the synthetic streams, the model initialisation, and the
record sampling under a new seed; :func:`run_trials` aggregates the §VI.C
measures across trials into mean/std rows, which is what the paper's
curves actually plot.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..metrics import EvaluationSummary
from .experiments import ExperimentSettings, run_experiment
from .tasks import get_task

__all__ = ["TrialResult", "AggregateResult", "run_trials", "aggregate_rows"]


@dataclass(frozen=True)
class TrialResult:
    """One trial's evaluation of one algorithm/knob setting."""

    seed: int
    summary: EvaluationSummary


@dataclass(frozen=True)
class AggregateResult:
    """Mean/std of the evaluation measures across trials."""

    algorithm: str
    knobs: Dict[str, float]
    num_trials: int
    mean: Dict[str, float]
    std: Dict[str, float]

    def row(self) -> Dict[str, float]:
        """Flat dict for the text reporters: metric and metric_std columns."""
        out: Dict[str, float] = {"algorithm": self.algorithm}
        out.update({f"knob_{k}": v for k, v in self.knobs.items()})
        out["trials"] = self.num_trials
        for key, value in self.mean.items():
            out[key] = value
            out[f"{key}_std"] = self.std[key]
        return out


def _summary_metrics(summary: EvaluationSummary) -> Dict[str, float]:
    data = summary.as_dict()
    data.pop("frames_relayed", None)
    return data


def run_trials(
    task,
    evaluations: Sequence[Dict],
    num_trials: int = 10,
    settings: Optional[ExperimentSettings] = None,
    base_seed: int = 0,
) -> List[AggregateResult]:
    """Run ``num_trials`` independent experiments and aggregate.

    Parameters
    ----------
    task:
        Task id or :class:`Task`.
    evaluations:
        List of dicts ``{"algorithm": name, **knobs}`` to evaluate in every
        trial (e.g. ``{"algorithm": "EHCR", "confidence": 0.95,
        "alpha": 0.9}``).
    num_trials:
        Independent repetitions; each uses seed ``base_seed + trial``.
    settings:
        Template settings; only the seed varies across trials.
    """
    if num_trials <= 0:
        raise ValueError("num_trials must be positive")
    if not evaluations:
        raise ValueError("evaluations must be non-empty")
    settings = settings or ExperimentSettings()
    if isinstance(task, str):
        task = get_task(task)

    per_eval: List[List[TrialResult]] = [[] for _ in evaluations]
    for trial in range(num_trials):
        seed = base_seed + trial
        trial_settings = replace(settings, seed=seed)
        experiment = run_experiment(task, settings=trial_settings)
        for index, spec in enumerate(evaluations):
            spec = dict(spec)
            algorithm = spec.pop("algorithm")
            summary = experiment.evaluate(algorithm, **spec)
            per_eval[index].append(TrialResult(seed=seed, summary=summary))

    results = []
    for spec, trials in zip(evaluations, per_eval):
        spec = dict(spec)
        algorithm = spec.pop("algorithm")
        metric_names = _summary_metrics(trials[0].summary).keys()
        stacked = {
            name: np.array(
                [_summary_metrics(t.summary)[name] for t in trials], dtype=float
            )
            for name in metric_names
        }
        results.append(
            AggregateResult(
                algorithm=algorithm,
                knobs=spec,
                num_trials=num_trials,
                mean={k: float(np.nanmean(v)) for k, v in stacked.items()},
                std={k: float(np.nanstd(v)) for k, v in stacked.items()},
            )
        )
    return results


def aggregate_rows(results: Sequence[AggregateResult]) -> List[Dict[str, float]]:
    """Flat rows (for :func:`repro.harness.reporting.format_table`)."""
    return [result.row() for result in results]
