"""Generators for every table and figure of the paper's evaluation (§VI).

Each ``figN_*`` function returns plain row dictionaries (printable with
:mod:`repro.harness.reporting`) containing the same series the paper plots.
The benchmark suite under ``benchmarks/`` calls these with scaled-down
settings; passing paper-scale settings reproduces the full workloads.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..metrics import (
    TimingModel,
    brute_force_expense,
    expense,
    optimal_expense,
)
from ..metrics.accuracy import evaluate
from ..video.datasets import table1_stats
from .experiments import Experiment, ExperimentSettings, run_experiment
from .sweeps import DEFAULT_ALPHAS, DEFAULT_CONFIDENCES
from .tasks import TASKS

__all__ = [
    "table1_rows",
    "table2_rows",
    "fig4_rec_spl",
    "fig5_cclassify",
    "fig6_cregress",
    "fig8_cost",
    "fig9_fps",
    "fig10_stage_breakdown",
    "algorithm_timing",
]

#: Action-detection models run at ≈25 fps (paper footnote 8); the APP-VAE
#: surrogate pays this rate over its large history window.
ACTION_DETECTOR_FPS = 25.0


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def table1_rows(scale: float = 1.0, seed: int = 0) -> List[dict]:
    """Table I: paper vs measured event statistics of the synthetic data."""
    return table1_stats(scale=scale, seed=seed)


def table2_rows() -> List[dict]:
    """Table II: the task → event-set mapping."""
    return [
        {
            "task": task.task_id,
            "dataset": task.dataset,
            "events": "{" + ", ".join(task.event_ids) + "}",
            "group": task.group,
        }
        for task in TASKS.values()
    ]


# ----------------------------------------------------------------------
# Fig. 4 — REC–SPL curves of all algorithms on a task
# ----------------------------------------------------------------------
def fig4_rec_spl(
    task_id: str,
    settings: Optional[ExperimentSettings] = None,
    confidences: Sequence[float] = DEFAULT_CONFIDENCES,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    cox_taus: Sequence[float] = (0.1, 0.2, 0.3, 0.5, 0.7, 0.9),
    vqs_taus: Sequence[int] = (1, 5, 10, 20, 40, 80),
    experiment: Optional[Experiment] = None,
) -> List[dict]:
    """All-algorithm REC/SPL rows for one task (one Fig. 4 panel).

    The point/curve structure matches the paper: EHO and APP-VAE are single
    operating points, EHC sweeps c, EHR sweeps α, EHCR sweeps the (c, α)
    grid, COX and VQS sweep their thresholds, OPT and BF are the corners.
    """
    experiment = experiment or run_experiment(task_id, settings=settings)
    rows: List[dict] = []

    def add(algorithm: str, knobs: Dict[str, float], summary) -> None:
        rows.append(
            {
                "task": experiment.task.task_id,
                "algorithm": algorithm,
                **{f"knob_{k}": v for k, v in knobs.items()},
                **summary.as_dict(),
            }
        )

    add("OPT", {}, experiment.evaluate("OPT"))
    add("BF", {}, experiment.evaluate("BF"))
    add("EHO", {}, experiment.evaluate("EHO"))
    for point in experiment.curve("EHC", "confidence", confidences):
        add("EHC", point.knobs, point.summary)
    for point in experiment.curve("EHR", "alpha", alphas):
        add("EHR", point.knobs, point.summary)
    for point in experiment.ehcr_grid(confidences, alphas):
        add("EHCR", point.knobs, point.summary)
    for point in experiment.curve("COX", "tau", cox_taus):
        add("COX", point.knobs, point.summary)
    for point in experiment.curve("VQS", "tau", vqs_taus):
        add("VQS", point.knobs, point.summary)
    if experiment.task.dataset == "breakfast":
        # The paper only runs APP-VAE on Breakfast (events dense enough).
        add("APP-VAE", {}, experiment.evaluate("APP-VAE"))
    return rows


# ----------------------------------------------------------------------
# Figs. 5 & 6 — conformal component studies
# ----------------------------------------------------------------------
def fig5_cclassify(
    task_id: str,
    settings: Optional[ExperimentSettings] = None,
    confidences: Sequence[float] = DEFAULT_CONFIDENCES,
    experiment: Optional[Experiment] = None,
) -> List[dict]:
    """EHC's REC / SPL / REC_c as the confidence level c varies."""
    experiment = experiment or run_experiment(task_id, settings=settings)
    rows = []
    for point in experiment.curve("EHC", "confidence", confidences):
        rows.append(
            {
                "task": experiment.task.task_id,
                "c": point.knobs["confidence"],
                "REC": point.summary.rec,
                "SPL": point.summary.spl,
                "REC_c": point.summary.rec_c,
            }
        )
    return rows


def fig6_cregress(
    task_id: str,
    settings: Optional[ExperimentSettings] = None,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    experiment: Optional[Experiment] = None,
) -> List[dict]:
    """EHR's REC / SPL / REC_r as the coverage level α varies."""
    experiment = experiment or run_experiment(task_id, settings=settings)
    rows = []
    for point in experiment.curve("EHR", "alpha", alphas):
        rows.append(
            {
                "task": experiment.task.task_id,
                "alpha": point.knobs["alpha"],
                "REC": point.summary.rec,
                "SPL": point.summary.spl,
                "REC_r": point.summary.rec_r,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Fig. 8 — monetary cost case study
# ----------------------------------------------------------------------
def fig8_cost(
    task_id: str = "TA1",
    settings: Optional[ExperimentSettings] = None,
    confidences: Sequence[float] = DEFAULT_CONFIDENCES,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    cox_taus: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    price_per_frame: float = 0.001,
    experiment: Optional[Experiment] = None,
) -> List[dict]:
    """REC vs expense ($) for OPT, BF, EHCR and COX (the Fig. 8 series)."""
    experiment = experiment or run_experiment(task_id, settings=settings)
    records = experiment.data.test
    rows = [
        {
            "task": experiment.task.task_id,
            "algorithm": "OPT",
            "REC": 1.0,
            "expense": optimal_expense(records, price_per_frame),
        },
        {
            "task": experiment.task.task_id,
            "algorithm": "BF",
            "REC": 1.0,
            "expense": brute_force_expense(records, price_per_frame),
        },
    ]
    for point in experiment.ehcr_grid(confidences, alphas):
        prediction = experiment._predict(
            "EHCR",
            confidence=point.knobs["confidence"],
            alpha=point.knobs["alpha"],
        )
        rows.append(
            {
                "task": experiment.task.task_id,
                "algorithm": "EHCR",
                "REC": point.rec,
                "expense": expense(prediction, price_per_frame),
            }
        )
    for tau in cox_taus:
        prediction = experiment._predict("COX", tau=tau)
        summary = evaluate(prediction, records)
        rows.append(
            {
                "task": experiment.task.task_id,
                "algorithm": "COX",
                "REC": summary.rec,
                "expense": expense(prediction, price_per_frame),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figs. 9 & 10 — throughput and stage breakdown
# ----------------------------------------------------------------------
def algorithm_timing(
    experiment: Experiment,
    algorithm: str,
    timing_model: Optional[TimingModel] = None,
    **knobs,
):
    """PipelineTiming of one algorithm at one knob setting.

    Deployment accounting (the marshalling loop of Fig. 1): each record
    stands for one time horizon of H frames; features are extracted for
    every frame; the predictor runs once per horizon; the CI processes the
    relayed frames.  The APP-VAE surrogate instead pays the ≈25 fps action
    detector over its large history window per prediction (paper
    footnote 8).
    """
    timing_model = timing_model or TimingModel()
    records = experiment.data.test
    prediction = experiment._predict(algorithm, **knobs)
    horizon = records.horizon
    n = len(records)
    frames_covered = n * horizon
    frames_relayed = int(prediction.predicted_frames().sum())
    if algorithm.upper() == "APP-VAE":
        predictor = experiment.predictor("APP-VAE")
        history = predictor.history_window
        slow_extraction_seconds = n * history / ACTION_DETECTOR_FPS
        timing = timing_model.pipeline(
            frames_covered=frames_covered,
            frames_featurized=0,
            predictions_made=n,
            frames_relayed=frames_relayed,
        )
        from ..metrics.timing import PipelineTiming, StageBreakdown

        breakdown = StageBreakdown(
            feature_extraction=slow_extraction_seconds,
            predictor=timing.breakdown.predictor,
            cloud_inference=timing.breakdown.cloud_inference,
        )
        return PipelineTiming(frames_covered=frames_covered, breakdown=breakdown)
    return timing_model.pipeline(
        frames_covered=frames_covered,
        frames_featurized=frames_covered,
        predictions_made=n,
        frames_relayed=frames_relayed,
    )


def fig9_fps(
    task_id: str,
    settings: Optional[ExperimentSettings] = None,
    confidences: Sequence[float] = DEFAULT_CONFIDENCES,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    cox_taus: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    vqs_taus: Sequence[int] = (1, 5, 10, 20, 40, 80),
    timing_model: Optional[TimingModel] = None,
    experiment: Optional[Experiment] = None,
) -> List[dict]:
    """REC vs FPS points for EHCR, COX and VQS (one Fig. 9 panel)."""
    experiment = experiment or run_experiment(task_id, settings=settings)
    timing_model = timing_model or TimingModel()
    rows: List[dict] = []

    def add(algorithm: str, knobs: Dict[str, float]) -> None:
        summary = experiment.evaluate(algorithm, **knobs)
        timing = algorithm_timing(experiment, algorithm, timing_model, **knobs)
        rows.append(
            {
                "task": experiment.task.task_id,
                "algorithm": algorithm,
                **{f"knob_{k}": v for k, v in knobs.items()},
                "REC": summary.rec,
                "FPS": timing.fps,
            }
        )

    for c in confidences:
        for a in alphas:
            add("EHCR", {"confidence": c, "alpha": a})
    for tau in cox_taus:
        add("COX", {"tau": tau})
    for tau in vqs_taus:
        add("VQS", {"tau": tau})
    return rows


def fig10_stage_breakdown(
    task_id: str = "TA10",
    rec_target: float = 0.9,
    settings: Optional[ExperimentSettings] = None,
    confidences: Sequence[float] = DEFAULT_CONFIDENCES,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    timing_model: Optional[TimingModel] = None,
    experiment: Optional[Experiment] = None,
) -> Dict[str, float]:
    """Stage-time proportions of EHCR at the cheapest setting with
    REC ≥ rec_target (Fig. 10's pie chart)."""
    experiment = experiment or run_experiment(task_id, settings=settings)
    timing_model = timing_model or TimingModel()
    points = experiment.ehcr_grid(confidences, alphas)
    eligible = [p for p in points if p.rec >= rec_target]
    if not eligible:
        # Fall back to the maximum-recall point.
        eligible = [max(points, key=lambda p: p.rec)]
    chosen = min(eligible, key=lambda p: p.spl)
    timing = algorithm_timing(
        experiment,
        "EHCR",
        timing_model,
        confidence=chosen.knobs["confidence"],
        alpha=chosen.knobs["alpha"],
    )
    proportions = timing.breakdown.proportions()
    proportions["achieved_REC"] = chosen.rec
    return proportions
