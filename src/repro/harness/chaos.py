"""Chaos harness: the paper's REC/cost trade-off under unreliable CI.

``chaos_experiment`` sweeps fault rates × retry policies over one task's
marshalling deployment: each cell runs the full horizon-by-horizon loop
against a seeded :class:`~repro.cloud.faults.FaultInjector` wrapped in a
:class:`~repro.cloud.resilient.ResilientCIClient`, and reports recall
(model-level and effective), dollar cost, and retry overhead.  Everything
is deterministic — the same seed, plan, and policy reproduce identical
retries, breaker transitions, and report counters.
"""

from __future__ import annotations

import copy
import tempfile
from typing import Dict, List, Optional, Sequence

from ..cloud import (
    BreakerConfig,
    CloudInferenceService,
    FaultInjector,
    FaultPlan,
    ResilientCIClient,
    RetryPolicy,
    StreamMarshaller,
)
from ..features import CovariatePipeline
from ..ingest import IngestFaultInjector, IngestFaultPlan, StreamGuard
from ..lifecycle import (
    LifecycleController,
    LifecycleFaultInjector,
    LifecycleFaultPlan,
    ModelRegistry,
)
from ..obs import log_info, span
from .experiments import Experiment, ExperimentSettings, run_experiment

__all__ = [
    "DEFAULT_FAULT_RATES",
    "DEFAULT_RETRY_POLICIES",
    "DEFAULT_INGEST_FAULT_RATES",
    "DEFAULT_IMPUTATIONS",
    "DEFAULT_LIFECYCLE_FAULT_RATES",
    "chaos_experiment",
    "chaos_marshaller",
    "ingest_chaos_experiment",
    "lifecycle_chaos_experiment",
    "lifecycle_marshaller",
    "run_chaos_cell",
    "run_ingest_chaos_cell",
    "run_lifecycle_chaos_cell",
]

#: Default raising-fault rates swept by the chaos harness.
DEFAULT_FAULT_RATES = (0.0, 0.05, 0.1, 0.2, 0.4)

#: Default retry policies: none, modest, aggressive.
DEFAULT_RETRY_POLICIES = (
    RetryPolicy(max_attempts=1),
    RetryPolicy(max_attempts=3),
    RetryPolicy(max_attempts=6),
)

#: Default ingest fault rates swept by the ingest chaos harness.
DEFAULT_INGEST_FAULT_RATES = (0.0, 0.05, 0.1, 0.2)

#: Default guard configurations swept per ingest fault rate.  ``"none"``
#: is the unguarded baseline (corrupted features straight into the
#: model); the rest name :data:`~repro.ingest.guard.IMPUTATION_POLICIES`.
DEFAULT_IMPUTATIONS = ("none", "hold-last", "zero-fill", "linear-interp")

#: Default total lifecycle-fault rates swept by the lifecycle chaos
#: harness (spread uniformly over the four hazard hooks).
DEFAULT_LIFECYCLE_FAULT_RATES = (0.0, 0.5, 1.0, 2.0)


def chaos_marshaller(
    experiment: Experiment,
    confidence: float = 0.9,
    alpha: float = 0.9,
) -> StreamMarshaller:
    """The deployment-shaped marshaller (EHCR configuration) for one task."""
    pipeline = CovariatePipeline(
        experiment.data.spec.window_size,
        standardizer=experiment.data.standardizer,
    )
    return StreamMarshaller(
        experiment.model,
        experiment.data.event_types,
        pipeline,
        classifier=experiment.classifier,
        regressor=experiment.regressor,
        confidence=confidence,
        alpha=alpha,
    )


def run_chaos_cell(
    marshaller: StreamMarshaller,
    experiment: Experiment,
    plan: FaultPlan,
    policy: RetryPolicy,
    breaker: Optional[BreakerConfig] = None,
    failure_policy: str = "defer",
    max_horizons: Optional[int] = None,
) -> Dict[str, float]:
    """One (plan, policy) cell: fresh service stack, one marshalling run."""
    service = CloudInferenceService(experiment.data.test_stream)
    injector = FaultInjector(service, plan)
    client = ResilientCIClient(injector, policy=policy, breaker=breaker)
    report = marshaller.run(
        experiment.data.test_stream,
        experiment.data.test_features,
        client,
        max_horizons=max_horizons,
        failure_policy=failure_policy,
    )
    attempts = max(1, client.stats.attempts)
    return {
        "fault_rate": plan.failure_rate,
        "max_attempts": policy.max_attempts,
        "REC": report.frame_recall,
        "REC_eff": report.effective_recall,
        "cost": report.total_cost,
        "retries": report.retries,
        "retry_overhead": client.stats.retries / attempts,
        "wait_s": client.stats.seconds_waited,
        "frames_lost": report.frames_lost,
        "deferred": report.segments_deferred,
        "failed": report.segments_failed,
        "breaker_opens": client.breaker.open_count,
        "billed_failures": injector.stats.billed_failures,
    }


def run_ingest_chaos_cell(
    marshaller: StreamMarshaller,
    experiment: Experiment,
    plan: IngestFaultPlan,
    imputation: str = "hold-last",
    quarantine_policy: str = "relay-all",
    max_horizons: Optional[int] = None,
) -> Dict[str, float]:
    """One (plan, imputation) cell: corrupt the feed, guard it, marshal.

    ``imputation="none"`` runs the corrupted features straight through the
    unguarded loop — the baseline every guard policy is measured against
    (NaN scores silently fail every threshold comparison, so this is how
    recall collapses without a guard).
    """
    injector = IngestFaultInjector(plan)
    features = injector.inject(experiment.data.test_features)
    guard = (
        None
        if imputation == "none"
        else StreamGuard(imputation=imputation, quarantine_policy=quarantine_policy)
    )
    service = CloudInferenceService(experiment.data.test_stream)
    report = marshaller.run(
        experiment.data.test_stream,
        features,
        service,
        max_horizons=max_horizons,
        guard=guard,
    )
    return {
        "fault_rate": plan.total_rate,
        "imputation": imputation,
        "REC": report.frame_recall,
        "REC_eff": report.effective_recall,
        "cost": report.total_cost,
        "frames_faulted": injector.stats.frames_faulted,
        "frames_invalid": report.frames_invalid,
        "frames_imputed": report.frames_imputed,
        "voided": report.guarantee_voided_frames,
        "quarantined": report.quarantined_frames,
        "transitions": report.health_transitions,
    }


def ingest_chaos_experiment(
    task,
    fault_rates: Sequence[float] = DEFAULT_INGEST_FAULT_RATES,
    imputations: Sequence[str] = DEFAULT_IMPUTATIONS,
    settings: Optional[ExperimentSettings] = None,
    base_plan: Optional[IngestFaultPlan] = None,
    quarantine_policy: str = "relay-all",
    confidence: float = 0.9,
    alpha: float = 0.9,
    seed: int = 0,
    max_horizons: Optional[int] = None,
    experiment: Optional[Experiment] = None,
) -> List[Dict[str, float]]:
    """Sweep ingest fault rates × guard policies over one task's deployment.

    The ingest mirror of :func:`chaos_experiment`: the CI stays perfect
    and the *input* degrades.  One experiment backs the grid; each cell
    rescales ``base_plan`` (default: a uniform plan seeded with ``seed``)
    to the cell's total fault rate, corrupts the test features with it,
    and runs marshalling — unguarded for ``"none"``, through a
    :class:`~repro.ingest.guard.StreamGuard` otherwise.  Returns one row
    dict per cell, ready for ``format_table``.
    """
    if experiment is None:
        experiment = run_experiment(task, settings=settings)
    if base_plan is None:
        base_plan = IngestFaultPlan(seed=seed)
    marshaller = chaos_marshaller(experiment, confidence=confidence, alpha=alpha)
    rows: List[Dict[str, float]] = []
    with span(
        "chaos.ingest",
        task=experiment.task.task_id,
        cells=len(fault_rates) * len(imputations),
    ):
        for rate in fault_rates:
            plan = base_plan.with_fault_rate(rate)
            for imputation in imputations:
                with span(
                    "chaos.ingest_cell", fault_rate=rate, imputation=imputation
                ):
                    row = run_ingest_chaos_cell(
                        marshaller,
                        experiment,
                        plan,
                        imputation=imputation,
                        quarantine_policy=quarantine_policy,
                        max_horizons=max_horizons,
                    )
                rows.append(row)
                log_info(
                    "chaos.ingest_cell",
                    fault_rate=rate,
                    imputation=imputation,
                    rec_eff=row["REC_eff"],
                    voided=row["voided"],
                    quarantined=row["quarantined"],
                )
    return rows


def chaos_experiment(
    task,
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
    policies: Sequence[RetryPolicy] = DEFAULT_RETRY_POLICIES,
    settings: Optional[ExperimentSettings] = None,
    base_plan: Optional[FaultPlan] = None,
    breaker: Optional[BreakerConfig] = None,
    failure_policy: str = "defer",
    confidence: float = 0.9,
    alpha: float = 0.9,
    seed: int = 0,
    max_horizons: Optional[int] = None,
    experiment: Optional[Experiment] = None,
) -> List[Dict[str, float]]:
    """Sweep fault rates × retry policies over one task's deployment.

    One experiment (train + calibrate) backs the whole grid; each cell
    rescales ``base_plan`` (default: a uniform plan seeded with ``seed``)
    to the cell's raising-fault rate and runs marshalling with
    ``failure_policy`` through a fresh injector + resilient client.
    Returns one row dict per cell, ready for ``format_table``.
    """
    if experiment is None:
        experiment = run_experiment(task, settings=settings)
    if base_plan is None:
        base_plan = FaultPlan(seed=seed)
    marshaller = chaos_marshaller(experiment, confidence=confidence, alpha=alpha)
    rows: List[Dict[str, float]] = []
    with span("chaos", task=experiment.task.task_id, cells=len(fault_rates) * len(policies)):
        for rate in fault_rates:
            plan = base_plan.with_failure_rate(rate)
            for policy in policies:
                with span(
                    "chaos.cell", fault_rate=rate, max_attempts=policy.max_attempts
                ):
                    row = run_chaos_cell(
                        marshaller,
                        experiment,
                        plan,
                        policy,
                        breaker=breaker,
                        failure_policy=failure_policy,
                        max_horizons=max_horizons,
                    )
                rows.append(row)
                log_info(
                    "chaos.cell",
                    fault_rate=rate,
                    max_attempts=policy.max_attempts,
                    rec_eff=row["REC_eff"],
                    cost=row["cost"],
                    retries=row["retries"],
                )
    return rows


def lifecycle_marshaller(
    experiment: Experiment,
    confidence: float = 0.9,
    alpha: float = 0.9,
) -> StreamMarshaller:
    """A deployment-shaped marshaller with *private* conformal components.

    Lifecycle swaps recalibrate the marshaller's classifier and regressor
    in place; sharing the experiment's cached components (as
    :func:`chaos_marshaller` does, correctly, for read-only runs) would
    leak one chaos cell's swaps into the next.  The experiment's layers
    were calibrated on the serving engine's forward over the calibration
    split, so copies of them are what a fresh calibration would give,
    without scoring the split again.
    """
    marshaller = chaos_marshaller(experiment, confidence=confidence, alpha=alpha)
    marshaller.classifier = copy.deepcopy(experiment.classifier)
    marshaller.regressor = copy.deepcopy(experiment.regressor)
    return marshaller


def run_lifecycle_chaos_cell(
    experiment: Experiment,
    plan: LifecycleFaultPlan,
    registry_root: Optional[str] = None,
    audit_rate: float = 1.0,
    retrain_every_audits: int = 12,
    min_positives: int = 1,
    recall_margin: float = 0.2,
    brier_margin: float = 0.5,
    confidence: float = 0.9,
    alpha: float = 0.9,
    seed: int = 0,
    max_horizons: Optional[int] = None,
) -> Dict[str, float]:
    """One lifecycle fault plan: retrain/publish/canary/swap under chaos.

    A fresh marshaller + registry per cell (in ``registry_root`` or an
    ephemeral directory); scheduled retraining and a permissive canary
    gate keep swap traffic flowing so every hazard hook actually fires —
    the sweep measures crash-safety, not candidate quality.  After the
    run the registry is **reopened from disk** (the crash-restart path:
    manifest recovery plus artifact verification) and the last good
    version it can actually serve is reported alongside the live stats.
    """
    marshaller = lifecycle_marshaller(experiment, confidence=confidence, alpha=alpha)
    injector = LifecycleFaultInjector(plan)

    def cell(root: str) -> Dict[str, float]:
        registry = ModelRegistry(root, injector=injector)
        controller = LifecycleController(
            marshaller,
            registry,
            audit_rate=audit_rate,
            retrain_every_audits=retrain_every_audits,
            min_positives=min_positives,
            recall_margin=recall_margin,
            brier_margin=brier_margin,
            seed=seed,
            injector=injector,
        )
        controller.register_incumbent()
        service = CloudInferenceService(experiment.data.test_stream)
        report = marshaller.run(
            experiment.data.test_stream,
            experiment.data.test_features,
            service,
            max_horizons=max_horizons,
            lifecycle=controller,
        )
        reopened = ModelRegistry(root)
        last_good, _ = reopened.load_last_good()
        return {
            "fault_rate": plan.total_rate,
            "REC": report.frame_recall,
            "cost": report.total_cost,
            "audits": controller.audits,
            "retrains": controller.retrains,
            "retrain_failures": controller.retrain_failures,
            "publish_failures": controller.publish_failures,
            "rollbacks": controller.rollbacks,
            "swaps": controller.swaps,
            "voided": report.swap_voided_frames,
            "frames_lost": report.frames_lost,
            "serving": controller.serving_version,
            "last_good": last_good.version,
            "manifest_recoveries": reopened.manifest_recoveries,
            "faults": injector.stats.total,
        }

    if registry_root is not None:
        return cell(registry_root)
    with tempfile.TemporaryDirectory() as root:
        return cell(root)


def lifecycle_chaos_experiment(
    task,
    fault_rates: Sequence[float] = DEFAULT_LIFECYCLE_FAULT_RATES,
    settings: Optional[ExperimentSettings] = None,
    base_plan: Optional[LifecycleFaultPlan] = None,
    audit_rate: float = 1.0,
    retrain_every_audits: int = 12,
    confidence: float = 0.9,
    alpha: float = 0.9,
    seed: int = 0,
    max_horizons: Optional[int] = None,
    experiment: Optional[Experiment] = None,
) -> List[Dict[str, float]]:
    """Sweep lifecycle fault rates over one task's deployment.

    The lifecycle mirror of :func:`chaos_experiment`: the CI and the
    input stay perfect, and the *model lifecycle machinery* degrades —
    torn checkpoint writes, corrupted manifests, retrain blow-ups, flaky
    canaries.  One experiment backs the grid; each cell rescales
    ``base_plan`` (default: a uniform plan seeded with ``seed``) to the
    cell's total fault rate.  Deterministic end to end: the same seed and
    rates reproduce identical retrains, faults, swaps, and reports.
    """
    if experiment is None:
        experiment = run_experiment(task, settings=settings)
    if base_plan is None:
        base_plan = LifecycleFaultPlan(seed=seed)
    rows: List[Dict[str, float]] = []
    with span(
        "chaos.lifecycle",
        task=experiment.task.task_id,
        cells=len(fault_rates),
    ):
        for rate in fault_rates:
            plan = base_plan.with_total_rate(rate)
            with span("chaos.lifecycle_cell", fault_rate=rate):
                row = run_lifecycle_chaos_cell(
                    experiment,
                    plan,
                    audit_rate=audit_rate,
                    retrain_every_audits=retrain_every_audits,
                    confidence=confidence,
                    alpha=alpha,
                    seed=seed,
                    max_horizons=max_horizons,
                )
            rows.append(row)
            log_info(
                "chaos.lifecycle_cell",
                fault_rate=rate,
                retrains=row["retrains"],
                swaps=row["swaps"],
                rollbacks=row["rollbacks"],
                serving=row["serving"],
                last_good=row["last_good"],
            )
    return rows
