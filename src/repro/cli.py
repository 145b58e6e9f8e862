"""Command-line interface for the reproduction.

Every table/figure generator and the single-experiment evaluator are
reachable from the shell::

    python -m repro.cli tasks                      # Table II
    python -m repro.cli table1 --scale 0.2         # Table I stats
    python -m repro.cli fig4 --task TA1            # one Fig. 4 panel
    python -m repro.cli fig5 --task TA10           # C-CLASSIFY study
    python -m repro.cli fig6 --task TA5            # C-REGRESS study
    python -m repro.cli fig8 --task TA1            # cost case study
    python -m repro.cli fig9 --task TA11           # REC vs FPS
    python -m repro.cli fig10 --task TA10          # stage breakdown
    python -m repro.cli evaluate --task TA10 --algorithm EHCR \
        --confidence 0.95 --alpha 0.9
    python -m repro.cli metrics --task TA10 --algorithm EHCR
    python -m repro.cli chaos --task TA10 --fault-rates 0,0.1,0.3 \
        --max-attempts 1,4 --failure-policy defer
    python -m repro.cli chaos --task TA10 --ingest \
        --ingest-fault-rates 0,0.1,0.2 --imputation none,hold-last
    python -m repro.cli fleet --task TA10 --streams 8 --scheduler deadline
    python -m repro.cli fleet --task TA10 --fleet-sizes 1,4,16   # sweep
    python -m repro.cli watch --task TA10 --streams 4 --fault-rate 0.2
    python -m repro.cli watch --task TA10 --streams 6 --shards 3 \
        --shard-fault-rate 0.5 --plain          # supervised shard chaos
    python -m repro.cli slo --from timeseries.json --spec slos.json

All experiment-backed commands accept ``--scale/--epochs/--records/--seed``
to size the synthetic workload, plus the observability flags
``--log-level LEVEL`` (structured JSON-lines logs on stderr) and
``--trace-out FILE`` (stream nested span records as JSON lines).  The
``metrics`` command runs one instrumented evaluation and renders the
metrics registry plus the §VI.H per-stage time shares.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import partial
from typing import List, Optional, Sequence

from . import obs
from .cloud import BreakerConfig, FaultPlan, RetryPolicy
from .fleet import (
    FAIL_FAST,
    PARTITIONS,
    SCHEDULERS,
    ChaosServiceFactory,
    PlainServiceFactory,
    ShardFaultPlan,
    SupervisorConfig,
)
from .ingest import IngestFaultPlan
from .lifecycle import LifecycleFaultPlan
from .harness import (
    ExperimentSettings,
    build_fleet_lanes,
    chaos_experiment,
    ingest_chaos_experiment,
    lifecycle_chaos_experiment,
    fleet_marshaller,
    fleet_throughput_sweep,
    sharded_fleet_marshaller,
    sharded_throughput_sweep,
    fig10_stage_breakdown,
    fig4_rec_spl,
    fig5_cclassify,
    fig6_cregress,
    fig8_cost,
    fig9_fps,
    format_table,
    run_experiment,
    summarize_frontier,
    table1_rows,
    table2_rows,
)

__all__ = ["main", "build_parser"]


def _add_experiment_args(parser: argparse.ArgumentParser, default_task: str) -> None:
    parser.add_argument("--task", default=default_task, help="task id (TA1..TA16)")
    parser.add_argument("--scale", type=float, default=0.12,
                        help="synthetic workload scale (1.0 = paper size)")
    parser.add_argument("--epochs", type=int, default=25)
    parser.add_argument("--records", type=int, default=350,
                        help="max records per split")
    parser.add_argument("--seed", type=int, default=0)
    _add_obs_args(parser)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_shard_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        metavar="N",
        help="partition the lanes across N worker processes (each with "
        "its own engine, CI account, and observability, merged exactly "
        "by the coordinator); 1 = single-process fleet",
    )
    parser.add_argument(
        "--partition",
        default="contiguous",
        choices=sorted(PARTITIONS),
        help="lane-to-shard assignment strategy for --shards > 1",
    )
    parser.add_argument(
        "--start-method",
        default=None,
        choices=["fork", "spawn", "forkserver"],
        help="multiprocessing start method for shard workers "
        "(default: platform default)",
    )
    parser.add_argument(
        "--supervise",
        action="store_true",
        help="make the sharded fleet self-healing: checkpointed "
        "deterministic restarts and rescue/degrade escalation instead of "
        "the default fail-fast (liveness deadlines apply either way); "
        "implied by any --shard-fault-* flag",
    )
    parser.add_argument(
        "--shard-fault-plan",
        default=None,
        metavar="FILE",
        help="load a ShardFaultPlan from FILE (JSON) and inject its "
        "process-level faults (crash/SIGKILL/stall/slow/startup hang) "
        "into the shard workers",
    )
    parser.add_argument(
        "--shard-fault-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="draw a seeded ShardFaultPlan giving each shard probability "
        "P of one process-level fault (ignored when --shard-fault-plan "
        "is given)",
    )
    parser.add_argument(
        "--shard-fault-plan-out",
        default=None,
        metavar="FILE",
        help="write the shard fault plan actually used to FILE (JSON) "
        "for replay via --shard-fault-plan",
    )
    parser.add_argument(
        "--max-restarts",
        type=int,
        default=2,
        metavar="N",
        help="supervised restart budget per shard before escalation",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=_positive_int,
        default=8,
        metavar="TICKS",
        help="supervised per-shard lane-state checkpoint cadence",
    )
    parser.add_argument(
        "--suspect-after",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="heartbeat silence before a LIVE shard turns SUSPECT",
    )
    parser.add_argument(
        "--dead-after",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="heartbeat silence before a SUSPECT shard is declared DEAD "
        "and restarted",
    )
    parser.add_argument(
        "--escalation",
        default="rescue",
        choices=["rescue", "degrade"],
        help="what to do with a shard whose restart budget is exhausted: "
        "rescue = replay its lanes in the coordinator (exact), degrade = "
        "serve them relay-all (never drops frames)",
    )
    parser.add_argument(
        "--startup-timeout",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="per-shard startup deadline (worker must say hello within "
        "this budget; by default the run fails fast naming the shard, "
        "under --supervise it is restarted)",
    )


def _shard_supervision(args: argparse.Namespace):
    """Resolve the shard fault plan and supervisor config from CLI flags.

    Returns ``(supervisor, plan)``; any ``--shard-fault-*`` flag implies
    supervision (a fail-fast coordinator would just surface the injected
    crash as a run failure); otherwise the config is ``FAIL_FAST`` with
    ``--startup-timeout`` as its startup deadline.
    """
    plan = _read_plan(args.shard_fault_plan, ShardFaultPlan, None)
    if plan is None and args.shard_fault_rate > 0:
        plan = ShardFaultPlan.seeded(
            args.shards, rate=args.shard_fault_rate, seed=args.seed
        )
    _write_plan(args.shard_fault_plan_out, plan)
    if not (args.supervise or plan is not None):
        return replace(FAIL_FAST, startup_deadline=args.startup_timeout), plan
    return SupervisorConfig(
        suspect_after=args.suspect_after,
        dead_after=args.dead_after,
        startup_deadline=args.startup_timeout,
        max_restarts=args.max_restarts,
        escalation=args.escalation,
        checkpoint_every=args.checkpoint_every,
    ), plan


def _build_fleet_run(
    args: argparse.Namespace,
    experiment,
    lanes,
    fault_rate: float = 0.0,
    heartbeat_every: int = 1,
):
    """The one fleet run behind ``fleet`` and ``watch``, built from flags.

    Returns ``(run, supervisor, shard_plan)``; ``run(**hooks)`` serves
    ``lanes`` once and returns the report.  With ``--shards`` > 1 it is a
    :func:`sharded_fleet_marshaller` run (each shard builds its own CI
    stack); otherwise a :func:`fleet_marshaller` run over the stack the
    same factory choice builds for shard 0, and ``supervisor`` and
    ``shard_plan`` are ``None``.  A faulty run follows
    ``--failure-policy``; a fault-free one raises.
    """
    engine = dict(
        confidence=args.confidence,
        alpha=args.alpha,
        scheduler=args.scheduler,
        tick_budget_frames=args.budget_frames,
    )
    supervisor = shard_plan = None
    if args.shards > 1:
        supervisor, shard_plan = _shard_supervision(args)
        sharded = sharded_fleet_marshaller(
            experiment,
            args.shards,
            partition=args.partition,
            fault_rate=fault_rate,
            seed=args.seed,
            start_method=args.start_method,
            heartbeat_every=heartbeat_every,
            supervisor=supervisor,
            shard_fault_plan=shard_plan,
            **engine,
        )
        serve = partial(sharded.run, lanes)
    else:
        factory = (
            ChaosServiceFactory(fault_rate, args.seed)
            if fault_rate > 0
            else PlainServiceFactory()
        )
        serve = partial(
            fleet_marshaller(experiment, **engine).run,
            lanes,
            factory(0, [lane.stream for lane in lanes]),
        )
    run = partial(
        serve,
        max_horizons=args.max_horizons,
        failure_policy=args.failure_policy if fault_rate > 0 else "raise",
    )
    return run, supervisor, shard_plan


def _print_flight_dumps(recorder, out) -> None:
    """List the flight-recorder dumps, tagging each shard worker's."""
    if not recorder.dumps:
        return
    print(file=out)
    print(f"== flight-recorder dumps ({len(recorder.dumps)}) ==", file=out)
    for dump in recorder.dumps:
        shard = dump.get("shard")
        print(
            f"tick {dump['tick']}: {dump['reason']}"
            + (f" (lane {dump['lane']})" if dump.get("lane") else "")
            + (f" [shard {shard}]" if shard is not None else ""),
            file=out,
        )


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log-level",
        default=None,
        choices=sorted(obs.LEVELS),
        help="structured-log threshold (JSON lines on stderr)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="stream span records to FILE as JSON lines "
        "(implies instrumentation on)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="dump the metrics registry to FILE (JSON) on shutdown — "
        "flushed even if the run dies (implies instrumentation on)",
    )


def _settings(args: argparse.Namespace) -> ExperimentSettings:
    return ExperimentSettings(
        scale=args.scale,
        epochs=args.epochs,
        max_records=args.records,
        seed=args.seed,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EventHit reproduction: regenerate the paper's tables "
        "and figures or evaluate individual algorithms.",
    )
    # Commands without the observability flags read them as unset.
    parser.set_defaults(log_level=None, trace_out=None, metrics_out=None)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tasks", help="print Table II (tasks TA1-TA16)")

    table1 = sub.add_parser("table1", help="print Table I dataset statistics")
    table1.add_argument("--scale", type=float, default=1.0)
    table1.add_argument("--seed", type=int, default=0)

    for name, default_task, description in (
        ("fig4", "TA1", "REC-SPL curves of all algorithms on one task"),
        ("fig5", "TA10", "C-CLASSIFY study: REC/SPL/REC_c vs c"),
        ("fig6", "TA10", "C-REGRESS study: REC/SPL/REC_r vs alpha"),
        ("fig8", "TA1", "monetary cost case study"),
        ("fig9", "TA10", "REC vs FPS for EHCR/COX/VQS"),
        ("fig10", "TA10", "pipeline stage-time breakdown"),
    ):
        cmd = sub.add_parser(name, help=description)
        _add_experiment_args(cmd, default_task)
        if name == "fig10":
            cmd.add_argument("--rec-target", type=float, default=0.9)

    for name, description in (
        ("evaluate", "evaluate one algorithm at one knob setting"),
        (
            "metrics",
            "run one instrumented evaluation and render the metrics "
            "registry and per-stage time shares",
        ),
    ):
        cmd = sub.add_parser(name, help=description)
        _add_experiment_args(cmd, "TA10")
        cmd.add_argument(
            "--algorithm",
            default="EHCR",
            choices=["EHO", "EHC", "EHR", "EHCR", "OPT", "BF", "COX", "VQS",
                     "APP-VAE"],
        )
        cmd.add_argument("--confidence", type=float, default=None,
                         help="C-CLASSIFY confidence c (EHC/EHCR)")
        cmd.add_argument("--alpha", type=float, default=None,
                         help="C-REGRESS coverage alpha (EHR/EHCR)")
        cmd.add_argument("--tau", type=float, default=None,
                         help="threshold for COX/VQS")
        if name == "metrics":
            cmd.add_argument(
                "--json-out",
                default=None,
                metavar="FILE",
                help="also dump the registry snapshot as JSON to FILE",
            )
            cmd.add_argument(
                "--from",
                dest="from_file",
                default=None,
                metavar="FILE",
                help="render a previously saved --json-out snapshot "
                "instead of running an evaluation",
            )
            cmd.add_argument(
                "--prom-out",
                default=None,
                metavar="FILE",
                help="also write the registry in Prometheus "
                "text-exposition format to FILE",
            )

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection sweep: recall/cost/retry overhead of the "
        "marshalling deployment under an unreliable CI",
    )
    _add_experiment_args(chaos, "TA10")
    chaos.add_argument(
        "--fault-rates",
        default="0,0.05,0.1,0.2,0.4",
        help="comma-separated raising-fault rates to sweep",
    )
    chaos.add_argument(
        "--max-attempts",
        default="1,3,6",
        help="comma-separated retry attempt caps (one policy per value)",
    )
    chaos.add_argument(
        "--failure-policy",
        default="defer",
        choices=["raise", "skip", "defer"],
        help="what the marshaller does when retries are exhausted",
    )
    chaos.add_argument(
        "--fault-plan",
        default=None,
        metavar="FILE",
        help="load the base FaultPlan from FILE (JSON); its raising-fault "
        "rates are rescaled to each swept rate",
    )
    chaos.add_argument(
        "--fault-plan-out",
        default=None,
        metavar="FILE",
        help="write the resolved base FaultPlan to FILE (JSON) for reuse "
        "via --fault-plan",
    )
    chaos.add_argument("--breaker-threshold", type=int, default=5,
                       help="consecutive failures before the circuit opens")
    chaos.add_argument("--breaker-recovery", type=float, default=30.0,
                       help="simulated seconds the circuit stays open")
    chaos.add_argument("--max-horizons", type=int, default=None,
                       help="cap the marshalled horizons per cell")
    chaos.add_argument(
        "--ingest",
        action="store_true",
        help="sweep ingest faults (corrupted camera feeds + StreamGuard) "
        "instead of CI faults",
    )
    chaos.add_argument(
        "--ingest-fault-rates",
        default="0,0.05,0.1,0.2",
        help="comma-separated total ingest fault rates to sweep "
        "(with --ingest)",
    )
    chaos.add_argument(
        "--imputation",
        default=",".join(("none", "hold-last", "zero-fill", "linear-interp")),
        help="comma-separated guard policies per rate: 'none' (unguarded "
        "baseline) and/or imputation policies (with --ingest)",
    )
    chaos.add_argument(
        "--quarantine-policy",
        default="relay-all",
        choices=["relay-all", "skip"],
        help="fallback for quarantined horizons (with --ingest)",
    )
    chaos.add_argument(
        "--ingest-fault-plan",
        default=None,
        metavar="FILE",
        help="load the base IngestFaultPlan from FILE (JSON); its rates "
        "are rescaled to each swept rate (with --ingest)",
    )
    chaos.add_argument(
        "--ingest-fault-plan-out",
        default=None,
        metavar="FILE",
        help="write the resolved base IngestFaultPlan to FILE (JSON) for "
        "reuse via --ingest-fault-plan",
    )

    lifecycle = sub.add_parser(
        "lifecycle",
        help="model-lifecycle chaos sweep: drift-triggered retraining, "
        "canary gating, and crash-safe hot-swap under injected torn "
        "checkpoint writes, corrupt manifests, retrain blow-ups, and "
        "flaky canaries",
    )
    _add_experiment_args(lifecycle, "TA10")
    lifecycle.add_argument(
        "--lifecycle-fault-rates",
        default="0,0.5,1,2",
        help="comma-separated total lifecycle fault rates to sweep "
        "(spread uniformly over the four hazard hooks)",
    )
    lifecycle.add_argument(
        "--audit-rate",
        type=float,
        default=1.0,
        help="probability each decided horizon is audited",
    )
    lifecycle.add_argument(
        "--retrain-every",
        type=int,
        default=12,
        metavar="N",
        help="scheduled retraining: attempt a retrain every N audits "
        "(keeps the sweep deterministic even without drift signals)",
    )
    lifecycle.add_argument("--max-horizons", type=int, default=25,
                           help="horizons marshalled per cell")
    lifecycle.add_argument(
        "--lifecycle-fault-plan",
        default=None,
        metavar="FILE",
        help="JSON LifecycleFaultPlan to use as the base plan; its rates "
        "are rescaled to each swept rate",
    )
    lifecycle.add_argument(
        "--lifecycle-fault-plan-out",
        default=None,
        metavar="FILE",
        help="write the resolved base LifecycleFaultPlan to FILE (JSON) "
        "for reuse via --lifecycle-fault-plan",
    )

    fleet = sub.add_parser(
        "fleet",
        help="multi-stream batched marshalling over one shared CI account: "
        "run one fleet (per-stream report table) or sweep fleet sizes "
        "(throughput vs sequential serving)",
    )
    _add_experiment_args(fleet, "TA10")
    fleet.add_argument("--streams", type=int, default=4,
                       help="fleet size for a single run")
    _add_shard_args(fleet)
    fleet.add_argument(
        "--scheduler",
        default="round-robin",
        choices=sorted(SCHEDULERS),
        help="relay scheduling policy for the shared CI",
    )
    fleet.add_argument(
        "--budget-frames",
        type=int,
        default=None,
        metavar="N",
        help="global per-tick relay budget in frames (default: unlimited)",
    )
    fleet.add_argument(
        "--fleet-sizes",
        default=None,
        metavar="N1,N2,...",
        help="sweep mode: comma-separated fleet sizes; prints frames/s for "
        "batched-fleet vs sequential serving at each size",
    )
    fleet.add_argument("--max-horizons", type=int, default=6,
                       help="horizons marshalled per stream")
    fleet.add_argument("--confidence", type=float, default=0.9)
    fleet.add_argument("--alpha", type=float, default=0.9)

    watch = sub.add_parser(
        "watch",
        help="top-style live telemetry dashboard over a fleet run "
        "(optionally fault-injected): backpressure gauges, per-tick "
        "rates, SLO burn rates, flight-recorder trips",
    )
    _add_experiment_args(watch, "TA10")
    watch.add_argument("--streams", type=int, default=4)
    _add_shard_args(watch)
    watch.add_argument(
        "--scheduler",
        default="round-robin",
        choices=sorted(SCHEDULERS),
    )
    watch.add_argument("--budget-frames", type=int, default=None, metavar="N",
                       help="global per-tick relay budget in frames")
    watch.add_argument("--max-horizons", type=int, default=12,
                       help="horizons marshalled per stream")
    watch.add_argument("--confidence", type=float, default=0.9)
    watch.add_argument("--alpha", type=float, default=0.9)
    watch.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="CI raising-fault rate; >0 wraps the service in a fault "
        "injector + resilient client (chaos mode)",
    )
    watch.add_argument(
        "--failure-policy",
        default="defer",
        choices=["raise", "skip", "defer"],
        help="marshaller fallback once retries are exhausted (chaos mode)",
    )
    watch.add_argument("--refresh-ticks", type=int, default=1, metavar="N",
                       help="redraw the dashboard every N ticks")
    watch.add_argument(
        "--plain",
        action="store_true",
        help="no ANSI colour/clear codes: append one frame per redraw "
        "(for logs, CI artifacts, and tests)",
    )
    watch.add_argument(
        "--slo-spec",
        default=None,
        metavar="FILE",
        help="JSON list of SLOSpec objects (default: built-in fleet SLOs)",
    )
    watch.add_argument("--history", type=int, default=240, metavar="TICKS",
                       help="time-series ring capacity")
    watch.add_argument("--timeseries-out", default=None, metavar="FILE",
                       help="dump the sampled time series as JSON")
    watch.add_argument("--flight-out", default=None, metavar="FILE",
                       help="dump the flight recorder as JSON")

    slo = sub.add_parser(
        "slo",
        help="evaluate SLO specs offline against a time-series dump "
        "(watch --timeseries-out) or a metrics snapshot "
        "(--metrics-out / metrics --json-out)",
    )
    slo.add_argument("--from", dest="from_file", required=True,
                     metavar="FILE", help="telemetry dump to evaluate")
    slo.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="JSON list of SLOSpec objects (default: built-in fleet SLOs)",
    )
    slo.add_argument("--json-out", default=None, metavar="FILE",
                     help="also write timeline + final states as JSON")
    return parser


def _run_figure(args: argparse.Namespace, out) -> None:
    settings = _settings(args)
    experiment = run_experiment(args.task, settings=settings)
    if args.command == "fig4":
        rows = fig4_rec_spl(args.task, experiment=experiment)
        print(format_table(rows), file=out)
        print(file=out)
        print(summarize_frontier(rows), file=out)
    elif args.command == "fig5":
        print(format_table(fig5_cclassify(args.task, experiment=experiment)), file=out)
    elif args.command == "fig6":
        print(format_table(fig6_cregress(args.task, experiment=experiment)), file=out)
    elif args.command == "fig8":
        print(format_table(fig8_cost(args.task, experiment=experiment)), file=out)
    elif args.command == "fig9":
        print(format_table(fig9_fps(args.task, experiment=experiment)), file=out)
    elif args.command == "fig10":
        props = fig10_stage_breakdown(
            args.task, rec_target=args.rec_target, experiment=experiment
        )
        for key in sorted(props):
            print(f"{key}: {props[key]:.4f}", file=out)


def _knobs(args: argparse.Namespace) -> dict:
    knobs = {}
    if args.confidence is not None:
        knobs["confidence"] = args.confidence
    if args.alpha is not None:
        knobs["alpha"] = args.alpha
    if args.tau is not None:
        knobs["tau"] = args.tau
    return knobs


def _run_evaluate(args: argparse.Namespace, out) -> None:
    experiment = run_experiment(args.task, settings=_settings(args))
    summary = experiment.evaluate(args.algorithm, **_knobs(args))
    for key, value in summary.as_dict().items():
        print(f"{key}: {value}", file=out)


def _run_metrics(args: argparse.Namespace, out) -> None:
    """Instrumented evaluation + registry/stage-share rendering."""
    if args.from_file is not None:
        snapshot = obs.read_metrics_json(args.from_file)
    else:
        obs.configure(enabled=True)
        obs.get_registry().reset()  # fresh books for this run
        experiment = run_experiment(args.task, settings=_settings(args))
        experiment.evaluate(args.algorithm, **_knobs(args))
        snapshot = obs.get_registry().snapshot()
        if args.json_out is not None:
            obs.write_metrics_json(args.json_out)
    if args.prom_out is not None:
        with open(args.prom_out, "w", encoding="utf-8") as handle:
            handle.write(obs.render_prometheus(snapshot=snapshot))
    print(obs.render_registry(snapshot=snapshot), file=out)
    print(file=out)
    print("== stage time shares (analytic timing model) ==", file=out)
    print(obs.render_stage_shares(snapshot=snapshot), file=out)
    totals = obs.get_tracer().stage_totals()
    if totals:
        print(file=out)
        print("== span wall-clock totals ==", file=out)
        print(obs.render_trace_totals(), file=out)


def _parse_float_list(text: str) -> List[float]:
    return [float(item) for item in text.split(",") if item.strip()]


def _read_plan(path: Optional[str], plan_cls, default):
    """The fault plan stored as JSON at ``path``, or ``default`` when unset."""
    if path is None:
        return default
    with open(path, "r", encoding="utf-8") as handle:
        return plan_cls.from_json(handle.read())


def _write_plan(path: Optional[str], plan) -> None:
    """Write ``plan`` as JSON to ``path`` (a no-op when either is unset)."""
    if path is not None and plan is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(plan.to_json() + "\n")


def _run_ingest_chaos(args: argparse.Namespace, out) -> None:
    """Ingest-fault × guard-policy sweep over one task's deployment."""
    base_plan = _read_plan(
        args.ingest_fault_plan, IngestFaultPlan, IngestFaultPlan(seed=args.seed)
    )
    _write_plan(args.ingest_fault_plan_out, base_plan)
    rates = _parse_float_list(args.ingest_fault_rates)
    imputations = [item.strip() for item in args.imputation.split(",") if item.strip()]
    rows = ingest_chaos_experiment(
        args.task,
        fault_rates=rates,
        imputations=imputations,
        settings=_settings(args),
        base_plan=base_plan,
        quarantine_policy=args.quarantine_policy,
        seed=args.seed,
        max_horizons=args.max_horizons,
    )
    print(format_table(rows), file=out)


def _run_chaos(args: argparse.Namespace, out) -> None:
    """Fault-rate × retry-policy sweep over one task's deployment."""
    if args.ingest:
        _run_ingest_chaos(args, out)
        return
    base_plan = _read_plan(args.fault_plan, FaultPlan, FaultPlan(seed=args.seed))
    _write_plan(args.fault_plan_out, base_plan)
    rates = _parse_float_list(args.fault_rates)
    policies = [
        RetryPolicy(max_attempts=int(value), seed=args.seed)
        for value in _parse_float_list(args.max_attempts)
    ]
    breaker = BreakerConfig(
        failure_threshold=args.breaker_threshold,
        recovery_seconds=args.breaker_recovery,
    )
    rows = chaos_experiment(
        args.task,
        fault_rates=rates,
        policies=policies,
        settings=_settings(args),
        base_plan=base_plan,
        breaker=breaker,
        failure_policy=args.failure_policy,
        seed=args.seed,
        max_horizons=args.max_horizons,
    )
    print(format_table(rows), file=out)


def _run_lifecycle(args: argparse.Namespace, out) -> None:
    """Lifecycle fault sweep: retrain/publish/canary/swap under chaos."""
    base_plan = _read_plan(
        args.lifecycle_fault_plan,
        LifecycleFaultPlan,
        LifecycleFaultPlan(seed=args.seed),
    )
    _write_plan(args.lifecycle_fault_plan_out, base_plan)
    rows = lifecycle_chaos_experiment(
        args.task,
        fault_rates=_parse_float_list(args.lifecycle_fault_rates),
        settings=_settings(args),
        base_plan=base_plan,
        audit_rate=args.audit_rate,
        retrain_every_audits=args.retrain_every,
        seed=args.seed,
        max_horizons=args.max_horizons,
    )
    print(format_table(rows), file=out)


def _run_fleet(args: argparse.Namespace, out) -> None:
    """One fleet run (per-stream table) or a fleet-size throughput sweep."""
    experiment = run_experiment(args.task, settings=_settings(args))
    if args.fleet_sizes is not None and args.shards > 1:
        sizes = [int(value) for value in _parse_float_list(args.fleet_sizes)]
        rows = sharded_throughput_sweep(
            experiment,
            stream_counts=sizes,
            num_shards=args.shards,
            max_horizons=args.max_horizons,
            seed=args.seed,
        )
        print(format_table(rows), file=out)
        return
    if args.fleet_sizes is not None:
        sizes = [int(value) for value in _parse_float_list(args.fleet_sizes)]
        rows = fleet_throughput_sweep(
            experiment,
            fleet_sizes=sizes,
            max_horizons=args.max_horizons,
            scheduler=args.scheduler,
            tick_budget_frames=args.budget_frames,
            confidence=args.confidence,
            alpha=args.alpha,
            seed=args.seed,
        )
        print(format_table(rows), file=out)
        return
    lanes = build_fleet_lanes(experiment, args.streams, seed=args.seed)
    run, supervisor, _ = _build_fleet_run(args, experiment, lanes)
    report = run()
    rows = []
    for name, stream_report in report.per_stream.items():
        row = {"stream": name}
        row.update(
            (key, stream_report.to_dict()[key])
            for key in (
                "horizons_evaluated",
                "frames_relayed",
                "total_cost",
                "frame_recall",
                "relay_fraction",
            )
        )
        rows.append(row)
    print(format_table(rows), file=out)
    print(file=out)
    summary = report.to_dict()
    for key in (
        "num_streams",
        "scheduler",
        "ticks",
        "max_batch_size",
        "relays_flushed",
        "relays_postponed",
        "shared_cost",
        "attributed_cost",
    ):
        print(f"{key}: {summary[key]}", file=out)
    if args.shards > 1:
        print(f"num_shards: {report.num_shards}", file=out)
        print(f"shard_ticks: {report.shard_ticks}", file=out)
        print(
            f"critical_path_s: {report.critical_path_seconds:.4f}", file=out
        )
        print(
            f"ledger_frames: {report.ledger.frames_processed} "
            f"ledger_requests: {report.ledger.requests}",
            file=out,
        )
        _print_supervision(report, supervisor, out)


def _print_supervision(report, supervisor, out) -> None:
    """Render the post-run recovery summary (none for fail-fast runs)."""
    if supervisor.escalation == "raise":
        return
    supervision = report.supervision
    print(file=out)
    print("== supervision ==", file=out)
    liveness = supervision["liveness"]
    print(
        "liveness: "
        + " ".join(f"shard{idx}={state}" for idx, state in liveness.items()),
        file=out,
    )
    print(f"restarts: {supervision['restarts']}", file=out)
    print(f"checkpoints: {supervision['checkpoints_taken']}", file=out)
    print(
        f"replay_divergences: {supervision['replay_divergences']}", file=out
    )
    if supervision.get("rescued_lanes"):
        print(f"rescued_lanes: {supervision['rescued_lanes']}", file=out)
    if supervision.get("degraded_lanes"):
        print(f"degraded_lanes: {supervision['degraded_lanes']}", file=out)
    events = supervision.get("events", [])
    if events:
        print(f"events ({len(events)}):", file=out)
        for event in events:
            print(
                f"  shard {event['shard']} attempt {event['attempt']}: "
                f"{event['kind']}"
                + (f" ({event['detail']})" if event.get("detail") else ""),
                file=out,
            )


def _run_watch(args: argparse.Namespace, out) -> None:
    """Live telemetry dashboard over one (optionally fault-injected) fleet run."""
    obs.configure(enabled=True)
    obs.get_registry().reset()
    store = obs.TimeSeriesStore(capacity=args.history)
    obs.set_timeseries(store)
    recorder = obs.FlightRecorder()
    obs.set_flight_recorder(recorder)
    specs = (
        obs.load_slo_specs(args.slo_spec)
        if args.slo_spec is not None
        else obs.default_fleet_slos()
    )
    board = obs.set_slo_specs(specs)

    experiment = run_experiment(args.task, settings=_settings(args))
    lanes = build_fleet_lanes(experiment, args.streams, seed=args.seed)
    refresh = max(1, args.refresh_ticks)
    run, supervisor, shard_plan = _build_fleet_run(
        args, experiment, lanes, fault_rate=args.fault_rate,
        heartbeat_every=refresh,
    )
    if args.shards > 1:
        _run_watch_sharded(args, out, run, supervisor, shard_plan)
        return

    title = f"repro watch | {args.task} | {args.streams} streams"

    def redraw(tick: int) -> None:
        if tick % refresh:
            return
        frame = obs.render_dashboard(
            store,
            board=board,
            flight=recorder,
            tick=tick,
            title=title,
            color=not args.plain,
        )
        if args.plain:
            out.write(frame + "\n\n")
        else:
            out.write("\x1b[2J\x1b[H" + frame + "\n")
        out.flush()

    report = run(on_tick=redraw)

    # Final still frame (covers refresh strides that skipped the last tick)
    # plus the run summary and the SLO alert timeline.
    final = obs.render_dashboard(
        store,
        board=board,
        flight=recorder,
        tick=max(report.ticks - 1, 0),
        title=title + " | done",
        color=not args.plain,
    )
    if args.plain:
        out.write(final + "\n")
    else:
        out.write("\x1b[2J\x1b[H" + final + "\n")
    print(file=out)
    print("== run summary ==", file=out)
    summary = report.to_dict()
    for key in (
        "num_streams",
        "scheduler",
        "ticks",
        "relays_flushed",
        "relays_postponed",
        "shared_cost",
    ):
        print(f"{key}: {summary[key]}", file=out)
    print(f"frame_recall: {report.fleet.frame_recall:.4f}", file=out)
    print(file=out)
    print("== SLO alert timeline ==", file=out)
    timeline = board.timeline()
    if timeline:
        print(format_table(timeline), file=out)
    else:
        print("(no alerts)", file=out)
    _print_flight_dumps(recorder, out)
    if args.timeseries_out is not None:
        obs.write_timeseries_json(args.timeseries_out, store=store)
    if args.flight_out is not None:
        obs.write_flight_json(args.flight_out, recorder=recorder)


def _run_watch_sharded(
    args: argparse.Namespace, out, run, supervisor, shard_plan
) -> None:
    """Sharded watch: heartbeat progress stream plus the merged post-run
    summary.

    Shard workers own their telemetry (fresh registries/recorders per
    process, merged home when the run completes), so there is no live
    fleet-wide dashboard to redraw mid-run; the coordinator streams
    per-shard heartbeat lines instead and renders the merged state —
    run summary, shed/admission transitions, flight-recorder dumps —
    once every shard reports in.
    """
    title = (
        f"repro watch | {args.task} | {args.streams} streams "
        f"| {args.shards} shards"
        + (" | supervised" if args.supervise or shard_plan is not None else "")
    )
    print(title, file=out)
    if shard_plan is not None and shard_plan.faults:
        for fault in shard_plan.faults:
            print(
                f"[fault plan] shard {fault.shard} attempt {fault.attempt}: "
                f"{fault.kind} @ tick {fault.tick}",
                file=out,
            )

    def progress(shard: int, tick: int) -> None:
        print(f"[shard {shard}] tick {tick}", file=out)
        out.flush()

    def liveness(shard: int, state: str, detail: str) -> None:
        print(
            f"[shard {shard}] liveness {state}"
            + (f" ({detail})" if detail else ""),
            file=out,
        )
        out.flush()

    report = run(on_heartbeat=progress, on_liveness=liveness)

    print(file=out)
    print("== run summary ==", file=out)
    summary = report.to_dict()
    for key in (
        "num_streams",
        "num_shards",
        "scheduler",
        "ticks",
        "shard_ticks",
        "heartbeats",
        "relays_flushed",
        "relays_postponed",
        "shared_cost",
        "shed_transitions",
        "readmit_transitions",
    ):
        print(f"{key}: {summary[key]}", file=out)
    print(f"frame_recall: {report.fleet.frame_recall:.4f}", file=out)
    print(
        f"ledger: frames={report.ledger.frames_processed} "
        f"requests={report.ledger.requests} "
        f"cost={report.ledger.total_cost:.4f}",
        file=out,
    )
    _print_supervision(report, supervisor, out)
    recorder = obs.get_flight_recorder()
    _print_flight_dumps(recorder, out)
    if args.timeseries_out is not None:
        print(file=out)
        print(
            "note: --timeseries-out is per-process state and is not "
            "merged across shards; rerun with --shards 1 to sample it",
            file=out,
        )
    if args.flight_out is not None:
        obs.write_flight_json(args.flight_out, recorder=recorder)


def _slo_snapshot_value(snapshot: dict, series: str) -> float:
    """Resolve a time-series name against a registry snapshot.

    Gauges and counters match by name; ``name.p99``-style series resolve
    into the histogram summary.  Unknown series come back as NaN (= no
    data), matching the tracker's no-data semantics.
    """
    if series in snapshot.get("gauges", {}):
        return float(snapshot["gauges"][series]["value"])
    if series in snapshot.get("counters", {}):
        return float(snapshot["counters"][series])
    base, _, stat = series.rpartition(".")
    hist = snapshot.get("histograms", {}).get(base)
    if hist is not None and stat in hist:
        return float(hist[stat])
    return float("nan")


def _run_slo(args: argparse.Namespace, out) -> None:
    """Evaluate SLO specs offline against a telemetry dump."""
    specs = (
        obs.load_slo_specs(args.spec)
        if args.spec is not None
        else obs.default_fleet_slos()
    )
    with open(args.from_file, "r", encoding="utf-8") as handle:
        data = json.load(handle)

    if isinstance(data, dict) and "series" in data:
        # Full time-series dump: replay the burn-rate FSM tick by tick.
        store = obs.TimeSeriesStore.from_dict(data)
        board = obs.evaluate_slos(specs, store)
        print("== SLO alert timeline ==", file=out)
        timeline = board.timeline()
        if timeline:
            print(format_table(timeline), file=out)
        else:
            print("(no alerts)", file=out)
        print(file=out)
        print("== final states ==", file=out)
        print(format_table(board.summaries()), file=out)
        payload = {
            "timeline": timeline,
            "states": board.states(),
            "worst_state": board.worst_state,
        }
        violated = board.worst_state == "page"
    else:
        # Metrics snapshot: one point-in-time check per spec.
        rows = []
        for spec in specs:
            value = _slo_snapshot_value(data, spec.series)
            rows.append(
                {
                    "slo": spec.name,
                    "series": spec.series,
                    "objective": spec.objective,
                    "target": spec.target,
                    "value": value,
                    "status": "violated" if spec.violated(value) else "ok",
                }
            )
        print("== SLO point check (metrics snapshot) ==", file=out)
        print(format_table(rows), file=out)
        payload = {"checks": rows}
        violated = any(row["status"] == "violated" for row in rows)
    if args.json_out is not None:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(file=out)
    print(f"result: {'VIOLATED' if violated else 'OK'}", file=out)


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code.

    Observability flags are applied before the command runs; any failure
    inside a command is logged as a structured ``cli.error`` event and
    surfaces as exit code 1 (argparse's own ``SystemExit`` codes pass
    through untouched).
    """
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    owns_output = args.trace_out is not None or args.metrics_out is not None
    try:
        obs.configure(
            log_level=args.log_level,
            trace_out=args.trace_out,
            metrics_out=args.metrics_out,
        )
        if args.command == "tasks":
            print(format_table(table2_rows()), file=out)
        elif args.command == "table1":
            print(
                format_table(table1_rows(scale=args.scale, seed=args.seed)),
                file=out,
            )
        elif args.command in {"fig4", "fig5", "fig6", "fig8", "fig9", "fig10"}:
            _run_figure(args, out)
        elif args.command == "evaluate":
            _run_evaluate(args, out)
        elif args.command == "metrics":
            _run_metrics(args, out)
        elif args.command == "chaos":
            _run_chaos(args, out)
        elif args.command == "lifecycle":
            _run_lifecycle(args, out)
        elif args.command == "fleet":
            _run_fleet(args, out)
        elif args.command == "watch":
            _run_watch(args, out)
        elif args.command == "slo":
            _run_slo(args, out)
        else:  # pragma: no cover - argparse enforces choices
            raise SystemExit(f"unknown command {args.command!r}")
    except Exception as exc:
        obs.log_error(
            "cli.error",
            command=args.command,
            error=repr(exc),
            error_type=type(exc).__name__,
        )
        return 1
    finally:
        if owns_output:
            obs.shutdown()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
