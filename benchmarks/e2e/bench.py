"""Measure one workload: set up, warm up, time runs, check, report.

How a run is taken: observability stays off (the default); set-up runs
:data:`SETUP_REPS` times and its median is ``setup_s``; a fixed number of
discarded warm-up runs follows; then timed runs repeat until ``seconds``
of wall time are spent (at least :data:`MIN_TIMED` of them).
``gc.collect()`` runs before every run, outside the timed region.  With
tracing on, each of the first :data:`TRACED_RUNS` untraced runs is
followed by a traced one inside the same window, so the overhead ratio
compares neighbouring runs and the untraced side keeps most of the ticks.

Correctness gate: every run's canonical report must equal the workload's
first run, traced runs included, and the sharded workload's merged report
must equal one single-process run over the same lanes, taken after timing
and after ``peak_rss_mb`` is read.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from .trace import (
    COUNT, END, NAME, START, Patches, TimingProxy, Tracer, chrome_trace, self_times,
)
from .workloads import WORKLOADS, Prepared, prepare

__all__ = ["END_TO_END", "PER_LAYER", "measure", "main", "canonical",
           "quartiles"]

SETUP_REPS = 5
MIN_TIMED = 3
SMOKE_RUNS = 2
#: Traced runs per invocation; all of their spans go to the Chrome trace.
TRACED_RUNS = 5

#: End-to-end metric units (the names ``--trace 0`` prints).
END_TO_END = {
    "frames_per_s": "frames/s",
    "tick_p50_ms": "ms",
    "effective_recall": "ratio",
    "relay_fraction": "ratio",
    "cost_per_kframe": "USD/kframe",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metric units (the names ``--trace 1`` prints).  A layer that
#: is not on a workload's path reads 0.
PER_LAYER = {
    "tick_p99_ms": "ms",
    "features.calls": "count",
    "features.busy_s": "s",
    "features.us_per_call": "us",
    "core.calls": "count",
    "core.rows": "count",
    "core.busy_s": "s",
    "core.us_per_row": "us",
    "conformal.classify.busy_s": "s",
    "conformal.regress.busy_s": "s",
    "video.calls": "count",
    "video.busy_s": "s",
    "fleet.scheduler.calls": "count",
    "fleet.scheduler.requests": "count",
    "fleet.scheduler.busy_s": "s",
    "cloud.resilient.calls": "count",
    "cloud.resilient.errors": "count",
    "cloud.resilient.self_s": "s",
    "cloud.resilient.success_ratio": "ratio",
    "cloud.service.calls": "count",
    "cloud.service.frames": "count",
    "cloud.service.self_s": "s",
    "cloud.service.useful_ratio": "ratio",
    "fleet.loop.self_s": "s",
    "fleet.ticks": "count",
    "fleet.relays_flushed": "count",
    "fleet.relays_postponed": "count",
    "fleet.segments_deferred": "count",
    "fleet.retries": "count",
    "fleet.failed_share": "ratio",
    "fleet.sharded.busy_max_s": "s",
    "fleet.sharded.busy_min_s": "s",
    "fleet.sharded.coordinator_s": "s",
    "fleet.sharded.overhead_s": "s",
    "fleet.sharded.worker_rss_mb": "MB",
    "trace.overhead": "ratio",
}

#: Keys only a sharded report carries, or that differ by construction
#: (each shard batches only its own lanes).
_SHARD_ONLY = ("num_shards", "shard_ticks", "heartbeats", "ledger",
               "admission_events", "max_batch_size")


def canonical(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


@dataclass
class Sample:
    """One run: wall seconds, frames covered, tick intervals, shard books."""

    wall: float
    frames: int
    intervals: List[float]
    shard_busy: List[float] = field(default_factory=list)
    coordinator: float = 0.0


def _rows(args, result) -> int:
    return len(args[0])


def _billed(args, result) -> tuple:
    return args[0].num_frames, sum(d.num_frames for d in result)


def _install(prepared: Prepared, patches: Patches, tracer: Tracer, service):
    """Wrap each layer's entry point; returns the service to run against."""
    m = prepared.fleet.marshaller
    patches.wrap(m, "pipeline", tracer, {"covariates_at": ("features", None)})
    patches.wrap(m, "inference", tracer,
                 {"predict": ("core", _rows), "update": ("core", _rows)})
    patches.wrap(m, "classifier", tracer,
                 {"predict": ("conformal.classify", None)})
    patches.wrap(m, "regressor", tracer,
                 {"predict": ("conformal.regress", None),
                  "quantiles": ("conformal.regress", None)})
    patches.wrap(prepared.fleet, "scheduler", tracer,
                 {"order": ("fleet.scheduler", _rows)})
    video = {"events_in_horizon": ("video", None), "instances_of": ("video", None)}
    for lane in prepared.lanes:
        patches.wrap(lane.stream, "schedule", tracer, video)
    detect = {"detect": ("cloud.service", _billed)}
    if prepared.workload.fault_rate > 0:
        # ResilientCIClient -> FaultInjector -> FleetCIService
        patches.wrap(service.service, "service", tracer, detect)
        return TimingProxy(service, tracer, {"detect": ("cloud.resilient", None)})
    return TimingProxy(service, tracer, detect)


def _run(prepared: Prepared, tracer: Optional[Tracer] = None):
    """One ``run`` call; returns its report and :class:`Sample`."""
    service = prepared.service()
    intervals: List[float] = []
    last: Dict[int, float] = {}
    # Shard workers' layers are out of reach: a sharded run is not traced.
    tracing = tracer is not None and prepared.sharded is None
    gc.collect()
    with Patches() as patches:
        if tracing:
            service = _install(prepared, patches, tracer, service)
            tracer.tick = 0
            tracer.push("fleet.run")
            tracer.push("fleet.tick")
        start = time.perf_counter()

        def on_tick(shard: int, tick: int) -> None:
            now = time.perf_counter()
            intervals.append(now - last.get(shard, start))
            last[shard] = now
            if tracing:
                tracer.pop()
                tracer.tick += 1
                tracer.push("fleet.tick")

        report = prepared.run(service, on_tick)
        wall = time.perf_counter() - start
        if tracing:
            tracer.pop(name="fleet.finish")
            tracer.pop()
    sample = Sample(wall, report.fleet.frames_covered, intervals)
    if prepared.sharded is not None:
        sample.shard_busy = list(report.shard_busy_seconds)
        sample.coordinator = report.coordinator_seconds
    return report, sample


def quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _sharded_matches(merged, single) -> bool:
    """Equal reports, except that ``shared_cost`` sums one pooled ledger on
    one side and two shard ledgers on the other: the float additions
    associate differently, so it is compared to rounding."""
    out, ref = merged.to_dict(), single.to_dict()
    for report in (out, ref):
        for key in _SHARD_ONLY:
            report.pop(key, None)
    if not math.isclose(out.pop("shared_cost"), ref.pop("shared_cost"),
                        rel_tol=1e-12):
        return False
    return json.dumps(out, sort_keys=True) == json.dumps(ref, sort_keys=True)


def _layer_metrics(spans: List[list]) -> Dict[str, float]:
    """Per-layer values of one traced run."""
    own = self_times(spans)
    calls: Dict[str, int] = {}
    busy: Dict[str, float] = {}
    selfs: Dict[str, float] = {}
    errors: Dict[str, int] = {}
    counts: Dict[str, list] = {}
    for span, self_s in zip(spans, own):
        name = span[NAME]
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + span[END] - span[START]
        selfs[name] = selfs.get(name, 0.0) + self_s
        if span[COUNT] == -1:
            errors[name] = errors.get(name, 0) + 1
        else:
            counts.setdefault(name, []).append(span[COUNT])

    def total(name: str, index: Optional[int] = None) -> float:
        values = counts.get(name, [])
        if index is not None:
            values = [v[index] for v in values]
        return float(sum(values))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    res_calls = calls.get("cloud.resilient", 0)
    res_errors = errors.get("cloud.resilient", 0)
    billed = total("cloud.service", 0)
    return {
        "features.calls": calls.get("features", 0),
        "features.busy_s": busy.get("features", 0.0),
        "features.us_per_call": 1e6 * ratio(busy.get("features", 0.0),
                                            calls.get("features", 0)),
        "core.calls": calls.get("core", 0),
        "core.rows": total("core"),
        "core.busy_s": busy.get("core", 0.0),
        "core.us_per_row": 1e6 * ratio(busy.get("core", 0.0), total("core")),
        "conformal.classify.busy_s": busy.get("conformal.classify", 0.0),
        "conformal.regress.busy_s": busy.get("conformal.regress", 0.0),
        "video.calls": calls.get("video", 0),
        "video.busy_s": busy.get("video", 0.0),
        "fleet.scheduler.calls": calls.get("fleet.scheduler", 0),
        "fleet.scheduler.requests": total("fleet.scheduler"),
        "fleet.scheduler.busy_s": busy.get("fleet.scheduler", 0.0),
        "cloud.resilient.calls": res_calls,
        "cloud.resilient.errors": res_errors,
        "cloud.resilient.self_s": selfs.get("cloud.resilient", 0.0),
        "cloud.resilient.success_ratio": ratio(res_calls - res_errors, res_calls),
        "cloud.service.calls": calls.get("cloud.service", 0),
        "cloud.service.frames": billed,
        "cloud.service.self_s": selfs.get("cloud.service", 0.0),
        "cloud.service.useful_ratio": ratio(total("cloud.service", 1), billed),
        "fleet.loop.self_s": selfs.get("fleet.tick", 0.0),
    }


def _report_metrics(report) -> Dict[str, float]:
    fleet = report.fleet
    return {
        "fleet.ticks": report.ticks,
        "fleet.relays_flushed": report.relays_flushed,
        "fleet.relays_postponed": report.relays_postponed,
        "fleet.segments_deferred": fleet.segments_deferred,
        "fleet.retries": fleet.retries,
        "fleet.failed_share": (
            fleet.segments_failed / report.relays_flushed
            if report.relays_flushed else 0.0
        ),
    }


def _sharded_metrics(samples: List[Sample]) -> Dict[str, float]:
    if not samples or not samples[0].shard_busy:
        return {key: 0.0 for key in PER_LAYER if key.startswith("fleet.sharded.")}
    med = statistics.median
    return {
        "fleet.sharded.busy_max_s": med(max(s.shard_busy) for s in samples),
        "fleet.sharded.busy_min_s": med(min(s.shard_busy) for s in samples),
        "fleet.sharded.coordinator_s": med(s.coordinator for s in samples),
        "fleet.sharded.overhead_s": med(
            s.wall - max(s.shard_busy) - s.coordinator for s in samples
        ),
        "fleet.sharded.worker_rss_mb": (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        ),
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False, trace_out: Optional[Path] = None) -> Dict:
    """Run one workload and return its result record.

    The record holds ``correct``/``attempted``/``failed``, the run counts,
    and ``metrics``: name -> ``{value, unit, q1, q3, n}``.
    """
    workload = WORKLOADS[name]
    setups: List[float] = []
    for _ in range(1 if smoke else SETUP_REPS):
        prepared = None  # free the previous set-up before timing the next
        gc.collect()
        start = time.perf_counter()
        prepared = prepare(workload, seed, smoke=smoke)
        setups.append(time.perf_counter() - start)

    first, _ = _run(prepared)
    reference = canonical(first)
    attempted = 1
    mismatches: List[str] = []

    def check(report, label: str) -> None:
        nonlocal attempted
        attempted += 1
        if canonical(report) != reference:
            mismatches.append(label)

    for i in range(0 if smoke else workload.warmup - 1):
        check(_run(prepared)[0], f"warm-up {i + 1}")

    tracer = Tracer() if trace else None
    untraced: List[Sample] = []
    traced: List[Sample] = []
    layers: List[Dict[str, float]] = []
    exported: List[list] = []
    deadline = time.perf_counter() + seconds
    while True:
        done = len(untraced)
        if smoke and done >= SMOKE_RUNS:
            break
        if not smoke and done >= MIN_TIMED and time.perf_counter() >= deadline:
            break
        report, sample = _run(prepared)
        check(report, f"timed {done}")
        untraced.append(sample)
        if tracer is not None and len(traced) < TRACED_RUNS:
            tracer.run = done
            report, sample = _run(prepared, tracer)
            check(report, f"traced {done}")
            traced.append(sample)
            layers.append(_layer_metrics(tracer.spans))
            exported.extend(tracer.spans)
            tracer.clear()

    # Read before the reference run, which serves no traffic.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if prepared.sharded is not None:
        attempted += 1
        if not _sharded_matches(first, prepared.reference()):
            mismatches.append("single-process reference")

    walls = [s.wall for s in untraced]
    intervals = [x for s in untraced for x in s.intervals]
    tick_samples = len(intervals)
    metrics: Dict[str, Dict] = {}

    def put(key: str, values: List[float], units: Dict[str, str]) -> None:
        q1, q2, q3 = quartiles(values)
        metrics[key] = {"value": q2, "unit": units[key], "q1": q1, "q3": q3,
                        "n": len(values)}

    def tick_metric(key: str, q: float) -> None:
        metrics[key] = {"value": 1e3 * _percentile(intervals, q), "unit": "ms",
                        "q1": None, "q3": None, "n": tick_samples}

    if not trace:
        fleet = first.fleet
        covered = fleet.frames_covered
        put("frames_per_s", [s.frames / s.wall for s in untraced], END_TO_END)
        tick_metric("tick_p50_ms", 0.50)
        put("effective_recall", [fleet.effective_recall], END_TO_END)
        put("relay_fraction", [fleet.frames_relayed / covered], END_TO_END)
        put("cost_per_kframe", [first.shared_cost * 1000.0 / covered], END_TO_END)
        put("setup_s", setups, END_TO_END)
        put("peak_rss_mb", [peak_rss_mb], END_TO_END)
    else:
        tick_metric("tick_p99_ms", 0.99)
        for key in layers[0]:
            put(key, [layer[key] for layer in layers], PER_LAYER)
        for key, value in _report_metrics(first).items():
            put(key, [value], PER_LAYER)
        for key, value in _sharded_metrics(traced).items():
            put(key, [value], PER_LAYER)
        # Each traced run against the untraced run just before it.
        put("trace.overhead",
            [statistics.median(s.wall for s in traced)
             / statistics.median(walls[:len(traced)])],
            PER_LAYER)
        if trace_out is not None:
            trace_out.mkdir(parents=True, exist_ok=True)
            path = trace_out / f"{name}.trace.json"
            path.write_text(json.dumps(chrome_trace(exported)))

    return {
        "workload": name,
        "seed": seed,
        "correct": not mismatches,
        "attempted": attempted,
        "failed": len(mismatches),
        "mismatches": mismatches,
        "setups": len(setups),
        "warmup": 0 if smoke else workload.warmup,
        "timed": len(untraced),
        "traced": len(traced),
        "timed_seconds": sum(walls),
        "tick_samples": tick_samples,
        "metrics": metrics,
    }


def _format(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def print_record(record: Dict) -> None:
    """Human-readable lines: every metric with unit, quartiles and count."""
    print(
        f"{record['workload']} seed={record['seed']}: "
        f"{record['setups']} set-ups, {record['warmup']} warm-up, "
        f"{record['timed']} timed + {record['traced']} traced runs "
        f"({record['timed_seconds']:.2f} s timed), "
        f"{record['tick_samples']} tick samples"
    )
    for key, m in record["metrics"].items():
        print(
            f"  {key:<32} {_format(m['value']):>12} {m['unit']:<11} "
            f"q1={_format(m['q1'])} q3={_format(m['q3'])} n={m['n']}"
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one workload of the end-to-end serving benchmark."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and two runs (a functional check)")
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="directory for the Chrome trace (with --trace 1)")
    parser.add_argument("--json-out", type=Path, default=None,
                        help="write the full result record here")
    args = parser.parse_args(argv)

    try:
        record = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), smoke=args.smoke,
                         trace_out=args.trace_out)
    except Exception:
        traceback.print_exc()
        print(f"{args.workload}: failed with an exception", file=sys.stderr)
        return 1
    print_record(record)
    if args.json_out is not None:
        args.json_out.write_text(json.dumps(record, indent=1) + "\n")
    if not record["correct"]:
        print(f"{args.workload}: report mismatch in "
              f"{', '.join(record['mismatches'])}", file=sys.stderr)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            key: {"value": m["value"], "unit": m["unit"]}
            for key, m in record["metrics"].items()
        },
    }))
    return 0 if record["correct"] else 1
