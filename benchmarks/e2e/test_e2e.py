"""Tests of the end-to-end benchmark itself (outside the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.e2e import bench
from benchmarks.e2e.__main__ import combine, label
from benchmarks.e2e.trace import Tracer, TimingProxy, chrome_trace, self_times
from benchmarks.e2e.workloads import WORKLOADS, prepare

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "benchmarks" / "e2e" / "run.py"
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _command(workload: str, trace: int, *extra: str) -> list:
    return [sys.executable, str(RUN), "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace), *extra]


@pytest.fixture(scope="module")
def smoke_results():
    """Every workload at ``--smoke`` size, untraced and traced."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            start = time.perf_counter()
            proc = subprocess.run(_command(name, trace, "--smoke"), cwd=ROOT,
                                  capture_output=True, text=True, timeout=120)
            results[name, trace] = (proc, time.perf_counter() - start)
    return results


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_finishes_under_a_minute(smoke_results, name):
    for trace in (0, 1):
        proc, elapsed = smoke_results[name, trace]
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert elapsed < 60
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1


def test_printed_names_are_declared_with_units(smoke_results, spec):
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for (name, trace), (proc, _) in smoke_results.items():
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        assert set(metrics) == set(declared[trace]), name
        for key, metric in metrics.items():
            assert NAME.match(key), key
            assert metric["unit"] == declared[trace][key], key
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def smoke_prepared(request):
    return prepare(WORKLOADS[request.param], seed=0, smoke=True)


def test_proxied_and_unproxied_reports_are_identical(smoke_prepared):
    plain, _ = bench._run(smoke_prepared)
    tracer = Tracer()
    traced, _ = bench._run(smoke_prepared, tracer)
    assert bench.canonical(traced) == bench.canonical(plain)
    assert bool(tracer.spans) == (smoke_prepared.sharded is None)
    # Proxies are gone once the traced run returns.
    marshaller = smoke_prepared.fleet.marshaller
    for obj in (marshaller.pipeline, marshaller.inference, marshaller.classifier,
                smoke_prepared.fleet.scheduler,
                *(lane.stream.schedule for lane in smoke_prepared.lanes)):
        assert not isinstance(obj, TimingProxy)


def test_tick_sampler_records_one_sample_per_tick(smoke_prepared):
    report, sample = bench._run(smoke_prepared)
    if smoke_prepared.sharded is None:
        assert len(sample.intervals) == report.ticks
    else:
        assert len(sample.intervals) == sum(report.shard_ticks) == report.heartbeats
    assert all(x > 0 for x in sample.intervals)


def test_perturbed_report_fails_the_gate(monkeypatch, capsys):
    real_run = bench._run
    calls = []

    def perturbed(prepared, tracer=None):
        report, sample = real_run(prepared, tracer)
        calls.append(1)
        if len(calls) == 2:
            report.relays_flushed += 1
        return report, sample

    monkeypatch.setattr(bench, "_run", perturbed)
    code = bench.main(["--workload", "chaos-ta10", "--seconds", "1", "--smoke"])
    assert code != 0
    assert "chaos-ta10" in capsys.readouterr().err


def test_sharded_reference_mismatch_fails_the_gate(monkeypatch, capsys):
    from benchmarks.e2e.workloads import Prepared

    real_reference = Prepared.reference

    def perturbed(self):
        report = real_reference(self)
        report.shared_frames += 1
        return report

    monkeypatch.setattr(Prepared, "reference", perturbed)
    code = bench.main(["--workload", "sharded-ta10", "--seconds", "1", "--smoke"])
    assert code != 0
    assert "sharded-ta10" in capsys.readouterr().err


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "wide-ta10",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_children():
    # name, start, end, parent, run, tick, count
    spans = [
        ["tick", 0.0, 10.0, -1, 0, 0, 0],
        ["cloud", 1.0, 5.0, 0, 0, 0, 0],
        ["video", 2.0, 3.0, 1, 0, 0, 0],
        ["core", 6.0, 8.0, 0, 0, 0, 0],
    ]
    assert self_times(spans) == [4.0, 3.0, 1.0, 2.0]


def test_chrome_trace_is_complete_events():
    tracer = Tracer()
    tracer.push("outer")
    tracer.push("inner")
    tracer.pop(count=3)
    tracer.pop()
    events = chrome_trace(tracer.spans)["traceEvents"]
    assert [e["name"] for e in events] == ["outer", "inner"]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    assert events[1]["args"]["parent"] == 0 and events[1]["args"]["count"] == 3


def test_proxy_is_transparent_to_probes():
    class Engine:
        def __init__(self):
            self.state = 1

        def predict(self, rows):
            return rows

    tracer = Tracer()
    proxy = TimingProxy(Engine(), tracer, {"predict": ("core", bench._rows)})
    assert getattr(proxy, "update", None) is None
    assert proxy.predict([1, 2]) == [1, 2]
    proxy.state = 5
    assert proxy._target.state == 5
    assert [s[0] for s in tracer.spans] == ["core"] and tracer.spans[0][-1] == 2


def test_combine_takes_median_and_quartiles_over_invocations():
    records = [
        {"workload": "w", "seed": 0, "correct": True,
         "metrics": {"setup_s": {"value": v, "unit": "s", "q1": v, "q3": v,
                                 "n": 5}}}
        for v in (1.0, 1.1, 0.9, 3.0, 1.05)
    ]
    combined = combine(records)
    metric = combined["metrics"]["setup_s"]
    assert metric["value"] == 1.05 and metric["n"] == 5
    assert metric["q1"] < 1.0 < 1.1 < metric["q3"]
    assert combined["correct"] and combined["invocations"] == records
    assert combine(records[:1]) is records[0]


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        ((9.5, 10.0, 10.5, [10.0]), (9.6, 10.1, 10.6, [10.1]), "higher", "unchanged"),
        ((9.9, 10.0, 10.1, [10.0]), (7.9, 8.0, 8.1, [8.0]), "higher", "worse"),
        ((9.9, 10.0, 10.1, [10.0]), (7.9, 8.0, 8.1, [8.0]), "lower", "better"),
        ((5.0, 10.0, 15.0, [5.0, 10.0, 15.0]), (9.9, 10.0, 10.1, [10.0]),
         "higher", "unresolved"),
        ((5.0, 10.0, 15.0, [5.0, 10.0, 15.0]), (20.0, 21.0, 22.0, [20.0, 22.0]),
         "higher", "better"),
        ((5.0, 10.0, 15.0, [10.0]), (20.0, 21.0, 22.0, [21.0]), "higher",
         "unresolved"),
    ],
)
def test_compare_labels(parent, change, better, expected):
    assert label(parent, change, 0.1, better) == expected
