"""Tests for the command-line interface."""

import io
import json

import pytest

from repro import obs
from repro.cli import build_parser, main
from repro.fleet.shard_faults import ShardFaultPlan
from repro.lifecycle import LifecycleFaultPlan


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


FAST = ["--scale", "0.05", "--epochs", "6", "--records", "120"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--algorithm", "NOSCOPE"])

    def test_defaults(self):
        args = build_parser().parse_args(["fig4"])
        assert args.task == "TA1"
        assert args.scale == 0.12


class TestCommands:
    def test_tasks(self):
        code, text = run_cli(["tasks"])
        assert code == 0
        assert "TA1" in text and "TA16" in text
        assert "{E1, E5, E6}" in text

    def test_table1(self):
        code, text = run_cli(["table1", "--scale", "0.2"])
        assert code == 0
        assert "E12" in text
        assert "paper_duration_avg" in text

    def test_evaluate_ehcr(self):
        code, text = run_cli(
            ["evaluate", "--task", "TA10", "--algorithm", "EHCR",
             "--confidence", "0.9", "--alpha", "0.9"] + FAST
        )
        assert code == 0
        assert "REC:" in text and "SPL:" in text

    def test_evaluate_cox_with_tau(self):
        code, text = run_cli(
            ["evaluate", "--task", "TA10", "--algorithm", "COX",
             "--tau", "0.3"] + FAST
        )
        assert code == 0
        assert "REC:" in text

    def test_fig5(self):
        code, text = run_cli(["fig5", "--task", "TA10"] + FAST)
        assert code == 0
        assert "REC_c" in text

    def test_fig10(self):
        code, text = run_cli(["fig10", "--task", "TA10"] + FAST)
        assert code == 0
        assert "cloud_inference" in text

    def test_fig4_summary(self):
        code, text = run_cli(["fig4", "--task", "TA10"] + FAST)
        assert code == 0
        assert "EHCR" in text
        assert "max REC" in text

    def test_fig6(self):
        code, text = run_cli(["fig6", "--task", "TA10"] + FAST)
        assert code == 0
        assert "REC_r" in text

    def test_fig8(self):
        code, text = run_cli(["fig8", "--task", "TA10"] + FAST)
        assert code == 0
        assert "expense" in text
        assert "BF" in text

    def test_fig9(self):
        code, text = run_cli(["fig9", "--task", "TA10"] + FAST)
        assert code == 0
        assert "FPS" in text
        assert "VQS" in text

    def test_fig10_rec_target_flag(self):
        code, text = run_cli(
            ["fig10", "--task", "TA10", "--rec-target", "0.7"] + FAST
        )
        assert code == 0
        assert "achieved_REC" in text


class TestChaosCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.task == "TA10"
        assert args.fault_rates == "0,0.05,0.1,0.2,0.4"
        assert args.max_attempts == "1,3,6"
        assert args.failure_policy == "defer"

    def test_rejects_unknown_failure_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--failure-policy", "retry"])

    @pytest.mark.chaos
    def test_chaos_sweep_renders_table(self):
        code, text = run_cli(
            ["chaos", "--task", "TA10", "--fault-rates", "0,0.3",
             "--max-attempts", "2", "--max-horizons", "2",
             "--scale", "0.05", "--epochs", "2", "--records", "120"]
        )
        assert code == 0
        assert "fault_rate" in text and "REC_eff" in text
        assert "retry_overhead" in text
        assert text.count("\n") >= 3  # header + 2 cells

    @pytest.mark.chaos
    def test_fault_plan_round_trip(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        code, _ = run_cli(
            ["chaos", "--task", "TA10", "--fault-rates", "0",
             "--max-attempts", "1", "--max-horizons", "1", "--seed", "11",
             "--fault-plan-out", str(plan_path),
             "--scale", "0.05", "--epochs", "2", "--records", "120"]
        )
        assert code == 0
        payload = json.loads(plan_path.read_text())
        assert payload["seed"] == 11
        # the written plan loads back in as the base plan
        code, text = run_cli(
            ["chaos", "--task", "TA10", "--fault-rates", "0.2",
             "--max-attempts", "1", "--max-horizons", "1",
             "--fault-plan", str(plan_path),
             "--scale", "0.05", "--epochs", "2", "--records", "120"]
        )
        assert code == 0
        assert "fault_rate" in text

    def test_ingest_parser_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.ingest is False
        assert args.ingest_fault_rates == "0,0.05,0.1,0.2"
        assert args.imputation == "none,hold-last,zero-fill,linear-interp"
        assert args.quarantine_policy == "relay-all"

    def test_rejects_unknown_quarantine_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--quarantine-policy", "panic"])

    @pytest.mark.chaos
    def test_ingest_sweep_renders_table(self):
        code, text = run_cli(
            ["chaos", "--task", "TA10", "--ingest",
             "--ingest-fault-rates", "0,0.2",
             "--imputation", "none,hold-last", "--max-horizons", "2",
             "--scale", "0.05", "--epochs", "2", "--records", "120"]
        )
        assert code == 0
        assert "imputation" in text and "REC_eff" in text
        assert "voided" in text and "quarantined" in text
        assert "hold-last" in text

    @pytest.mark.chaos
    def test_ingest_fault_plan_round_trip(self, tmp_path):
        plan_path = tmp_path / "ingest_plan.json"
        code, _ = run_cli(
            ["chaos", "--task", "TA10", "--ingest",
             "--ingest-fault-rates", "0", "--imputation", "none",
             "--max-horizons", "1", "--seed", "13",
             "--ingest-fault-plan-out", str(plan_path),
             "--scale", "0.05", "--epochs", "2", "--records", "120"]
        )
        assert code == 0
        payload = json.loads(plan_path.read_text())
        assert payload["seed"] == 13
        code, text = run_cli(
            ["chaos", "--task", "TA10", "--ingest",
             "--ingest-fault-rates", "0.1", "--imputation", "hold-last",
             "--max-horizons", "1",
             "--ingest-fault-plan", str(plan_path),
             "--scale", "0.05", "--epochs", "2", "--records", "120"]
        )
        assert code == 0
        assert "fault_rate" in text

    @pytest.mark.chaos
    def test_lifecycle_fault_plan_round_trip(self, tmp_path):
        plan_path = tmp_path / "lifecycle_plan.json"
        argv = ["lifecycle", "--task", "TA10", "--max-horizons", "2",
                "--scale", "0.05", "--epochs", "2", "--records", "120"]
        code, _ = run_cli(
            argv + ["--lifecycle-fault-rates", "0", "--seed", "17",
                    "--lifecycle-fault-plan-out", str(plan_path)]
        )
        assert code == 0
        written = plan_path.read_text()
        assert written.endswith("}\n")
        assert LifecycleFaultPlan.from_json(written) == LifecycleFaultPlan(seed=17)
        code, text = run_cli(
            argv + ["--lifecycle-fault-rates", "1",
                    "--lifecycle-fault-plan", str(plan_path)]
        )
        assert code == 0
        assert "fault_rate" in text and "retrain_failures" in text

    @pytest.mark.chaos
    def test_shard_fault_plan_round_trip(self, tmp_path):
        plan_path = tmp_path / "shard_plan.json"
        argv = ["fleet", "--task", "TA10", "--shards", "2", "--streams", "2",
                "--max-horizons", "2", "--seed", "0",
                "--scale", "0.05", "--epochs", "2", "--records", "120"]
        code, text = run_cli(
            argv + ["--shard-fault-rate", "0.5",
                    "--shard-fault-plan-out", str(plan_path)]
        )
        assert code == 0
        written = plan_path.read_text()
        assert written.endswith("}\n")
        plan = ShardFaultPlan.from_json(written)
        assert plan == ShardFaultPlan.seeded(2, rate=0.5, seed=0)
        assert plan.faults  # seed 0 crashes shard 1 at its first tick
        assert "restarts: [0, 1]" in text
        code, text = run_cli(argv + ["--shard-fault-plan", str(plan_path)])
        assert code == 0
        assert "restarts: [0, 1]" in text


class TestFleetCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.task == "TA10"
        assert args.streams == 4
        assert args.scheduler == "round-robin"
        assert args.budget_frames is None
        assert args.fleet_sizes is None

    def test_rejects_unknown_scheduler(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--scheduler", "fifo"])

    def test_single_run_renders_per_stream_table(self):
        code, text = run_cli(
            ["fleet", "--task", "TA10", "--streams", "3",
             "--max-horizons", "3", "--scheduler", "deadline",
             "--budget-frames", "200",
             "--scale", "0.05", "--epochs", "2", "--records", "120"]
        )
        assert code == 0
        assert "stream" in text and "frames_relayed" in text
        assert "num_streams: 3" in text
        assert "scheduler: deadline" in text
        assert "relays_flushed" in text

    def test_sweep_renders_throughput_table(self):
        code, text = run_cli(
            ["fleet", "--task", "TA10", "--fleet-sizes", "1,2",
             "--max-horizons", "2",
             "--scale", "0.05", "--epochs", "2", "--records", "120"]
        )
        assert code == 0
        assert "fleet_fps" in text and "seq_fps" in text
        assert "speedup" in text

    def test_sharded_run_reports_shards(self):
        code, text = run_cli(
            ["fleet", "--task", "TA10", "--shards", "2", "--streams", "2",
             "--max-horizons", "2"] + FAST
        )
        assert code == 0
        assert "num_shards: 2" in text
        assert "== supervision ==" not in text  # fail-fast default


class TestObservabilityFlags:
    @pytest.fixture(autouse=True)
    def clean_obs(self):
        obs.reset()
        yield
        obs.reset()

    def test_trace_out_streams_full_pipeline_spans(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code, _ = run_cli(
            ["evaluate", "--task", "TA10", "--algorithm", "EHCR",
             "--trace-out", str(trace)] + FAST
        )
        assert code == 0
        lines = trace.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        names = {r["name"] for r in records}
        # One run must cover the whole pipeline: training, both conformal
        # calibrations, marshalling (prediction) and cloud inference.
        assert {"train", "train.epoch", "calibrate.classify",
                "calibrate.regress", "marshal", "ci"} <= names
        for record in records:
            assert record["seconds"] >= 0
            assert record["status"] == "ok"

    def test_metrics_renders_registry_and_stage_shares(self):
        code, text = run_cli(
            ["metrics", "--task", "TA10", "--algorithm", "EHCR"] + FAST
        )
        assert code == 0
        assert "== counters ==" in text
        assert "stage time shares" in text
        # §VI.H: cloud inference dominates wall-clock on TA10.
        share_lines = [
            line for line in text.splitlines()
            if line.strip().startswith("cloud_inference")
        ]
        assert share_lines, text
        assert float(share_lines[0].split()[-1]) > 0.5

    def test_metrics_json_roundtrip(self, tmp_path):
        path = tmp_path / "metrics.json"
        code, text = run_cli(
            ["metrics", "--task", "TA10", "--json-out", str(path)] + FAST
        )
        assert code == 0
        code2, text2 = run_cli(["metrics", "--from", str(path)])
        assert code2 == 0
        # Re-rendering the saved snapshot reproduces the registry sections.
        for line in text.splitlines():
            if line.strip().startswith("stage."):
                assert line in text2

    def test_metrics_prom_out_writes_text_exposition(self, tmp_path):
        snap = tmp_path / "metrics.json"
        prom = tmp_path / "metrics.prom"
        code, _ = run_cli(
            ["metrics", "--task", "TA10", "--json-out", str(snap)] + FAST
        )
        assert code == 0
        # The offline --from path must feed --prom-out from the saved
        # snapshot, without re-running an evaluation.
        code2, _ = run_cli(
            ["metrics", "--from", str(snap), "--prom-out", str(prom)]
        )
        assert code2 == 0
        text = prom.read_text()
        assert "# TYPE repro_stage_frames_covered_total counter" in text
        assert 'quantile="0.5"' in text

    def test_error_exits_1_with_structured_log(self, capsys):
        code, _ = run_cli(["evaluate", "--task", "NOPE"] + FAST)
        assert code == 1
        err_lines = [
            json.loads(line)
            for line in capsys.readouterr().err.strip().splitlines()
            if line.startswith("{")
        ]
        events = [l for l in err_lines if l["event"] == "cli.error"]
        assert events and events[0]["error_type"] == "ValueError"

    def test_log_level_flag_enables_info_events(self, capsys):
        code, _ = run_cli(
            ["evaluate", "--task", "TA10", "--log-level", "info"] + FAST
        )
        assert code == 0
        err_lines = [
            json.loads(line)
            for line in capsys.readouterr().err.strip().splitlines()
            if line.startswith("{")
        ]
        events = {l["event"] for l in err_lines}
        assert "experiment.evaluate" in events


class TestWatchCommand:
    @pytest.fixture(autouse=True)
    def clean_obs(self):
        obs.reset()
        yield
        obs.reset()

    def test_parser_defaults(self):
        args = build_parser().parse_args(["watch"])
        assert args.task == "TA10"
        assert args.streams == 4
        assert args.fault_rate == 0.0
        assert args.failure_policy == "defer"
        assert args.history == 240
        assert not args.plain

    def test_removed_gated_engine_is_an_argparse_error(self, capsys):
        # One inference engine serves every run: no flag selects it.
        removed = (
            ["watch", "--engine", "gated"],
            ["watch", "--engine", "continual"],
            ["fleet", "--engine", "windowed"],
            ["watch", "--gate-delta", "0.05"],
        )
        for argv in removed:
            with pytest.raises(SystemExit) as excinfo:
                main(argv, out=io.StringIO())
            assert excinfo.value.code == 2, argv
            err = capsys.readouterr().err
            assert "unrecognized arguments: " + " ".join(argv[1:]) in err

    def test_plain_run_renders_dashboard_and_summary(self, tmp_path):
        ts = tmp_path / "ts.json"
        fl = tmp_path / "flight.json"
        code, text = run_cli(
            ["watch", "--task", "TA10", "--plain", "--streams", "2",
             "--max-horizons", "3", "--refresh-ticks", "2",
             "--timeseries-out", str(ts), "--flight-out", str(fl)] + FAST
        )
        assert code == 0
        assert "\x1b[" not in text  # --plain: no ANSI escapes
        assert "== backpressure & health ==" in text
        assert "== SLOs ==" in text
        assert "recall-floor" in text
        assert "== run summary ==" in text
        assert "== SLO alert timeline ==" in text
        # dumps flushed and loadable
        store = obs.read_timeseries_json(str(ts))
        assert store.num_samples > 0
        assert "fleet.recall_cum" in store.names()
        flight = json.loads(fl.read_text())
        assert "_fleet" in flight["lanes"]

    def test_chaos_mode_wraps_service(self, tmp_path):
        ts = tmp_path / "ts.json"
        code, text = run_cli(
            ["watch", "--task", "TA10", "--plain", "--streams", "2",
             "--max-horizons", "3", "--fault-rate", "0.4",
             "--timeseries-out", str(ts)] + FAST
        )
        assert code == 0
        store = obs.read_timeseries_json(str(ts))
        # the resilient stack surfaces its retry telemetry in the series
        assert any(name.startswith("ci.") for name in store.names())

    def test_custom_slo_spec_file(self, tmp_path):
        spec_file = tmp_path / "specs.json"
        spec_file.write_text(json.dumps([{
            "name": "cost-tight", "series": "fleet.tick_cost",
            "objective": "ceiling", "target": 0.0, "budget": 0.25,
            "long_window": 4, "short_window": 1,
        }]))
        code, text = run_cli(
            ["watch", "--task", "TA10", "--plain", "--streams", "2",
             "--max-horizons", "3", "--slo-spec", str(spec_file)] + FAST
        )
        assert code == 0
        assert "cost-tight" in text
        assert "recall-floor" not in text  # defaults replaced

    def test_sharded_plain_run_reports_shards(self):
        code, text = run_cli(
            ["watch", "--task", "TA10", "--shards", "2", "--plain",
             "--streams", "2", "--max-horizons", "2"] + FAST
        )
        assert code == 0
        assert "num_shards: 2" in text
        assert "| supervised" not in text
        assert "[shard 1] liveness DONE" in text

    def test_sharded_supervised_run_prints_supervision(self):
        code, text = run_cli(
            ["watch", "--task", "TA10", "--shards", "2", "--supervise",
             "--plain", "--streams", "2", "--max-horizons", "2"] + FAST
        )
        assert code == 0
        assert "| supervised" in text
        assert "== supervision ==" in text


class TestSloCommand:
    @pytest.fixture(autouse=True)
    def clean_obs(self):
        obs.reset()
        yield
        obs.reset()

    def _timeseries_dump(self, tmp_path, values):
        from repro.obs.registry import MetricsRegistry
        from repro.obs.timeseries import TimeSeriesStore

        reg = MetricsRegistry()
        store = TimeSeriesStore(capacity=max(len(values), 2))
        for v in values:
            reg.gauge("fleet.recall_cum").set(v)
            store.sample(registry=reg)
        path = tmp_path / "ts.json"
        obs.write_timeseries_json(str(path), store=store)
        return path

    def test_replay_flags_violations(self, tmp_path):
        path = self._timeseries_dump(tmp_path, [0.9, 0.2, 0.2, 0.2, 0.2])
        out_json = tmp_path / "slo.json"
        code, text = run_cli(
            ["slo", "--from", str(path), "--json-out", str(out_json)]
        )
        assert code == 0
        assert "== SLO alert timeline ==" in text
        assert "recall-floor" in text
        assert "result: VIOLATED" in text
        payload = json.loads(out_json.read_text())
        assert payload["states"]["recall-floor"] == "page"
        assert payload["timeline"]

    def test_replay_clean_run_is_ok(self, tmp_path):
        path = self._timeseries_dump(tmp_path, [0.95, 0.96, 0.97])
        code, text = run_cli(["slo", "--from", str(path)])
        assert code == 0
        assert "(no alerts)" in text
        assert "result: OK" in text

    def test_metrics_snapshot_point_check(self, tmp_path):
        obs.configure(enabled=True)
        obs.set_gauge("fleet.recall_cum", 0.5)
        obs.set_gauge("fleet.tick_cost", 1.0)
        path = tmp_path / "metrics.json"
        obs.write_metrics_json(str(path))
        code, text = run_cli(["slo", "--from", str(path)])
        assert code == 0
        assert "point check" in text
        assert "violated" in text  # recall 0.5 < floor 0.85
        assert "result: VIOLATED" in text

    def test_custom_spec_file(self, tmp_path):
        path = self._timeseries_dump(tmp_path, [0.9, 0.9])
        spec_file = tmp_path / "specs.json"
        spec_file.write_text(json.dumps([{
            "name": "my-floor", "series": "fleet.recall_cum",
            "objective": "floor", "target": 0.5,
        }]))
        code, text = run_cli(
            ["slo", "--from", str(path), "--spec", str(spec_file)]
        )
        assert code == 0
        assert "my-floor" in text and "result: OK" in text


class TestMetricsOutFlag:
    @pytest.fixture(autouse=True)
    def clean_obs(self):
        obs.reset()
        yield
        obs.reset()

    def test_metrics_out_flushes_registry_dump(self, tmp_path):
        path = tmp_path / "metrics.json"
        code, _ = run_cli(
            ["evaluate", "--task", "TA10", "--metrics-out", str(path)] + FAST
        )
        assert code == 0
        snapshot = obs.read_metrics_json(str(path))
        assert snapshot["counters"]  # instrumentation was implied on

    def test_metrics_out_flushes_even_when_command_dies(self, tmp_path):
        path = tmp_path / "metrics.json"
        code, _ = run_cli(
            ["evaluate", "--task", "NOPE", "--metrics-out", str(path)] + FAST
        )
        assert code == 1
        # shutdown() in the CLI's finally block still wrote the dump
        assert path.exists()
