"""Dashboard renderer and Prometheus text exposition."""

import io
import json

from repro import obs
from repro.cli import main
from repro.obs.dashboard import RATE_SERIES, render_dashboard, sparkline
from repro.obs.export import render_prometheus
from repro.obs.flight import FlightRecorder
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import SLOBoard, SLOSpec
from repro.obs.timeseries import TimeSeriesStore


def seeded_store(values=(0.9, 0.8, 0.7)):
    reg = MetricsRegistry()
    store = TimeSeriesStore(capacity=16)
    for v in values:
        reg.gauge("fleet.recall_cum").set(v)
        reg.counter("fleet.sched.flushed").inc(2)
        store.sample(registry=reg)
    return store


class TestSparkline:
    def test_monotone_ramp_uses_full_glyph_range(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert line[0] == "▁" and line[-1] == "█"

    def test_nan_renders_as_space(self):
        assert sparkline([float("nan"), 1.0]) == " ▁"

    def test_all_nan_is_empty(self):
        assert sparkline([float("nan")] * 3) == ""

    def test_flat_series_is_low_glyph(self):
        assert sparkline([2.0, 2.0]) == "▁▁"

    def test_window_clips_to_width(self):
        assert len(sparkline(range(100), width=10)) == 10


class TestRenderDashboard:
    def test_sections_present(self):
        store = seeded_store()
        board = SLOBoard([SLOSpec(name="recall-floor",
                                  series="fleet.recall_cum",
                                  objective="floor", target=0.85,
                                  budget=0.5, long_window=4,
                                  short_window=2)])
        board.replay(store)
        flight = FlightRecorder()
        flight.record("cam0", 0)
        flight.auto_dump("quarantine", tick=2, lane="cam0")
        text = render_dashboard(store, board=board, flight=flight,
                                tick=2, color=False)
        assert "tick 2" in text
        assert "== backpressure & health ==" in text
        assert "== rates (per tick) ==" in text
        assert "== SLOs ==" in text
        assert "recall-floor" in text
        assert "flight dumps: 1" in text
        assert "quarantine" in text

    def test_plain_mode_has_no_escape_codes(self):
        text = render_dashboard(seeded_store(), color=False)
        assert "\x1b[" not in text

    def test_color_mode_emits_sgr(self):
        text = render_dashboard(seeded_store(), color=True)
        assert "\x1b[1m" in text  # bold header

    def test_empty_store_degrades_to_header(self):
        reg = MetricsRegistry()
        store = TimeSeriesStore(capacity=4)
        store.sample(registry=reg)
        text = render_dashboard(store, title="t", color=False)
        assert text.startswith("t")
        assert "== backpressure" not in text


class TestRenderPrometheus:
    def test_counters_gauges_histograms(self):
        obs.configure(enabled=True)
        obs.inc("fleet.sched.flushed", 3)
        obs.set_gauge("fleet.backlog.frames", 12.0)
        obs.observe("fleet.tick_seconds", 0.5)
        obs.observe("fleet.tick_seconds", 1.5)
        text = render_prometheus()
        assert "# TYPE repro_fleet_sched_flushed_total counter" in text
        assert "repro_fleet_sched_flushed_total 3.0" in text
        assert "# TYPE repro_fleet_backlog_frames gauge" in text
        assert "repro_fleet_backlog_frames 12.0" in text
        assert "# TYPE repro_fleet_tick_seconds summary" in text
        assert 'repro_fleet_tick_seconds{quantile="0.99"}' in text
        assert "repro_fleet_tick_seconds_sum 2.0" in text
        assert "repro_fleet_tick_seconds_count 2" in text

    def test_name_sanitisation(self):
        obs.configure(enabled=True)
        obs.inc("weird-name.v2", 1)
        text = render_prometheus()
        assert "repro_weird_name_v2_total" in text

    def test_renders_saved_snapshot_without_registry(self):
        obs.configure(enabled=True)
        obs.set_gauge("g", 1.0)
        snapshot = obs.get_registry().snapshot()
        obs.get_registry().reset()
        assert "repro_g 1.0" in render_prometheus(snapshot=snapshot)

    def test_nan_gauge_renders_as_nan_token(self):
        snapshot = {"counters": {}, "histograms": {},
                    "gauges": {"g": {"value": float("nan"),
                                     "min": float("nan"),
                                     "max": float("nan")}}}
        text = render_prometheus(snapshot=snapshot)
        assert "repro_g NaN" in text

    def test_empty_registry(self):
        assert render_prometheus() == ""


class TestRateSeriesAreWritten:
    def test_every_rate_series_is_written_by_a_faulted_watch_run(self, tmp_path):
        # A seeded chaos run big enough to retry, defer and (under a frame
        # budget) postpone: a rate the dashboard lists but nothing writes
        # would never be drawn.
        dump = tmp_path / "timeseries.json"
        argv = ["watch", "--task", "TA10", "--plain", "--streams", "24",
                "--max-horizons", "24", "--fault-rate", "0.4",
                "--budget-frames", "1000", "--refresh-ticks", "500",
                "--seed", "2", "--scale", "0.05", "--epochs", "6",
                "--records", "120", "--timeseries-out", str(dump)]
        out = io.StringIO()
        assert main(argv, out=out) == 0
        series = json.loads(dump.read_text())["series"]
        for name in RATE_SERIES:
            assert name in series, f"{name} never written"
            assert any(value for value in series[name] if value is not None), name
            assert name in out.getvalue()
