"""SLO specs, burn-rate tracking, alert FSM, board replay."""

import json

import pytest

from repro import obs
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import (
    SLOBoard,
    SLOSpec,
    SLOTracker,
    default_fleet_slos,
    evaluate_slos,
    load_slo_specs,
)
from repro.obs.timeseries import TimeSeriesStore


def spec(**overrides):
    base = dict(name="s", series="g", objective="ceiling", target=1.0,
                budget=0.5, long_window=4, short_window=2,
                warn_burn=1.0, page_burn=2.0)
    base.update(overrides)
    return SLOSpec(**base)


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            spec(objective="sideways")
        with pytest.raises(ValueError):
            spec(budget=0.0)
        with pytest.raises(ValueError):
            spec(short_window=5, long_window=4)
        with pytest.raises(ValueError):
            spec(warn_burn=2.0, page_burn=1.0)

    def test_violated_directions(self):
        floor = spec(objective="floor", target=0.8)
        assert floor.violated(0.7) and not floor.violated(0.8)
        ceiling = spec(objective="ceiling", target=1.0)
        assert ceiling.violated(1.5) and not ceiling.violated(1.0)

    def test_nan_is_no_data_not_violation(self):
        assert not spec(objective="floor").violated(float("nan"))

    def test_dict_round_trip(self):
        s = spec(description="d")
        assert SLOSpec.from_dict(s.to_dict()) == s


class TestTracker:
    def test_clean_run_stays_ok(self):
        t = SLOTracker(spec())
        for tick in range(10):
            assert t.observe(0.5, tick) == "ok"
        assert t.events == []
        assert t.burn_short == 0.0 and t.burn_long == 0.0

    def test_warning_then_page_then_recovery(self):
        # budget 0.5, short window 2, long window 4:
        # one violating tick in a full window burns 0.25/0.5 = 0.5;
        # all-violating short+long windows burn 1/0.5 = 2.0 (= page).
        t = SLOTracker(spec())
        states = [t.observe(v, i) for i, v in
                  enumerate([2.0, 2.0, 2.0, 2.0, 0.5, 0.5])]
        assert states[0] == "page"  # single-sample windows both fully hot
        assert states[-1] == "ok"
        kinds = [(e.from_state, e.to_state) for e in t.events]
        assert kinds[0] == ("ok", "page")
        assert kinds[-1][1] == "ok"

    def test_page_needs_both_windows_hot(self):
        # Long window still mostly clean: short window alone must not page.
        t = SLOTracker(spec(long_window=8, short_window=2, page_burn=1.5))
        for tick in range(6):
            t.observe(0.5, tick)
        t.observe(2.0, 6)
        state = t.observe(2.0, 7)
        # short burn = 1/0.5 = 2.0 >= 1.5 but long burn = (2/8)/0.5 = 0.5
        assert t.burn_short >= 1.5 and t.burn_long < 1.5
        assert state == "ok"

    def test_transitions_counted_in_registry(self):
        obs.configure(enabled=True)
        t = SLOTracker(spec())
        t.observe(5.0, 0)
        snap = obs.get_registry().snapshot()
        assert snap["counters"]["slo.transitions.page"] == 1.0

    def test_summary_fields(self):
        t = SLOTracker(spec())
        t.observe(2.0, 0)
        t.observe(0.5, 1)
        s = t.summary()
        assert s["slo"] == "s" and s["ticks"] == 2
        assert s["violating_frac"] == pytest.approx(0.5)
        assert s["value"] == 0.5


class TestBoard:
    def _store(self, values):
        reg = MetricsRegistry()
        store = TimeSeriesStore(capacity=max(len(values), 2))
        for v in values:
            reg.gauge("g").set(v)
            store.sample(registry=reg)
        return store

    def test_replay_matches_incremental_update(self):
        values = [0.5, 2.0, 2.0, 0.5, 2.0, 2.0, 2.0, 0.5]
        store = self._store(values)
        replayed = evaluate_slos([spec()], store)

        incremental = SLOBoard([spec()])
        live_reg = MetricsRegistry()
        live = TimeSeriesStore(capacity=16)
        for tick, v in enumerate(values):
            live_reg.gauge("g").set(v)
            live.sample(registry=live_reg)
            incremental.update(live, tick)
        assert replayed.timeline() == incremental.timeline()
        assert replayed.states() == incremental.states()

    def test_timeline_sorted_and_worst_state(self):
        board = SLOBoard([spec(name="a"), spec(name="b", page_burn=99.0)])
        store = self._store([2.0, 2.0, 2.0])
        board.replay(store)
        assert board.states()["a"] == "page"
        assert board.states()["b"] == "warning"
        assert board.worst_state == "page"
        ticks = [e["tick"] for e in board.timeline()]
        assert ticks == sorted(ticks)

    def test_missing_series_never_alerts(self):
        board = evaluate_slos([spec(series="absent")], self._store([2.0]))
        assert board.states() == {"s": "ok"}
        assert board.timeline() == []

    def test_to_json_deterministic(self):
        store = self._store([2.0, 0.5, 2.0])
        a = evaluate_slos([spec()], store).to_json()
        b = evaluate_slos([spec()], store).to_json()
        assert a == b


class TestDefaultsAndIO:
    def test_default_fleet_slos_cover_issue_objectives(self):
        specs = default_fleet_slos()
        by_name = {s.name: s for s in specs}
        assert by_name["recall-floor"].objective == "floor"
        assert by_name["tick-latency-p99"].series == "fleet.tick_seconds.p99"
        assert by_name["cloud-cost-budget"].objective == "ceiling"
        assert by_name["frames-lost-ratio"].target == pytest.approx(0.05)

    def test_load_slo_specs(self, tmp_path):
        path = tmp_path / "specs.json"
        path.write_text(json.dumps([spec().to_dict()]))
        loaded = load_slo_specs(str(path))
        assert loaded == [spec()]

    def test_load_rejects_non_list(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_slo_specs(str(path))


class TestModuleHelpers:
    def test_update_slos_noop_when_disabled(self):
        board = obs.set_slo_specs([spec()])
        obs.update_slos(0)
        assert board.trackers[0].ticks_evaluated == 0

    def test_update_slos_drives_default_board(self):
        obs.configure(enabled=True)
        board = obs.set_slo_specs([spec(series="fleet.recall_cum",
                                        objective="floor", target=0.8)])
        obs.set_gauge("fleet.recall_cum", 0.2)
        obs.record_tick(0)
        obs.update_slos(0)
        tracker = board.trackers[0]
        assert tracker.ticks_evaluated == 1
        assert tracker.last_value == pytest.approx(0.2)
        assert obs.get_slo_board() is board

    def test_reset_clears_board(self):
        obs.set_slo_specs([spec()])
        obs.reset()
        assert obs.get_slo_board().trackers == []
