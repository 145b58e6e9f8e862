"""Tests for the seeded lifecycle fault plan and injector."""

import json

import pytest

from repro.lifecycle import (
    LIFECYCLE_FAULT_KINDS,
    LifecycleError,
    LifecycleFaultInjector,
    LifecycleFaultPlan,
    RetrainError,
)


class TestPlanValidation:
    def test_defaults_are_empty(self):
        plan = LifecycleFaultPlan()
        assert plan.is_empty
        assert plan.total_rate == 0.0

    @pytest.mark.parametrize("kind", LIFECYCLE_FAULT_KINDS)
    def test_rates_must_be_probabilities(self, kind):
        with pytest.raises(ValueError):
            LifecycleFaultPlan(**{f"{kind}_rate": 1.5})
        with pytest.raises(ValueError):
            LifecycleFaultPlan(**{f"{kind}_rate": -0.1})

    def test_torn_fraction_bounds(self):
        with pytest.raises(ValueError):
            LifecycleFaultPlan(torn_fraction=0.0)
        with pytest.raises(ValueError):
            LifecycleFaultPlan(torn_fraction=1.0)

    def test_uniform_spreads_evenly(self):
        plan = LifecycleFaultPlan.uniform(0.8, seed=5)
        for kind in LIFECYCLE_FAULT_KINDS:
            assert getattr(plan, f"{kind}_rate") == pytest.approx(0.2)
        assert plan.total_rate == pytest.approx(0.8)
        assert plan.seed == 5

    def test_with_total_rate_rescales(self):
        plan = LifecycleFaultPlan(torn_write_rate=0.3, canary_flake_rate=0.1)
        scaled = plan.with_total_rate(0.8)
        assert scaled.total_rate == pytest.approx(0.8)
        assert scaled.torn_write_rate == pytest.approx(0.6)
        assert scaled.canary_flake_rate == pytest.approx(0.2)
        assert scaled.manifest_corruption_rate == 0.0

    def test_with_total_rate_from_empty_goes_uniform(self):
        scaled = LifecycleFaultPlan(seed=9).with_total_rate(0.4)
        assert scaled.total_rate == pytest.approx(0.4)
        assert scaled.seed == 9
        for kind in LIFECYCLE_FAULT_KINDS:
            assert getattr(scaled, f"{kind}_rate") == pytest.approx(0.1)


class TestPlanSerialization:
    def test_json_round_trip(self):
        plan = LifecycleFaultPlan.uniform(1.2, seed=11, torn_fraction=0.3)
        assert LifecycleFaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_fields_rejected(self):
        data = LifecycleFaultPlan().to_dict()
        data["surprise"] = 1
        with pytest.raises(ValueError, match="unknown"):
            LifecycleFaultPlan.from_dict(data)

    def test_json_is_sorted_and_complete(self):
        data = json.loads(LifecycleFaultPlan().to_json())
        assert set(data) == {
            "torn_write_rate",
            "manifest_corruption_rate",
            "retrain_failure_rate",
            "canary_flake_rate",
            "torn_fraction",
            "seed",
        }


class TestInjector:
    def test_error_hierarchy(self):
        assert issubclass(RetrainError, LifecycleError)
        assert issubclass(LifecycleError, RuntimeError)

    def test_empty_plan_never_fires(self, tmp_path):
        injector = LifecycleFaultInjector(LifecycleFaultPlan())
        path = tmp_path / "artifact.bin"
        path.write_bytes(b"x" * 100)
        for _ in range(50):
            assert not injector.tear_write(str(path))
            injector.fail_retrain()
            assert not injector.flake_canary()
        assert injector.stats.total == 0
        assert injector.stats.draws == 150
        assert path.read_bytes() == b"x" * 100

    def test_full_rate_always_fires(self, tmp_path):
        plan = LifecycleFaultPlan(retrain_failure_rate=1.0, canary_flake_rate=1.0)
        injector = LifecycleFaultInjector(plan)
        with pytest.raises(RetrainError):
            injector.fail_retrain()
        assert injector.flake_canary()
        assert injector.stats.retrain_failures == 1
        assert injector.stats.canary_flakes == 1

    def test_tear_write_truncates_to_fraction(self, tmp_path):
        plan = LifecycleFaultPlan(torn_write_rate=1.0, torn_fraction=0.25)
        injector = LifecycleFaultInjector(plan)
        path = tmp_path / "ckpt.npz"
        path.write_bytes(bytes(range(200)) * 1)
        assert injector.tear_write(str(path))
        assert path.stat().st_size == 50
        assert path.read_bytes() == bytes(range(50))

    def test_corrupt_manifest_breaks_json(self, tmp_path):
        plan = LifecycleFaultPlan(manifest_corruption_rate=1.0)
        injector = LifecycleFaultInjector(plan)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"entries": [], "checksum": "abc"}))
        assert injector.corrupt_manifest(str(path))
        with pytest.raises(json.JSONDecodeError):
            json.loads(path.read_text(errors="replace"))

    def test_seeded_sequence_is_deterministic(self):
        plan = LifecycleFaultPlan.uniform(1.0, seed=21)

        def drive(inj):
            fired = []
            for _ in range(40):
                try:
                    inj.fail_retrain()
                    fired.append(False)
                except RetrainError:
                    fired.append(True)
                fired.append(inj.flake_canary())
            return fired

        a = drive(LifecycleFaultInjector(plan))
        b = drive(LifecycleFaultInjector(plan))
        assert a == b
        assert any(a)

    def test_reset_replays_from_start(self):
        plan = LifecycleFaultPlan.uniform(1.0, seed=3)
        injector = LifecycleFaultInjector(plan)
        first = [injector.flake_canary() for _ in range(30)]
        stats_first = dict(injector.stats.faults)
        injector.reset()
        second = [injector.flake_canary() for _ in range(30)]
        assert first == second
        assert dict(injector.stats.faults) == stats_first

    def test_one_draw_per_hook(self, tmp_path):
        injector = LifecycleFaultInjector(LifecycleFaultPlan.uniform(0.4, seed=0))
        path = tmp_path / "a.bin"
        path.write_bytes(b"y" * 64)
        injector.tear_write(str(path))
        try:
            injector.fail_retrain()
        except RetrainError:
            pass
        injector.flake_canary()
        assert injector.stats.draws == 3

    def test_stats_as_dict_totals(self):
        injector = LifecycleFaultInjector(
            LifecycleFaultPlan(canary_flake_rate=1.0)
        )
        injector.flake_canary()
        injector.flake_canary()
        out = injector.stats.as_dict()
        assert out["total"] == 2
        assert out["faults"] == {"canary_flake": 2}
