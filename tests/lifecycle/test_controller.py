"""Tests for the lifecycle controller: drift-triggered retraining, canary
gating, atomic hot-swap, and fall-back-to-incumbent on every fault kind."""

import pytest

from repro.cloud import CloudInferenceService
from repro.lifecycle import (
    LifecycleController,
    LifecycleFaultInjector,
    LifecycleFaultPlan,
    ModelRegistry,
)
from repro.obs import get_flight_recorder

from tests.lifecycle.conftest import RETRAIN_CONFIG

RUN_HORIZONS = 12


def make_controller(marshaller, tmp_path, plan=None, **kwargs):
    injector = LifecycleFaultInjector(plan) if plan is not None else None
    registry = ModelRegistry(tmp_path / "registry", injector=injector)
    kwargs.setdefault("audit_rate", 1.0)
    kwargs.setdefault("retrain_every_audits", 4)
    kwargs.setdefault("min_records", 4)
    kwargs.setdefault("min_positives", 1)
    kwargs.setdefault("retrain_config", RETRAIN_CONFIG)
    # Relaxed gate by default so the swap path actually runs: candidates
    # trained on a handful of audits cannot beat a 150-record incumbent
    # under production margins.
    kwargs.setdefault("recall_margin", 1.0)
    kwargs.setdefault("brier_margin", 2.0)
    controller = LifecycleController(
        marshaller, registry, injector=injector, **kwargs
    )
    controller.register_incumbent()
    return controller


def run_stream(marshaller, setup, controller=None, max_horizons=RUN_HORIZONS):
    spec, data, model, pipeline = setup
    service = CloudInferenceService(data.test_stream)
    return marshaller.run(
        data.test_stream,
        data.test_features,
        service,
        max_horizons=max_horizons,
        lifecycle=controller,
    )


class TestValidation:
    def test_requires_calibrated_marshaller(self, setup, tmp_path):
        from repro.cloud import StreamMarshaller

        spec, data, model, pipeline = setup
        bare = StreamMarshaller(model, data.event_types, pipeline)
        with pytest.raises(ValueError, match="calibrated conformal"):
            LifecycleController(bare, ModelRegistry(tmp_path))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(audit_rate=1.5),
            dict(canary_fraction=0.0),
            dict(canary_fraction=1.0),
            dict(min_positives=0),
            dict(min_records=2),
            dict(recall_margin=-0.1),
            dict(retrain_every_audits=0),
        ],
    )
    def test_knob_bounds(self, make_marshaller, tmp_path, kwargs):
        with pytest.raises(ValueError):
            LifecycleController(
                make_marshaller(), ModelRegistry(tmp_path), **kwargs
            )


class TestBootstrap:
    def test_register_incumbent_is_version_one_good(
        self, make_marshaller, tmp_path
    ):
        marshaller = make_marshaller()
        registry = ModelRegistry(tmp_path)
        controller = LifecycleController(marshaller, registry)
        entry = controller.register_incumbent()
        assert (entry.version, entry.status, entry.source) == (1, "good", "seed")
        assert controller.serving_version == 1
        entry2, _ = registry.load_last_good()
        assert entry2.version == 1

    def test_seed_publish_bypasses_chaos_hooks(self, make_marshaller, tmp_path):
        plan = LifecycleFaultPlan(torn_write_rate=1.0)
        controller = make_controller(make_marshaller(), tmp_path, plan=plan)
        # The torn-write hook must not have fired on the seed publish.
        assert controller.injector.stats.torn_writes == 0
        entry, _ = controller.registry.load_last_good()
        assert entry.version == 1


class TestSwap:
    def test_scheduled_retrain_swaps_and_voids_horizon(
        self, setup, make_marshaller, tmp_path
    ):
        baseline = run_stream(make_marshaller(), setup)
        marshaller = make_marshaller()
        controller = make_controller(marshaller, tmp_path)
        report = run_stream(marshaller, setup, controller)

        assert controller.swaps >= 1
        assert controller.serving_version > 1
        assert report.model_swaps == controller.swaps
        horizon = marshaller.horizon
        assert report.swap_voided_frames == controller.swaps * horizon
        assert report.guarantee_voided_frames >= report.swap_voided_frames
        # No frames dropped or skipped: the stream advances exactly as in
        # the lifecycle-free run.
        assert report.horizons_evaluated == baseline.horizons_evaluated
        assert report.frames_covered == baseline.frames_covered
        assert report.frames_lost == 0
        # The marshaller now serves the published artifact, and its one
        # owner is the engine the swap installed; the conformal layers
        # hold no model to go stale.
        assert marshaller.model is marshaller.inference.model
        assert marshaller.model is not baseline_model(setup)
        assert not hasattr(marshaller.classifier, "model")
        assert not hasattr(marshaller.regressor, "model")

    def test_swap_is_deterministic(self, setup, make_marshaller, tmp_path):
        first_m = make_marshaller()
        first = make_controller(first_m, tmp_path / "a")
        report_a = run_stream(first_m, setup, first)
        second_m = make_marshaller()
        second = make_controller(second_m, tmp_path / "b")
        report_b = run_stream(second_m, setup, second)
        assert first.stats() == second.stats()
        assert report_a.to_dict() == report_b.to_dict()

    def test_maybe_swap_without_pending_is_noop(self, make_marshaller, tmp_path):
        from repro.cloud.marshaller import MarshallingReport

        marshaller = make_marshaller()
        controller = make_controller(marshaller, tmp_path)
        report = MarshallingReport()
        model_before = marshaller.model
        assert controller.maybe_swap(report) is False
        assert report.model_swaps == 0
        assert marshaller.model is model_before

    def test_zero_audit_rate_never_retrains(self, setup, make_marshaller, tmp_path):
        marshaller = make_marshaller()
        controller = make_controller(marshaller, tmp_path, audit_rate=0.0)
        run_stream(marshaller, setup, controller)
        assert controller.audits == 0
        assert controller.retrains == 0
        assert controller.swaps == 0
        assert controller.serving_version == 1


def baseline_model(setup):
    return setup[2]


class TestRollback:
    def test_strict_canary_rolls_back_and_keeps_incumbent(
        self, setup, make_marshaller, tmp_path
    ):
        recorder = get_flight_recorder()
        recorder.clear()
        marshaller = make_marshaller()
        controller = make_controller(
            marshaller, tmp_path, recall_margin=0.0, brier_margin=0.0
        )
        run_stream(marshaller, setup, controller)

        assert controller.retrains >= 1
        assert controller.rollbacks >= 1
        assert controller.swaps == 0
        assert controller.serving_version == 1
        assert marshaller.model is baseline_model(setup)
        statuses = {e.status for e in controller.registry.entries() if e.version > 1}
        assert statuses == {"rolled-back"}
        reasons = {d["reason"] for d in recorder.dumps}
        assert "lifecycle-rollback" in reasons

    def test_rolled_back_artifact_is_kept_for_postmortems(
        self, setup, make_marshaller, tmp_path
    ):
        import os

        marshaller = make_marshaller()
        controller = make_controller(
            marshaller, tmp_path, recall_margin=0.0, brier_margin=0.0
        )
        run_stream(marshaller, setup, controller)
        rolled = [
            e for e in controller.registry.entries() if e.status == "rolled-back"
        ]
        assert rolled
        for entry in rolled:
            assert os.path.exists(controller.registry.path_of(entry))


class TestFaultFallback:
    """Every injected lifecycle fault must end with the incumbent serving
    and a flight-recorder postmortem on file."""

    def drive(self, setup, make_marshaller, tmp_path, plan):
        recorder = get_flight_recorder()
        recorder.clear()
        marshaller = make_marshaller()
        controller = make_controller(marshaller, tmp_path, plan=plan)
        report = run_stream(marshaller, setup, controller)
        return marshaller, controller, report, recorder

    def test_torn_write_fails_publish_keeps_incumbent(
        self, setup, make_marshaller, tmp_path
    ):
        plan = LifecycleFaultPlan(torn_write_rate=1.0)
        marshaller, controller, report, recorder = self.drive(
            setup, make_marshaller, tmp_path, plan
        )
        assert controller.publish_failures >= 1
        assert controller.swaps == 0
        assert controller.serving_version == 1
        assert marshaller.model is baseline_model(setup)
        statuses = {e.status for e in controller.registry.entries() if e.version > 1}
        assert statuses == {"corrupt"}
        assert "lifecycle-publish-failure" in {
            d["reason"] for d in recorder.dumps
        }
        entry, _ = controller.registry.load_last_good()
        assert entry.version == 1

    def test_retrain_failure_keeps_incumbent(
        self, setup, make_marshaller, tmp_path
    ):
        plan = LifecycleFaultPlan(retrain_failure_rate=1.0)
        marshaller, controller, report, recorder = self.drive(
            setup, make_marshaller, tmp_path, plan
        )
        assert controller.retrain_failures == controller.retrains
        assert controller.retrains >= 1
        assert controller.swaps == 0
        # Nothing beyond the seed version ever reached the registry.
        assert controller.registry.latest_version == 1
        assert "lifecycle-retrain-failure" in {
            d["reason"] for d in recorder.dumps
        }

    def test_canary_flake_rolls_back(self, setup, make_marshaller, tmp_path):
        plan = LifecycleFaultPlan(canary_flake_rate=1.0)
        marshaller, controller, report, recorder = self.drive(
            setup, make_marshaller, tmp_path, plan
        )
        assert controller.rollbacks >= 1
        assert controller.swaps == 0
        assert all(v.flaked for v in controller.canary_verdicts)
        assert "lifecycle-rollback" in {d["reason"] for d in recorder.dumps}

    def test_manifest_corruption_recovers_on_restart(
        self, setup, make_marshaller, tmp_path
    ):
        plan = LifecycleFaultPlan(manifest_corruption_rate=1.0)
        marshaller, controller, report, recorder = self.drive(
            setup, make_marshaller, tmp_path, plan
        )
        # In-process state is unaffected by on-disk garbling; the crash
        # -restart path is what pays: the reopened registry must recover
        # from the backup and still serve a good version.
        assert controller.injector.stats.manifests_corrupted >= 1
        reopened = ModelRegistry(tmp_path / "registry")
        assert reopened.manifest_recoveries == 1
        entry, _ = reopened.load_last_good()
        assert entry.status == "good"
