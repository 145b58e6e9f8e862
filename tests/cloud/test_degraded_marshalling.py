"""Degraded-mode marshalling: failure policies, determinism, conservation.

These tests drive the full horizon loop against injected faults.  The
model is an *untrained* EventHit with low thresholds — marshalling only
needs deterministic segment decisions, not predictive skill — so the
module sets up in milliseconds rather than training.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import (
    BreakerConfig,
    CIError,
    CloudInferenceService,
    FaultInjector,
    FaultPlan,
    ResilientCIClient,
    RetryPolicy,
    StreamMarshaller,
)
from repro.cloud.pricing import TieredPricing
from repro.core import EventHit, EventHitConfig
from repro.data import build_experiment_data
from repro.features import CovariatePipeline
from repro.video import make_thumos

CONFIG = EventHitConfig(
    window_size=10,
    horizon=200,
    lstm_hidden=8,
    shared_hidden=(8,),
    head_hidden=(8,),
    epochs=1,
    seed=0,
)


@pytest.fixture(scope="module")
def setup():
    spec = make_thumos(scale=0.06).with_events(["E7"])
    data = build_experiment_data(spec, seed=0, max_records=40, stride=40)
    model = EventHit(
        num_features=data.test_features.values.shape[1],
        num_events=len(data.event_types),
        config=CONFIG,
    )
    pipeline = CovariatePipeline(CONFIG.window_size, standardizer=data.standardizer)
    return data, model, pipeline


def make_marshaller(setup, **kwargs):
    data, model, pipeline = setup
    # low thresholds so the untrained model still relays segments
    kwargs.setdefault("tau1", 0.0)
    kwargs.setdefault("tau2", 0.3)
    return StreamMarshaller(model, data.event_types, pipeline, **kwargs)


def run_degraded(
    setup,
    plan,
    policy=None,
    breaker=None,
    failure_policy="defer",
    max_horizons=None,
):
    data, _, _ = setup
    service = CloudInferenceService(data.test_stream)
    injector = FaultInjector(service, plan)
    client = ResilientCIClient(injector, policy=policy, breaker=breaker)
    report = make_marshaller(setup).run(
        data.test_stream,
        data.test_features,
        client,
        max_horizons=max_horizons,
        failure_policy=failure_policy,
    )
    return report, client, injector


class TestTotalCostIsPerRun:
    def test_two_marshals_against_one_service(self, setup):
        """Regression: total_cost must be the run's delta, not the
        ledger's lifetime total."""
        data, _, _ = setup
        service = CloudInferenceService(data.test_stream)
        marshaller = make_marshaller(setup)
        first = marshaller.run(data.test_stream, data.test_features, service)
        second = marshaller.run(data.test_stream, data.test_features, service)
        assert first.frames_relayed > 0
        # identical inputs -> identical per-run cost, on a shared ledger
        assert second.total_cost == pytest.approx(first.total_cost)
        assert service.ledger.total_cost == pytest.approx(2 * first.total_cost)

    def test_second_run_bills_the_ledger_delta_under_tiers(self, setup):
        """Under tiered pricing a later run on the same account pays the
        cheaper tier it actually reached, not a replay from zero frames."""
        data, _, _ = setup
        service = CloudInferenceService(
            data.test_stream, pricing=TieredPricing(((0, 0.001), (1, 0.0005)))
        )
        marshaller = make_marshaller(setup)
        first = marshaller.run(data.test_stream, data.test_features, service)
        second = marshaller.run(data.test_stream, data.test_features, service)
        assert first.frames_relayed == second.frames_relayed > 0
        assert second.total_cost < first.total_cost
        assert second.total_cost == pytest.approx(
            service.ledger.total_cost - first.total_cost
        )


class TestZeroFaultIdentity:
    def test_resilient_defer_path_matches_direct_service(self, setup):
        """Acceptance: all-zero FaultPlan + defer == the direct path,
        byte-identical report numbers."""
        data, _, _ = setup
        direct_service = CloudInferenceService(data.test_stream)
        direct = make_marshaller(setup).run(
            data.test_stream, data.test_features, direct_service
        )
        resilient, client, injector = run_degraded(
            setup, FaultPlan(), policy=RetryPolicy(), failure_policy="defer"
        )
        assert direct.frames_relayed > 0
        assert resilient.to_dict(include_detections=True) == direct.to_dict(
            include_detections=True
        )
        assert client.stats.retries == 0
        assert injector.stats.failures == 0
        assert resilient.segments_failed == 0
        assert resilient.frames_lost == 0
        assert resilient.frame_recall == resilient.effective_recall


class TestSeededChaosDeterminism:
    def test_same_seed_plan_policy_reproduces_everything(self, setup):
        """Acceptance: identical retries, breaker transitions, and report
        counters across two executions."""
        plan = FaultPlan.uniform(
            0.4, seed=13, partial_rate=0.1, latency_spike_rate=0.05
        )
        policy = RetryPolicy(max_attempts=3, seed=5)
        breaker = BreakerConfig(failure_threshold=4, recovery_seconds=5.0)

        def execute():
            report, client, injector = run_degraded(
                setup, plan, policy=policy, breaker=breaker
            )
            return (
                report.to_dict(include_detections=True),
                client.stats.as_dict(),
                client.breaker.transitions,
                injector.stats.as_dict(),
            )

        assert execute() == execute()

    def test_different_seed_changes_the_run(self, setup):
        policy = RetryPolicy(max_attempts=3)
        a, _, _ = run_degraded(setup, FaultPlan.uniform(0.5, seed=1), policy=policy)
        b, _, _ = run_degraded(setup, FaultPlan.uniform(0.5, seed=2), policy=policy)
        assert a.to_dict() != b.to_dict()


class TestFailurePolicies:
    def test_raise_propagates(self, setup):
        with pytest.raises(CIError):
            run_degraded(
                setup,
                FaultPlan(transient_rate=1.0),
                policy=RetryPolicy(max_attempts=2),
                failure_policy="raise",
            )

    def test_invalid_policy_rejected(self, setup):
        data, _, _ = setup
        service = CloudInferenceService(data.test_stream)
        with pytest.raises(ValueError):
            make_marshaller(setup).run(
                data.test_stream,
                data.test_features,
                service,
                failure_policy="retry",
            )
        with pytest.raises(ValueError):
            make_marshaller(setup).run(
                data.test_stream,
                data.test_features,
                service,
                failure_policy="defer",
                max_deferrals=0,
            )

    def test_skip_charges_lost_frames(self, setup):
        report, _, injector = run_degraded(
            setup,
            FaultPlan(transient_rate=1.0),
            policy=RetryPolicy(max_attempts=1),
            failure_policy="skip",
        )
        assert injector.stats.failures > 0
        assert report.frames_relayed == 0
        assert report.segments_failed > 0
        assert report.frames_lost > 0
        assert report.detected_event_frames == 0
        # everything the marshaller selected was lost
        assert report.effective_recall == 0.0
        # ... but the decisions themselves found event frames
        assert report.frame_recall > 0.0

    def test_defer_recovers_what_skip_loses(self, setup):
        plan = FaultPlan.uniform(0.5, seed=3)
        policy = RetryPolicy(max_attempts=1)
        skipped, _, _ = run_degraded(
            setup, plan, policy=policy, failure_policy="skip"
        )
        deferred, _, _ = run_degraded(
            setup, plan, policy=policy, failure_policy="defer"
        )
        assert skipped.segments_failed > 0
        assert deferred.segments_deferred > 0
        # deferral re-queues instead of dropping, so more frames land
        assert deferred.frames_relayed > skipped.frames_relayed
        assert deferred.effective_recall >= skipped.effective_recall

    def test_defer_bounded_by_max_deferrals(self, setup):
        data, _, _ = setup
        service = CloudInferenceService(data.test_stream)
        injector = FaultInjector(service, FaultPlan(transient_rate=1.0))
        report = make_marshaller(setup).run(
            data.test_stream,
            data.test_features,
            injector,
            failure_policy="defer",
            max_deferrals=2,
        )
        # total faults: every segment fails its way through the deferral
        # budget and is finally charged as lost
        assert report.segments_failed > 0
        assert report.frames_relayed == 0
        assert report.frames_lost > 0

    def test_retries_counted_from_service_stats(self, setup):
        report, client, _ = run_degraded(
            setup,
            FaultPlan.uniform(0.4, seed=9),
            policy=RetryPolicy(max_attempts=4),
        )
        assert report.retries == client.stats.retries
        assert report.retries > 0


class TestChaosProperty:
    @pytest.mark.chaos
    @settings(max_examples=12, deadline=None)
    @given(
        rate=st.floats(min_value=0.0, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_defer_terminates_and_conserves_frames(self, setup, rate, seed):
        """Acceptance: for any seeded plan with fault rate < 1 and
        failure_policy="defer", marshalling terminates and (with widening
        clamped to the horizon) frames_relayed + frames_lost never exceeds
        frames_covered."""
        plan = FaultPlan.uniform(rate, seed=seed)
        report, _, _ = run_degraded(
            setup,
            plan,
            policy=RetryPolicy(max_attempts=2, seed=seed),
            max_horizons=4,
        )
        assert report.horizons_evaluated > 0
        assert report.frames_relayed + report.frames_lost <= report.frames_covered
        assert 0 <= report.effective_recall <= report.frame_recall <= 1
