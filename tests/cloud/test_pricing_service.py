"""Tests for pricing models and the simulated CI service."""

import pytest

from repro.cloud import (
    REKOGNITION,
    CloudInferenceService,
    Detection,
    FlatPricing,
    TieredPricing,
    merge_segments,
)
from repro.video.events import EventInstance, EventSchedule, EventType
from repro.video.stream import StreamSegment, VideoStream

ET = EventType("truck", duration_mean=20, duration_std=2)


def make_stream():
    sched = EventSchedule(
        1000, [EventInstance(100, 149, ET), EventInstance(600, 619, ET)]
    )
    return VideoStream(1000, sched, seed=0)


class TestFlatPricing:
    def test_linear_cost(self):
        assert FlatPricing(0.002).cost(500) == pytest.approx(1.0)

    def test_rekognition_default(self):
        assert REKOGNITION.cost(1000) == pytest.approx(1.0)

    def test_marginal_constant(self):
        assert FlatPricing(0.01).marginal_price(12345) == 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            FlatPricing(-0.1)
        with pytest.raises(ValueError):
            FlatPricing(0.001).cost(-1)


class TestTieredPricing:
    def make(self):
        return TieredPricing(tiers=((0, 0.001), (1000, 0.0008), (5000, 0.0005)))

    def test_within_first_tier(self):
        assert self.make().cost(500) == pytest.approx(0.5)

    def test_spanning_tiers(self):
        # 1000×0.001 + 4000×0.0008 + 1000×0.0005
        assert self.make().cost(6000) == pytest.approx(1.0 + 3.2 + 0.5)

    def test_marginal_price_by_volume(self):
        pricing = self.make()
        assert pricing.marginal_price(0) == 0.001
        assert pricing.marginal_price(1000) == 0.0008
        assert pricing.marginal_price(999999) == 0.0005

    def test_validation(self):
        with pytest.raises(ValueError):
            TieredPricing(tiers=())
        with pytest.raises(ValueError):
            TieredPricing(tiers=((5, 0.1),))
        with pytest.raises(ValueError):
            TieredPricing(tiers=((0, 0.1), (0, 0.2)))
        with pytest.raises(ValueError):
            TieredPricing(tiers=((0, -0.1),))

    def test_cheaper_than_flat_at_volume(self):
        tiered = self.make()
        flat = FlatPricing(0.001)
        assert tiered.cost(10_000) < flat.cost(10_000)


class TestCloudInferenceService:
    def test_detection_within_segment(self):
        service = CloudInferenceService(make_stream())
        detections = service.detect(StreamSegment(90, 200), ET)
        assert detections == [Detection("truck", 100, 149)]

    def test_detection_clipped_to_segment(self):
        service = CloudInferenceService(make_stream())
        detections = service.detect(StreamSegment(120, 130), ET)
        assert detections == [Detection("truck", 120, 130)]

    def test_no_detection_outside_events(self):
        service = CloudInferenceService(make_stream())
        assert service.detect(StreamSegment(200, 400), ET) == []

    def test_billing_per_frame_regardless_of_outcome(self):
        service = CloudInferenceService(make_stream())
        service.detect(StreamSegment(200, 299), ET)  # no events, 100 frames
        assert service.ledger.frames_processed == 100
        assert service.ledger.total_cost == pytest.approx(0.1)
        assert service.ledger.requests == 1

    def test_ledger_accumulates_per_event(self):
        service = CloudInferenceService(make_stream())
        service.detect(StreamSegment(0, 9), ET)
        service.detect(StreamSegment(10, 19), ET)
        assert service.ledger.frames_per_event["truck"] == 20

    def test_tiered_billing_integrates_correctly(self):
        pricing = TieredPricing(tiers=((0, 0.001), (100, 0.0005)))
        service = CloudInferenceService(make_stream(), pricing=pricing)
        service.detect(StreamSegment(0, 149), ET)  # 150 frames
        expected = 100 * 0.001 + 50 * 0.0005
        assert service.ledger.total_cost == pytest.approx(expected)

    def test_simulated_time(self):
        service = CloudInferenceService(make_stream(), ci_fps=10)
        service.detect(StreamSegment(0, 99), ET)
        assert service.simulated_seconds == pytest.approx(10.0)

    def test_segment_bounds_checked(self):
        service = CloudInferenceService(make_stream())
        with pytest.raises(ValueError):
            service.detect(StreamSegment(990, 1005), ET)

    def test_reset(self):
        service = CloudInferenceService(make_stream())
        service.detect(StreamSegment(0, 9), ET)
        service.reset()
        assert service.ledger.frames_processed == 0
        assert service.simulated_seconds == 0.0

    def test_detect_many(self):
        service = CloudInferenceService(make_stream())
        detections = service.detect_many(
            [StreamSegment(90, 200), StreamSegment(590, 640)], ET
        )
        assert len(detections) == 2

    def test_ci_fps_validation(self):
        with pytest.raises(ValueError):
            CloudInferenceService(make_stream(), ci_fps=0)


class TestMergeSegments:
    def test_disjoint_segments_unchanged(self):
        segments = [StreamSegment(0, 9), StreamSegment(20, 29)]
        assert merge_segments(segments) == segments

    def test_overlapping_segments_coalesce(self):
        merged = merge_segments([StreamSegment(0, 50), StreamSegment(30, 80)])
        assert merged == [StreamSegment(0, 80)]

    def test_adjacent_segments_coalesce(self):
        merged = merge_segments([StreamSegment(0, 9), StreamSegment(10, 19)])
        assert merged == [StreamSegment(0, 19)]

    def test_unsorted_and_nested_inputs(self):
        merged = merge_segments(
            [StreamSegment(50, 60), StreamSegment(0, 100), StreamSegment(70, 80)]
        )
        assert merged == [StreamSegment(0, 100)]

    def test_empty_input(self):
        assert merge_segments([]) == []


class TestDetectManyBilling:
    """detect_many must never double-bill frames shared by its inputs."""

    def test_overlapping_segments_billed_once(self):
        service = CloudInferenceService(make_stream())
        service.detect_many([StreamSegment(0, 99), StreamSegment(50, 149)], ET)
        # the union [0, 149] is 150 frames, not 100 + 100
        assert service.ledger.frames_processed == 150
        assert service.ledger.total_cost == pytest.approx(0.15)

    def test_adjacent_segments_billed_as_one_request(self):
        service = CloudInferenceService(make_stream())
        service.detect_many([StreamSegment(0, 9), StreamSegment(10, 19)], ET)
        assert service.ledger.requests == 1
        assert service.ledger.frames_processed == 20

    def test_detections_not_duplicated_across_overlap(self):
        service = CloudInferenceService(make_stream())
        # both segments cover event [100, 149]
        detections = service.detect_many(
            [StreamSegment(90, 160), StreamSegment(95, 200)], ET
        )
        assert detections == [Detection("truck", 100, 149)]

    def test_merged_billing_matches_equivalent_single_call(self):
        many = CloudInferenceService(make_stream())
        many.detect_many([StreamSegment(0, 99), StreamSegment(50, 149)], ET)
        single = CloudInferenceService(make_stream())
        single.detect(StreamSegment(0, 149), ET)
        assert many.ledger.total_cost == pytest.approx(single.ledger.total_cost)
        assert many.simulated_seconds == pytest.approx(single.simulated_seconds)

    def test_tiered_pricing_sees_merged_volume(self):
        pricing = TieredPricing(tiers=((0, 0.001), (100, 0.0005)))
        service = CloudInferenceService(make_stream(), pricing=pricing)
        # union is [0, 149]: the first 100 frames at tier 0, 50 at tier 1.
        service.detect_many([StreamSegment(0, 99), StreamSegment(50, 149)], ET)
        assert service.ledger.total_cost == pytest.approx(100 * 0.001 + 50 * 0.0005)


class TestLedgerReset:
    def test_reset_zeroes_every_counter_in_place(self):
        service = CloudInferenceService(make_stream())
        ledger = service.ledger
        service.detect(StreamSegment(0, 99), ET)
        assert ledger.frames_processed == 100
        ledger.reset()
        # same object, zeroed — wrapper references stay valid
        assert service.ledger is ledger
        assert ledger.frames_processed == 0
        assert ledger.requests == 0
        assert ledger.total_cost == 0.0
        assert ledger.frames_per_event == {}

    def test_service_reset_clears_simulated_time_too(self):
        service = CloudInferenceService(make_stream(), ci_fps=10)
        service.detect(StreamSegment(0, 99), ET)
        assert service.simulated_seconds > 0
        service.reset()
        assert service.simulated_seconds == 0.0
        # billing after a reset starts from scratch
        service.detect(StreamSegment(0, 99), ET)
        assert service.ledger.frames_processed == 100
        assert service.simulated_seconds == pytest.approx(10.0)

    def test_tiered_pricing_restarts_at_tier_zero_after_reset(self):
        pricing = TieredPricing(tiers=((0, 0.001), (100, 0.0005)))
        service = CloudInferenceService(make_stream(), pricing=pricing)
        service.detect(StreamSegment(0, 149), ET)  # crosses into tier 1
        service.reset()
        service.detect(StreamSegment(0, 49), ET)  # 50 frames, tier 0 again
        assert service.ledger.total_cost == pytest.approx(50 * 0.001)
