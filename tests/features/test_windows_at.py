"""Bitwise pins for :meth:`CovariatePipeline.windows_at`, the one window cut
of the serving path: a tick's block equals its lanes' windows cut and
standardized one at a time, then stacked."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.features import CovariatePipeline, FeatureMatrix, Standardizer

DTYPES = (np.float32, np.float64)


@st.composite
def lane_blocks(draw):
    """1-12 lanes of different lengths and dtypes, one served frame each,
    a window size and an optional standardizer.

    Under float32 statistics every lane of a block shares one dtype: a
    float32 window alone would then standardize in float32, but inside a
    block promoted to float64 by a float64 lane it standardizes in float64.
    """
    channels = draw(st.integers(1, 5))
    window = draw(st.integers(1, 10))
    stats_dtype = draw(st.sampled_from(DTYPES))
    standardizer = None
    if draw(st.booleans()):
        mean = draw(
            arrays(stats_dtype, channels, elements=st.floats(-1e3, 1e3, width=32))
        )
        std = draw(
            arrays(stats_dtype, channels, elements=st.floats(0.125, 1e3, width=32))
        )
        standardizer = Standardizer(mean=mean, std=std)
    lane_dtypes = DTYPES
    if standardizer is not None and stats_dtype == np.float32:
        lane_dtypes = (draw(st.sampled_from(DTYPES)),)
    names = [f"f{i}" for i in range(channels)]
    features, frames = [], []
    for _ in range(draw(st.integers(1, 12))):
        length = draw(st.integers(window, window + 30))
        values = draw(
            arrays(
                draw(st.sampled_from(lane_dtypes)),
                (length, channels),
                elements=st.floats(-1e6, 1e6, width=32),
            )
        )
        features.append(FeatureMatrix(values, names))
        frames.append(draw(st.integers(window - 1, length - 1)))
    return features, frames, window, standardizer


def one_at_a_time(features, frames, window, standardizer):
    """The per-window form: slice, then transform, then stack."""
    cut = []
    for fm, frame in zip(features, frames):
        raw = fm.values[frame - window + 1 : frame + 1]
        cut.append(raw if standardizer is None else standardizer.transform(raw))
    return np.stack(cut)


class TestWindowsAtBitwise:
    @settings(max_examples=300, deadline=None)
    @given(lane_blocks())
    def test_block_equals_stack_of_single_windows(self, case):
        features, frames, window, standardizer = case
        pipe = CovariatePipeline(window, standardizer=standardizer)
        block = pipe.windows_at(features, frames)
        want = one_at_a_time(features, frames, window, standardizer)
        assert block.dtype == want.dtype
        assert np.array_equal(block, want)

    @settings(max_examples=100, deadline=None)
    @given(lane_blocks())
    def test_covariates_at_is_the_one_lane_case(self, case):
        features, frames, window, standardizer = case
        pipe = CovariatePipeline(window, standardizer=standardizer)
        for fm, frame in zip(features, frames):
            single = pipe.covariates_at(fm, frame)
            want = one_at_a_time([fm], [frame], window, standardizer)[0]
            assert single.dtype == want.dtype
            assert np.array_equal(single, want)

    def test_float32_lanes_standardize_in_float64(self):
        # A float32 block must promote before the subtract, as each float32
        # window does on its own; rounding in float32 would change bits.
        values = np.float32([[0.1], [0.7], [1.3]])
        fm = FeatureMatrix(values, ["f0"])
        std = Standardizer(mean=np.array([0.3]), std=np.array([0.7]))
        block = CovariatePipeline(2, standardizer=std).windows_at([fm, fm], [1, 2])
        assert block.dtype == np.float64
        assert np.array_equal(block[1], (values[1:3] - std.mean) / std.std)


class TestWindowsAtErrors:
    def lanes(self):
        return [
            FeatureMatrix(np.zeros((n, 2)), ["a", "b"]) for n in (10, 6, 8)
        ]

    @pytest.mark.parametrize(
        "frames, bad, n", [([9, 2, 8], 2, 6), ([9, 6, 8], 6, 6), ([10, 2, 5], 10, 10)]
    )
    def test_first_bad_lane_raises_covariates_at_message(self, frames, bad, n):
        pipe = CovariatePipeline(4)
        with pytest.raises(ValueError) as block:
            pipe.windows_at(self.lanes(), frames)
        assert str(block.value) == f"frame {bad} outside valid range [3, {n})"

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            CovariatePipeline(4).windows_at([], [])

    def test_frame_count_must_match_lanes(self):
        with pytest.raises(ValueError):
            CovariatePipeline(4).windows_at(self.lanes(), [5, 5])
