"""Tests for covariate windows, standardisation, and feature selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.features import (
    CovariatePipeline,
    FeatureMatrix,
    Standardizer,
    correlation_scores,
    select_features,
)


def toy_features(n=100, d=3):
    values = np.arange(n * d, dtype=float).reshape(n, d)
    return FeatureMatrix(values, [f"f{i}" for i in range(d)])


class TestStandardizer:
    def test_fit_transform_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        values = rng.normal(5, 3, size=(500, 4))
        std = Standardizer.fit(values)
        out = std.transform(values)
        np.testing.assert_allclose(out.mean(axis=0), 0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=0), 1, atol=1e-10)

    def test_constant_channel_safe(self):
        values = np.ones((50, 2))
        out = Standardizer.fit(values).transform(values)
        assert np.all(np.isfinite(out))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            Standardizer.fit(np.zeros(10))


class TestCovariatePipeline:
    def test_window_contents(self):
        pipe = CovariatePipeline(window_size=3)
        window = pipe.covariates_at(toy_features(), frame=5)
        np.testing.assert_array_equal(window, toy_features().values[3:6])

    def test_min_frame(self):
        assert CovariatePipeline(5).min_frame() == 4

    def test_bounds_checked(self):
        pipe = CovariatePipeline(window_size=4)
        with pytest.raises(ValueError):
            pipe.covariates_at(toy_features(), frame=2)
        with pytest.raises(ValueError):
            pipe.covariates_at(toy_features(), frame=100)

    def test_batch_matches_single(self):
        pipe = CovariatePipeline(window_size=4)
        fm = toy_features()
        batch = pipe.covariate_batch(fm, [5, 10, 50])
        assert batch.shape == (3, 4, 3)
        np.testing.assert_array_equal(batch[1], pipe.covariates_at(fm, 10))

    def test_batch_validation(self):
        pipe = CovariatePipeline(window_size=4)
        with pytest.raises(ValueError):
            pipe.covariate_batch(toy_features(), [])
        with pytest.raises(ValueError):
            pipe.covariate_batch(toy_features(), [1])

    def test_standardizer_applied(self):
        fm = toy_features()
        std = Standardizer.fit(fm.values)
        pipe = CovariatePipeline(window_size=2, standardizer=std)
        window = pipe.covariates_at(fm, frame=1)
        expected = std.transform(fm.values)[0:2]
        np.testing.assert_allclose(window, expected)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            CovariatePipeline(0)


@st.composite
def windowed_matrices(draw):
    """A feature matrix, a window size, a served frame and a standardizer."""
    frames = draw(st.integers(1, 40))
    channels = draw(st.integers(1, 5))
    window = draw(st.integers(1, frames))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    values = draw(
        arrays(dtype, (frames, channels), elements=st.floats(-1e6, 1e6, width=32))
    )
    mean = draw(arrays(np.float64, channels, elements=st.floats(-1e3, 1e3)))
    std = draw(arrays(np.float64, channels, elements=st.floats(1e-3, 1e3)))
    frame = draw(st.integers(window - 1, frames - 1))
    fm = FeatureMatrix(values, [f"f{i}" for i in range(channels)])
    return fm, window, frame, Standardizer(mean=mean, std=std)


def bits(array):
    return array.dtype, array.shape, array.tobytes()


class TestSliceThenStandardize:
    """Standardizing only the served rows is bitwise slicing a standardized
    matrix: the transform is an elementwise IEEE subtract and divide."""

    @settings(max_examples=200, deadline=None)
    @given(windowed_matrices())
    def test_window_bitwise_equals_slice_of_transformed_matrix(self, case):
        fm, window, frame, std = case
        pipe = CovariatePipeline(window, standardizer=std)
        expected = std.transform(fm.values)[frame - window + 1 : frame + 1]
        assert bits(pipe.covariates_at(fm, frame)) == bits(expected)

    @settings(max_examples=100, deadline=None)
    @given(windowed_matrices(), st.data())
    def test_batch_rows_bitwise_equal_single_windows(self, case, data):
        fm, window, _, std = case
        frames = data.draw(
            st.lists(st.integers(window - 1, fm.num_frames - 1), min_size=1, max_size=8)
        )
        pipe = CovariatePipeline(window, standardizer=std)
        batch = pipe.covariate_batch(fm, frames)
        for row, frame in zip(batch, frames):
            assert bits(row) == bits(pipe.covariates_at(fm, frame))

    @settings(max_examples=100, deadline=None)
    @given(windowed_matrices())
    def test_no_standardizer_serves_raw_rows(self, case):
        fm, window, frame, _ = case
        pipe = CovariatePipeline(window)
        raw = fm.values[frame - window + 1 : frame + 1]
        assert bits(pipe.covariates_at(fm, frame)) == bits(raw)
        assert bits(pipe.covariate_batch(fm, [frame])[0]) == bits(raw)

    @settings(max_examples=50, deadline=None)
    @given(windowed_matrices())
    def test_out_of_range_messages(self, case):
        fm, window, _, std = case
        pipe = CovariatePipeline(window, standardizer=std)
        n = fm.num_frames
        for frame in (window - 2, n):
            with pytest.raises(ValueError) as single:
                pipe.covariates_at(fm, frame)
            assert str(single.value) == (
                f"frame {frame} outside valid range [{window - 1}, {n})"
            )
            with pytest.raises(ValueError) as batch:
                pipe.covariate_batch(fm, [frame])
            assert str(batch.value) == (
                f"frames outside valid range [{window - 1}, {n})"
            )


class TestFeatureSelection:
    def make_correlated(self, n=2000, seed=0):
        rng = np.random.default_rng(seed)
        labels = (rng.random(n) < 0.3).astype(float)
        informative = labels + rng.normal(0, 0.3, n)
        weak = labels * 0.1 + rng.normal(0, 1.0, n)
        noise = rng.normal(0, 1, n)
        constant = np.zeros(n)
        fm = FeatureMatrix(
            np.stack([informative, weak, noise, constant], axis=1),
            ["informative", "weak", "noise", "constant"],
        )
        return fm, labels[:, None]

    def test_scores_rank_informative_first(self):
        fm, labels = self.make_correlated()
        scores = correlation_scores(fm, labels)
        assert scores["informative"] > 0.7
        assert scores["noise"] < 0.1
        assert scores["constant"] == 0.0

    def test_selection_keeps_informative_drops_noise(self):
        fm, labels = self.make_correlated()
        sel = select_features(fm, labels, min_score=0.2)
        assert "informative" in sel.selected
        assert "noise" not in sel.selected
        assert "constant" not in sel.selected

    def test_top_k_limits(self):
        fm, labels = self.make_correlated()
        sel = select_features(fm, labels, top_k=1, min_score=0.0)
        assert sel.selected == ["informative"]

    def test_always_keeps_at_least_one(self):
        fm, labels = self.make_correlated()
        sel = select_features(fm, labels, min_score=0.999)
        assert len(sel.selected) == 1

    def test_apply_returns_submatrix(self):
        fm, labels = self.make_correlated()
        sel = select_features(fm, labels, min_score=0.2)
        sub = sel.apply(fm)
        assert sub.channel_names == sel.selected

    def test_1d_labels_accepted(self):
        fm, labels = self.make_correlated()
        scores = correlation_scores(fm, labels.ravel())
        assert scores["informative"] > 0.5

    def test_multi_event_labels_max_correlation(self):
        fm, labels = self.make_correlated()
        extra = np.random.default_rng(1).random((labels.shape[0], 1))
        both = np.hstack([labels, extra])
        scores = correlation_scores(fm, both)
        assert scores["informative"] > 0.7

    def test_validation(self):
        fm, labels = self.make_correlated()
        with pytest.raises(ValueError):
            correlation_scores(fm, labels[:10])
        with pytest.raises(ValueError):
            select_features(fm, labels, top_k=0)

    def test_selection_order_preserved(self):
        fm, labels = self.make_correlated()
        sel = select_features(fm, labels, min_score=0.0)
        original_order = [n for n in fm.channel_names if n in set(sel.selected)]
        assert sel.selected == original_order
