"""The continual engine's equivalence and gating contracts.

The load-bearing pin: with state carried across ticks, the stateful path
must be **bitwise-equal to the windowed forward, warmup-aligned** — after
a warm-up on window ``[a..b]`` and single-frame steps up to ``t``, lane
output equals ``BatchedInference.predict`` over the one window ``[a..t]``
bit for bit.  Everything else (gating, resets, rebind) is layered on top
of that identity.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BatchedInference,
    ContinualInference,
    ENGINES,
    EventHit,
    EventHitConfig,
    EventHitOutput,
    make_engine,
)
from repro.core.batched import rowstable_matmul

CONFIG = EventHitConfig(
    window_size=8,
    horizon=12,
    lstm_hidden=12,
    shared_hidden=(12,),
    head_hidden=(16,),
    dropout=0.2,  # must be ignored at inference time
    seed=3,
)

NUM_FEATURES = 5
NUM_EVENTS = 2
M = CONFIG.window_size


def make_model(encoder: str = "lstm") -> EventHit:
    # Random (untrained) weights: the equivalence pins are properties of
    # the forward pass, not of the fit.
    return EventHit(NUM_FEATURES, NUM_EVENTS, config=CONFIG, encoder=encoder)


def make_frames(length: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(length, NUM_FEATURES))


MODELS = {"lstm": make_model("lstm"), "gru": make_model("gru")}


def serve_stride1(engine, frames, key="s0", start=M - 1, stop=None):
    """Stride-1 ticks: window ending at each frame from ``start`` on."""
    stop = len(frames) if stop is None else stop
    outs = []
    for end in range(start, stop):
        window = frames[end - M + 1 : end + 1][None]
        outs.append(engine.update(window, [key], [end]))
    return outs


class TestWarmupAlignedEquivalence:
    @pytest.mark.parametrize("encoder", ["lstm", "gru"])
    def test_stride1_equals_windowed_over_growing_prefix(self, encoder):
        model = MODELS[encoder]
        windowed = BatchedInference(model)
        continual = ContinualInference(model)
        frames = make_frames(2 * M + 6, seed=1)
        for end in range(M - 1, len(frames)):
            got = continual.update(frames[end - M + 1 : end + 1][None], ["s0"], [end])
            want = windowed.predict(frames[: end + 1][None])
            assert np.array_equal(want.scores, got.scores), end
            assert np.array_equal(want.frame_scores, got.frame_scores), end

    @pytest.mark.parametrize("encoder", ["lstm", "gru"])
    def test_non_overlapping_windows_byte_identical_to_windowed(self, encoder):
        # stride >= window (the repo's default horizon/window geometry):
        # every tick warms up, so the engines must agree bitwise per tick.
        model = MODELS[encoder]
        windowed = BatchedInference(model)
        continual = ContinualInference(model)
        frames = make_frames(5 * M, seed=2)
        for end in (M - 1, 2 * M + 1, 4 * M - 1):
            window = frames[end - M + 1 : end + 1][None]
            got = continual.update(window, ["s0"], [end])
            want = windowed.predict(window)
            assert np.array_equal(want.scores, got.scores)
            assert np.array_equal(want.frame_scores, got.frame_scores)

    def test_partial_overlap_steps_only_new_frames(self):
        # stride 3 against a window of 8: the carried state must land on
        # the same bits as a whole-prefix windowed forward.
        model = MODELS["lstm"]
        windowed = BatchedInference(model)
        continual = ContinualInference(model)
        frames = make_frames(M + 9, seed=3)
        for end in (M - 1, M + 2, M + 5, M + 8):
            got = continual.update(frames[end - M + 1 : end + 1][None], ["s0"], [end])
            want = windowed.predict(frames[: end + 1][None])
            assert np.array_equal(want.scores, got.scores), end

    def test_mixed_batch_rows_independent(self):
        # One update can warm lane A up while stepping lane B; each row
        # must match its own solo history bitwise (batch invariance).
        model = MODELS["lstm"]
        windowed = BatchedInference(model)
        continual = ContinualInference(model)
        frames = make_frames(M + 12, seed=4)
        continual.update(frames[4 : 4 + M][None], ["b"], [M + 3])
        out = continual.update(
            np.stack([frames[0:M], frames[5 : 5 + M]]), ["a", "b"], [M - 1, M + 4]
        )
        assert np.array_equal(
            out.scores[0], windowed.predict(frames[0:M][None]).scores[0]
        )
        assert np.array_equal(
            out.scores[1], windowed.predict(frames[4 : M + 5][None]).scores[0]
        )

    def test_step_matches_cell_reference(self):
        # The prepared-weight fast step against the cell's plain-formula
        # step (different tanh formulation, so near-ulp, not bitwise).
        model = MODELS["lstm"]
        continual = ContinualInference(model)
        frames = make_frames(M + 1, seed=5)
        continual.update(frames[:M][None], ["s0"], [M - 1])
        out = continual.update(frames[1 : M + 1][None], ["s0"], [M])
        cell = model.encoder.cell
        h = np.zeros((1, cell.hidden_size))
        c = np.zeros((1, cell.hidden_size))
        for t in range(M + 1):
            h, c = cell.step_numpy(frames[t : t + 1], h, c)
        want = EventHitOutput.from_logits(
            BatchedInference(model)._head_logits(h, frames[M : M + 1])
        ).scores[0]
        np.testing.assert_allclose(out.scores[0], want, rtol=1e-9)


class TestChangeGating:
    def test_static_frames_reuse_cached_scores(self):
        model = MODELS["lstm"]
        engine = ContinualInference(model, gate_delta=0.05)
        frames = make_frames(M, seed=6)
        first = engine.update(frames[None], ["s0"], [M - 1])
        # Next tick's new frame repeats the last consumed frame exactly.
        window = np.concatenate([frames[1:], frames[-1:]])[None]
        second = engine.update(window, ["s0"], [M])
        assert np.array_equal(first.scores, second.scores)
        assert np.array_equal(first.frame_scores, second.frame_scores)
        assert engine.gate_stats("s0") == (1, 1)

    def test_recall_preserved_at_tau_on_static_scene(self):
        # A static scene: every tick shows the same window, so the
        # windowed engine's scores — and any τ1 existence decision made
        # from them — are constant.  The gated engine serves the scene
        # from cache; its decisions must be the same ones.
        model = MODELS["lstm"]
        windowed = BatchedInference(model)
        engine = ContinualInference(model, gate_delta=0.05)
        window = np.tile(make_frames(1, seed=7), (M, 1))[None]
        want = windowed.predict(window)
        for tick in range(4):
            got = engine.update(window, ["s0"], [M - 1 + tick])
            assert np.array_equal(want.scores, got.scores), tick
        hits, computes = engine.gate_stats("s0")
        assert (hits, computes) == (3, 1)

    def test_zero_gate_fires_byte_identical_to_ungated(self):
        model = MODELS["lstm"]
        gated = ContinualInference(model, gate_delta=1e-12)
        plain = ContinualInference(model)
        frames = make_frames(M + 10, seed=8)
        for a, b in zip(serve_stride1(gated, frames), serve_stride1(plain, frames)):
            assert np.array_equal(a.scores, b.scores)
            assert np.array_equal(a.frame_scores, b.frame_scores)
        assert gated.gate_stats("s0")[0] == 0

    def test_score_error_bounded_by_delta(self):
        # Slowly drifting features under a loose gate: scores drift, but
        # shrinking delta must shrink (and at 0 eliminate) the error.
        model = MODELS["lstm"]
        windowed = BatchedInference(model)
        base = make_frames(M, seed=9)
        rng = np.random.default_rng(10)
        drifts = {}
        for delta in (0.0, 0.02, 0.2):
            engine = ContinualInference(model, gate_delta=delta)
            frames = base.copy()
            worst = 0.0
            engine.update(frames[None], ["s0"], [M - 1])
            prefix = [f for f in frames]
            for tick in range(10):
                nxt = prefix[-1] + rng.normal(scale=0.01, size=NUM_FEATURES)
                prefix.append(nxt)
                window = np.stack(prefix[-M:])[None]
                got = engine.update(window, ["s0"], [M + tick])
                want = windowed.predict(np.stack(prefix)[None])
                worst = max(worst, float(np.max(np.abs(want.scores - got.scores))))
            drifts[delta] = worst
        assert drifts[0.0] == 0.0
        assert drifts[0.02] <= drifts[0.2] + 1e-12


class TestLifecycleHooks:
    def test_reset_forces_fresh_warmup(self):
        model = MODELS["lstm"]
        windowed = BatchedInference(model)
        continual = ContinualInference(model)
        frames = make_frames(M + 6, seed=11)
        serve_stride1(continual, frames, stop=M + 3)
        assert continual.has_state("s0")
        continual.reset(["s0"])
        assert not continual.has_state("s0")
        end = M + 3
        window = frames[end - M + 1 : end + 1][None]
        got = continual.update(window, ["s0"], [end])
        # Post-reset the lane warms up on its window alone (no prefix).
        assert np.array_equal(windowed.predict(window).scores, got.scores)

    def test_reset_all_and_selective(self):
        model = MODELS["lstm"]
        continual = ContinualInference(model)
        frames = make_frames(M, seed=12)
        continual.update(np.stack([frames, frames]), ["a", "b"], [M - 1, M - 1])
        continual.reset(["a"])
        assert not continual.has_state("a") and continual.has_state("b")
        continual.reset()
        assert not continual.has_state("b")

    def test_rebind_swaps_model_and_drops_state(self):
        old = MODELS["lstm"]
        new = EventHit(NUM_FEATURES, NUM_EVENTS, config=CONFIG, encoder="lstm")
        engine = ContinualInference(old, gate_delta=0.07)
        frames = make_frames(M, seed=13)
        engine.update(frames[None], ["s0"], [M - 1])
        swapped = engine.rebind(new)
        assert type(swapped) is ContinualInference
        assert swapped.model is new
        assert swapped.gate_delta == 0.07
        assert not swapped.has_state("s0")
        got = swapped.update(frames[None], ["s0"], [M - 1])
        want = BatchedInference(new).predict(frames[None])
        assert np.array_equal(want.scores, got.scores)

    def test_windowed_rebind_stays_windowed(self):
        model = MODELS["lstm"]
        engine = BatchedInference(model)
        assert type(engine.rebind(model)) is BatchedInference


class TestValidationAndRegistry:
    def test_mean_encoder_rejected(self):
        model = EventHit(NUM_FEATURES, NUM_EVENTS, config=CONFIG, encoder="mean")
        with pytest.raises(ValueError, match="recurrent encoder"):
            ContinualInference(model)

    def test_negative_gate_delta_rejected(self):
        with pytest.raises(ValueError, match="gate_delta"):
            ContinualInference(MODELS["lstm"], gate_delta=-0.1)

    def test_shape_validation(self):
        engine = ContinualInference(MODELS["lstm"])
        with pytest.raises(ValueError, match="windows, keys"):
            engine.update(np.zeros((2, M, NUM_FEATURES)), ["only-one"], [M - 1])
        with pytest.raises(ValueError, match="expected D="):
            engine.update(np.zeros((1, M, NUM_FEATURES + 1)), ["s0"], [M - 1])
        with pytest.raises(ValueError, match="expected \\(B, M, D\\)"):
            engine.update(np.zeros((M, NUM_FEATURES)), ["s0"], [M - 1])

    def test_make_engine_registry(self):
        model = MODELS["lstm"]
        assert type(make_engine("windowed", model)) is BatchedInference
        continual = make_engine("continual", model)
        assert type(continual) is ContinualInference
        assert continual.gate_delta is None
        gated = make_engine("gated", model)
        assert gated.gate_delta == 0.05  # documented default
        assert make_engine("gated", model, gate_delta=0.2).gate_delta == 0.2
        with pytest.raises(ValueError, match="engine must be one of"):
            make_engine("batched", model)
        assert ENGINES == ("windowed", "continual", "gated")


class TestEquivalenceProperty:
    """Satellite pin: continual == windowed across random window sizes,
    warmup lengths, and mid-run state resets."""

    @given(
        window=st.integers(3, 10),
        warmup=st.integers(0, 6),
        ticks=st.integers(2, 8),
        reset_at=st.integers(0, 8),
        encoder=st.sampled_from(["lstm", "gru"]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_geometry_with_midrun_resets(
        self, window, warmup, ticks, reset_at, encoder, seed
    ):
        config = EventHitConfig(
            window_size=window,
            horizon=5,
            lstm_hidden=6,
            shared_hidden=(6,),
            head_hidden=(8,),
            dropout=0.0,
            seed=17,
        )
        model = EventHit(3, 1, config=config, encoder=encoder)
        windowed = BatchedInference(model)
        continual = ContinualInference(model)
        frames = np.random.default_rng(seed).normal(
            size=(window + warmup + ticks, 3)
        )
        # ``anchor`` tracks the first frame the carried state has seen
        # since the last reset; the windowed reference spans [anchor, end].
        anchor = warmup
        for tick in range(ticks):
            end = window + warmup + tick - 1
            if tick == reset_at:
                continual.reset()
                anchor = end - window + 1
            win = frames[end - window + 1 : end + 1][None]
            got = continual.update(win, ["lane"], [end])
            want = windowed.predict(frames[anchor : end + 1][None])
            assert np.array_equal(want.scores, got.scores), (tick, end)
            assert np.array_equal(want.frame_scores, got.frame_scores), (tick, end)
