"""The fused LSTM/BPTT fast path's behavioural contract.

Three pins (beyond the gradchecks in ``test_gradcheck.py``):

* the ``use_fused`` switch, the only way off the fused path;
* ``no_grad`` forwards are graph-free and bitwise equal to the fused
  training forward;
* a full ``train_eventhit`` run follows the same per-epoch loss
  trajectory on both paths (fixed seed, dropout off).
"""

import numpy as np
import pytest

from repro.core.config import EventHitConfig
from repro.core.trainer import train_eventhit
from repro.data.records import RecordSet
from repro.nn import (
    LSTM,
    GRU,
    Tensor,
    fused_enabled,
    lstm_fused,
    no_grad,
    total_loss,
    use_fused,
)
from repro.video.events import EventType

RNG = np.random.default_rng(11)


# ----------------------------------------------------------------------
# Switch
# ----------------------------------------------------------------------
class TestSwitch:
    def test_default_is_fused(self, monkeypatch):
        assert fused_enabled()
        # No environment variable switches the path; only use_fused does.
        monkeypatch.setenv("REPRO_NN_FUSED", "0")
        assert fused_enabled()

    def test_context_manager_nests_and_restores(self):
        with use_fused(False):
            assert not fused_enabled()
            with use_fused(True):
                assert fused_enabled()
            assert not fused_enabled()
        assert fused_enabled()

    def test_reference_path_builds_per_step_graph(self):
        lstm = LSTM(2, 3, rng=np.random.default_rng(0))
        x = Tensor(RNG.normal(size=(2, 4, 2)))
        with use_fused(True):
            fused_out = lstm(x)
        with use_fused(False):
            ref_out = lstm(x)
        # Fused: one node whose parents are the sequence + parameters.
        assert lstm.cell.weight_x in fused_out._parents
        # Reference: the output's parents are intermediate graph nodes,
        # not the parameters directly.
        assert lstm.cell.weight_x not in ref_out._parents


# ----------------------------------------------------------------------
# Graph-free no_grad forward
# ----------------------------------------------------------------------
class TestNoGradForward:
    def test_no_grad_is_graph_free_and_bitwise_equal(self):
        lstm = LSTM(3, 5, rng=np.random.default_rng(1))
        x = RNG.normal(size=(4, 6, 3))
        with use_fused(True):
            trained = lstm(Tensor(x))
            with no_grad():
                inference = lstm(Tensor(x))
        assert inference._parents == ()
        assert inference._backward is None
        assert not inference.requires_grad
        np.testing.assert_array_equal(trained.data, inference.data)

    def test_gru_no_grad_matches_reference_graph(self):
        gru = GRU(3, 4, rng=np.random.default_rng(2))
        x = RNG.normal(size=(2, 5, 3))
        with use_fused(False):
            reference = gru(Tensor(x))
        with use_fused(True), no_grad():
            fast = gru(Tensor(x))
        assert fast._parents == ()
        np.testing.assert_allclose(
            fast.data, reference.data, rtol=1e-12, atol=1e-12
        )

    def test_fused_output_does_not_alias_workspace(self):
        # The returned hidden state must survive the workspace pool
        # recycling its buffers into the next forward.
        lstm = LSTM(2, 3, rng=np.random.default_rng(3))
        x = RNG.normal(size=(2, 4, 2))
        with use_fused(True):
            first = lstm(Tensor(x, requires_grad=True))
            snapshot = first.data.copy()
            (first.sum()).backward()  # returns workspaces to the pool
            lstm(Tensor(RNG.normal(size=(2, 4, 2)), requires_grad=True))
        np.testing.assert_array_equal(first.data, snapshot)


# ----------------------------------------------------------------------
# Shape validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_rejects_bad_rank(self):
        lstm = LSTM(2, 3, rng=np.random.default_rng(0))
        cell = lstm.cell
        with pytest.raises(ValueError):
            lstm_fused(
                Tensor(np.zeros((2, 2))), cell.weight_x, cell.weight_h, cell.bias
            )

    def test_rejects_empty_sequence(self):
        lstm = LSTM(2, 3, rng=np.random.default_rng(0))
        cell = lstm.cell
        with pytest.raises(ValueError):
            lstm_fused(
                Tensor(np.zeros((2, 0, 2))),
                cell.weight_x,
                cell.weight_h,
                cell.bias,
            )

    def test_rejects_feature_mismatch(self):
        lstm = LSTM(2, 3, rng=np.random.default_rng(0))
        cell = lstm.cell
        with pytest.raises(ValueError):
            lstm_fused(
                Tensor(np.zeros((2, 4, 5))),
                cell.weight_x,
                cell.weight_h,
                cell.bias,
            )


# ----------------------------------------------------------------------
# Fused loss kernels agree with the op-by-op loss graph
# ----------------------------------------------------------------------
class TestFusedLosses:
    def test_total_loss_matches_reference(self):
        batch, events, horizon = 6, 2, 7
        scores_data = RNG.uniform(0.05, 0.95, size=(batch, events))
        frames_data = RNG.uniform(0.05, 0.95, size=(batch, events, horizon))
        labels = (RNG.random((batch, events)) < 0.5).astype(float)
        frame_targets = (RNG.random((batch, events, horizon)) < 0.3).astype(
            float
        )
        frame_targets *= labels[:, :, None]

        results = {}
        for fused in (True, False):
            scores = Tensor(scores_data.copy(), requires_grad=True)
            frames = Tensor(frames_data.copy(), requires_grad=True)
            with use_fused(fused):
                loss = total_loss(scores, frames, labels, frame_targets)
                loss.backward()
            results[fused] = (loss.item(), scores.grad, frames.grad)

        value_f, sg_f, fg_f = results[True]
        value_r, sg_r, fg_r = results[False]
        np.testing.assert_allclose(value_f, value_r, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(sg_f, sg_r, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(fg_f, fg_r, rtol=1e-10, atol=1e-12)


# ----------------------------------------------------------------------
# Pinned loss trajectory: full train_eventhit, both paths
# ----------------------------------------------------------------------
def _records(batch=24, events=2, window=6, channels=3, horizon=5, seed=0):
    rng = np.random.default_rng(seed)
    types = [EventType(f"e{i}", 4.0, 1.0) for i in range(events)]
    labels = (rng.random((batch, events)) < 0.5).astype(float)
    starts = np.zeros((batch, events), dtype=int)
    ends = np.zeros((batch, events), dtype=int)
    present = labels > 0
    starts[present] = rng.integers(1, horizon + 1, size=int(present.sum()))
    ends[present] = [rng.integers(s, horizon + 1) for s in starts[present]]
    return RecordSet(
        event_types=types,
        horizon=horizon,
        frames=np.arange(batch),
        covariates=rng.normal(size=(batch, window, channels)),
        labels=labels,
        starts=starts,
        ends=ends,
        censored=np.zeros((batch, events)),
    )


def test_train_eventhit_trajectory_is_path_independent():
    """Per-epoch train losses agree to 1e-8 between fused and reference
    paths (fixed seed, dropout disabled so both paths see identical
    randomness)."""
    records = _records()
    config = EventHitConfig(
        window_size=records.window_size,
        horizon=records.horizon,
        lstm_hidden=8,
        shared_hidden=(8,),
        head_hidden=(8,),
        dropout=0.0,
        epochs=3,
        batch_size=8,
        seed=13,
    )
    with use_fused(True):
        _, fused_history = train_eventhit(records, config=config)
    with use_fused(False):
        _, reference_history = train_eventhit(records, config=config)

    assert fused_history.epochs_run == reference_history.epochs_run == 3
    for fused_loss, ref_loss in zip(
        fused_history.train_losses, reference_history.train_losses
    ):
        assert abs(fused_loss - ref_loss) <= 1e-8, (
            fused_history.train_losses,
            reference_history.train_losses,
        )
