"""Tests for whole-model EventHit checkpointing."""

import json

import numpy as np
import pytest

from repro.core import (
    CheckpointError,
    EventHit,
    EventHitConfig,
    load_checkpoint,
    save_checkpoint,
)
from repro.core.checkpoint import _META_KEY
from tests.helpers import calibrated_classifier, engine_predict


def small_config(**kw):
    defaults = dict(
        window_size=5, horizon=12, lstm_hidden=8, shared_hidden=(8,),
        head_hidden=(8,), dropout=0.0, epochs=1, seed=3,
    )
    defaults.update(kw)
    return EventHitConfig(**defaults)


class TestCheckpointRoundtrip:
    def test_outputs_identical_after_roundtrip(self, tmp_path):
        model = EventHit(4, 2, config=small_config())
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        x = np.random.default_rng(0).normal(size=(6, 5, 4))
        np.testing.assert_allclose(
            engine_predict(model, x).scores, engine_predict(restored, x).scores
        )
        np.testing.assert_allclose(
            engine_predict(model, x).frame_scores,
            engine_predict(restored, x).frame_scores,
        )

    def test_architecture_restored(self, tmp_path):
        config = small_config(betas=(2.0, 1.0), gammas=(1.0, 3.0))
        model = EventHit(4, 2, config=config, encoder="gru")
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        assert restored.num_features == 4
        assert restored.num_events == 2
        assert restored.encoder_kind == "gru"
        assert restored.config.betas == (2.0, 1.0)
        assert restored.config.gammas == (1.0, 3.0)
        assert restored.config.horizon == 12

    def test_restored_model_in_eval_mode(self, tmp_path):
        model = EventHit(3, 1, config=small_config(dropout=0.3))
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        assert not restored.training
        x = np.zeros((2, 5, 3))
        np.testing.assert_allclose(
            engine_predict(restored, x).scores, engine_predict(restored, x).scores
        )

    def test_non_checkpoint_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ValueError, match="not an EventHit checkpoint"):
            load_checkpoint(path)

    def test_non_checkpoint_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_trained_model_survives(self, tmp_path):
        from repro.core import train_eventhit
        from tests.core.test_trainer import synthetic_records

        records = synthetic_records(b=48)
        config = EventHitConfig(
            window_size=6, horizon=16, lstm_hidden=8, shared_hidden=(8,),
            head_hidden=(8,), dropout=0.0, epochs=5, batch_size=16, seed=0,
        )
        model, _ = train_eventhit(records, config=config)
        path = tmp_path / "trained.npz"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        np.testing.assert_allclose(
            engine_predict(model, records.covariates).scores,
            engine_predict(restored, records.covariates).scores,
        )

    def test_checkpoint_usable_with_conformal(self, tmp_path):
        """Calibrating on a restored model must give identical predictions."""
        from repro.core import train_eventhit
        from tests.core.test_trainer import synthetic_records

        train = synthetic_records(b=64, seed=0)
        calib = synthetic_records(b=48, seed=1)
        config = EventHitConfig(
            window_size=6, horizon=16, lstm_hidden=8, shared_hidden=(8,),
            head_hidden=(8,), dropout=0.0, epochs=5, batch_size=16, seed=0,
        )
        model, _ = train_eventhit(train, config=config)
        path = tmp_path / "m.npz"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        a = calibrated_classifier(model, calib)
        b = calibrated_classifier(restored, calib)
        output_a = engine_predict(model, calib.covariates)
        output_b = engine_predict(restored, calib.covariates)
        np.testing.assert_allclose(a.p_values(output_a), b.p_values(output_b))


def _rewrite_checkpoint(src, dst, mutate):
    """Load ``src``'s raw entries, let ``mutate`` edit the dict, save ``dst``."""
    with np.load(src) as archive:
        payload = {name: archive[name] for name in archive.files}
    mutate(payload)
    np.savez(dst, **payload)


def _set_meta(payload, **updates):
    meta = json.loads(bytes(payload[_META_KEY].tobytes()).decode("utf-8"))
    meta.update(updates)
    payload[_META_KEY] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )


class TestCheckpointHardening:
    """A corrupted artifact must fail fast with CheckpointError — not load
    a half-broken model that serves NaN scores."""

    @pytest.fixture
    def checkpoint(self, tmp_path):
        model = EventHit(4, 2, config=small_config())
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        return path

    def test_checkpoint_error_is_value_error(self):
        assert issubclass(CheckpointError, ValueError)

    def test_unknown_format_version(self, checkpoint, tmp_path):
        bad = tmp_path / "future.npz"
        _rewrite_checkpoint(
            checkpoint, bad, lambda p: _set_meta(p, format_version=99)
        )
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(bad)

    def test_garbled_metadata(self, checkpoint, tmp_path):
        bad = tmp_path / "garbled.npz"

        def garble(payload):
            payload[_META_KEY] = np.frombuffer(
                b"\xff\xfe not json", dtype=np.uint8
            )

        _rewrite_checkpoint(checkpoint, bad, garble)
        with pytest.raises(CheckpointError, match="corrupted"):
            load_checkpoint(bad)

    def test_missing_parameter_tensor(self, checkpoint, tmp_path):
        bad = tmp_path / "missing.npz"

        def drop_one(payload):
            name = next(k for k in payload if k != _META_KEY)
            del payload[name]

        _rewrite_checkpoint(checkpoint, bad, drop_one)
        with pytest.raises(CheckpointError, match="architecture"):
            load_checkpoint(bad)

    def test_unexpected_parameter_tensor(self, checkpoint, tmp_path):
        bad = tmp_path / "extra.npz"
        _rewrite_checkpoint(
            checkpoint,
            bad,
            lambda p: p.__setitem__("rogue.weight", np.zeros(3)),
        )
        with pytest.raises(CheckpointError, match="architecture"):
            load_checkpoint(bad)

    def test_shape_mismatched_tensor(self, checkpoint, tmp_path):
        bad = tmp_path / "shape.npz"

        def reshape_one(payload):
            name = next(k for k in payload if k != _META_KEY)
            payload[name] = np.zeros(payload[name].size + 1)

        _rewrite_checkpoint(checkpoint, bad, reshape_one)
        with pytest.raises(CheckpointError, match="architecture"):
            load_checkpoint(bad)

    def test_non_finite_parameters(self, checkpoint, tmp_path):
        bad = tmp_path / "nan.npz"

        def poison_one(payload):
            name = next(k for k in payload if k != _META_KEY)
            value = payload[name].copy().ravel()
            value[0] = np.nan
            payload[name] = value.reshape(payload[name].shape)

        _rewrite_checkpoint(checkpoint, bad, poison_one)
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(bad)

    def test_invalid_config_metadata(self, checkpoint, tmp_path):
        bad = tmp_path / "config.npz"

        def break_config(payload):
            meta = json.loads(bytes(payload[_META_KEY].tobytes()).decode("utf-8"))
            meta["config"]["window_size"] = -5
            payload[_META_KEY] = np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8
            )

        _rewrite_checkpoint(checkpoint, bad, break_config)
        with pytest.raises(CheckpointError, match="metadata"):
            load_checkpoint(bad)

    def test_clean_checkpoint_still_loads(self, checkpoint):
        model = load_checkpoint(checkpoint)
        assert model.num_features == 4


class TestCrashSafety:
    """The atomic-write contract: a crash mid-save leaves either the
    previous checkpoint or nothing at the final path — never a torn file,
    and never a stray temp file."""

    def test_save_returns_final_path_with_extension(self, tmp_path):
        import os

        model = EventHit(4, 2, config=small_config())
        final = save_checkpoint(model, tmp_path / "model")
        assert final.endswith(".npz")
        assert os.path.exists(final)
        load_checkpoint(final)

    def test_crash_mid_write_leaves_no_file(self, tmp_path, monkeypatch):
        import os

        import repro.core.checkpoint as ckpt

        model = EventHit(4, 2, config=small_config())
        path = tmp_path / "model.npz"

        def torn_savez(fh, **payload):
            fh.write(b"PK\x03\x04 half an archive")
            raise RuntimeError("disk died mid-write")

        monkeypatch.setattr(ckpt.np, "savez", torn_savez)
        with pytest.raises(RuntimeError, match="disk died"):
            save_checkpoint(model, path)
        assert not os.path.exists(path)
        assert not os.path.exists(str(path) + ".tmp")

    def test_crash_mid_write_preserves_previous_checkpoint(
        self, tmp_path, monkeypatch
    ):
        import os

        import repro.core.checkpoint as ckpt

        old = EventHit(4, 2, config=small_config(seed=1))
        path = tmp_path / "model.npz"
        save_checkpoint(old, path)

        def torn_savez(fh, **payload):
            fh.write(b"\x00" * 64)
            raise RuntimeError("power loss")

        monkeypatch.setattr(ckpt.np, "savez", torn_savez)
        with pytest.raises(RuntimeError):
            save_checkpoint(EventHit(4, 2, config=small_config(seed=2)), path)
        assert not os.path.exists(str(path) + ".tmp")
        restored = load_checkpoint(path)
        x = np.random.default_rng(0).normal(size=(2, 5, 4))
        np.testing.assert_allclose(
            engine_predict(old, x).scores, engine_predict(restored, x).scores
        )

    def test_crash_at_rename_preserves_previous_checkpoint(
        self, tmp_path, monkeypatch
    ):
        import os

        old = EventHit(4, 2, config=small_config(seed=1))
        path = tmp_path / "model.npz"
        save_checkpoint(old, path)

        def refuse_replace(src, dst):
            raise OSError("rename interrupted")

        monkeypatch.setattr(os, "replace", refuse_replace)
        with pytest.raises(OSError, match="rename interrupted"):
            save_checkpoint(EventHit(4, 2, config=small_config(seed=2)), path)
        monkeypatch.undo()
        assert not os.path.exists(str(path) + ".tmp")
        restored = load_checkpoint(path)
        x = np.random.default_rng(0).normal(size=(2, 5, 4))
        np.testing.assert_allclose(
            engine_predict(old, x).scores, engine_predict(restored, x).scores
        )

    def test_successful_resave_replaces_atomically(self, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(EventHit(4, 2, config=small_config(seed=1)), path)
        new = EventHit(4, 2, config=small_config(seed=2))
        save_checkpoint(new, path)
        restored = load_checkpoint(path)
        x = np.random.default_rng(0).normal(size=(2, 5, 4))
        np.testing.assert_allclose(
            engine_predict(new, x).scores, engine_predict(restored, x).scores
        )
