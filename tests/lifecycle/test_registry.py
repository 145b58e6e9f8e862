"""Tests for the versioned model registry: crash-safe persistence,
manifest round-trip/corruption properties, and last-good fallback."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import EventHit, EventHitConfig
from repro.lifecycle import (
    LifecycleFaultInjector,
    LifecycleFaultPlan,
    ModelRegistry,
    ModelVersion,
    RegistryError,
    VERSION_STATUSES,
)
from repro.lifecycle.registry import _entries_checksum
from tests.helpers import engine_predict


def small_config(**kw):
    defaults = dict(
        window_size=5, horizon=12, lstm_hidden=8, shared_hidden=(8,),
        head_hidden=(8,), dropout=0.0, epochs=1, seed=3,
    )
    defaults.update(kw)
    return EventHitConfig(**defaults)


def tiny_model(seed=3):
    return EventHit(4, 2, config=small_config(seed=seed))


# ----------------------------------------------------------------------
# ModelVersion
# ----------------------------------------------------------------------
class TestModelVersion:
    def test_round_trip(self):
        entry = ModelVersion(3, "v0003.npz", "ab" * 32, status="good",
                             source="drift", tick=17, note="x")
        assert ModelVersion.from_dict(entry.to_dict()) == entry

    def test_unknown_fields_rejected(self):
        data = ModelVersion(1, "v0001.npz", "00" * 32).to_dict()
        data["extra"] = True
        with pytest.raises(ValueError, match="unknown"):
            ModelVersion.from_dict(data)

    def test_invalid_status_rejected(self):
        with pytest.raises(ValueError):
            ModelVersion(1, "v0001.npz", "00" * 32, status="shiny")

    def test_versions_start_at_one(self):
        with pytest.raises(ValueError):
            ModelVersion(0, "v0000.npz", "00" * 32)


# ----------------------------------------------------------------------
# Publish / load round-trip
# ----------------------------------------------------------------------
class TestPublishLoad:
    def test_publish_assigns_sequential_versions(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        first = registry.publish(tiny_model(1))
        second = registry.publish(tiny_model(2))
        assert (first.version, second.version) == (1, 2)
        assert first.status == "candidate"
        assert os.path.exists(registry.path_of(first))

    def test_loaded_model_predicts_identically(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        model = tiny_model()
        entry = registry.publish(model, status="good")
        restored = registry.load(entry.version)
        x = np.random.default_rng(0).normal(size=(3, 5, 4))
        np.testing.assert_allclose(
            engine_predict(model, x).scores, engine_predict(restored, x).scores
        )

    def test_load_default_serves_latest_good(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish(tiny_model(1), status="good")
        good = registry.publish(tiny_model(2), status="good")
        registry.publish(tiny_model(3))  # still a candidate
        assert registry.latest_good.version == good.version
        restored = registry.load()
        x = np.zeros((1, 5, 4))
        np.testing.assert_allclose(
            engine_predict(tiny_model(2), x).scores, engine_predict(restored, x).scores
        )

    def test_load_unknown_version_raises(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        with pytest.raises(RegistryError, match="no version"):
            registry.load(7)

    def test_no_good_version_raises(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish(tiny_model())
        with pytest.raises(RegistryError, match="no good version"):
            registry.load()

    def test_mark_transitions_and_persists(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        entry = registry.publish(tiny_model())
        registry.mark(entry.version, "good")
        reopened = ModelRegistry(tmp_path)
        assert reopened.get(entry.version).status == "good"

    def test_state_survives_reopen(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish(tiny_model(1), status="good", source="seed", tick=4)
        reopened = ModelRegistry(tmp_path)
        assert reopened.entries() == registry.entries()
        assert reopened.latest_version == 1


# ----------------------------------------------------------------------
# Corruption detection and fallback
# ----------------------------------------------------------------------
class TestCorruption:
    def test_torn_artifact_detected_and_quarantined(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        entry = registry.publish(tiny_model(), status="good")
        path = registry.path_of(entry)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) // 2)
        with pytest.raises(RegistryError, match="content verification"):
            registry.load(entry.version)
        assert registry.get(entry.version).status == "corrupt"

    def test_bitflip_detected_by_hash(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        entry = registry.publish(tiny_model(), status="good")
        path = registry.path_of(entry)
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0x01
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(RegistryError, match="content verification"):
            registry.load(entry.version)

    def test_load_last_good_walks_back_over_corrupt(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        keeper = registry.publish(tiny_model(1), status="good")
        broken = registry.publish(tiny_model(2), status="good")
        with open(registry.path_of(broken), "r+b") as fh:
            fh.truncate(10)
        entry, model = registry.load_last_good()
        assert entry.version == keeper.version
        assert registry.get(broken.version).status == "corrupt"
        x = np.zeros((1, 5, 4))
        np.testing.assert_allclose(
            engine_predict(tiny_model(1), x).scores, engine_predict(model, x).scores
        )

    def test_load_last_good_raises_when_all_corrupt(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        entry = registry.publish(tiny_model(), status="good")
        with open(registry.path_of(entry), "r+b") as fh:
            fh.truncate(4)
        with pytest.raises(RegistryError, match="no loadable good version"):
            registry.load_last_good()

    def test_injected_torn_write_caught_at_load(self, tmp_path):
        injector = LifecycleFaultInjector(
            LifecycleFaultPlan(torn_write_rate=1.0)
        )
        registry = ModelRegistry(tmp_path, injector=injector)
        entry = registry.publish(tiny_model())
        assert injector.stats.torn_writes == 1
        with pytest.raises(RegistryError):
            registry.load(entry.version)
        assert registry.get(entry.version).status == "corrupt"


# ----------------------------------------------------------------------
# Manifest corruption + backup recovery
# ----------------------------------------------------------------------
class TestManifestRecovery:
    def test_corrupt_manifest_recovers_from_backup(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish(tiny_model(1), status="good")
        registry.publish(tiny_model(2), status="good")
        with open(registry.manifest_path, "w", encoding="utf-8") as fh:
            fh.write("{ not json")
        reopened = ModelRegistry(tmp_path)
        assert reopened.manifest_recoveries == 1
        # The backup lags the final mutation by exactly one write.
        assert reopened.latest_version == 1
        entry, _ = reopened.load_last_good()
        assert entry.version == 1

    def test_recovery_heals_the_primary(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish(tiny_model(1), status="good")
        registry.publish(tiny_model(2), status="good")
        with open(registry.manifest_path, "w", encoding="utf-8") as fh:
            fh.write("garbage")
        ModelRegistry(tmp_path)
        healed = ModelRegistry(tmp_path)
        assert healed.manifest_recoveries == 0

    def test_checksum_mismatch_treated_as_corrupt(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish(tiny_model(1), status="good")
        registry.publish(tiny_model(2), status="good")
        with open(registry.manifest_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        data["entries"][0]["status"] = "candidate"  # tampered, checksum stale
        with open(registry.manifest_path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        reopened = ModelRegistry(tmp_path)
        assert reopened.manifest_recoveries == 1

    def test_corrupt_manifest_without_backup_raises(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish(tiny_model())
        # The very first commit has no prior manifest to back up.
        assert not os.path.exists(registry.backup_path)
        with open(registry.manifest_path, "w", encoding="utf-8") as fh:
            fh.write("junk")
        with pytest.raises(RegistryError, match="corrupt"):
            ModelRegistry(tmp_path)

    def test_fresh_directory_is_empty_registry(self, tmp_path):
        registry = ModelRegistry(tmp_path / "new")
        assert registry.entries() == []
        assert registry.latest_version is None


# ----------------------------------------------------------------------
# Hypothesis properties over the manifest
# ----------------------------------------------------------------------
entries_strategy = st.lists(
    st.builds(
        ModelVersion,
        version=st.integers(min_value=1, max_value=10**6),
        filename=st.from_regex(r"v[0-9]{4}\.npz", fullmatch=True),
        sha256=st.text(alphabet="0123456789abcdef", min_size=64, max_size=64),
        status=st.sampled_from(VERSION_STATUSES),
        source=st.sampled_from(["seed", "drift", "schedule"]),
        tick=st.integers(min_value=0, max_value=10**6),
        note=st.text(max_size=20),
    ),
    max_size=8,
)


class TestManifestProperties:
    # Hypothesis re-runs each test body many times against the same
    # function-scoped tmp_path, so every example gets its own fresh
    # registry root via mkdtemp.

    @settings(max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(entries=entries_strategy)
    def test_manifest_file_round_trip(self, tmp_path, entries):
        """Whatever entries are written, a reader gets them back exactly."""
        registry = ModelRegistry(tempfile.mkdtemp(dir=tmp_path))
        registry._entries = list(entries)
        registry._write_manifest_file(registry._entries)
        assert registry._parse_manifest(registry.manifest_path) == list(entries)

    @settings(max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        entries=entries_strategy,
        cut=st.integers(min_value=1, max_value=400),
    )
    def test_truncated_manifest_never_parses(self, tmp_path, entries, cut):
        """A torn manifest write is always detected, never half-read.

        Cutting only trailing whitespace leaves the JSON payload intact,
        so the parse may legitimately succeed — but then it must return
        exactly the committed entries, never a partial read.
        """
        registry = ModelRegistry(tempfile.mkdtemp(dir=tmp_path))
        registry._write_manifest_file(list(entries))
        size = os.path.getsize(registry.manifest_path)
        if cut >= size:
            cut = size - 1
        if cut <= 0:
            return
        with open(registry.manifest_path, "r+b") as fh:
            fh.truncate(cut)
        parsed = registry._parse_manifest(registry.manifest_path)
        assert parsed is None or parsed == list(entries)

    @settings(max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        entries=entries_strategy.filter(lambda e: len(e) > 0),
        flip=st.integers(min_value=0, max_value=10**9),
    )
    def test_bitflipped_manifest_never_parses(self, tmp_path, entries, flip):
        """Any single corrupted byte in the entries payload is caught by
        the self-checksum (or the JSON parse)."""
        registry = ModelRegistry(tempfile.mkdtemp(dir=tmp_path))
        registry._write_manifest_file(list(entries))
        raw = bytearray(open(registry.manifest_path, "rb").read())
        # Flip a byte inside the entries block, not the checksum field
        # itself (flipping the checksum is trivially caught; the
        # interesting property is that payload damage is too).
        start = raw.find(b'"entries"')
        end = raw.rfind(b'"format_version"')
        if end <= start:
            end = len(raw)
        idx = start + (flip % max(1, end - start))
        original = raw[idx]
        raw[idx] = original ^ 0x20
        if raw[idx : idx + 1].isspace() or bytes([original]).isspace():
            return  # whitespace flips can be JSON-neutral
        with open(registry.manifest_path, "wb") as fh:
            fh.write(bytes(raw))
        parsed = registry._parse_manifest(registry.manifest_path)
        assert parsed is None or parsed == list(entries)

    @settings(max_examples=50)
    @given(entries=st.lists(st.dictionaries(st.text(max_size=5), st.integers()), max_size=4))
    def test_checksum_is_deterministic_and_sensitive(self, entries):
        assert _entries_checksum(entries) == _entries_checksum(entries)
        tampered = entries + [{"x": 1}]
        assert _entries_checksum(tampered) != _entries_checksum(entries)
