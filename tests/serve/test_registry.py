"""ModelRegistry: lazy loading, leases, hot-swap drain discipline."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.errors import ModelNotFoundError, SerializationError, ServeError
from repro.serve import ModelRegistry
from tests.conftest import MICRO_CONFIG


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture
def registry(micro_archive):
    registry = ModelRegistry()
    registry.register("micro", micro_archive, config=MICRO_CONFIG)
    yield registry
    registry.close()


class TestRegister:
    def test_entry_metadata(self, registry, micro_archive):
        entry = registry.get("micro")
        assert entry.version == 1
        assert entry.config_name == "micro"
        assert entry.path == micro_archive
        assert entry.vocab_size == MICRO_CONFIG.vocab_size
        assert entry.max_position == MICRO_CONFIG.max_position
        assert registry.names() == ["micro"]

    def test_forward_matches_direct_attach(self, registry, micro_archive):
        from repro.core.serialization import load_quantized_model
        from repro.models import build_model
        from repro.models.quantized import attach_quantized_linears

        reference = attach_quantized_linears(
            build_model(MICRO_CONFIG, task="encoder", rng=0),
            load_quantized_model(micro_archive),
        )
        input_ids = np.array([[1, 2, 3, 4, 5]])
        with registry.lease("micro") as entry:
            _, pooled = entry.model(input_ids)
        _, expected = reference(input_ids)
        np.testing.assert_allclose(pooled.data, expected.data, rtol=1e-12, atol=1e-12)

    def test_register_draws_no_weight(self, micro_archive, monkeypatch):
        """Attach replaces every weight, so the build draws none; the served
        forward is bit-identical to attaching onto a drawn model."""
        from repro.core.serialization import load_quantized_model
        from repro.models import build_model
        from repro.models.quantized import attach_quantized_linears

        reference = attach_quantized_linears(
            build_model(MICRO_CONFIG, task="encoder", rng=0),
            load_quantized_model(micro_archive),
        )

        def no_draws(rng):
            raise AssertionError("register drew a random weight")

        monkeypatch.setattr("repro.nn.init.ensure_rng", no_draws)
        registry = ModelRegistry()
        try:
            entry = registry.register("micro", micro_archive, config=MICRO_CONFIG)
            input_ids = np.array([[1, 2, 3, 4, 5], [6, 7, 8, 0, 0]])
            np.testing.assert_array_equal(
                entry.model(input_ids)[1].data, reference(input_ids)[1].data)
        finally:
            registry.close()

    def test_register_decodes_nothing(self, micro_archive):
        """The embedding tables stay compressed too: loading a model makes
        no dequantize call, and its load span reports its resident bytes."""
        from repro import obs

        registry = ModelRegistry()
        try:
            with obs.scope() as trace:
                entry = registry.register("micro", micro_archive, config=MICRO_CONFIG)
        finally:
            registry.close()
        names = [event["name"] for event in trace.events]
        assert "quantizer.dequantize_calls" not in names
        (load,) = [event for event in trace.events
                   if event["event"] == "span" and event["name"] == "serve.model_load"]
        assert load["attrs"]["resident_bytes"] == entry.resident_bytes > 0
        assert entry.describe()["resident_bytes"] == entry.resident_bytes

    def test_unknown_model(self, registry):
        with pytest.raises(ModelNotFoundError, match="nope"):
            registry.get("nope")
        with pytest.raises(ModelNotFoundError):
            registry.reload("nope")

    def test_missing_archive(self, tmp_path):
        registry = ModelRegistry()
        with pytest.raises((SerializationError, OSError)):
            registry.register("ghost", tmp_path / "missing.npz", config=MICRO_CONFIG)

    def test_describe_is_json_ready(self, registry):
        import json

        description = registry.describe()
        assert json.loads(json.dumps(description)) == description
        assert description["micro"]["version"] == 1


class TestHotSwap:
    def test_reload_bumps_version(self, registry):
        entry = registry.reload("micro")
        assert entry.version == 2
        assert registry.get("micro") is entry

    def test_inflight_lease_survives_reload(self, registry):
        """The hot-swap contract: a leased (in-flight) entry keeps working
        after the registry pointer moves, and only closes when released."""
        with registry.lease("micro") as old:
            new = registry.reload("micro")
            assert registry.get("micro") is new
            # Old weights still compute mid-flight.
            _, pooled = old.model(np.array([[1, 2, 3]]))
            assert pooled.shape == (1, MICRO_CONFIG.hidden_size)
            assert old._retired and old._leases == 1
        # Lease released -> the retired entry's archive has closed.
        assert old.qmodel.quantized._reader._file.closed

    def test_reload_closes_unleased_old_entry(self, registry):
        old = registry.get("micro")
        registry.reload("micro")
        assert old.qmodel.quantized._reader._file.closed

    def test_retired_entry_rejects_new_leases(self, registry):
        old = registry.get("micro")
        registry.reload("micro")
        with pytest.raises(ServeError, match="retired"):
            old._acquire()

    def test_no_fd_growth_across_reloads(self, registry):
        """Repeated hot-swaps must not leak archive descriptors (the
        MmapNpzReader.close fd fix is what makes this hold)."""
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("needs /proc")
        input_ids = np.array([[1, 2, 3, 4]])
        for _ in range(2):  # warm every lazy path before measuring
            with registry.lease("micro") as entry:
                entry.model(input_ids)
            registry.reload("micro")
        baseline = open_fds()
        for _ in range(6):
            with registry.lease("micro") as entry:
                entry.model(input_ids)
            registry.reload("micro")
        assert open_fds() <= baseline

    def test_failed_reload_keeps_old_entry(self, registry, micro_archive, monkeypatch):
        old = registry.get("micro")
        monkeypatch.setattr(
            "repro.serve.registry._build_entry",
            lambda *a, **k: (_ for _ in ()).throw(SerializationError("boom")),
        )
        with pytest.raises(SerializationError):
            registry.reload("micro")
        assert registry.get("micro") is old
        _, pooled = old.model(np.array([[5, 6]]))
        assert pooled.shape == (1, MICRO_CONFIG.hidden_size)


class TestConfigInference:
    def test_micro_archive_matches_no_preset(self, micro_archive):
        """The micro census is not a zoo preset; inference must say so
        rather than guess."""
        from repro.errors import ConfigError

        registry = ModelRegistry()
        with pytest.raises(ConfigError, match="no preset config"):
            registry.register("micro", micro_archive)

    def test_preset_archive_is_inferred(self, tmp_path):
        from repro.core.model_quantizer import quantize_model
        from repro.core.serialization import save_quantized_model
        from repro.models import build_model

        model = build_model("tiny-distilbert", task="encoder", rng=3)
        quantized = quantize_model(model, weight_bits=3, embedding_bits=None)
        path = tmp_path / "tiny-distilbert.npz"
        save_quantized_model(quantized, path)
        registry = ModelRegistry()
        try:
            entry = registry.register("auto", path)
            assert entry.config_name == "tiny-distilbert"
        finally:
            registry.close()


class TestLeaseRetireRace:
    def test_lease_retries_once_against_fresh_entry(self, registry, monkeypatch):
        """A reload can retire the entry between get() and acquire — a
        routine hot-swap.  The lease must retry once against the freshly
        swapped-in entry instead of failing the request."""
        stale = registry.get("micro")
        fresh = registry.reload("micro")  # retires `stale` (no leases held)
        calls = []
        real_get = registry.get

        def racy_get(name):
            calls.append(name)
            return stale if len(calls) == 1 else real_get(name)

        monkeypatch.setattr(registry, "get", racy_get)
        with registry.lease("micro") as entry:
            assert entry is fresh
        assert calls == ["micro", "micro"]

    def test_second_retirement_propagates(self, registry, monkeypatch):
        """Only one retry: a model that is genuinely gone (or raced twice)
        surfaces the ServeError instead of looping."""
        stale = registry.get("micro")
        registry.reload("micro")
        monkeypatch.setattr(registry, "get", lambda name: stale)
        with pytest.raises(ServeError, match="retired"):
            with registry.lease("micro"):
                pass
