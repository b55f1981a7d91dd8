"""Multi-model registry: checksummed archives → live compressed models.

Each registered model is one :class:`ModelEntry`: a lazily-loaded
:class:`~repro.core.model_quantizer.QuantizedModel` (``verify="lazy"``, so
every archive member is CRC-checked on first touch) attached into a
:class:`~repro.models.bert.BertModel` via
:func:`~repro.models.quantized.attach_quantized_linears`.  Neither the
attach nor the request path calls ``dequantize()``: the FC layers compute
on their codes and the embedding tables gather their rows through lookup
kernels, so a loaded model keeps GOBO's codes resident, not float64
tables.  Each entry reports those bytes
(:func:`~repro.models.quantized.resident_bytes`) on its
``serve.model_load`` span and in ``/healthz``.

Hot-swap discipline (the part worth getting right):

* :meth:`ModelRegistry.lease` hands the batcher a refcounted entry.  The
  lease pins the entry's archive map for the duration of one batch.
* :meth:`ModelRegistry.reload` builds the *new* entry first (load errors
  leave the old model serving), then swaps the registry pointer atomically
  under the lock and retires the old entry.  Retired entries close their
  archive reader when the last lease drains — in-flight requests finish on
  the weights they started with, and the old file descriptor is released
  (not leaked) thanks to the unconditional close in
  :meth:`~repro.core.npzmap.MmapNpzReader.close`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.errors import ConfigError, ModelNotFoundError, ServeError
from repro.models import (
    available_configs,
    build_model,
    embedding_shapes,
    fc_layer_shapes,
    get_config,
)
from repro.models.quantized import attach_quantized_linears, resident_bytes
from repro.nn import init
from repro.obs import recorder as obs


@dataclass
class ModelEntry:
    """One servable model: archive + config + attached network."""

    name: str
    path: Path
    config: object  # the BertConfig the network was built from
    model: object  # BertModel with its quantized modules attached
    qmodel: object  # QuantizedModel (lazy; owns the archive reader)
    version: int  # reload generation, starting at 1
    resident_bytes: int  # kernel state + parameters the model keeps resident
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _leases: int = 0
    _retired: bool = False

    @property
    def config_name(self) -> str:
        return self.config.name

    @property
    def max_position(self) -> int:
        return self.config.max_position

    @property
    def vocab_size(self) -> int:
        return self.config.vocab_size

    @property
    def type_vocab_size(self) -> int:
        return self.config.type_vocab_size

    def _acquire(self) -> None:
        with self._lock:
            if self._retired:
                raise ServeError(f"model {self.name!r} entry is retired")
            self._leases += 1

    def _release(self) -> None:
        close = False
        with self._lock:
            self._leases -= 1
            close = self._retired and self._leases == 0
        if close:
            self._close()

    def _retire(self) -> None:
        close = False
        with self._lock:
            self._retired = True
            close = self._leases == 0
        if close:
            self._close()

    def _close(self) -> None:
        closer = getattr(self.qmodel.quantized, "close", None)
        if closer is not None:
            closer()
        obs.counter("serve.entries_closed", model=self.name)

    def describe(self) -> dict:
        """JSON-friendly summary for ``/healthz``."""
        return {
            "path": str(self.path),
            "config": self.config_name,
            "version": self.version,
            "max_position": self.max_position,
            "vocab_size": self.vocab_size,
            "resident_bytes": self.resident_bytes,
        }


def _archive_shape(qmodel, name: str) -> tuple[int, ...] | None:
    """Stored shape of parameter ``name``, wherever the archive keeps it."""
    if name in qmodel.quantized:
        return tuple(qmodel.quantized[name].shape)
    if name in qmodel.fp32:
        return tuple(qmodel.fp32[name].shape)
    return None


def _infer_config(qmodel) -> str:
    """Name the preset whose FC *and* embedding census matches the archive.

    FC shapes alone are ambiguous — BERT and RoBERTa variants share encoder
    geometry and differ only in vocabulary — so the embedding tables (which
    every archive carries, quantized or FP32 pass-through) break the tie.
    """
    for candidate in available_configs():
        expected_fc = dict(fc_layer_shapes(candidate))
        if set(expected_fc) != set(qmodel.fc_names):
            continue
        if any(
            _archive_shape(qmodel, name) not in (shape, None)
            for name, shape in expected_fc.items()
        ):
            continue
        if all(
            _archive_shape(qmodel, name) == shape
            for name, shape in embedding_shapes(candidate)
        ):
            return candidate
    raise ConfigError(
        "archive matches no preset config "
        f"({len(qmodel.fc_names)} FC layers); pass name=path:config explicitly"
    )


def _build_entry(name: str, path: Path, config,
                 version: int, verify: str, fault=None) -> ModelEntry:
    # Imported here, not at module top: serialization pulls in the archive
    # stack only when a model is actually registered.
    from repro.core.serialization import load_quantized_model

    if fault is not None:
        fault("load", (name,))
    with obs.span("serve.model_load", model=name, generation=version) as sp:
        qmodel = load_quantized_model(path, lazy=True, verify=verify)
        try:
            if config is None:
                config = get_config(_infer_config(qmodel))
            elif isinstance(config, str):
                config = get_config(config)
            # Attach replaces every weight, so none is drawn only to be
            # discarded (at BERT-base that is ~0.9 GB of float64).
            with init.skip_draws():
                model = build_model(config, task="encoder", rng=0)
            attach_quantized_linears(model, qmodel)
        except BaseException:
            # A failed build must not leak the archive reader the lazy load
            # just opened — close it before the error propagates (the entry
            # that would own it is never constructed).
            closer = getattr(qmodel.quantized, "close", None)
            if closer is not None:
                closer()
            raise
        resident = resident_bytes(model)
        sp.set(config=config.name, layers=len(qmodel.fc_names), resident_bytes=resident)
    return ModelEntry(
        name=name,
        path=Path(path),
        config=config,
        model=model,
        qmodel=qmodel,
        version=version,
        resident_bytes=resident,
    )


class ModelRegistry:
    """Named, hot-swappable collection of :class:`ModelEntry`."""

    def __init__(self, verify: str = "lazy", fault=None):
        self.verify = verify
        self.fault = fault  # fault injector, called as fault("load", (name,))
        self._lock = threading.Lock()
        self._entries: dict[str, ModelEntry] = {}

    # ------------------------------------------------------------- lifecycle
    def register(self, name: str, path: str | Path,
                 config=None) -> ModelEntry:
        """Load ``path`` and serve it as ``name``; replaces any prior entry.

        ``config`` is a zoo preset name, a ``BertConfig``, or ``None`` to
        infer the preset from the archive's FC census.
        """
        entry = _build_entry(name, Path(path), config, version=1,
                             verify=self.verify, fault=self.fault)
        with self._lock:
            previous = self._entries.get(name)
            if previous is not None:
                entry.version = previous.version + 1
            self._entries[name] = entry
        if previous is not None:
            previous._retire()
        obs.counter("serve.models_registered", model=name)
        return entry

    def reload(self, name: str) -> ModelEntry:
        """Re-read ``name``'s archive from disk and swap it in atomically.

        The new entry is fully built *before* the swap: a load failure
        (missing file, checksum mismatch, config drift) raises and the old
        model keeps serving.  In-flight leases on the old entry finish on
        the old weights; the old archive closes when they drain.
        """
        with self._lock:
            current = self._entries.get(name)
            if current is None:
                raise ModelNotFoundError(f"no model registered as {name!r}")
            path, config, version = current.path, current.config, current.version
        entry = _build_entry(name, path, config, version + 1, self.verify,
                             fault=self.fault)
        with self._lock:
            old = self._entries.get(name)
            self._entries[name] = entry
        if old is not None:
            old._retire()
        obs.counter("serve.reloads", model=name)
        return entry

    def close(self) -> None:
        """Retire every entry (archives close as their leases drain)."""
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            entry._retire()

    # --------------------------------------------------------------- access
    def get(self, name: str) -> ModelEntry:
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            known = ", ".join(sorted(self.names())) or "none"
            raise ModelNotFoundError(f"no model registered as {name!r}; known: {known}")
        return entry

    @contextmanager
    def lease(self, name: str) -> Iterator[ModelEntry]:
        """Pin ``name``'s current entry for the duration of the block.

        A concurrent reload can retire the entry between :meth:`get` and
        the acquire — a routine hot-swap, not a failure — so a retired
        entry is retried once against the freshly swapped-in one.  Only a
        second retirement in the same race window (or a genuinely removed
        model) propagates.
        """
        entry = self.get(name)
        try:
            entry._acquire()
        except ServeError:
            entry = self.get(name)
            entry._acquire()
        try:
            yield entry
        finally:
            entry._release()

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def describe(self) -> dict:
        with self._lock:
            entries = dict(self._entries)
        return {name: entry.describe() for name, entry in sorted(entries.items())}
