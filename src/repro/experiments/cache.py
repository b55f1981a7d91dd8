"""On-disk cache for fine-tuned model checkpoints.

Fine-tuning the tiny evaluation models takes minutes on one CPU; every
benchmark that needs, say, "tiny-bert-base fine-tuned on MNLI" shares one
checkpoint through this cache.  Checkpoints are ``.npz`` state dicts keyed by
``(config, task, seed)`` and stored under the repository's ``.cache/``
directory (override with the ``REPRO_CACHE_DIR`` environment variable).

Durability: checkpoints are written atomically (tmp + fsync + rename via
:func:`repro.utils.atomic.atomic_savez`), so a crash mid-save can no longer
leave a truncated archive behind.  Loads read through
:class:`~repro.core.npzmap.MmapNpzReader` with member CRCs checked, and copy
the arrays out.  *Missing* and *corrupt* are distinct outcomes: a missing
checkpoint is the normal cold-cache case and returns ``None`` silently,
while a corrupt one (any typed read error) emits a
:class:`CacheCorruptionWarning` and is deleted so the next run re-fine-tunes
instead of re-hitting the same broken file forever.
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path

import numpy as np

from repro.core.npzmap import MmapNpzReader
from repro.errors import SerializationError
from repro.obs import recorder as obs
from repro.utils.atomic import atomic_savez


class CacheCorruptionWarning(UserWarning):
    """A cached checkpoint existed but could not be read and was deleted."""


def cache_dir() -> Path:
    """The checkpoint cache directory (created on demand)."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        path = Path(override)
    else:
        path = Path(__file__).resolve().parents[3] / ".cache" / "checkpoints"
    path.mkdir(parents=True, exist_ok=True)
    return path


def checkpoint_path(key: str) -> Path:
    """File path for a cache key (sanitized)."""
    safe = "".join(c if (c.isalnum() or c in "-_.") else "_" for c in key)
    if not safe:
        raise SerializationError("cache key is empty")
    return cache_dir() / f"{safe}.npz"


def save_state(key: str, state: dict[str, np.ndarray], scores: dict[str, float] | None = None):
    """Persist a state dict (and optional scalar metrics) under ``key``.

    The write is atomic: readers racing a save observe either the previous
    complete checkpoint or the new one, never a torn file.
    """
    payload = {f"param::{name}": value for name, value in state.items()}
    for name, value in (scores or {}).items():
        payload[f"score::{name}"] = np.float64(value)
    size = atomic_savez(checkpoint_path(key), payload)
    obs.counter("cache.saved")
    obs.counter("cache.bytes_written", size)


def _discard_corrupt(path: Path, reason: str) -> None:
    warnings.warn(
        f"cached checkpoint {path.name} is corrupt ({reason}); "
        f"deleting it so the next run re-fine-tunes",
        CacheCorruptionWarning,
        stacklevel=3,
    )
    try:
        path.unlink()
    except OSError:
        pass


def load_state(key: str) -> tuple[dict[str, np.ndarray], dict[str, float]] | None:
    """Load a cached state dict, or None if absent or corrupt.

    Absent is silent (a cold cache is normal); corrupt emits a
    :class:`CacheCorruptionWarning` naming the failure and deletes the file.
    """
    path = checkpoint_path(key)
    if not path.exists():
        obs.counter("cache.miss")
        return None
    # `cache.hit` / `cache.bytes_read` count *successful* loads only: a
    # checkpoint that fails to parse contributes `cache.corrupt_evict` and
    # nothing else, so hit-rate and read-volume metrics never include bytes
    # that were thrown away.
    try:
        with MmapNpzReader(path, verify=True) as reader:
            state = {
                key[len("param::"):]: np.array(reader.read(key))
                for key in reader.keys()
                if key.startswith("param::")
            }
            scores = {
                key[len("score::"):]: float(reader.read(key))
                for key in reader.keys()
                if key.startswith("score::")
            }
        if not state:
            raise SerializationError("archive holds no parameters")
        size = path.stat().st_size
    except (OSError, SerializationError) as exc:
        _discard_corrupt(path, str(exc))
        obs.counter("cache.corrupt_evict")
        return None
    obs.counter("cache.hit")
    obs.counter("cache.bytes_read", size)
    return state, scores
