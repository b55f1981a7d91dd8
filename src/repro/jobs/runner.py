"""Durable jobs: journaled, shard-backed, resumable engine runs.

A :class:`DurableJob` is what :func:`repro.core.parallel.quantize_layers`
(and :func:`~repro.core.model_quantizer.quantize_state_dict`,
``quantize_model`` and every zoo method) takes as ``job=``.  The engine
opens it before any layer runs and hands it each layer's final outcome the
moment the layer finishes; the job

1. writes the quantized tensor to a per-layer **shard** file under
   ``<job_dir>/shards/`` via :func:`repro.utils.atomic.atomic_savez`
   (atomic, checksummed, byte-deterministic), and
2. appends a checksummed ``layer-done`` record (or ``layer-failed`` for a
   degraded layer) to the job's JSONL journal, fsynced before the append
   returns.

On ``resume=True`` the journal is recovered (a torn tail from SIGKILL costs
at most one record), every journaled layer is loaded back from its shard —
checksum-verified twice: the journaled SHA-256 of the shard file, then,
read through :class:`~repro.core.npzmap.MmapNpzReader` with member CRCs
checked, the shard's own content checksum — and only the remaining layers
go through the engine.  Because each layer is a pure function of its
inputs and shards store full float64 precision, the merged result is
**bit-identical** to an uninterrupted run at any worker count: the
engine's determinism guarantee extended across process lifetimes.

Resume is refused (:class:`~repro.errors.JobStateError`) when the job
directory's fingerprint — jobs, method, threshold, validation, ``on_error``
— does not match the requested run; worker count and supervision knobs
(timeout, retries) are deliberately *not* fingerprinted, so a run may be
resumed with different parallelism or stricter deadlines.
"""

from __future__ import annotations

import dataclasses
import hashlib
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from repro.core.parallel import (
    JobRunner,
    LayerFailure,
    LayerJob,
    LayerOutcome,
    LayerRecord,
    QuantizationReport,
)
from repro.core.npzmap import MmapNpzReader
from repro.core.quantizer import GoboQuantizedTensor
from repro.core.serialization import CHECKSUM_KEY, payload_checksum, verify_payload
from repro.errors import ChecksumMismatchError, JobStateError, SerializationError
from repro.jobs.journal import JobJournal, canonical_record, read_journal
from repro.obs import recorder as obs
from repro.utils.atomic import atomic_savez

#: Subdirectory of a job dir holding the per-layer shard archives.
SHARD_DIR = "shards"
#: Shard format version (first element of the shard ``meta`` array).
SHARD_VERSION = 1


class ShardCorruptionWarning(UserWarning):
    """A journaled shard failed verification and its layer will requantize."""


# --------------------------------------------------------------------- shards

def shard_filename(name: str) -> str:
    """Collision-free file name for a layer shard.

    The sanitized layer name keeps shards greppable; the digest suffix keeps
    distinct layers distinct even when sanitization collides.
    """
    safe = "".join(c if (c.isalnum() or c in "-_.") else "_" for c in name)
    digest = hashlib.sha256(name.encode("utf-8")).hexdigest()[:10]
    return f"{safe[:80]}-{digest}.npz"


def save_shard(
    job_dir: Path, name: str, tensor: GoboQuantizedTensor, iterations: int
) -> tuple[str, str, int]:
    """Atomically write one layer's shard; returns (relpath, sha256, bytes).

    Shards store centroids and outliers at float64 — unlike the final
    archive's float32 — so a tensor loaded back from a shard is *bit-exact*
    equal to the freshly quantized one, which is what makes a resumed run's
    final archive byte-identical to an uninterrupted run's.
    """
    shard_dir = job_dir / SHARD_DIR
    shard_dir.mkdir(parents=True, exist_ok=True)
    relpath = f"{SHARD_DIR}/{shard_filename(name)}"
    payload: dict[str, np.ndarray] = {
        "codes": np.frombuffer(tensor.packed_codes, dtype=np.uint8),
        "centroids": np.asarray(tensor.centroids, dtype=np.float64),
        "positions": np.asarray(tensor.outlier_positions, dtype=np.int64),
        "outliers": np.asarray(tensor.outlier_values, dtype=np.float64),
        "meta": np.array(
            [SHARD_VERSION, tensor.bits, iterations, *tensor.shape], dtype=np.int64
        ),
        "name": np.array([name], dtype=np.str_),
    }
    payload[CHECKSUM_KEY] = np.frombuffer(payload_checksum(payload), dtype=np.uint8)
    size = atomic_savez(job_dir / relpath, payload)
    sha = hashlib.sha256((job_dir / relpath).read_bytes()).hexdigest()
    obs.counter("job.shard_bytes_written", size)
    return relpath, sha, size


def load_shard(path: Path) -> tuple[str, GoboQuantizedTensor, int]:
    """Load and checksum-verify one shard; returns (name, tensor, iterations)."""
    with MmapNpzReader(path, verify=True) as reader:
        arrays = {key: reader.read(key) for key in reader.keys()}
        verify_payload(arrays, f"shard {path}")
        meta = arrays["meta"]
        version, bits, iterations, shape = (
            int(meta[0]), int(meta[1]), int(meta[2]), tuple(int(d) for d in meta[3:]),
        )
        if version != SHARD_VERSION:
            raise SerializationError(
                f"shard {path} has version {version}; this reader supports {SHARD_VERSION}"
            )
        tensor = GoboQuantizedTensor(
            shape=shape,
            bits=bits,
            centroids=arrays["centroids"].astype(np.float64),
            packed_codes=arrays["codes"].tobytes(),
            outlier_positions=arrays["positions"].astype(np.int64),
            outlier_values=arrays["outliers"].astype(np.float64),
        )
        return str(arrays["name"][0]), tensor, iterations


# ---------------------------------------------------------------- fingerprint

def _job_entry(job: LayerJob) -> list:
    # Jobs without a per-layer method override keep the historical
    # two-element encoding, so fingerprints of pre-existing job dirs are
    # unchanged and remain resumable.
    if job.method is None:
        return [job.name, job.bits]
    return [job.name, job.bits, job.method]


def job_fingerprint(
    jobs: Iterable[LayerJob],
    method: str,
    log_prob_threshold: float,
    validation: str,
    on_error: str,
    max_iterations: int,
    extra: Mapping[str, object] | None = None,
    aux: Mapping[str, np.ndarray] | None = None,
) -> str:
    """SHA-256 over everything that determines the run's output bytes.

    Worker count and supervision settings (timeout, retry budget) are
    excluded on purpose: they cannot change the output, so a job may be
    resumed under different parallelism or deadlines.  ``aux`` side data
    (per-layer method inputs such as GWQ saliency masks) *does* determine
    output bytes, so its content is digested in — but only when present,
    keeping fingerprints of aux-free jobs stable across versions.
    """
    record = {
        "jobs": [_job_entry(job) for job in jobs],
        "method": method,
        "log_prob_threshold": float(log_prob_threshold),
        "validation": validation,
        "on_error": on_error,
        "max_iterations": int(max_iterations),
        "extra": dict(sorted((extra or {}).items())),
    }
    if aux:
        record["aux"] = {
            name: hashlib.sha256(
                np.ascontiguousarray(np.asarray(value)).tobytes()
            ).hexdigest()
            for name, value in sorted(aux.items())
        }
    return hashlib.sha256(canonical_record(record).encode("utf-8")).hexdigest()


def _record_to_dict(record: LayerRecord) -> dict:
    return {
        "name": record.name,
        "bits": record.bits,
        "seconds": record.seconds,
        "iterations": record.iterations,
        "converged": record.converged,
        "outlier_fraction": record.outlier_fraction,
        "original_bytes": record.original_bytes,
        "compressed_bytes": record.compressed_bytes,
    }


def _failure_to_dict(failure: LayerFailure) -> dict:
    return {
        "name": failure.name,
        "bits": failure.bits,
        "action": failure.action,
        "error_type": failure.error_type,
        "message": failure.message,
        "attempts": list(failure.attempts),
        "recovered_bits": failure.recovered_bits,
        "resolution": failure.resolution,
        "transient_retries": failure.transient_retries,
    }


def _failure_from_dict(data: Mapping) -> LayerFailure:
    return LayerFailure(
        name=data["name"],
        bits=int(data["bits"]),
        action=data["action"],
        error_type=data["error_type"],
        message=data["message"],
        attempts=tuple(int(b) for b in data.get("attempts", ())),
        recovered_bits=data.get("recovered_bits"),
        resolution=data.get("resolution", ""),
        transient_retries=int(data.get("transient_retries", 0)),
    )


# -------------------------------------------------------------------- running

class DurableJob:
    """One job directory, passed to the engine as ``job=`` (module docstring).

    Construction touches nothing on disk.  The engine calls :meth:`open`
    once its settings are resolved, :meth:`record` with each finished
    layer, and :meth:`close` when the run returns.  ``fingerprint_extra``
    folds caller context (e.g. the CLI's model config and seed) into the
    fingerprint.
    """

    def __init__(
        self,
        job_dir: str | Path,
        resume: bool = False,
        fingerprint_extra: Mapping[str, object] | None = None,
    ):
        self.job_dir = Path(job_dir)
        self.resume = resume
        self.fingerprint_extra = fingerprint_extra
        self.journal = JobJournal(self.job_dir)
        self._had_complete = False

    def open(self, jobs: list[LayerJob], runner: JobRunner) -> dict[str, LayerOutcome]:
        """Start or resume the journal; returns journaled outcomes by layer.

        Raises :class:`~repro.errors.JobStateError` when layer names repeat,
        when the directory journals a different job, or when it journals
        anything while ``resume`` is False.
        """
        names = [job.name for job in jobs]
        if len(set(names)) != len(names):
            raise JobStateError("durable jobs require unique layer names")
        params = {
            "method": runner.method,
            "log_prob_threshold": float(runner.log_prob_threshold),
            "validation": runner.validation,
            "on_error": runner.on_error,
            "max_iterations": int(runner.max_iterations),
        }
        fingerprint = job_fingerprint(
            jobs, **params, extra=self.fingerprint_extra, aux=runner.aux
        )
        journal = self.journal
        existing = journal.recover() if journal.exists() else None
        if existing is None or not existing.records:
            journal.append(
                {
                    "type": "job-meta",
                    "version": 1,
                    "fingerprint": fingerprint,
                    "jobs": [_job_entry(job) for job in jobs],
                    "params": params,
                    "extra": dict(sorted((self.fingerprint_extra or {}).items())),
                }
            )
            return {}
        if not self.resume:
            raise JobStateError(
                f"{journal.path} already journals {len(existing.records)} record(s); "
                f"pass resume=True (--resume) to continue it, or use a fresh job dir"
            )
        meta = existing.meta
        if meta is None:
            raise JobStateError(f"{journal.path} has no job-meta record; cannot resume")
        if meta.get("fingerprint") != fingerprint:
            raise JobStateError(
                f"{journal.path} was written by a different job "
                f"(fingerprint {str(meta.get('fingerprint'))[:12]}… != requested "
                f"{fingerprint[:12]}…); same layers, bits, method, threshold, "
                f"validation and on_error are required to resume"
            )
        self._had_complete = bool(existing.of_type("complete"))
        by_name = {job.name: job for job in jobs}
        done: dict[str, LayerOutcome] = {}
        with obs.span("job.resume", job_dir=str(self.job_dir)):
            for record in existing.of_type("layer-done"):
                name = record["name"]
                if name not in by_name:
                    continue
                shard_path = self.job_dir / record["shard"]
                try:
                    if not shard_path.exists():
                        raise SerializationError(f"shard {shard_path} is missing")
                    actual_sha = hashlib.sha256(shard_path.read_bytes()).hexdigest()
                    if actual_sha != record.get("shard_sha256"):
                        raise ChecksumMismatchError(
                            f"shard {shard_path} does not match its journaled SHA-256"
                        )
                    shard_name, tensor, _ = load_shard(shard_path)
                    if shard_name != name:
                        raise SerializationError(
                            f"shard {shard_path} holds layer {shard_name!r}, "
                            f"journal says {name!r}"
                        )
                except (SerializationError, OSError) as exc:
                    warnings.warn(
                        f"journaled shard for layer {name!r} failed verification "
                        f"({exc}); the layer will be requantized",
                        ShardCorruptionWarning,
                        stacklevel=2,
                    )
                    obs.counter("job.shard_requantized", layer=name)
                    continue
                done[name] = LayerOutcome(
                    by_name[name], tensor, LayerRecord(**record["record"])
                )
            # Journaled failures are final; a layer recovered wider has both
            # records and is one resumed layer.
            for record in existing.of_type("layer-failed"):
                failure = _failure_from_dict(record["failure"])
                name = failure.name
                if name in by_name:
                    outcome = done.get(name, LayerOutcome(by_name[name]))
                    done[name] = dataclasses.replace(outcome, failure=failure)
        obs.counter("job.resumed_layers", len(done))
        return done

    def record(self, outcome: LayerOutcome) -> None:
        """Journal one finished layer: shard first, then the record pointing
        at it — a crash between the two costs only a re-quantization."""
        if outcome.tensor is not None and outcome.record is not None:
            relpath, sha, size = save_shard(
                self.job_dir,
                outcome.record.name,
                outcome.tensor,
                outcome.record.iterations,
            )
            self.journal.append(
                {
                    "type": "layer-done",
                    "name": outcome.record.name,
                    "bits": outcome.job.bits,
                    "shard": relpath,
                    "shard_sha256": sha,
                    "size": size,
                    "record": _record_to_dict(outcome.record),
                }
            )
        if outcome.failure is not None:
            self.journal.append(
                {"type": "layer-failed", "failure": _failure_to_dict(outcome.failure)}
            )

    def close(self, report: QuantizationReport) -> None:
        """Write the run's closing record: ``interrupted`` or ``complete``."""
        if report.interrupted:
            self.journal.append(
                {"type": "interrupted", "pending": list(report.pending)}
            )
        elif not self._had_complete:
            self.journal.append(
                {
                    "type": "complete",
                    "layers": len(report.layers),
                    "failures": len(report.failures),
                }
            )


# --------------------------------------------------------------------- status

@dataclass
class JobStatus:
    """What the journal says about a job directory (see :func:`job_status`)."""

    job_dir: Path
    fingerprint: str | None
    jobs: list[tuple[str, int]] = field(default_factory=list)
    completed: list[str] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)
    complete: bool = False
    interruptions: int = 0
    intact: bool = True
    journal_bytes: int = 0
    records: int = 0

    @property
    def pending(self) -> list[str]:
        done = set(self.completed) | set(self.failed)
        return [name for name, _bits in self.jobs if name not in done]

    @property
    def state(self) -> str:
        if self.complete:
            return "complete"
        if self.interruptions:
            return "interrupted"
        return "incomplete"


def job_status(job_dir: str | Path) -> JobStatus:
    """Summarize a job directory from its journal alone (no shard reads)."""
    job_dir = Path(job_dir)
    journal_path = JobJournal(job_dir).path
    if not journal_path.exists():
        raise JobStateError(f"no journal at {journal_path}; not a job directory?")
    result = read_journal(journal_path)
    meta = result.meta
    return JobStatus(
        job_dir=job_dir,
        fingerprint=None if meta is None else meta.get("fingerprint"),
        jobs=[(name, int(bits)) for name, bits, *_ in (meta or {}).get("jobs", [])],
        completed=[r["name"] for r in result.of_type("layer-done")],
        failed={
            r["failure"]["name"]: r["failure"]["action"]
            for r in result.of_type("layer-failed")
        },
        complete=bool(result.of_type("complete")),
        interruptions=len(result.of_type("interrupted")),
        intact=result.intact,
        journal_bytes=journal_path.stat().st_size,
        records=len(result.records),
    )


def render_status(status: JobStatus) -> str:
    """Human-readable status block for ``repro jobs status``."""
    lines = [
        f"job dir:    {status.job_dir}",
        f"journal:    {status.records} record(s), {status.journal_bytes} bytes"
        + ("" if status.intact else " (torn tail: will be recovered on resume)"),
        f"fingerprint: {(status.fingerprint or '?')[:16]}…",
        f"state:      {status.state}"
        + (f" ({status.interruptions} interruption(s))" if status.interruptions else ""),
        f"layers:     {len(status.jobs)} total, {len(status.completed)} completed, "
        f"{len(status.failed)} failed, {len(status.pending)} pending",
    ]
    if status.failed:
        lines.append(
            "failed:     "
            + ", ".join(f"{name} [{action}]" for name, action in status.failed.items())
        )
    if status.pending:
        shown = status.pending[:8]
        suffix = "" if len(status.pending) <= 8 else f", … +{len(status.pending) - 8}"
        lines.append("pending:    " + ", ".join(shown) + suffix)
    return "\n".join(lines)
