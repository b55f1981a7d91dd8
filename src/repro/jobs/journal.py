"""Checksummed JSONL journal: the durable record of a quantization job.

One journal line per event, append-only, fsynced per append
(:func:`repro.utils.atomic.durable_append`)::

    {"r": {<record>}, "sha256": "<hex digest of the canonical record>"}

The checksum covers the *canonical* JSON encoding of the record (sorted
keys, no whitespace), so the digest is stable regardless of how the line
itself was serialized.  Record types:

``job-meta``
    First line of a fresh journal: the job fingerprint, the ordered
    ``[name, bits]`` job list, and the engine parameters that affect output
    bytes.  Resume refuses to continue a journal whose fingerprint does not
    match the requested run.
``layer-done``
    One completed layer: its shard file (relative path), the SHA-256 of the
    shard's bytes, and the :class:`~repro.core.parallel.LayerRecord` fields.
``layer-failed``
    One degraded layer: the :class:`~repro.core.parallel.LayerFailure`
    fields.  Journaled failures are final on resume — re-running a
    deterministically failing layer would reproduce the same failure.
``interrupted`` / ``complete``
    Run lifecycle markers; ``interrupted`` lists the still-pending layers.
``lease`` / ``lease-broken``
    Written only by the process backend of earlier versions, which put a
    ``lease`` (worker id, pid, deadline) before every ``layer-done`` and a
    ``lease-broken`` after a worker death.  Nothing writes them now, and
    resume derives state from ``layer-done``/``layer-failed`` alone; they
    stay readable because :func:`decode_line` treats an unknown type as the
    end of the trusted prefix, so such a journal would otherwise read as
    its ``job-meta`` line and a resume would redo, and truncate, every
    journaled layer.

Reading is prefix-safe: :func:`read_journal` returns every record up to the
first unparseable or checksum-failing line and reports how many valid bytes
that prefix spans.  A torn tail (the expected after-effect of SIGKILL mid
append) therefore costs at most one record; the runner truncates the file
back to the valid prefix before appending again.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.errors import JobStateError
from repro.obs import recorder as obs
from repro.utils.atomic import durable_append

#: Journal file name inside a job directory.
JOURNAL_NAME = "journal.jsonl"
#: Journal format version, recorded in the ``job-meta`` line.
JOURNAL_VERSION = 1

RECORD_TYPES = (
    "job-meta",
    "layer-done",
    "layer-failed",
    "interrupted",
    "complete",
    # Read, never written: journals of the former process backend hold
    # them (module docstring).
    "lease",
    "lease-broken",
)


def canonical_record(record: dict) -> str:
    """Canonical JSON encoding of a record (sorted keys, no whitespace)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def record_checksum(record: dict) -> str:
    """SHA-256 hex digest of a record's canonical encoding."""
    return hashlib.sha256(canonical_record(record).encode("utf-8")).hexdigest()


def encode_line(record: dict) -> bytes:
    """One journal line for ``record``, checksum included, newline terminated."""
    if record.get("type") not in RECORD_TYPES:
        raise JobStateError(
            f"journal record type must be one of {RECORD_TYPES}, "
            f"got {record.get('type')!r}"
        )
    envelope = {"r": record, "sha256": record_checksum(record)}
    return (json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


def decode_line(line: bytes) -> dict | None:
    """Parse and verify one journal line; None when torn or corrupt.

    Any bytes at all give a record or None: ``ValueError`` covers bad UTF-8,
    bad JSON and integers past the interpreter's digit limit, and
    ``RecursionError`` covers nesting deeper than the parser's stack.
    """
    try:
        envelope = json.loads(line.decode("utf-8"))
        if not isinstance(envelope, dict):
            return None
        record = envelope.get("r")
        if not isinstance(record, dict) or record.get("type") not in RECORD_TYPES:
            return None
        if envelope.get("sha256") != record_checksum(record):
            return None
    except (ValueError, RecursionError):
        return None
    return record


@dataclass
class JournalReadResult:
    """What :func:`read_journal` recovered from a journal file.

    ``intact`` is False when the file held bytes past the last valid record
    — a torn tail from a crash mid-append, or corruption.  ``valid_bytes``
    is the length of the trusted prefix; appending safely requires
    truncating the file to it first (:meth:`JobJournal.recover` does).
    """

    records: list[dict] = field(default_factory=list)
    valid_bytes: int = 0
    intact: bool = True

    @property
    def meta(self) -> dict | None:
        """The ``job-meta`` record, or None for an empty/alien journal."""
        for record in self.records:
            if record.get("type") == "job-meta":
                return record
        return None

    def of_type(self, record_type: str) -> list[dict]:
        return [r for r in self.records if r.get("type") == record_type]


def read_journal(path: str | Path) -> JournalReadResult:
    """Read every trusted record of the journal at ``path``.

    Stops at the first line that fails to parse or verify; everything before
    it is returned and everything after it is untrusted (``intact=False``).
    A missing file reads as an empty, intact journal.
    """
    path = Path(path)
    result = JournalReadResult()
    if not path.exists():
        return result
    data = path.read_bytes()
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            # No terminator: a torn final line.
            result.intact = False
            return result
        line = data[offset:newline]
        if line.strip():
            record = decode_line(line)
            if record is None:
                result.intact = False
                return result
            result.records.append(record)
        offset = newline + 1
        result.valid_bytes = offset
    return result


class JobJournal:
    """Append-only writer for a job directory's journal.

    Every append is flushed and fsynced before returning, so a record that
    was written survives any crash after the call.  The ``job.journal_bytes``
    counter tracks the bytes appended.
    """

    def __init__(self, job_dir: str | Path):
        self.job_dir = Path(job_dir)
        self.path = self.job_dir / JOURNAL_NAME

    def exists(self) -> bool:
        return self.path.exists()

    def append(self, record: dict) -> int:
        """Durably append one record; returns the bytes written."""
        self.job_dir.mkdir(parents=True, exist_ok=True)
        written = durable_append(self.path, encode_line(record))
        obs.counter("job.journal_bytes", written)
        obs.counter("job.journal_records", record_type=record["type"])
        return written

    def read(self) -> JournalReadResult:
        return read_journal(self.path)

    def recover(self) -> JournalReadResult:
        """Read the journal and truncate any untrusted tail in place.

        After recovery the file ends exactly at the last valid record, so
        subsequent appends produce a well-formed journal again.  Emits the
        ``job.journal_recovered_bytes`` counter when bytes were dropped.
        """
        result = read_journal(self.path)
        if not result.intact and self.path.exists():
            dropped = self.path.stat().st_size - result.valid_bytes
            with open(self.path, "r+b") as handle:
                handle.truncate(result.valid_bytes)
            obs.counter("job.journal_recovered_bytes", dropped)
        return result

    def append_all(self, records: Iterable[dict]) -> int:
        return sum(self.append(record) for record in records)
