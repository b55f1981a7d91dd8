"""Event model and JSONL schema for the observability layer.

One trace is a sequence of flat JSON objects, one per line (JSONL).  Every
event carries the same envelope::

    {"v": 1, "event": <type>, "name": <str>, "ts": <float>,
     "parent": <str|null>, "attrs": {<str>: <str|int|float|bool|null>}}

plus one type-specific payload field:

========== ==================================================================
``span``      ``duration`` (seconds, float >= 0) — a timed region; ``parent``
              is the name of the enclosing span in the same thread.
``counter``   ``value`` (finite number) — a monotonic increment.
``gauge``     ``value`` (finite number) — a point-in-time level.
``histogram`` ``value`` (finite number) — one observation of a distribution.
``trace``     ``values`` (list of finite numbers) — an ordered series, e.g.
              the per-iteration L1-norm trajectory of one clustering run.
========== ==================================================================

``ts`` is wall-clock seconds since the epoch; ``duration`` comes from the
monotonic clock.  Both are *volatile*: two otherwise identical runs differ
only in these fields, which is why :func:`canonical_event` strips them —
determinism tests compare canonicalized traces, not raw files.

The schema is validated structurally (:func:`validate_event`) with zero
dependencies; ``repro profile --check`` and the CI observability job fail on
the first violating line.
"""

from __future__ import annotations

import json
import math
from typing import Iterable

from repro.errors import TraceFormatError

SCHEMA_VERSION = 1
EVENT_TYPES = ("span", "counter", "gauge", "histogram", "trace")
#: Fields whose values legitimately differ between two identical runs.
VOLATILE_FIELDS = ("ts", "duration")

_ATTR_TYPES = (str, bool, int, float, type(None))


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite_number(value: object) -> bool:
    return _is_number(value) and math.isfinite(value)


def validate_event(event: object) -> list[str]:
    """Structural schema check; returns a list of violations (empty = valid)."""
    if not isinstance(event, dict):
        return [f"event must be a JSON object, got {type(event).__name__}"]
    errors: list[str] = []
    if event.get("v") != SCHEMA_VERSION:
        errors.append(f"'v' must be {SCHEMA_VERSION}, got {event.get('v')!r}")
    kind = event.get("event")
    if kind not in EVENT_TYPES:
        errors.append(f"'event' must be one of {EVENT_TYPES}, got {kind!r}")
    name = event.get("name")
    if not isinstance(name, str) or not name:
        errors.append(f"'name' must be a non-empty string, got {name!r}")
    if not _is_finite_number(event.get("ts")):
        errors.append(f"'ts' must be a finite number, got {event.get('ts')!r}")
    parent = event.get("parent")
    if parent is not None and (not isinstance(parent, str) or not parent):
        errors.append(f"'parent' must be null or a non-empty string, got {parent!r}")
    attrs = event.get("attrs")
    if not isinstance(attrs, dict):
        errors.append(f"'attrs' must be an object, got {attrs!r}")
    else:
        for key, value in attrs.items():
            if not isinstance(key, str):
                errors.append(f"attr key {key!r} is not a string")
            if not isinstance(value, _ATTR_TYPES):
                errors.append(
                    f"attr {key!r} has unsupported type {type(value).__name__}"
                )
            elif _is_number(value) and not math.isfinite(value):
                errors.append(f"attr {key!r} is not finite: {value!r}")

    payload_field = "values" if kind == "trace" else "duration" if kind == "span" else "value"
    expected = {"v", "event", "name", "ts", "parent", "attrs", payload_field}
    if kind in EVENT_TYPES:
        for key in event:
            if key not in expected:
                errors.append(f"unexpected field {key!r} for a {kind} event")
        if kind == "span":
            duration = event.get("duration")
            if not _is_finite_number(duration) or duration < 0:
                errors.append(
                    f"'duration' must be a finite number >= 0, got {duration!r}"
                )
        elif kind == "trace":
            values = event.get("values")
            if not isinstance(values, list) or not all(
                _is_finite_number(v) for v in values
            ):
                errors.append("'values' must be a list of finite numbers")
        else:
            if not _is_finite_number(event.get("value")):
                errors.append(
                    f"'value' must be a finite number, got {event.get('value')!r}"
                )
    return errors


def scan_trace_file(path) -> tuple[list[dict], list[str]]:
    """Every parsed event of a JSONL trace, and its violations (``line N:``).

    One pass over the file serves both the schema check and the reader.

    Any bytes at all give an event or a violation: ``ValueError`` covers bad
    UTF-8, bad JSON and integers past the interpreter's digit limit, and
    ``RecursionError`` covers nesting deeper than the parser's stack.
    """
    events: list[dict] = []
    errors: list[str] = []
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                event = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError) as exc:
                errors.append(f"line {number}: not valid JSON ({exc})")
                continue
            errors.extend(f"line {number}: {problem}" for problem in validate_event(event))
            events.append(event)
    return events, errors


def read_trace(path) -> list[dict]:
    """Load a JSONL trace, raising :class:`TraceFormatError` on violations."""
    events, errors = scan_trace_file(path)
    if errors:
        preview = "; ".join(errors[:3])
        raise TraceFormatError(
            f"{path}: {len(errors)} schema violation(s): {preview}"
        )
    return events


def canonical_event(event: dict) -> dict:
    """Strip the volatile fields (timestamps, durations) from one event."""
    return {key: value for key, value in event.items() if key not in VOLATILE_FIELDS}


def canonical_events(
    events: Iterable[dict], exclude_names: Iterable[str] = ()
) -> list[dict]:
    """Canonical form of a trace for determinism comparisons.

    Volatile fields are stripped and events are sorted by their canonical
    JSON encoding, so thread-interleaving differences between runs vanish.
    ``exclude_names`` drops events whose payload intentionally varies between
    the runs under comparison (e.g. the ``engine.workers`` gauge when
    comparing a 1-worker run against a 4-worker run).
    """
    excluded = frozenset(exclude_names)
    stripped = [
        canonical_event(event)
        for event in events
        if event.get("name") not in excluded
    ]
    return sorted(stripped, key=lambda event: json.dumps(event, sort_keys=True))
