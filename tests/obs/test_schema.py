"""Schema validation and canonicalization for the JSONL trace format."""

import json
import sys

import pytest

from repro import obs


def _event(**overrides):
    base = {
        "v": obs.SCHEMA_VERSION,
        "event": "counter",
        "name": "hits",
        "ts": 1700000000.0,
        "parent": None,
        "attrs": {},
        "value": 1.0,
    }
    base.update(overrides)
    for key in [k for k, v in overrides.items() if v is ...]:
        del base[key]
    return base


class TestValidateEvent:
    def test_valid_examples_each_type(self):
        assert not obs.validate_event(_event())
        assert not obs.validate_event(_event(event="gauge"))
        assert not obs.validate_event(_event(event="histogram"))
        assert not obs.validate_event(
            _event(event="span", value=..., duration=0.01, parent="outer")
        )
        assert not obs.validate_event(
            _event(event="trace", value=..., values=[3.0, 2.0, 1.5])
        )

    def test_non_dict_rejected(self):
        assert obs.validate_event([1, 2]) == ["event must be a JSON object, got list"]

    def test_wrong_version(self):
        errors = obs.validate_event(_event(v=2))
        assert any("'v' must be 1" in error for error in errors)

    def test_unknown_event_type(self):
        errors = obs.validate_event(_event(event="metric"))
        assert any("'event' must be one of" in error for error in errors)

    def test_empty_name_rejected(self):
        assert obs.validate_event(_event(name=""))
        assert obs.validate_event(_event(name=7))

    def test_bad_ts(self):
        assert obs.validate_event(_event(ts="now"))
        assert obs.validate_event(_event(ts=float("nan")))

    def test_bad_parent(self):
        assert obs.validate_event(_event(parent=""))
        assert obs.validate_event(_event(parent=3))
        assert not obs.validate_event(_event(parent="engine.run"))

    def test_attr_constraints(self):
        assert obs.validate_event(_event(attrs={"k": [1]}))
        assert obs.validate_event(_event(attrs={"k": float("inf")}))
        assert obs.validate_event(_event(attrs="nope"))
        assert not obs.validate_event(
            _event(attrs={"s": "x", "b": True, "i": 3, "f": 0.5, "n": None})
        )

    def test_unexpected_field_rejected(self):
        errors = obs.validate_event(_event(extra=1))
        assert any("unexpected field 'extra'" in error for error in errors)

    def test_span_duration_constraints(self):
        assert obs.validate_event(_event(event="span", value=..., duration=-0.1))
        assert obs.validate_event(_event(event="span", value=..., duration="fast"))
        # a span must not carry 'value'
        assert obs.validate_event(_event(event="span", duration=0.1))

    def test_trace_values_constraints(self):
        assert obs.validate_event(_event(event="trace", value=..., values="abc"))
        assert obs.validate_event(
            _event(event="trace", value=..., values=[1.0, float("nan")])
        )

    def test_value_must_be_finite(self):
        assert obs.validate_event(_event(value=float("inf")))
        assert obs.validate_event(_event(value=True))
        assert obs.validate_event(_event(value=...))


class TestFileValidation:
    def test_trace_file_happy_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps(_event()) + "\n\n" + json.dumps(_event(name="other")) + "\n"
        )
        events, errors = obs.scan_trace_file(path)
        assert errors == []
        assert [event["name"] for event in events] == ["hits", "other"]
        assert obs.read_trace(path) == events

    def test_trace_file_reports_line_numbers(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(_event()) + "\n{not json\n")
        events, errors = obs.scan_trace_file(path)
        assert len(events) == 1 and len(errors) == 1
        assert errors[0].startswith("line 2: not valid JSON")

    def test_read_trace_raises_on_violation(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(_event(v=9)) + "\n")
        with pytest.raises(obs.TraceFormatError, match="schema violation"):
            obs.read_trace(path)


class TestHostileLines:
    """Lines the JSON parser refuses with something other than a
    JSONDecodeError are violations too: ``line N: not valid JSON (...)``
    from the validator, a typed TraceFormatError from the reader, and exit 1
    from ``repro profile --check``."""

    LINES = {
        "non-utf8": b"\xff\xfe" + json.dumps(_event()).encode(),
        "deep-array": b"[" * 100_000 + b"]" * 100_000,
        "huge-int": b"1" * 5000,
    }
    KINDS = [
        "deep-array",
        # Without the interpreter's int-digit limit the line is valid JSON.
        pytest.param("huge-int", marks=pytest.mark.skipif(
            not hasattr(sys, "get_int_max_str_digits"), reason="no int-digit limit")),
        "non-utf8",
    ]

    def _trace(self, tmp_path, line):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(json.dumps(_event()).encode() + b"\n" + line + b"\n")
        return path

    @pytest.mark.parametrize("kind", KINDS)
    def test_line_reported_typed_and_rejected_by_profile(self, tmp_path, capsys, kind):
        from repro.cli import main
        from repro.errors import ReproError

        path = self._trace(tmp_path, self.LINES[kind])
        _, errors = obs.scan_trace_file(path)
        assert len(errors) == 1 and errors[0].startswith("line 2: not valid JSON (")
        with pytest.raises(obs.TraceFormatError, match="line 2: not valid JSON") as info:
            obs.read_trace(path)
        assert isinstance(info.value, ReproError)
        assert isinstance(info.value, ValueError)
        assert main(["profile", "--check", str(path)]) == 1
        assert "line 2: not valid JSON" in capsys.readouterr().err


class TestCanonical:
    def test_strips_volatile_fields(self):
        event = _event(event="span", value=..., duration=0.5)
        canonical = obs.canonical_event(event)
        assert "ts" not in canonical
        assert "duration" not in canonical
        assert canonical["name"] == "hits"

    def test_sorted_and_order_independent(self):
        first = [_event(name="a"), _event(name="b", ts=1.0)]
        second = [_event(name="b", ts=2.0), _event(name="a", ts=3.0)]
        assert obs.canonical_events(first) == obs.canonical_events(second)

    def test_exclude_names_drops_events(self):
        events = [_event(name="engine.workers", event="gauge"), _event(name="keep")]
        canonical = obs.canonical_events(events, exclude_names=["engine.workers"])
        assert [event["name"] for event in canonical] == ["keep"]

    def test_payload_differences_still_detected(self):
        assert obs.canonical_events([_event(value=1.0)]) != obs.canonical_events(
            [_event(value=2.0)]
        )
