"""Tests for the recorder: spans, emits, sinks, scopes, thread context."""

import threading

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _no_leftover_sinks():
    assert obs.installed_sinks() == ()
    yield
    assert obs.installed_sinks() == ()


class TestDefaultOff:
    def test_inactive_without_sinks(self):
        assert not obs.recording_active()

    def test_emits_are_noops_when_inactive(self):
        obs.counter("x")
        obs.gauge("x", 1.0)
        obs.histogram("x", 1.0)
        obs.trace_event("x", [1.0])
        with obs.span("x"):
            pass
        # nothing to assert beyond "did not raise": there is nowhere to record

    def test_span_still_times_when_inactive(self):
        with obs.span("timed") as sp:
            pass
        assert sp.duration >= 0.0


class TestInstallAndRecording:
    def test_install_uninstall(self):
        sink = obs.MemorySink()
        obs.install(sink)
        try:
            assert obs.recording_active()
            obs.counter("hits", 2)
        finally:
            obs.uninstall(sink)
        assert not obs.recording_active()
        assert len(sink.events) == 1
        obs.counter("hits")  # after uninstall: not recorded
        assert len(sink.events) == 1

    def test_uninstall_unknown_sink_is_silent(self):
        obs.uninstall(obs.MemorySink())

    def test_recording_context_closes_sink(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with obs.recording(obs.JsonlSink(path)) as sink:
            obs.counter("c")
        assert sink._handle is None  # closed
        assert path.read_text().count("\n") == 1

    def test_multiple_sinks_all_receive(self):
        first, second = obs.MemorySink(), obs.MemorySink()
        with obs.recording(first), obs.recording(second):
            obs.gauge("g", 5)
        assert len(first.events) == len(second.events) == 1


class TestScope:
    def test_scope_collects_without_sinks(self):
        with obs.scope() as scoped:
            obs.counter("inside")
        obs.counter("outside")
        assert [event["name"] for event in scoped.events] == ["inside"]

    def test_scope_snapshot(self):
        with obs.scope() as scoped:
            obs.counter("bytes", 10)
            obs.counter("bytes", 5)
            obs.gauge("level", 1)
            obs.gauge("level", 7)
        snapshot = scoped.snapshot()
        assert snapshot.counter("bytes") == 15
        assert snapshot.gauge("level") == 7

    def test_nested_scopes_both_see_events(self):
        with obs.scope() as outer:
            with obs.scope() as inner:
                obs.counter("c")
        assert len(outer.events) == 1
        assert len(inner.events) == 1


class TestSpans:
    def test_span_event_emitted_on_exit(self):
        with obs.scope() as scoped:
            with obs.span("work", kind="test"):
                assert scoped.events == []  # not yet emitted
        (event,) = scoped.events
        assert event["event"] == "span"
        assert event["name"] == "work"
        assert event["attrs"] == {"kind": "test"}
        assert event["parent"] is None
        assert event["duration"] >= 0.0

    def test_nesting_sets_parent_and_inherits_attrs(self):
        with obs.scope() as scoped:
            with obs.span("outer", layer="w0"):
                with obs.span("inner", bits=3):
                    obs.counter("deep")
        by_name = {event["name"]: event for event in scoped.events}
        assert by_name["inner"]["parent"] == "outer"
        assert by_name["inner"]["attrs"] == {"layer": "w0", "bits": 3}
        assert by_name["deep"]["parent"] == "inner"
        assert by_name["deep"]["attrs"] == {"layer": "w0", "bits": 3}
        assert by_name["outer"]["parent"] is None

    def test_own_attrs_override_inherited(self):
        with obs.scope() as scoped:
            with obs.span("outer", bits=3):
                obs.counter("c", bits=4)
        by_name = {event["name"]: event for event in scoped.events}
        assert by_name["c"]["attrs"] == {"bits": 4}

    def test_set_merges_attrs_before_emit(self):
        with obs.scope() as scoped:
            with obs.span("work") as sp:
                sp.set(iterations=7)
        assert scoped.events[0]["attrs"] == {"iterations": 7}

    def test_exception_recorded_as_error_attr(self):
        with obs.scope() as scoped:
            with pytest.raises(ValueError):
                with obs.span("doomed"):
                    raise ValueError("boom")
        (event,) = scoped.events
        assert event["attrs"]["error"] == "ValueError"


class TestThreadContext:
    def test_threads_do_not_inherit_by_default(self):
        parents = []

        def worker():
            with obs.scope() as scoped:
                with obs.span("child"):
                    pass
                parents.append(scoped.events[0]["parent"])

        with obs.span("root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert parents == [None]

    def test_use_context_reattaches_stack(self):
        with obs.scope() as scoped:
            with obs.span("root", layer="w1"):
                context = obs.capture_context()

                def worker():
                    with obs.use_context(context):
                        with obs.span("child"):
                            pass
                    with obs.span("after"):
                        pass

                thread = threading.Thread(target=worker)
                thread.start()
                thread.join()
        parents = {event["name"]: event["parent"] for event in scoped.events}
        child = [event for event in scoped.events if event["name"] == "child"][0]
        assert child["parent"] == "root"
        assert child["attrs"] == {"layer": "w1"}
        assert parents["after"] is None  # context restored after the block


class TestValueHandling:
    def test_gauge_drops_non_finite(self):
        with obs.scope() as scoped:
            obs.gauge("ratio", float("inf"))
            obs.gauge("ratio", float("nan"))
            obs.gauge("ratio", 2.5)
        assert len(scoped.events) == 1
        assert scoped.events[0]["value"] == 2.5

    def test_all_events_schema_valid(self):
        with obs.scope() as scoped:
            with obs.span("s", tag="x"):
                obs.counter("c", 2)
                obs.gauge("g", 1.5)
                obs.histogram("h", 0.25)
                obs.trace_event("t", [1, 2, 3], method="gobo")
        assert not any(obs.validate_event(event) for event in scoped.events)

    def test_trace_event_coerces_values_to_float(self):
        import numpy as np

        with obs.scope() as scoped:
            obs.trace_event("t", np.array([1, 2], dtype=np.int64))
        assert scoped.events[0]["values"] == [1.0, 2.0]
        assert not any(obs.validate_event(event) for event in scoped.events)
