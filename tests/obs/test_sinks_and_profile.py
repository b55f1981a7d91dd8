"""Sinks, metric instruments, snapshots and the trace profiler."""

import io
import json

from repro import obs


def _emit_sample():
    """Emit a small representative event stream while a recorder is active."""
    with obs.span("engine.run"):
        with obs.span("engine.layer", layer="w0", bits=3, iterations=5,
                      converged=True, outlier_fraction=0.004,
                      original_bytes=800, compressed_bytes=100):
            obs.trace_event("clustering.l1", [4.0, 3.0, 2.5], method="gobo")
    obs.counter("cache.hit", 2)
    obs.gauge("engine.workers", 4)
    obs.histogram("quantize.iterations", 5)


class TestJsonlSink:
    def test_lines_are_schema_valid_and_byte_stable(self, tmp_path):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (first, second):
            with obs.recording(obs.JsonlSink(path)):
                obs.counter("hits", 1, ts_like="no")  # attr, not envelope ts
        assert obs.scan_trace_file(first)[1] == []
        canonical = [
            json.dumps(obs.canonical_event(e), sort_keys=True)
            for e in obs.read_trace(first)
        ]
        canonical_second = [
            json.dumps(obs.canonical_event(e), sort_keys=True)
            for e in obs.read_trace(second)
        ]
        assert canonical == canonical_second

    def test_counts_lines_and_creates_parents(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "t.jsonl"
        with obs.recording(obs.JsonlSink(path)) as sink:
            obs.counter("a")
            obs.counter("b")
        assert sink.lines == 2
        assert path.read_text().count("\n") == 2

    def test_emit_after_close_is_noop(self, tmp_path):
        sink = obs.JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        sink.close()  # idempotent
        sink.emit({"v": 1})
        assert sink.lines == 0


class TestSummarySink:
    def test_renders_table_on_close(self):
        stream = io.StringIO()
        sink = obs.SummarySink(stream=stream)
        with obs.recording(sink):
            _emit_sample()
        output = stream.getvalue()
        assert "Per-layer trace profile" in output
        assert "w0" in output
        assert "cache.hit" in output

    def test_close_prints_once(self):
        stream = io.StringIO()
        sink = obs.SummarySink(stream=stream)
        with obs.recording(sink):
            obs.counter("c")
        length = len(stream.getvalue())
        sink.close()
        assert len(stream.getvalue()) == length

    def test_empty_summary(self):
        stream = io.StringIO()
        sink = obs.SummarySink(stream=stream)
        sink.close()
        assert "(no engine.layer spans in trace)" in stream.getvalue()


class TestInstruments:
    def test_counter_gauge_histogram_emit_named_events(self):
        hits = obs.Counter("cache.hit", backend="disk")
        depth = obs.Gauge("queue.depth")
        sizes = obs.Histogram("payload.bytes")
        with obs.scope() as scoped:
            hits.inc()
            hits.inc(3, backend="mem")
            depth.set(7)
            sizes.observe(128)
            sizes.observe(512)
        snapshot = scoped.snapshot()
        assert snapshot.counter("cache.hit") == 4
        assert snapshot.gauge("queue.depth") == 7
        assert snapshot.histogram("payload.bytes").count == 2
        by_value = {e["value"]: e["attrs"] for e in scoped.events if e["name"] == "cache.hit"}
        assert by_value[1.0] == {"backend": "disk"}
        assert by_value[3.0] == {"backend": "mem"}  # call attrs win

    def test_instruments_are_noops_when_inactive(self):
        obs.Counter("c").inc()
        obs.Gauge("g").set(1)
        obs.Histogram("h").observe(1)


class TestMetricsSnapshot:
    def test_aggregation_rules(self):
        with obs.scope() as scoped:
            _emit_sample()
        snapshot = obs.MetricsSnapshot.from_events(scoped.events)
        assert snapshot.events == len(scoped.events)
        assert snapshot.span("engine.run").count == 1
        assert snapshot.span("engine.layer").count == 1
        assert snapshot.counter("cache.hit") == 2
        assert snapshot.counter("missing", default=-1.0) == -1.0
        assert snapshot.gauge("engine.workers") == 4
        assert snapshot.gauge("missing") is None
        histogram = snapshot.histogram("quantize.iterations")
        assert (histogram.count, histogram.mean) == (1, 5.0)
        assert snapshot.histogram("missing").count == 0
        assert snapshot.span("missing").mean_seconds == 0.0

    def test_render_lists_every_section(self):
        with obs.scope() as scoped:
            _emit_sample()
        rendered = scoped.snapshot().render()
        for section in ("Spans", "Counters", "Gauges", "Histograms"):
            assert section in rendered

    def test_render_empty(self):
        assert obs.MetricsSnapshot().render() == "(no metrics recorded)"


class TestProfile:
    def test_layer_rows_join_trajectory_by_layer_attr(self):
        with obs.scope() as scoped:
            _emit_sample()
        (row,) = obs.layer_rows(scoped.events)
        assert row["layer"] == "w0"
        assert row["bits"] == 3
        assert row["l1_trajectory"] == [4.0, 3.0, 2.5]
        assert row["seconds"] >= 0.0

    def test_layer_table_contents(self):
        with obs.scope() as scoped:
            _emit_sample()
        table = obs.layer_table(scoped.events)
        assert "w0" in table
        assert "8.00x" in table  # 800 / 100
        assert "0.400%" in table  # outlier fraction
        assert "2.5" in table  # min of the trajectory

    def test_layer_table_handles_missing_attrs(self):
        events = [{
            "v": 1, "event": "span", "name": "engine.layer", "ts": 0.0,
            "parent": "engine.run", "attrs": {"layer": "bare"}, "duration": 0.0,
        }]
        table = obs.layer_table(events)
        assert "bare" in table
        assert "-" in table  # missing bits / ratio / trajectory

    def test_empty_trace(self):
        assert obs.layer_table([]) == "(no engine.layer spans in trace)"

    def test_profile_trace_end_to_end(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.recording(obs.JsonlSink(path)):
            _emit_sample()
        rendered = obs.profile_trace(path)
        assert "Per-layer trace profile" in rendered
        assert "engine runs: 1" in rendered
        assert "Gauges" in rendered
