import pytest

from bench.trace import Span, Tracer, read_jsonl, self_times, write_jsonl


def span(id, parent, start, end, name="x"):
    return Span(id=id, parent=parent, name=name, start=start, end=end)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("p", None, 0.0, 10.0),
        span("a", "p", 1.0, 3.0),
        span("b", "p", 2.0, 5.0),   # overlaps a: covered 1..5
        span("c", "p", 8.0, 12.0),  # runs past its parent: only 8..10 counts
        span("d", "a", 1.5, 2.5),
    ]
    own = self_times(spans)
    assert own["p"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own["a"] == pytest.approx(2.0 - 1.0)
    assert own["b"] == pytest.approx(3.0)
    assert own["d"] == pytest.approx(1.0)


def test_tracer_nests_spans_and_inherits_request_ids():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer", rid="r1"):
        with tracer.span("inner") as inner:
            pass
        with tracer.span("other", rid="r2"):
            pass
    by_name = {sp.name: sp for sp in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert inner.rid == "r1"
    assert by_name["other"].rid == "r2"
    own = self_times(tracer.spans)
    # outer 0..5, inner 1..2, other 3..4
    assert own[by_name["outer"].id] == 3.0


def test_paused_tracer_records_nothing():
    tracer = Tracer()
    tracer.enabled = False
    with tracer.span("hidden"):
        pass
    assert tracer.spans == []


def test_trace_file_round_trips(tmp_path):
    spans = [span("p", None, 0.0, 2.0, "a"), span("c", "p", 0.5, 1.0, "b")]
    path = tmp_path / "t.jsonl"
    write_jsonl(path, spans, [{"event": "counter", "name": "n", "value": 1.0}])
    back, events = read_jsonl(path)
    assert [(s.id, s.parent, s.name) for s in back] == [("p", None, "a"), ("c", "p", "b")]
    assert events == [{"event": "counter", "name": "n", "value": 1.0}]
