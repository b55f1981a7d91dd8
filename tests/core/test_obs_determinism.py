"""Observability must never perturb results.

The hard guarantee of ISSUE 4: quantized output is bit-identical with
tracing off, tracing on, 1 worker or 4 — and the traces themselves are
identical modulo timestamps/durations (and the ``engine.workers`` gauge,
the one event whose payload intentionally encodes the worker count).
Archive comparisons are raw byte comparisons, which the deterministic zip
writer makes meaningful.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.model_quantizer import quantize_state_dict
from repro.core.serialization import save_quantized_model
from repro.utils.rng import derive_rng

FC_NAMES = ("layer0.weight", "layer1.weight", "layer2.weight")
EMB_NAMES = ("embeddings.word",)


@pytest.fixture(scope="module")
def state():
    rng = derive_rng(99, "obs-determinism")
    state = {name: rng.normal(0.0, 0.04, size=(24, 24)) for name in FC_NAMES}
    state[EMB_NAMES[0]] = rng.normal(0.0, 0.05, size=(48, 16))
    state["passthrough.bias"] = rng.normal(0.0, 0.01, size=24)
    return state


def _run(state, tmp_path, tag: str, workers: int, traced: bool):
    """One quantization run; returns (archive bytes, trace events)."""
    sink = obs.MemorySink()
    path = tmp_path / f"{tag}.npz"
    if traced:
        obs.install(sink)
    try:
        model = quantize_state_dict(
            state, fc_names=FC_NAMES, embedding_names=EMB_NAMES,
            weight_bits=3, embedding_bits=4, workers=workers,
        )
        save_quantized_model(model, path)
    finally:
        if traced:
            obs.uninstall(sink)
    return path.read_bytes(), sink.events


def test_archives_bit_identical_across_tracing_and_workers(state, tmp_path):
    baseline, _ = _run(state, tmp_path, "w1-off", workers=1, traced=False)
    for tag, workers, traced in [
        ("w4-off", 4, False),
        ("w1-on", 1, True),
        ("w4-on", 4, True),
    ]:
        archive, _ = _run(state, tmp_path, tag, workers=workers, traced=traced)
        assert archive == baseline, f"archive for {tag} diverged from workers=1 untraced"


def test_traces_identical_modulo_timing(state, tmp_path):
    _, events_1 = _run(state, tmp_path, "t1", workers=1, traced=True)
    _, events_4 = _run(state, tmp_path, "t4", workers=4, traced=True)
    assert events_1 and events_4
    assert not any(obs.validate_event(event) for event in events_1)
    assert not any(obs.validate_event(event) for event in events_4)
    canonical_1 = obs.canonical_events(events_1, exclude_names=["engine.workers"])
    canonical_4 = obs.canonical_events(events_4, exclude_names=["engine.workers"])
    assert canonical_1 == canonical_4


def test_repeated_run_trace_is_stable(state, tmp_path):
    """Same inputs, same worker count -> the canonical trace is reproducible."""
    _, first = _run(state, tmp_path, "r1", workers=2, traced=True)
    _, second = _run(state, tmp_path, "r2", workers=2, traced=True)
    assert obs.canonical_events(first) == obs.canonical_events(second)


def test_report_metrics_snapshot_populated_without_sinks(state, tmp_path):
    """The engine's metrics snapshot works with tracing off entirely."""
    model = quantize_state_dict(
        state, fc_names=FC_NAMES, embedding_names=EMB_NAMES,
        weight_bits=3, embedding_bits=4, workers=2,
    )
    metrics = model.report.metrics
    layer_count = len(FC_NAMES) + len(EMB_NAMES)
    assert metrics.span("engine.run").count == 1
    assert metrics.span("engine.layer").count == layer_count
    assert metrics.counter("engine.layers.quantized") == layer_count
    assert metrics.gauge("engine.queue.jobs") == layer_count
    assert metrics.gauge("engine.workers") == 2
    histogram = metrics.histogram("quantize.outlier_fraction")
    assert histogram.count == layer_count
    assert 0.0 <= histogram.mean < 0.05
    # Span-derived wall time and the report's wall time come from the same
    # span, so they can no longer disagree.
    assert metrics.span("engine.run").total_seconds == model.report.wall_seconds
    layer_total = metrics.span("engine.layer").total_seconds
    assert layer_total == pytest.approx(model.report.layer_seconds)


def test_trace_events_schema_valid_and_complete(state, tmp_path):
    _, events = _run(state, tmp_path, "schema", workers=2, traced=True)
    assert not any(obs.validate_event(event) for event in events)
    names = {event["name"] for event in events}
    assert {"engine.run", "engine.layer", "quantize.tensor", "clustering.l1",
            "serialization.bytes_written", "model.compression_ratio"} <= names
    layer_spans = [
        e for e in events if e["event"] == "span" and e["name"] == "engine.layer"
    ]
    assert {span["attrs"]["layer"] for span in layer_spans} == set(FC_NAMES) | set(EMB_NAMES)
    for span in layer_spans:
        assert span["attrs"]["iterations"] >= 1
        assert span["parent"] == "engine.run"


def test_dequantized_output_identical_with_tracing(state):
    with obs.scope():
        traced = quantize_state_dict(state, fc_names=FC_NAMES, weight_bits=3,
                                     embedding_bits=None, workers=4)
    plain = quantize_state_dict(state, fc_names=FC_NAMES, weight_bits=3,
                                embedding_bits=None, workers=1)
    for name in FC_NAMES:
        np.testing.assert_array_equal(
            traced.quantized[name].dequantize(dtype=np.float64),
            plain.quantized[name].dequantize(dtype=np.float64),
        )
        assert traced.quantized[name].packed_codes == plain.quantized[name].packed_codes
