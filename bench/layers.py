"""Per-layer metrics, read from the traced run's spans and the program's obs events.

Every workload reports every per-layer metric.  A layer the workload does
not run reports 0 (no calls, no time): the serve layers on quantize-base,
the tiny-model kernel shapes on forward-base, and so on.
"""

from __future__ import annotations

from collections import defaultdict

from bench import stats
from bench.trace import Span, self_times

#: FC weight shapes (out × in) reported per shape: BERT-base, then tiny-bert-base.
BASE_SHAPES = ("768x768", "3072x768", "768x3072")
TINY_SHAPES = ("64x64", "128x64", "64x128")
SHAPES = BASE_SHAPES + TINY_SHAPES


def _p(values, q=50.0, scale=1.0) -> float:
    """Median (q=50) or tail percentile of ``values`` × ``scale``; 0 when empty or unsupported."""
    values = list(values)
    if not values:
        return 0.0
    if q == 50.0:
        return stats.median(values) * scale
    value = stats.percentile(values, q)
    return 0.0 if value is None else value * scale


def per_layer(spans: list[Span], events: list[dict], archive_bytes: int) -> dict:
    """name → (value, unit) for every layer metric derivable from the trace."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for sp in spans:
        by_name[sp.name].append(sp)
    own = self_times(spans)
    ids = {sp.id: sp for sp in spans}
    out: dict[str, tuple[float, str]] = {}

    def obs_events(name):
        return [e for e in events if e.get("event") == "span" and e.get("name") == name]

    def obs_spans(name):
        return [e["duration"] for e in obs_events(name)]

    def obs_count(name):
        return float(sum(e.get("value", 0.0) for e in events
                         if e.get("event") == "counter" and e.get("name") == name))

    # serve.server / serve.admission
    out["server.request_ms_p50"] = (_p(obs_spans("serve.request"), scale=1e3), "ms")
    out["admission.rejected"] = (obs_count("serve.rejected"), "count")
    out["admission.expired"] = (obs_count("serve.expired_in_queue"), "count")

    # serve.batcher: the batcher's ``serve.batch`` spans; queue wait and the
    # fused forwards from the registry.lease each batch forward takes
    batches = obs_events("serve.batch")
    sizes = [e["attrs"]["batch_size"] for e in batches]
    leases = [sp for sp in by_name["registry.lease"] if sp.attrs.get("requests")]
    waits = [w for sp in leases for w in sp.attrs["queue_wait"]]
    forwards = by_name["models.forward"]
    batch_ids = {sp.id for sp in leases}
    served = [f for f in forwards if f.parent in batch_ids]
    cells = sum(f.attrs.get("cells", 0) for f in served)
    out["batcher.queue_wait_ms_p50"] = (_p(waits, scale=1e3), "ms")
    out["batcher.queue_wait_ms_p90"] = (_p(waits, 90.0, scale=1e3), "ms")
    out["batcher.batch_ms_p50"] = (_p([e["duration"] for e in batches], scale=1e3), "ms")
    out["batcher.batch_size_mean"] = (stats.mean(sizes), "count")
    out["batcher.batch_size_max"] = (float(max(sizes, default=0)), "count")
    out["batcher.pad_fraction"] = (
        sum(f.attrs.get("padding", 0) for f in served) / cells if cells else 0.0, "fraction")

    # serve.registry / core.serialization / npzmap
    loads = by_name["archive.load"]
    registers = by_name["registry.register"]
    out["archive.lazy_load_s"] = (_p([s.duration for s in loads if s.attrs.get("lazy")]), "s")
    out["archive.eager_load_s"] = (_p([s.duration for s in loads if not s.attrs.get("lazy")]), "s")
    out["archive.save_s"] = (_p([s.duration for s in by_name["archive.save"]]), "s")
    out["archive.verify_s"] = (_p([s.duration for s in by_name["archive.verify"]]), "s")
    out["models.attach_s"] = (_p([s.duration for s in by_name["models.attach"]]), "s")
    out["kernels.prepare_ms_total"] = (
        sum(obs_spans("kernels.prepare")) * 1e3 / max(len(registers), 1), "ms")
    out["archive.bytes_mapped_at_load"] = (
        obs_count("npzmap.bytes_mapped") / max(len(registers), 1), "B")
    prepared = _p([s.attrs["prepared_bytes"] for s in registers])
    out["kernels.prepared_bytes"] = (prepared, "B")
    out["kernels.prepared_bytes_per_archive_byte"] = (
        prepared / archive_bytes if archive_bytes else 0.0, "ratio")
    out["process.rss_delta_bytes"] = (_p([s.attrs["rss_delta"] for s in registers]), "B")

    # models / nn
    out["models.forward_ms_p50"] = (_p([f.duration for f in forwards], scale=1e3), "ms")
    out["models.embeddings_ms_p50"] = (
        _p([s.duration for s in by_name["models.embeddings"]], scale=1e3), "ms")
    out["models.encoder_layer_ms_p50"] = (
        _p([s.duration for s in by_name["models.encoder_layer"]], scale=1e3), "ms")
    qlinear = by_name["nn.qlinear"]
    pooler = [q.duration for q in qlinear
              if q.parent in ids and ids[q.parent].name == "models.forward"]
    out["models.pooler_ms_p50"] = (_p(pooler, scale=1e3), "ms")
    forward_time = sum(f.duration for f in forwards)
    qlinear_time = sum(q.duration for q in qlinear)
    out["nn.qlinear_ms_per_forward"] = (
        qlinear_time * 1e3 / len(forwards) if forwards else 0.0, "ms")
    out["nn.qlinear_share"] = (qlinear_time / forward_time if forward_time else 0.0, "fraction")
    out["nn.attention_self_ms_p50"] = (
        _p([own[s.id] for s in by_name["nn.attention"]], scale=1e3), "ms")

    # kernels
    matmuls = by_name["kernels.matmul"]
    out["kernels.matmul_calls_per_forward"] = (
        len(matmuls) / len(forwards) if forwards else 0.0, "count")
    out["kernels.rows_per_call_mean"] = (stats.mean(m.attrs["rows"] for m in matmuls), "count")
    for shape in SHAPES:
        calls = [m for m in matmuls if m.attrs["shape"] == shape]
        out[f"kernels.matmul_ms.{shape}"] = (_p([m.duration for m in calls], scale=1e3), "ms")
        out[f"kernels.bytes_touched_per_call.{shape}"] = (
            stats.mean(m.attrs["bytes"] for m in calls), "B")

    # core: the quantize engine, per quantize_model call
    quantizes = by_name["quantize.model"]
    layer_s: dict[str, list[float]] = defaultdict(list)
    embedding_s, busy, iterations = [], [], []
    for q in quantizes:
        embeddings = set(q.attrs["embeddings"])
        total = 0.0
        for name, shape, seconds, iters in q.attrs["layers"]:
            total += seconds
            if name in embeddings:
                continue
            layer_s["x".join(str(d) for d in shape)].append(seconds)
        embedding_s.append(sum(s for n, _, s, _ in q.attrs["layers"] if n in embeddings))
        iterations.append(sum(it for *_, it in q.attrs["layers"]))
        wall = q.attrs["wall"] * q.attrs["workers"]
        busy.append(total / wall if wall else 0.0)
    for shape in SHAPES:
        out[f"quantize.layer_s_p50.{shape}"] = (_p(layer_s.get(shape, ())), "s")
    out["quantize.embedding_s"] = (_p(embedding_s), "s")
    out["quantize.worker_busy_share"] = (_p(busy), "fraction")
    out["quantize.l1_iterations"] = (_p(iterations), "count")
    return out
