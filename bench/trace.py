"""Timing wrappers around the program's public callables, and span arithmetic.

The traced run wraps the program's public callables from the benchmark's
own files (:class:`Installation`); nothing in the program changes.  Each call becomes one span — name,
start, end, parent, thread and a request/batch id — kept in memory and
written as JSON lines when the run ends.  A span's self time is its
duration minus the part of it its child spans cover.

Request ids: every ``MicroBatcher.submit`` opens a new request id, which
the matching ``wait`` and the submit's children carry.  Every
``ModelRegistry.lease`` (one per batch forward) opens a new batch id and
records which submitted requests it serves and how long each waited since
admission.  Batch size and batch time come from the batcher's own
``serve.batch`` obs spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: str
    parent: str | None
    name: str
    start: float
    end: float = 0.0
    rid: str | None = None
    thread: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self, self_time: float) -> dict:
        return {"src": "bench", "id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "self": self_time,
                "rid": self.rid, "thread": self.thread, "attrs": self.attrs}

    @classmethod
    def from_json(cls, row: dict) -> "Span":
        return cls(id=row["id"], parent=row["parent"], name=row["name"],
                   start=row["start"], end=row["end"], rid=row["rid"],
                   thread=row["thread"], attrs=row["attrs"])


class Tracer:
    """In-memory span recorder with per-thread nesting."""

    def __init__(self, clock=time.perf_counter, prefix: str = ""):
        self.clock = clock
        self.prefix = prefix
        self.spans: list[Span] = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_id(self, kind: str) -> str:
        return f"{self.prefix}{kind}{next(self._ids)}"

    @contextmanager
    def span(self, name: str, rid: str | None = None, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent.rid
        record = Span(id=f"{self.prefix}s{next(self._ids)}", parent=parent.id if parent else None,
                      name=name, start=self.clock(), rid=rid,
                      thread=threading.get_ident(), attrs=attrs)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = self.clock()
            stack.pop()
            if self.enabled:
                self.spans.append(record)


class Session:
    """One traced run: wrappers installed, plus a sink for the program's obs events."""

    def __init__(self):
        from repro import obs

        self.tracer = Tracer()
        self.installation = Installation(self.tracer).install()
        self.sink = obs.install(obs.MemorySink())

    @property
    def spans(self) -> list[Span]:
        return self.tracer.spans

    @property
    def events(self) -> list[dict]:
        return list(self.sink.events)

    @contextmanager
    def paused(self):
        """Run reference work (correctness checks, baselines) unrecorded."""
        from repro import obs

        self.tracer.enabled = False
        obs.uninstall(self.sink)
        try:
            yield
        finally:
            obs.install(self.sink)
            self.tracer.enabled = True

    def close(self) -> None:
        from repro import obs

        obs.uninstall(self.sink)
        self.installation.remove()


def self_times(spans: list[Span]) -> dict[str, float]:
    """Span id → duration minus the union of its children's intervals."""
    children: dict[str, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    result = {}
    for sp in spans:
        covered = 0.0
        cursor = sp.start
        for child in sorted(children.get(sp.id, ()), key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, sp.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[sp.id] = sp.duration - covered
    return result


def write_jsonl(path, spans: list[Span], events: list[dict] = ()) -> None:
    """Write spans (with self time) and the program's own obs events."""
    own = self_times(spans)
    with open(path, "w", encoding="utf-8") as fh:
        for sp in sorted(spans, key=lambda s: s.start):
            fh.write(json.dumps(sp.to_json(own[sp.id])) + "\n")
        for event in events:
            fh.write(json.dumps({"src": "obs", **event}) + "\n")


def read_jsonl(path) -> tuple[list[Span], list[dict]]:
    spans, events = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if row.pop("src", None) == "bench":
                spans.append(Span.from_json(row))
            else:
                events.append(row)
    return spans, events


# ---------------------------------------------------------------- wrappers


def rss_bytes() -> int:
    """Resident set size of this process (Linux ``/proc``; 0 elsewhere)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, IndexError, ValueError):
        return 0
    import resource

    return pages * resource.getpagesize()


def prepared_bytes(model) -> int:
    """Σ ``prepared_nbytes`` of the model's quantized-layer kernels."""
    from repro.nn.qlinear import QuantizedLinear

    return int(sum(m.kernel.prepared_nbytes for _, m in model.named_modules()
                   if isinstance(m, QuantizedLinear)))


def resident_bytes(model) -> int:
    """Bytes a loaded model keeps resident: prepared kernel state + parameters."""
    params = sum(p.data.nbytes for _, p in model.named_parameters())
    return prepared_bytes(model) + int(params)


class Installation:
    """The wrappers installed into the program; :meth:`remove` restores it."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []
        # id(pending) → [pending, request id, already counted in a batch]
        self._pending: dict[int, list] = {}
        self._lock = threading.Lock()

    # -------------------------------------------------------------- patching
    def _patch_function(self, module_name: str, attr: str, wrapper_factory) -> None:
        original = getattr(sys.modules[module_name], attr)
        wrapper = wrapper_factory(original)
        # Replace every binding of the function in the program's modules, so
        # ``from x import f`` call sites see the wrapper too.
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, wrapper)

    def _patch_method(self, cls, attr: str, wrapper_factory) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, wrapper_factory(original))

    def remove(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def timed(self, name: str, attrs=None):
        """Factory: wrap ``func`` in a span; ``attrs(result, args, kwargs)``
        adds attributes computed from the call."""
        tracer = self.tracer

        def factory(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                with tracer.span(name) as sp:
                    result = func(*args, **kwargs)
                    if attrs is not None:
                        sp.attrs.update(attrs(result, args, kwargs))
                return result
            return wrapper
        return factory

    # ------------------------------------------------------- serve wrappers
    def _submit(self, func):
        tracer, pending_map, lock = self.tracer, self._pending, self._lock

        @functools.wraps(func)
        def submit(batcher, model, input_ids, *args, **kwargs):
            rid = tracer.new_id("r")
            # Held across the enqueue, so a lease cannot scan between the
            # request entering the queue and its registration here.
            with lock, tracer.span("batcher.submit", rid=rid):
                pending = func(batcher, model, input_ids, *args, **kwargs)
                pending_map[id(pending)] = [pending, rid, False]
            return pending
        return submit

    def _wait(self, func):
        tracer, pending_map, lock = self.tracer, self._pending, self._lock

        @functools.wraps(func)
        def wait(batcher, pending):
            with lock:
                rid = pending_map.get(id(pending), (None, None))[1]
            try:
                with tracer.span("batcher.wait", rid=rid):
                    return func(batcher, pending)
            finally:
                with lock:
                    pending_map.pop(id(pending), None)
        return wait

    def _lease(self, func):
        tracer, pending_map, lock = self.tracer, self._pending, self._lock

        @contextmanager
        def lease(registry, name):
            bid = tracer.new_id("b")
            with tracer.span("registry.lease", rid=bid) as sp:
                start = sp.start
                # The batcher claims a batch's requests (sets ``started``)
                # just before it leases the model for their forward.
                with lock:
                    served = [item for item in pending_map.values()
                              if not item[2] and item[0].started.is_set()]
                    for item in served:
                        item[2] = True
                sp.attrs["requests"] = [rid for _, rid, _ in served]
                sp.attrs["queue_wait"] = [start - p.admitted_at for p, _, _ in served]
                with func(registry, name) as entry:
                    yield entry
        return lease

    def install(self) -> "Installation":
        """Wrap every layer boundary the per-layer metrics read."""
        import repro.core.model_quantizer  # noqa: F401 — load before patching
        import repro.core.serialization  # noqa: F401
        import repro.models.quantized  # noqa: F401
        from repro.kernels.lookup import LookupKernel
        from repro.models.bert import BertModel
        from repro.models.embeddings import BertEmbeddings
        from repro.nn.attention import MultiHeadSelfAttention
        from repro.nn.qlinear import QuantizedLinear
        from repro.nn.transformer import BertEncoderLayer
        from repro.serve.batcher import MicroBatcher
        from repro.serve.registry import ModelRegistry

        self._patch_method(MicroBatcher, "submit", self._submit)
        self._patch_method(MicroBatcher, "wait", self._wait)
        self._patch_method(ModelRegistry, "lease", self._lease)
        self._patch_method(ModelRegistry, "register", self._register)
        self._patch_function("repro.core.serialization", "load_quantized_model",
                             self.timed("archive.load", _load_attrs))
        self._patch_function("repro.core.serialization", "save_quantized_model",
                             self.timed("archive.save", lambda size, a, k: {"bytes": size}))
        self._patch_function("repro.core.serialization", "verify_archive",
                             self.timed("archive.verify"))
        self._patch_function("repro.models.quantized", "attach_quantized_linears",
                             self.timed("models.attach"))
        self._patch_function("repro.core.model_quantizer", "quantize_model",
                             self.timed("quantize.model", _quantize_attrs))
        self._patch_method(BertModel, "forward", self.timed("models.forward", _forward_attrs))
        self._patch_method(BertEmbeddings, "forward", self.timed("models.embeddings"))
        self._patch_method(BertEncoderLayer, "forward", self.timed("models.encoder_layer"))
        self._patch_method(MultiHeadSelfAttention, "forward", self.timed("nn.attention"))
        self._patch_method(QuantizedLinear, "forward", self.timed("nn.qlinear"))
        self._patch_method(LookupKernel, "matmul", self.timed("kernels.matmul", _matmul_attrs))
        return self

    def _register(self, func):
        tracer = self.tracer

        @functools.wraps(func)
        def register(registry, name, path, *args, **kwargs):
            with tracer.span("registry.register") as sp:
                before = rss_bytes()
                entry = func(registry, name, path, *args, **kwargs)
                sp.attrs.update(rss_delta=rss_bytes() - before,
                                prepared_bytes=prepared_bytes(entry.model),
                                resident_bytes=resident_bytes(entry.model))
            return entry
        return register


def _load_attrs(result, args, kwargs) -> dict:
    lazy = kwargs.get("lazy", args[1] if len(args) > 1 else False)
    return {"lazy": bool(lazy)}


def _quantize_attrs(qmodel, args, kwargs) -> dict:
    report = qmodel.report
    layers = [[rec.name, list(qmodel.quantized[rec.name].shape), rec.seconds, rec.iterations]
              for rec in report.layers if rec.name in qmodel.quantized]
    return {"wall": report.wall_seconds, "workers": report.workers,
            "layers": layers, "embeddings": list(qmodel.embedding_names)}


def _forward_attrs(result, args, kwargs) -> dict:
    import numpy as np

    ids = np.asarray(args[1])
    mask = kwargs.get("attention_mask", args[2] if len(args) > 2 else None)
    padding = 0 if mask is None else int(np.count_nonzero(np.asarray(mask) == 0))
    return {"rows": int(ids.shape[0]), "seq": int(ids.shape[1]),
            "padding": padding, "cells": int(ids.size)}


def _matmul_attrs(result, args, kwargs) -> dict:
    import numpy as np

    kernel, x = args[0], np.asarray(args[1])
    rows = int(x.size // kernel.in_features) if kernel.in_features else 0
    itemsize = 4 if x.dtype == np.float32 else 8
    return {"shape": f"{kernel.out_features}x{kernel.in_features}", "rows": rows,
            "bytes": kernel_bytes_touched(kernel, rows, itemsize)}


def kernel_bytes_touched(kernel, rows: int, itemsize: int = 8) -> int:
    """Bytes one lookup matmul call moves, computed from tensor sizes.

    Reads the prepared index state and the activation; writes then reads the
    gathered activation (rows × out × in) and the per-centroid sums (at most
    one per centroid slot per output); writes the output.  Not a hardware
    counter.
    """
    out_f, in_f = kernel.out_features, kernel.in_features
    segments = out_f * int(kernel.centroids_ext.size)
    return int(kernel.prepared_nbytes
               + rows * in_f * itemsize
               + 2 * rows * out_f * in_f * itemsize
               + 2 * rows * segments * itemsize
               + rows * out_f * itemsize)
