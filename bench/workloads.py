"""The four workloads, each driven through the program's public entry points.

=============  ==============================================================
http-short     ``python -m repro serve`` child; 2 keep-alive clients in a
               closed loop POST 4-16 tokens.  The request path dominates.
open-mixed     In-process registry + admission + micro-batcher with the
               server's defaults; Poisson arrivals (open loop), then 16
               requests kept outstanding.  The only workload that queues.
forward-base   Batch-1 x 8-token forwards of BERT-base FC shapes (2 layers)
               on the lookup kernels, against the FP32 model's output.
quantize-base  The offline write path: quantize, save, eager load, verify.
=============  ==============================================================

Model weights always come from ``rng=0``; ``seed`` drives only the traffic
(token ids, lengths and arrival gaps).  Set-up runs :data:`SETUP_REPEATS`
times and ``setup_s`` is the median (forward-base excepted, see there).

``latency_ms`` is the median request latency on the two serve workloads,
whose requests differ in length and queue behind one another.  On
forward-base and quantize-base every repeat does the same work, so it is the
fastest repeat: anything slower is interference from other load on the
host, which slows memory-bound lookup forwards by up to a third for tens of
seconds at a time.  Over ten seeded runs this halved the spread of the
forward time (median 21%, fastest 11%).
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import json
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bench import baseline, env, layers, loadgen, stats, trace
from repro.core import model_quantizer, serialization
from repro.models import build_model
from repro.models.config import BERT_BASE
from repro.serve.admission import AdmissionController
from repro.serve.batcher import MicroBatcher
from repro.serve.registry import ModelRegistry

TINY = "tiny-bert-base"
#: BERT-base FC shapes (768x768, 3072x768, 768x3072, pooler) in 2 layers.
BASE = BERT_BASE.scaled("bench-base-2l", num_layers=2, vocab_size=4096)

SETUP_REPEATS = 5
#: Requests whose outputs are checked against an in-process batch-1 forward.
CHECKED = 20
TOLERANCE = 1e-9
POOL = 4096
#: Tokens per forward on forward-base and per input of the quality set.
SEQ = 8
#: The quality set's own random stream: fixed, not the traffic seed, so the
#: same code reads the same ``pooled_max_abs_err`` on every run.
QUALITY_STREAM = [0, 5]
#: Inputs in the quality set: a tiny-model forward is cheap, a base one is not.
QUALITY_TINY, QUALITY_BASE = 32, 4

clock = time.perf_counter


@dataclass
class Result:
    """What one workload run measured and checked."""

    workload: str
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: name → (value, unit): the end-to-end metrics BENCHMARK.json names.
    metrics: dict = field(default_factory=dict)
    #: name → (value, unit): this workload's own named metrics.
    details: dict = field(default_factory=dict)
    #: name → (value, unit): per-layer metrics (traced runs only).
    layer: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    events: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def count(self, outcomes) -> tuple[list, int]:
        ok = [o for o in outcomes if o.error is None]
        self.attempted += len(outcomes)
        self.failed += len(outcomes) - len(ok)
        return ok, len(outcomes) - len(ok)


# ------------------------------------------------------------------ helpers


def fp32_model(config):
    """The FP32 model from ``rng=0``, in inference mode (dropout off)."""
    return build_model(config, rng=0).eval()


def make_archive(model, path: Path, workers: int = 1) -> int:
    """GOBO-quantize ``model`` (3-bit FC, 4-bit embeddings) and save it."""
    qmodel = model_quantizer.quantize_model(
        model, weight_bits=3, embedding_bits=4, workers=workers, backend="thread")
    return serialization.save_quantized_model(qmodel, path)


def token_pool(seed: int, stream: int, low: int, high: int, vocab: int) -> list[np.ndarray]:
    """:data:`POOL` token sequences of uniform length in [low, high]."""
    rng = np.random.default_rng([seed, stream])
    lengths = rng.integers(low, high + 1, size=POOL)
    return [rng.integers(0, vocab, size=int(n)) for n in lengths]


def solo_pooled(model, ids) -> np.ndarray:
    """Batch-1 pooled output, with the mask and segment ids the batcher uses."""
    batch = np.asarray(ids, dtype=np.int64)[None, :]
    _, pooled = model(batch, np.ones_like(batch), np.zeros_like(batch))
    return np.asarray(pooled.data, dtype=np.float64)[0]


def pooled_max_abs_err(result: Result, model, fp32, count: int) -> float:
    """Max |quantized − FP32| over the pooled outputs of ``count`` fixed
    inputs; a value that is not finite fails the run."""
    rng = np.random.default_rng(QUALITY_STREAM)
    vocab = fp32.config.vocab_size
    err = float(np.max([np.max(np.abs(solo_pooled(model, ids) - solo_pooled(fp32, ids)))
                        for ids in rng.integers(0, vocab, size=(count, SEQ))]))
    if not np.isfinite(err):
        result.problems.append(f"pooled_max_abs_err is not finite ({err})")
    return err


def check_outputs(result: Result, outcomes, pool, model) -> None:
    """The first :data:`CHECKED` requests must match a batch-1 forward; a
    mismatch fails the request (call before :meth:`Result.count`)."""
    for outcome in sorted(outcomes, key=lambda o: o.index)[:CHECKED]:
        if outcome.error is not None:
            continue
        got = np.asarray(outcome.result, dtype=np.float64)
        want = solo_pooled(model, pool[outcome.index % POOL])
        if got.shape != want.shape or not np.max(np.abs(got - want)) <= TOLERANCE:
            outcome.error = "mismatch"
            result.problems.append(f"request {outcome.index}: pooled output differs "
                                   f"from the batch-1 forward")


def latency_rows(result: Result, latencies: list[float], failed: int) -> None:
    """Median and the highest supported tail, failures counted as +inf."""
    result.details["latency_p50_ms"] = (stats.median(latencies, failed) * 1e3, "ms")
    tail = stats.tail(latencies, failed)
    if tail is not None:
        q, value = tail
        result.details[f"latency_p{q:g}_ms"] = (value * 1e3, "ms")


def finish_trace(result: Result, spans, events, archive_bytes: int) -> None:
    result.spans, result.events = spans, events
    result.layer.update(layers.per_layer(spans, events, archive_bytes))


# --------------------------------------------------------------- http-short


class ServerProcess:
    """A ``repro serve`` child on an ephemeral port; :meth:`stop` ends it."""

    def __init__(self, archive: Path, workdir: Path, traced: bool):
        args = ["serve", "--model", f"bench={archive}:{TINY}", "--port", "0"]
        self.spans_path = workdir / "server-spans.jsonl"
        self.obs_path = workdir / "server-obs.jsonl"
        if traced:
            cmd = [sys.executable, "-m", "bench.launcher", str(self.spans_path),
                   *args, "--trace", str(self.obs_path)]
        else:
            cmd = [sys.executable, "-m", "repro", *args]
        self._stderr = open(workdir / "server.stderr", "wb")
        self.proc = subprocess.Popen(cmd, cwd=env.ROOT, env=env.child_env(),
                                     stdout=subprocess.PIPE, stderr=self._stderr, bufsize=0)
        try:
            self.port = self._await_port(timeout=120.0)
        except BaseException:
            self.stop()
            raise

    def _await_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if select.select([self.proc.stdout], [], [], 0.05)[0]:
                line = self.proc.stdout.readline()
                if not line:
                    break
                match = re.search(rb"serving .* on http://[^:]+:(\d+)", line)
                if match:
                    return int(match.group(1))
            elif self.proc.poll() is not None:
                break
        raise RuntimeError(f"server did not start (exit {self.proc.poll()}); "
                           f"see {self._stderr.name}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


#: Seconds per pair of client connections in the http-short measurement.
SEGMENT_S = 2.0


class Client:
    """One persistent HTTP/1.1 keep-alive connection."""

    def __init__(self, port: int):
        self.port = port
        self.conn: http.client.HTTPConnection | None = None

    def predict(self, ids) -> list[float]:
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        body = json.dumps({"input_ids": [int(i) for i in ids]})
        try:
            self.conn.request("POST", "/models/bench/predict", body,
                              {"Content-Type": "application/json"})
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        if response.status != 200:
            raise RuntimeError(f"HTTP {response.status}")
        return json.loads(data)["pooled"]

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def http_short(seed: int, seconds: float, workdir: Path, session=None) -> Result:
    result = Result("http-short")
    pool = token_pool(seed, 0, 4, 16, 160)
    setups, server, clients = [], None, []
    try:
        for rep in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            start = clock()
            archive = workdir / f"tiny-{rep}.npz"
            archive_bytes = make_archive(fp32_model(TINY), archive)
            server = ServerProcess(archive, workdir, traced=session is not None)
            probe = Client(server.port)
            probe.predict(pool[0])
            probe.close()
            setups.append(clock() - start)

        def segment(length: float, base: int) -> list[loadgen.Outcome]:
            clients[:] = [Client(server.port) for _ in range(2)]
            try:
                done = loadgen.closed_loop(
                    lambda slot, i: clients[slot].predict(pool[(base + i) % POOL]),
                    clock() + length, threads=2)
            finally:
                for client in clients:
                    client.close()
            for outcome in done:
                outcome.index += base
            return done

        segment(min(3.0, 0.15 * seconds), 0)  # warm-up
        # Each keep-alive connection settles into its own phase against the
        # kernel's delayed-ACK timer (latencies sit on a 4 ms lattice), so
        # the measured time is split over fresh connection pairs.
        count = max(1, round(seconds / SEGMENT_S))
        outcomes, elapsed = [], 0.0
        for _ in range(count):
            start = clock()
            outcomes += segment(seconds / count, len(outcomes))
            elapsed += max(o.finished for o in outcomes) - start
    finally:
        for client in clients:
            client.close()
        if server is not None:
            server.stop()

    with session.paused() if session else contextlib.nullcontext():
        registry = ModelRegistry()
        try:
            entry = registry.register("reference", archive, config=TINY)
            check_outputs(result, outcomes, pool, entry.model)
            resident = trace.resident_bytes(entry.model)
            err = pooled_max_abs_err(result, entry.model, fp32_model(TINY), QUALITY_TINY)
        finally:
            registry.close()
    ok, failed = result.count(outcomes)
    latencies = [o.finished - o.sent for o in ok]
    p50 = stats.median(latencies, failed) * 1e3
    result.metrics = {
        "setup_s": (stats.median(setups), "s"),
        "latency_ms": (p50, "ms"),
        "throughput_per_s": (len(ok) / elapsed, "1/s"),
        "archive_bytes": (float(archive_bytes), "B"),
        "resident_bytes": (float(resident), "B"),
        "pooled_max_abs_err": (err, "abs"),
    }
    result.details["throughput_rps"] = (len(ok) / elapsed, "req/s")
    latency_rows(result, latencies, failed)
    result.details["error_rate"] = (failed / len(outcomes), "fraction")
    result.details["samples"] = (float(len(outcomes)), "count")
    if session is not None:
        child_spans, _ = trace.read_jsonl(server.spans_path)
        with open(server.obs_path, encoding="utf-8") as fh:
            child_events = [json.loads(line) for line in fh if line.strip()]
        finish_trace(result, session.spans + child_spans,
                     session.events + child_events, archive_bytes)
        server_p50 = result.layer["server.request_ms_p50"][0]
        result.layer["server.transport_ms_p50"] = (p50 - server_p50, "ms")
    return result


# --------------------------------------------------------------- open-mixed

RATE = 20.0
OUTSTANDING = 16
#: Seconds per round of open-loop arrivals (60%) then outstanding requests (40%).
ROUND_S = 5.0


def open_mixed(seed: int, seconds: float, workdir: Path, session=None) -> Result:
    result = Result("open-mixed")
    pool, pool_b = token_pool(seed, 1, 8, 32, 160), token_pool(seed, 4, 8, 32, 160)
    setups, registry, batcher = [], None, None
    try:
        for rep in range(SETUP_REPEATS):
            if batcher is not None:
                batcher.close()
                registry.close()
            start = clock()
            archive = workdir / f"tiny-{rep}.npz"
            archive_bytes = make_archive(fp32_model(TINY), archive)
            registry = ModelRegistry()
            registry.register("bench", archive, config=TINY)
            # QuantServer's defaults.
            batcher = MicroBatcher(registry, AdmissionController(64, 10.0),
                                   batch_window=0.005, max_batch=8, forward_timeout=30.0)
            batcher.wait(batcher.submit("bench", pool[-1]))
            setups.append(clock() - start)

        # Phases alternate in rounds, so a slow spell of the host lands on
        # both rather than on one.
        rounds = max(1, round(seconds / ROUND_S))
        arrivals = np.random.default_rng([seed, 2])
        phase_a, phase_b, in_system = [], [], []
        for _ in range(rounds):
            gaps = loadgen.poisson_gaps(arrivals, RATE, max(1, round(RATE * 0.6 * seconds / rounds)))
            base_a, base_b = len(phase_a), len(phase_b)
            for outcome in loadgen.OpenLoop(gaps).run(
                    lambda i: batcher.submit("bench", pool[(base_a + i) % POOL]), batcher.wait):
                outcome.index += base_a
                phase_a.append(outcome)
            start = clock()
            deadline = start + 0.4 * seconds / rounds
            done = loadgen.outstanding_loop(
                lambda i: batcher.submit("bench", pool_b[(base_b + i) % POOL]),
                batcher.wait, deadline=deadline, depth=OUTSTANDING)
            # Requests done inside the window each spent their whole time in
            # a full pipeline; the drain after it runs half empty.
            in_system += [o.finished - o.sent for o in done
                          if o.error is None and o.finished <= deadline]
            phase_b += done
        for outcome in phase_a:
            if outcome.result is not None:
                outcome.result = outcome.result["pooled"]
        with session.paused() if session else contextlib.nullcontext():
            model = registry.get("bench").model
            check_outputs(result, phase_a, pool, model)
            resident = trace.resident_bytes(model)
            err = pooled_max_abs_err(result, model, fp32_model(TINY), QUALITY_TINY)
    finally:
        if batcher is not None:
            batcher.close()
            registry.close()

    ok_a, failed_a = result.count(phase_a)
    result.count(phase_b)
    latencies = [o.latency for o in ok_a]
    # Little's law for a closed loop with no think time: requests per second
    # = requests outstanding / mean time each spends in the system.  Unlike
    # a count over the window it does not step by whole batches of 8.
    capacity = OUTSTANDING / stats.mean(in_system)
    result.metrics = {
        "setup_s": (stats.median(setups), "s"),
        "latency_ms": (stats.median(latencies, failed_a) * 1e3, "ms"),
        "throughput_per_s": (capacity, "1/s"),
        "archive_bytes": (float(archive_bytes), "B"),
        "resident_bytes": (float(resident), "B"),
        "pooled_max_abs_err": (err, "abs"),
    }
    result.details["capacity_rps"] = (capacity, "req/s")
    latency_rows(result, latencies, failed_a)
    result.details["error_rate"] = (result.failed / result.attempted, "fraction")
    late = max(o.late for o in phase_a) * 1e3
    result.details["late_ms_max"] = (late, "ms")
    result.details["samples"] = (float(result.attempted), "count")
    if session is not None:
        finish_trace(result, session.spans, session.events, archive_bytes)
        result.layer["loadgen.late_ms_max"] = (late, "ms")
    return result


# ------------------------------------------------------------- forward-base


def forward_base(seed: int, seconds: float, workdir: Path, session=None) -> Result:
    """``setup_s`` here is the one quantize of the model (build + quantize +
    save, ~7 s, too long to repeat) plus the median of
    :data:`SETUP_REPEATS` × (register + one warm-up forward)."""
    result = Result("forward-base")
    rng = np.random.default_rng([seed, 3])
    inputs = [rng.integers(0, BASE.vocab_size, size=SEQ) for _ in range(256)]
    start = clock()
    fp32 = fp32_model(BASE)
    archive = workdir / "base.npz"
    archive_bytes = make_archive(fp32, archive, workers=2)
    prepare = clock() - start
    registry = ModelRegistry()
    try:
        loads, repeats = [], []
        for _ in range(SETUP_REPEATS):
            start = clock()
            registry.register("bench", archive, config=BASE)
            loads.append(clock() - start)
            with registry.lease("bench") as entry:
                solo_pooled(entry.model, inputs[-1])
            repeats.append(clock() - start)

        durations, outputs = [], []
        start = clock()
        while clock() < start + seconds or not durations:
            ids = inputs[len(durations) % len(inputs)]
            with registry.lease("bench") as entry:
                began = clock()
                outputs.append(solo_pooled(entry.model, ids))
                durations.append(clock() - began)
        elapsed = clock() - start

        with session.paused() if session else contextlib.nullcontext():
            fp32_ms = []
            for index in range(len(outputs)):
                began = clock()
                solo_pooled(fp32, inputs[index % len(inputs)])
                fp32_ms.append((clock() - began) * 1e3)
            model = registry.get("bench").model
            resident = trace.resident_bytes(model)
            err = pooled_max_abs_err(result, model, fp32, QUALITY_BASE)
        result.attempted = len(outputs)
        result.failed = sum(not np.all(np.isfinite(pooled)) for pooled in outputs)
        if result.failed:
            result.problems.append(f"{result.failed} forward(s) returned non-finite outputs")
        if session is not None:
            finish_trace(result, session.spans, session.events, archive_bytes)
            matmul_ms = {shape: result.layer[f"kernels.matmul_ms.{shape}"][0]
                         for shape in layers.BASE_SHAPES}
            with session.paused():
                result.layer.update(baseline.baseline_rows(
                    model, BASE, SEQ, matmul_ms, fp32_ms, seed))
    finally:
        registry.close()

    p50 = stats.median(durations) * 1e3
    result.metrics = {
        "setup_s": (prepare + stats.median(repeats), "s"),
        "latency_ms": (min(durations) * 1e3, "ms"),
        "throughput_per_s": (len(durations) / elapsed, "1/s"),
        "archive_bytes": (float(archive_bytes), "B"),
        "resident_bytes": (float(resident), "B"),
        "pooled_max_abs_err": (err, "abs"),
    }
    result.details.update({
        "forward_p50_ms": (p50, "ms"),
        "fp32_forward_p50_ms": (stats.median(fp32_ms), "ms"),
        "load_s": (stats.median(loads), "s"),
        "prepare_s": (prepare, "s"),
        "samples": (float(len(durations)), "count"),
    })
    return result


# ------------------------------------------------------------ quantize-base


def quantize_base(seed: int, seconds: float, workdir: Path, session=None) -> Result:
    """No traffic here: ``seed`` is unused, the weights come from ``rng=0``."""
    result = Result("quantize-base")
    setups = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        model = fp32_model(BASE)
        setups.append(clock() - start)

    archive = workdir / "base.npz"
    ops, quantize_s, digest = [], [], None
    start = clock()
    while clock() < start + seconds or not ops:
        began = clock()
        qmodel = model_quantizer.quantize_model(
            model, weight_bits=3, embedding_bits=4, workers=2, backend="thread")
        quantize_s.append(clock() - began)
        archive_bytes = serialization.save_quantized_model(qmodel, archive)
        loaded = serialization.load_quantized_model(archive)
        check = serialization.verify_archive(archive)
        ops.append(clock() - began)

        problems = [] if check.ok else [f"verify_archive: {check.status}"]
        data = hashlib.sha256(archive.read_bytes()).hexdigest()
        digest = digest or data
        if data != digest:
            problems.append("archive bytes differ between repeats")
        for name, tensor in qmodel.quantized.items():
            if bytes(loaded.quantized[name].packed_codes) != bytes(tensor.packed_codes):
                problems.append(f"{name}: loaded codes differ from the quantized codes")
        result.attempted += 1
        result.failed += bool(problems)
        result.problems += problems
    elapsed = clock() - start

    with session.paused() if session else contextlib.nullcontext():
        registry = ModelRegistry()
        try:
            served = registry.register("bench", archive, config=BASE).model
            resident = trace.resident_bytes(served)
            err = pooled_max_abs_err(result, served, model, QUALITY_BASE)
        finally:
            registry.close()

    result.metrics = {
        "setup_s": (stats.median(setups), "s"),
        "latency_ms": (min(ops) * 1e3, "ms"),
        "throughput_per_s": (len(ops) / elapsed, "1/s"),
        "archive_bytes": (float(archive_bytes), "B"),
        "resident_bytes": (float(resident), "B"),
        "pooled_max_abs_err": (err, "abs"),
    }
    result.details.update({
        "cycle_p50_ms": (stats.median(ops) * 1e3, "ms"),
        "quantize_s": (stats.median(quantize_s), "s"),
        "archive_bytes": (float(archive_bytes), "B"),
        "samples": (float(len(ops)), "count"),
    })
    if session is not None:
        finish_trace(result, session.spans, session.events, archive_bytes)
    return result


WORKLOADS = {
    "http-short": http_short,
    "open-mixed": open_mixed,
    "forward-base": forward_base,
    "quantize-base": quantize_base,
}
