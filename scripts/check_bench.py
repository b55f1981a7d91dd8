#!/usr/bin/env python
"""Schema-check a BENCH_*.json record and enforce its perf gate.

Usage::

    python scripts/check_bench.py benchmarks/results/BENCH_kernels.json
    python scripts/check_bench.py benchmarks/results/BENCH_serve.json

The record's ``schema`` field selects the contract:

* ``bench-kernels/v1`` — every measurement present, positive and finite;
  fails (exit 1) if the lookup kernel falls below 1.0x the
  dequantize-then-matmul baseline at batch 1 (the paper's latency
  scenario) or at batch 8.  The kernel decodes a cache-sized tile of the
  weights and multiplies it by BLAS, so it wins wherever decoding the
  whole matrix per call would dominate, batched calls included.
* ``bench-serve/v1`` — serving-layer numbers; fails if the micro-batcher
  never fused concurrent requests (max batch size 1) or fused beyond its
  configured bound.  Absolute request rates are recorded, not gated —
  they are hardware-dependent; fusion is a correctness property.
* ``bench-jobs/v1`` — thread pool vs supervised process fleet; always
  fails unless the two backends produced byte-identical quantized tensors
  (crash isolation must be free in output).  The
  ``speedup_process_vs_thread >= 1.0`` gate applies only to non-smoke
  records from multi-core hosts — on one CPU the fleet's fork+IPC
  overhead is unamortizable and the honest number is below 1.
* ``bench-methods/v1`` — the method zoo: one entry per registered spec
  (at least 8).  Fails if any spec's archives differ across worker counts,
  if a timing/ratio is non-positive or non-finite, or if the full-scale
  compression ordering flips (GOBO 3-bit > Q-BERT 3-bit > Q8BERT).
  Measured tiny-model CRs are recorded but not gated (centroid-table
  overhead dominates tiny tensors).
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

SCHEMA = "bench-kernels/v1"
SERVE_SCHEMA = "bench-serve/v1"
JOBS_SCHEMA = "bench-jobs/v1"
METHODS_SCHEMA = "bench-methods/v1"
GATE_SPEEDUP_BATCH1 = 1.0
GATE_SPEEDUP_BATCH8 = 1.0
GATE_SPEEDUP_FLEET = 1.0

REQUIRED_MEASUREMENTS = (
    "lookup_matmul_batch1_seconds",
    "lookup_matmul_batch8_seconds",
    "dequantize_matmul_batch1_seconds",
    "dequantize_matmul_batch8_seconds",
    "speedup_batch1",
    "speedup_batch8",
    "unpack_seconds",
    "unpack_values_per_second",
)
REQUIRED_LAZY = (
    "archive_bytes",
    "lazy_load_seconds",
    "eager_load_seconds",
    "bytes_touched_at_load",
    "bytes_touched_first_layer",
)
REQUIRED_CONFIG = ("shape", "bits", "batch_sizes", "repeats")

REQUIRED_SERVE_MEASUREMENTS = (
    "sequential_request_seconds",
    "concurrent_wall_seconds",
    "concurrent_requests_per_second",
    "mean_batch_size",
    "max_batch_size",
    "reload_seconds",
)
REQUIRED_SERVE_CONFIG = (
    "model", "clients", "requests_per_client", "batch_window_ms", "max_batch",
)

REQUIRED_JOBS_MEASUREMENTS = (
    "thread_seconds",
    "process_seconds",
    "speedup_process_vs_thread",
    "thread_layers_per_second",
    "process_layers_per_second",
)
REQUIRED_JOBS_CONFIG = ("layers", "shape", "workers", "repeats", "cpu_count")

REQUIRED_METHODS_SPEC_MEASUREMENTS = (
    "seconds",
    "compression_ratio",
    "full_scale_compression_ratio",
    "rmse",
)
REQUIRED_METHODS_CONFIG = (
    "model", "full_scale_model", "specs", "workers", "repeats", "cpu_count",
)
MIN_METHOD_SPECS = 8


def fail(message: str) -> None:
    print(f"check_bench: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def positive_number(record: dict, key: str, context: str) -> float:
    value = record.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        fail(f"{context}.{key} missing or not a number: {value!r}")
    if not math.isfinite(value) or value <= 0:
        fail(f"{context}.{key} must be finite and positive, got {value!r}")
    return float(value)


def check(path: Path) -> int:
    try:
        record = json.loads(path.read_text())
    except FileNotFoundError:
        fail(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        fail(f"{path} is not valid JSON: {exc}")

    schema = record.get("schema")
    if schema == SERVE_SCHEMA:
        return check_serve(record, path)
    if schema == JOBS_SCHEMA:
        return check_jobs(record, path)
    if schema == METHODS_SCHEMA:
        return check_methods(record, path)
    if schema != SCHEMA:
        fail(f"schema mismatch: expected {SCHEMA!r}, {SERVE_SCHEMA!r}, "
             f"{JOBS_SCHEMA!r} or {METHODS_SCHEMA!r}, got {schema!r}")
    if not isinstance(record.get("smoke"), bool):
        fail("missing boolean 'smoke' field")
    config = record.get("config")
    if not isinstance(config, dict):
        fail("missing 'config' object")
    for key in REQUIRED_CONFIG:
        if key not in config:
            fail(f"config.{key} missing")

    measurements = record.get("measurements")
    if not isinstance(measurements, dict):
        fail("missing 'measurements' object")
    for key in REQUIRED_MEASUREMENTS:
        positive_number(measurements, key, "measurements")
    lazy = measurements.get("lazy_load")
    if not isinstance(lazy, dict):
        fail("measurements.lazy_load missing")
    for key in REQUIRED_LAZY:
        positive_number(lazy, key, "measurements.lazy_load")

    if lazy["bytes_touched_at_load"] >= lazy["archive_bytes"]:
        fail(
            "lazy load touched the whole archive "
            f"({lazy['bytes_touched_at_load']} of {lazy['archive_bytes']} bytes)"
        )

    for batch, gate in ((1, GATE_SPEEDUP_BATCH1), (8, GATE_SPEEDUP_BATCH8)):
        speedup = measurements[f"speedup_batch{batch}"]
        if speedup < gate:
            fail(
                f"lookup kernel below {gate:.1f}x the dequantize "
                f"baseline at batch {batch}: {speedup:.3f}x"
            )
    shape = "x".join(str(d) for d in config["shape"])
    print(
        f"check_bench: OK: {path} ({shape}, smoke={record['smoke']}) — "
        f"batch-1 speedup {measurements['speedup_batch1']:.2f}x, "
        f"batch-8 {measurements['speedup_batch8']:.2f}x, "
        f"unpack {measurements['unpack_values_per_second'] / 1e6:.0f}M values/s, "
        f"lazy load touched {lazy['bytes_touched_at_load']} of "
        f"{lazy['archive_bytes']} archive bytes"
    )
    return 0


def check_serve(record: dict, path: Path) -> int:
    if not isinstance(record.get("smoke"), bool):
        fail("missing boolean 'smoke' field")
    config = record.get("config")
    if not isinstance(config, dict):
        fail("missing 'config' object")
    for key in REQUIRED_SERVE_CONFIG:
        if key not in config:
            fail(f"config.{key} missing")
    measurements = record.get("measurements")
    if not isinstance(measurements, dict):
        fail("missing 'measurements' object")
    for key in REQUIRED_SERVE_MEASUREMENTS:
        positive_number(measurements, key, "measurements")

    mean_batch = measurements["mean_batch_size"]
    max_batch = measurements["max_batch_size"]
    if max_batch <= 1:
        fail("micro-batcher never fused concurrent requests "
             f"(max batch size {max_batch:g})")
    if max_batch > config["max_batch"]:
        fail(f"recorded max batch {max_batch:g} exceeds the configured "
             f"bound {config['max_batch']}")
    if mean_batch > max_batch:
        fail(f"mean batch {mean_batch:g} exceeds max batch {max_batch:g}")
    print(
        f"check_bench: OK: {path} ({config['model']}, smoke={record['smoke']}) — "
        f"{measurements['concurrent_requests_per_second']:.0f} req/s across "
        f"{config['clients']} clients, mean batch {mean_batch:.2f} "
        f"(max {max_batch:g}), sequential "
        f"{measurements['sequential_request_seconds'] * 1000:.1f}ms, reload "
        f"{measurements['reload_seconds'] * 1000:.0f}ms"
    )
    return 0


def check_jobs(record: dict, path: Path) -> int:
    if not isinstance(record.get("smoke"), bool):
        fail("missing boolean 'smoke' field")
    config = record.get("config")
    if not isinstance(config, dict):
        fail("missing 'config' object")
    for key in REQUIRED_JOBS_CONFIG:
        if key not in config:
            fail(f"config.{key} missing")
    measurements = record.get("measurements")
    if not isinstance(measurements, dict):
        fail("missing 'measurements' object")
    for key in REQUIRED_JOBS_MEASUREMENTS:
        positive_number(measurements, key, "measurements")

    if measurements.get("byte_identical") is not True:
        fail("process backend was not byte-identical to the thread backend")

    speedup = measurements["speedup_process_vs_thread"]
    cpus = config["cpu_count"]
    gated = not record["smoke"] and isinstance(cpus, int) and cpus >= 2
    if gated and speedup < GATE_SPEEDUP_FLEET:
        fail(
            f"process fleet below {GATE_SPEEDUP_FLEET:.1f}x the thread pool "
            f"at {config['workers']} workers on {cpus} CPUs: {speedup:.3f}x"
        )
    shape = "x".join(str(d) for d in config["shape"])
    note = "gated" if gated else (
        f"gate waived: {'smoke record' if record['smoke'] else 'single CPU'}"
    )
    print(
        f"check_bench: OK: {path} ({config['layers']}x{shape}, "
        f"smoke={record['smoke']}) — thread "
        f"{measurements['thread_seconds'] * 1000:.0f}ms, process "
        f"{measurements['process_seconds'] * 1000:.0f}ms "
        f"({speedup:.2f}x, {note}), byte-identical"
    )
    return 0


def check_methods(record: dict, path: Path) -> int:
    if not isinstance(record.get("smoke"), bool):
        fail("missing boolean 'smoke' field")
    config = record.get("config")
    if not isinstance(config, dict):
        fail("missing 'config' object")
    for key in REQUIRED_METHODS_CONFIG:
        if key not in config:
            fail(f"config.{key} missing")
    measurements = record.get("measurements")
    if not isinstance(measurements, dict):
        fail("missing 'measurements' object")
    specs = measurements.get("specs")
    if not isinstance(specs, dict):
        fail("measurements.specs missing")
    if len(specs) < MIN_METHOD_SPECS:
        fail(f"only {len(specs)} method specs recorded; the zoo needs at "
             f"least {MIN_METHOD_SPECS}")
    if set(specs) != set(config["specs"]):
        fail("measurements.specs does not match config.specs")
    for spec, row in specs.items():
        if not isinstance(row, dict):
            fail(f"measurements.specs.{spec} is not an object")
        for key in REQUIRED_METHODS_SPEC_MEASUREMENTS:
            if key == "rmse":
                value = row.get(key)
                ok = (isinstance(value, (int, float))
                      and not isinstance(value, bool)
                      and math.isfinite(value) and value >= 0)
                if not ok:
                    fail(f"measurements.specs.{spec}.rmse must be finite and "
                         f"non-negative, got {value!r}")
            else:
                positive_number(row, key, f"measurements.specs.{spec}")
        if row.get("byte_identical") is not True:
            fail(f"{spec} archives were not byte-identical across worker counts")

    def full_scale(spec: str) -> float:
        if spec not in specs:
            fail(f"ordering gate needs spec {spec!r} in the record")
        return specs[spec]["full_scale_compression_ratio"]

    if not full_scale("gobo-3bit") > full_scale("qbert-3bit") > full_scale("q8bert"):
        fail("full-scale compression ordering flipped: expected "
             "gobo-3bit > qbert-3bit > q8bert, got "
             f"{full_scale('gobo-3bit'):.2f} / {full_scale('qbert-3bit'):.2f} "
             f"/ {full_scale('q8bert'):.2f}")
    slowest = max(specs, key=lambda spec: specs[spec]["seconds"])
    print(
        f"check_bench: OK: {path} ({config['model']}, smoke={record['smoke']}) — "
        f"{len(specs)} specs byte-identical across workers {config['workers']}, "
        f"full-scale CR {full_scale('gobo-3bit'):.2f}x (gobo-3bit) > "
        f"{full_scale('qbert-3bit'):.2f}x (qbert-3bit) > "
        f"{full_scale('q8bert'):.2f}x (q8bert), slowest {slowest} "
        f"{specs[slowest]['seconds'] * 1000:.0f}ms"
    )
    return 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return check(Path(argv[1]))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
