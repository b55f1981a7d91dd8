"""Run the benchmark: ``python -m bench [--workload NAME] [--seed N] [--seconds S]
[--trace 0|1] [--out FILE]``, or ``python -m bench compare A.json B.json``.

Prints every metric by name with its unit, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With tracing off
the metrics are BENCHMARK.json's ``end_to_end`` list; with tracing on they
are its ``per_layer`` list, and one span file per workload is written to
``bench/results/trace-<workload>.jsonl``.  Exits 1 when an output check
fails.
"""

from __future__ import annotations

import sys

from bench import env


def _spec() -> dict:
    import json

    return json.loads((env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _pick(values: dict, wanted: list[dict]) -> dict:
    """BENCHMARK.json's metrics, in its order, with its units checked."""
    import math

    picked = {}
    for metric in wanted:
        value, unit = values[metric["name"]]
        if unit != metric["unit"] or not math.isfinite(value):
            raise ValueError(f"{metric['name']}: got {value!r} {unit}, "
                             f"expected a finite value in {metric['unit']}")
        picked[metric["name"]] = {"value": value, "unit": unit}
    return picked


def _run(run, seed: int, seconds: float, session=None):
    """One workload call in a scratch directory under ``bench/results``."""
    import tempfile
    from pathlib import Path

    env.RESULTS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=env.RESULTS) as tmp:
        return run(seed, seconds, Path(tmp), session)


def run_workload(name: str, seed: int, seconds: float, traced: bool, spec: dict) -> dict:
    """Run one workload; returns its record (metrics already picked)."""
    from bench import baseline, trace, workloads

    run = workloads.WORKLOADS[name]
    if not traced:
        result = _run(run, seed, seconds)
        parts = [result]
        metrics = _pick(result.metrics, spec["end_to_end"])
    else:
        # Half the time untraced, half traced: their ratio is the cost of
        # tracing itself.
        plain = _run(run, seed, seconds / 2)
        session = trace.Session()
        try:
            result = _run(run, seed, seconds / 2, session)
        finally:
            session.close()
        parts = [plain, result]
        layer = {
            **baseline.empty_rows(),
            "server.transport_ms_p50": (0.0, "ms"),
            "loadgen.late_ms_max": (0.0, "ms"),
            **result.layer,
            "loadgen.samples": result.details["samples"],
            "obs.overhead": (result.metrics["latency_ms"][0]
                             / plain.metrics["latency_ms"][0], "ratio"),
        }
        trace.write_jsonl(env.RESULTS / f"trace-{name}.jsonl", result.spans, result.events)
        metrics = _pick(layer, spec["per_layer"])
        result.details.update(layer)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "traced": traced,
        "env": env.describe(),
        "correct": all(p.correct for p in parts),
        "attempted": sum(p.attempted for p in parts),
        "failed": sum(p.failed for p in parts),
        "problems": [problem for p in parts for problem in p.problems],
        "metrics": metrics,
        "details": {k: {"value": v, "unit": u} for k, (v, u) in result.details.items()},
    }


def _print_record(record: dict) -> None:
    name = record["workload"]
    mode = "traced" if record["traced"] else "untraced"
    print(f"== {name} (seed {record['seed']}, {record['seconds']:g} s, {mode}): "
          f"{record['attempted']} attempted, {record['failed']} failed, "
          f"correct={record['correct']}")
    for problem in record["problems"]:
        print(f"   CHECK FAILED: {problem}")
    for key, metric in {**record["details"], **record["metrics"]}.items():
        print(f"   {key:<44} {metric['value']:>16.6g} {metric['unit']}")


def _append(path, record: dict) -> None:
    import json
    from pathlib import Path

    path = Path(path)
    runs = json.loads(path.read_text(encoding="utf-8"))["runs"] if path.exists() else []
    runs.append(record)
    path.write_text(json.dumps({"runs": runs}, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str]) -> int:
    import argparse

    env.prepare()
    import json

    spec = _spec()
    if argv[:1] == ["compare"]:
        from bench import compare

        return compare.main(argv[1:], spec)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m bench")
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="traffic seed")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--out", help="append each run's record to this JSON file")
    args = parser.parse_args(argv)
    traced = bool(args.trace)

    print(f"environment: {json.dumps(env.describe())}")
    records = []
    for name in [args.workload] if args.workload else names:
        record = run_workload(name, args.seed, args.seconds, traced, spec)
        _print_record(record)
        if args.out:
            _append(args.out, record)
        records.append(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
