"""``python -m bench compare A.json B.json``: B against A, under BENCHMARK.json's bounds.

Each file holds the run records ``python -m bench --out FILE`` appended.
For every workload and end-to-end metric, each side is summarised by its
median and quartiles over its untraced runs, and B is marked:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread (quartile distance over median,
  on either side) is wider than the bound, so no verdict is possible,
  unless every run of B reads better than every run of A;
* ``ok`` — otherwise.

The exit code is 1 when any row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from bench import stats


def load_runs(path) -> list[dict]:
    return json.loads(Path(path).read_text(encoding="utf-8"))["runs"]


def spread(values: list[float]) -> float:
    """Quartile distance over the median (0 for a single run)."""
    q1, med, q3 = stats.quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """ok / worse / unresolved for change ``b`` against parent ``a``."""
    sign = 1.0 if better == "lower" else -1.0
    if max(spread(a), spread(b)) > bound:
        if all(sign * y < sign * x for x in a for y in b):
            return "ok"
        return "unresolved"
    med_a, med_b = stats.median(a), stats.median(b)
    change = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    return "worse" if change > bound else "ok"


def compare(runs_a: list[dict], runs_b: list[dict], spec: dict) -> list[dict]:
    """One row per workload and end-to-end metric."""
    def samples(runs):
        table = defaultdict(lambda: defaultdict(list))
        for run in runs:
            if not run["traced"]:
                for name, metric in run["metrics"].items():
                    table[run["workload"]][name].append(metric["value"])
        return table

    side_a, side_b = samples(runs_a), samples(runs_b)
    rows = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for metric in spec["end_to_end"]:
            a, b = side_a[name][metric["name"]], side_b[name][metric["name"]]
            if not a or not b:
                continue
            rows.append({
                "workload": name, "metric": metric["name"], "unit": metric["unit"],
                "a": stats.quartiles(a), "b": stats.quartiles(b),
                "runs": (len(a), len(b)), "bound": metric["bound"],
                "verdict": verdict(a, b, metric["better"], metric["bound"]),
            })
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':<14} {'metric':<18} {'A median [q1, q3]':<34} "
             f"{'B median [q1, q3]':<34} {'change':>8} {'bound':>6}  verdict"]
    for row in rows:
        (a1, a2, a3), (b1, b2, b3) = row["a"], row["b"]
        change = (b2 - a2) / abs(a2) * 100.0 if a2 else 0.0
        side_a = f"{a2:.4g} [{a1:.4g}, {a3:.4g}] {row['unit']}"
        side_b = f"{b2:.4g} [{b1:.4g}, {b3:.4g}] {row['unit']}"
        lines.append(
            f"{row['workload']:<14} {row['metric']:<18} {side_a:<34} {side_b:<34} "
            f"{change:>+7.1f}% {row['bound'] * 100:>5.0f}%  {row['verdict']}"
            f" (runs {row['runs'][0]}/{row['runs'][1]})")
    return "\n".join(lines)


def main(argv: list[str], spec: dict) -> int:
    if len(argv) != 2:
        print("usage: python -m bench compare A.json B.json")
        return 2
    rows = compare(load_runs(argv[0]), load_runs(argv[1]), spec)
    if not rows:
        print("no workload has untraced runs on both sides")
        return 2
    print(render(rows))
    return 1 if any(row["verdict"] != "ok" for row in rows) else 0
