#!/usr/bin/env python3
"""Prints a result directory of bench/e2e/run.sh and checks its gates.

    python3 bench/e2e/summarize.py DIR

For every workload: each end-to-end metric the driver reports (median and
quartiles over the untraced runs, with its unit; those BENCHMARK.json bounds
are starred), the exact metrics, each per-layer metric of
the traced runs, the ladder with the gap each layer adds, and the self time
of every span name in the first traced run's trace. Exits non-zero when any
run failed a correctness gate.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
LADDER = ["ladder.kernels_s", "ladder.run_sharded_s", "ladder.pipeline_s",
          "ladder.server_round_s", "ladder.sim_dist_round_s",
          "ladder.uds_dist_round_s"]


def load(path):
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def spread(values):
    """(median, q1, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def row(name, values, unit):
    med, q1, q3 = spread(values)
    iqr = (q3 - q1) / med if med else 0.0
    return (f"  {name:34s} {med:14.6g} {unit:10s} "
            f"[{q1:.6g}, {q3:.6g}] iqr/med={iqr:6.2%} n={len(values)}")


def self_times(trace_path):
    """Per span name: (count, total self seconds, total seconds)."""
    events = json.loads(Path(trace_path).read_text())["traceEvents"]
    children = defaultdict(list)
    for event in events:
        children[event["args"]["parent"]].append(event)
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    for event in events:
        start, end = event["ts"], event["ts"] + event["dur"]
        covered, cursor = 0.0, start
        for child in sorted(children[event["args"]["span"]],
                            key=lambda c: c["ts"]):
            lo = max(child["ts"], cursor)
            hi = min(child["ts"] + child["dur"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        entry = totals[event["name"]]
        entry[0] += 1
        entry[1] += (event["dur"] - covered) * 1e-6
        entry[2] += event["dur"] * 1e-6
    return totals


def main():
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    results = Path(sys.argv[1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    meta = results / "meta.json"
    if meta.exists():
        print(f"meta: {meta.read_text().strip()}")
    for workload in (w["name"] for w in spec["workloads"]):
        plain = load(results / f"{workload}.jsonl")
        traced = load(results / f"{workload}.traced.jsonl")
        if not plain and not traced:
            continue
        print(f"\n== {workload}")
        for run in plain + traced:
            if not run["correct"]:
                failures.append(f"{workload} seed {run['seed']}: "
                                f"{run['failures'] or 'failed rounds'}")
        if plain:
            print(" end-to-end (untraced runs; * = bounded in BENCHMARK.json):")
            bounded = {m["name"] for m in spec["end_to_end"]}
            for name, metric in plain[0]["end_to_end"].items():
                values = [r["end_to_end"][name]["value"] for r in plain]
                mark = "*" if name in bounded else " "
                print(row(mark + name, values, metric["unit"]))
            print(" exact and descriptive:")
            for name in sorted({k for r in plain for k in r["extras"]}):
                values = [r["extras"][name]["value"] for r in plain
                          if name in r["extras"] and
                          r["extras"][name]["value"] is not None]
                if values:
                    print(row(name, values, plain[0]["extras"][name]["unit"]))
        if traced:
            print(" per-layer (traced runs):")
            for metric in spec["per_layer"]:
                values = [r["layers"][metric["name"]]["value"] for r in traced
                          if metric["name"] in r["layers"]]
                if values:
                    print(row(metric["name"], values, metric["unit"]))
            print(" ladder (each gap is the cost of the layer that row adds):")
            previous = None
            for name in LADDER:
                value = statistics.median(r["layers"][name]["value"]
                                          for r in traced)
                gap = "" if previous is None else f"  gap {value - previous:+.6f} s"
                print(f"  {name:34s} {value:14.6f} s{gap}")
                previous = value
            trace_path = ROOT / traced[0]["trace"]
            if trace_path.exists():
                print(f" self time by span ({traced[0]['trace']}):")
                totals = self_times(trace_path)
                for name, (count, own, total) in sorted(
                        totals.items(), key=lambda item: -item[1][1])[:30]:
                    print(f"  {name:34s} self {own:10.4f} s  total "
                          f"{total:10.4f} s  n={count}")
    if failures:
        print("\nFAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nall correctness gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
