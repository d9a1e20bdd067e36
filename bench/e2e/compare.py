#!/usr/bin/env python3
"""Compares two result directories of bench/e2e/run.sh, parent A against B.

    python3 bench/e2e/compare.py A/ B/ [--agree]

One row per (end-to-end metric, workload): median and quartiles of each side
(statistics.quantiles, n=4), the change of B's median against A's as a share
of A's, and the verdict under the metric's BENCHMARK.json bound:
  ok           B's median is not worse than A's by more than the bound
  REGRESSION   it is
  unresolved   A's own spread (IQR / median) exceeds the bound, and not every
               run of B beats every run of A
It also prints each side's spread against the bound, and pair wins: runs are
paired by seed, B wins a pair when it is strictly better; a gain needs wins in
at least 9 of 10 pairs and a median change larger than A's IQR.

The timing metrics BENCHMARK.json does not bound (UNBOUNDED below) get rows
too, with no bound: "unresolved" unless every run of B beats, or loses to,
every run of A. They never fail the comparison.

The exact metrics (failed_round_share, mae, label_error_rate and the
reference digest) must be identical for every seed run on both sides.

--agree checks two sets of the same code instead: every bounded median must
differ by less than the bound in either direction. Exits non-zero on any
REGRESSION (or disagreement), exact mismatch, or spread above its bound
(setup_s excepted).
"""

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
EXACT = ["failed_round_share", "mae", "label_error_rate"]
# End-to-end metrics the driver reports that BENCHMARK.json leaves unbounded:
# their spread across seeds on a shared 4-vCPU host stays above the 10% bound
# (README, "Bounds and spread"). Name -> which direction is better.
UNBOUNDED = {"round_s": "lower", "close_s": "lower",
             "ingest_reports_per_s": "higher", "cpu_s_per_round": "lower",
             "client_us_per_report": "lower"}


def load(directory, workload):
    path = Path(directory) / f"{workload}.jsonl"
    if not path.exists():
        return {}
    runs = [json.loads(line) for line in path.read_text().splitlines() if line]
    return {run["seed"]: run for run in runs}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--agree", action="store_true",
                        help="two sets of the same code: |change| < bound")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"] + [
        {"name": name, "better": better, "bound": None}
        for name, better in UNBOUNDED.items()]
    bad = []

    print(f"{'workload':16s} {'metric':22s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'change':>8s} {'bound':>6s} "
          f"{'A iqr':>6s} {'B iqr':>6s} {'wins':>6s} verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        a_runs, b_runs = load(args.a, workload), load(args.b, workload)
        if not a_runs or not b_runs:
            print(f"{workload:16s} missing on one side")
            bad.append(f"{workload}: missing")
            continue
        seeds = sorted(set(a_runs) & set(b_runs))
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            a = [a_runs[s]["end_to_end"][name]["value"] for s in sorted(a_runs)]
            b = [b_runs[s]["end_to_end"][name]["value"] for s in sorted(b_runs)]
            a_q1, a_med, a_q3 = quartiles(a)
            b_q1, b_med, b_q3 = quartiles(b)
            change = (b_med - a_med) / a_med
            worse = change if lower else -change
            a_spread = (a_q3 - a_q1) / a_med
            b_spread = (b_q3 - b_q1) / b_med
            better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
            wins = sum(better(b_runs[s]["end_to_end"][name]["value"],
                              a_runs[s]["end_to_end"][name]["value"])
                       for s in seeds)
            all_better = all(better(x, y) for x in b for y in a)
            if bound is None:
                all_worse = all(better(y, x) for x in b for y in a)
                verdict = ("better in every run" if all_better else
                           "worse in every run" if all_worse else "unresolved")
            elif args.agree:
                verdict = "ok" if abs(change) < bound else "DISAGREE"
            elif a_spread > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
            else:
                verdict = "ok"
            if (wins >= 0.9 * len(seeds) and
                    abs(b_med - a_med) > (a_q3 - a_q1) and worse < 0):
                verdict += " (gain)"
            if verdict in ("REGRESSION", "DISAGREE"):
                bad.append(f"{workload} {name}: {verdict}")
            if (bound is not None and name != "setup_s" and
                    max(a_spread, b_spread) > bound):
                verdict += " SPREAD"
                bad.append(f"{workload} {name}: spread above bound")
            bound_text = "-" if bound is None else f"{bound:.0%}"
            print(f"{workload:16s} {name:22s} "
                  f"{a_med:12.6g} [{a_q1:.4g}, {a_q3:.4g}]".ljust(74) +
                  f" {b_med:12.6g} [{b_q1:.4g}, {b_q3:.4g}]".ljust(35) +
                  f" {change:+8.2%} {bound_text:>6s} {a_spread:6.2%} "
                  f"{b_spread:6.2%} {wins:2d}/{len(seeds):<3d} {verdict}")
        for seed in seeds:
            a_run, b_run = a_runs[seed], b_runs[seed]
            for name in EXACT:
                a_value = a_run["extras"].get(name, {}).get("value")
                b_value = b_run["extras"].get(name, {}).get("value")
                if a_value != b_value:
                    bad.append(f"{workload} seed {seed} {name}: "
                               f"{a_value} != {b_value}")
            if a_run["reference_digest"] != b_run["reference_digest"]:
                bad.append(f"{workload} seed {seed}: reference digest differs")
            if not (a_run["correct"] and b_run["correct"]):
                bad.append(f"{workload} seed {seed}: a correctness gate failed")
    if bad:
        print("\nNOT OK:")
        for line in bad:
            print(f"  {line}")
        return 1
    print("\nok: every bounded metric within its bound, exact metrics identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
