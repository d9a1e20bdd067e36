#!/usr/bin/env python3
"""Runs one workload of the end-to-end round benchmark.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out RESULTS.jsonl]

Builds bench/e2e (Release, into build-bench/e2e) from the checkout's own
sources, runs the driver once, and prints as the last line of standard output
one JSON object with the keys correct, attempted, failed and metrics: every
end-to-end metric BENCHMARK.json names (--trace 0) or every per-layer metric
(--trace 1). --out also appends the driver's full result (extras, failures,
reference digest, trace path) as one JSON line. Build logs go to standard
error. Exits non-zero, printing no result, when the build or the run fails.

--seconds is accepted for the benchmark format and not used: every workload
runs a fixed number of rounds (BENCHMARK.json's run_seconds is about how long
they take), so two commits are always measured on the same work.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = Path("build-bench") / "e2e"  # relative to ROOT
DRIVER_TIMEOUT_S = 170


def run_logged(cmd, env):
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        raise SystemExit(f"run.py: command failed: {' '.join(cmd)}")


def build(env):
    build_dir = ROOT / BUILD
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            run_logged(["cmake", "-S", str(HERE.relative_to(ROOT)), "-B",
                        str(BUILD), "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       env)
        run_logged(["cmake", "--build", str(BUILD), "-j",
                    str(min(4, os.cpu_count() or 1))], env)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="ignored")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result to this JSONL")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # Compilers and the driver keep their temporary files in the checkout.
    tmp = ROOT / BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp), PYTHONDONTWRITEBYTECODE="1")
    build(env)

    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    runs = BUILD / "runs"
    (ROOT / runs).mkdir(parents=True, exist_ok=True)
    result_path = runs / f"{tag}.json"
    sockets = BUILD / f"sk{os.getpid()}"
    cmd = [str(BUILD / "dptd_bench_e2e"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--out={result_path}",
           f"--sockets={sockets}"]
    if args.trace:
        cmd.append(f"--trace={runs / (tag + '.trace.json')}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("run.py: driver timed out")
    finally:
        shutil.rmtree(ROOT / sockets, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"run.py: driver exited with {proc.returncode}")

    result = json.loads((ROOT / result_path).read_text())
    source = result["layers"] if args.trace else result["end_to_end"]
    metrics = {}
    for metric in wanted:
        got = source.get(metric["name"])
        if got is None or got["value"] is None or got["unit"] != metric["unit"]:
            raise SystemExit(f"run.py: metric {metric['name']} missing or "
                             f"not in {metric['unit']}: {got}")
        metrics[metric["name"]] = {"value": got["value"], "unit": got["unit"]}
    if args.out:
        with open(args.out, "a") as out:
            out.write(json.dumps(result, sort_keys=True) + "\n")
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
