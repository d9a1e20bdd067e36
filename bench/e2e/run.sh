#!/usr/bin/env bash
# The end-to-end round benchmark in one command: builds Release into
# build-bench/e2e, runs every workload untraced and traced, prints every
# metric by name with its unit, the layer ladder and per-span self times, and
# exits non-zero when any correctness gate fails.
#
#   bench/e2e/run.sh [--seeds "1 2"] [--workloads "a b"] [--no-trace]
#                    [--out DIR]
#
# Results land in DIR (default build-bench/e2e/results/<timestamp>): one JSON
# line per run in <workload>.jsonl (untraced) and <workload>.traced.jsonl,
# plus meta.json (nproc, git sha). bench/e2e/compare.py compares two such
# directories.
set -euo pipefail
cd "$(dirname "$0")/../.."

seeds="1"
workloads=""
trace=1
out=""
while [ $# -gt 0 ]; do
  case "$1" in
    --seeds) seeds="$2"; shift 2 ;;
    --workloads) workloads="$2"; shift 2 ;;
    --no-trace) trace=0; shift ;;
    --out) out="$2"; shift 2 ;;
    *) echo "usage: $0 [--seeds LIST] [--workloads LIST] [--no-trace] [--out DIR]" >&2
       exit 2 ;;
  esac
done

bench_value() {
  python3 -c "import json, sys; spec = json.load(open('BENCHMARK.json')); $1"
}
[ -n "$workloads" ] ||
  workloads=$(bench_value 'print(" ".join(w["name"] for w in spec["workloads"]))')
[ -n "$out" ] || out="build-bench/e2e/results/$(date +%Y%m%d-%H%M%S)"
mkdir -p "$out"

sha=$(git rev-parse HEAD 2>/dev/null || echo unknown)
python3 - "$out/meta.json" "$sha" "$seeds" <<'EOF'
import json, os, platform, sys, time
path, sha, seeds = sys.argv[1:]
json.dump({"git_sha": sha, "nproc": os.cpu_count(),
           "seeds": [int(s) for s in seeds.split()], "machine": platform.machine(),
           "date": time.strftime("%Y-%m-%dT%H:%M:%S")}, open(path, "w"), indent=1)
EOF

# Workload-major: a workload's runs sit close together in time, so a slow
# spell of the machine spreads over fewer of them.
status=0
for workload in $workloads; do
  for seed in $seeds; do
    modes="0"
    [ "$trace" = 1 ] && modes="0 1"
    for mode in $modes; do
      suffix=""
      [ "$mode" = 1 ] && suffix=".traced"
      echo "run.sh: $workload seed $seed trace $mode" >&2
      python3 bench/e2e/run.py --workload "$workload" --seed "$seed" \
        --trace "$mode" \
        --out "$out/$workload$suffix.jsonl" >/dev/null || status=1
    done
  done
done

python3 bench/e2e/summarize.py "$out" || status=1
exit $status
