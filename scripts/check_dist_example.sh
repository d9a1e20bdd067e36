#!/usr/bin/env bash
# Runs README's 2-shard UDS deployment of dptd_example_dist_node and checks
# that every round prints the same truths=/weights= digests as the in-process
# simulator fleet (--transport=sim --sim-shards=2): the bit-equality claim of
# the multi-process example, end to end over real processes and sockets.
#
# Usage: scripts/check_dist_example.sh [BUILD_DIR] [METHOD...]
#   BUILD_DIR defaults to build; METHODs default to "crh vote".
set -euo pipefail

cd "$(dirname "$0")/.."

build="${1:-build}"
shift || true
methods=("$@")
[ ${#methods[@]} -gt 0 ] || methods=(crh vote)
node="$build/examples/dptd_example_dist_node"
[ -x "$node" ] || { echo "check_dist_example: $node not built" >&2; exit 1; }

dir=$(mktemp -d /tmp/dptd_dist_example_XXXXXX)
pids=()
cleanup() {
  for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$dir"
}
trap cleanup EXIT

digests() {
  sed -nE 's/^(round [0-9]+):.* (truths=[0-9a-f]+) (weights=[0-9a-f]+).*/\1 \2 \3/p' "$1"
}

status=0
for method in "${methods[@]}"; do
  pids=()
  for i in 0 1; do
    rm -f "$dir/s$i.sock"
    "$node" --role=shard --id=$((1000 + i)) --listen="unix:$dir/s$i.sock" \
      --idle-timeout=60 > "$dir/shard$i.txt" 2>&1 &
    pids+=($!)
  done
  for i in 0 1; do
    for _ in $(seq 100); do
      [ -S "$dir/s$i.sock" ] && break
      sleep 0.05
    done
  done
  "$node" --role=coordinator --method="$method" --users=64 --objects=8 \
    --rounds=2 --shards="1000=unix:$dir/s0.sock,1001=unix:$dir/s1.sock" \
    > "$dir/uds.txt"
  for pid in "${pids[@]}"; do wait "$pid"; done
  pids=()
  "$node" --role=coordinator --transport=sim --sim-shards=2 \
    --method="$method" --users=64 --objects=8 --rounds=2 > "$dir/sim.txt"

  echo "== $method: 2-shard UDS"
  cat "$dir/uds.txt"
  echo "== $method: simulator reference"
  cat "$dir/sim.txt"
  if [ "$(digests "$dir/uds.txt" | wc -l)" -ne 2 ]; then
    echo "check_dist_example: $method printed no digest for some round" >&2
    status=1
  elif ! diff <(digests "$dir/uds.txt") <(digests "$dir/sim.txt"); then
    echo "check_dist_example: $method digests differ across transports" >&2
    status=1
  fi
done
exit $status
