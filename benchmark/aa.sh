#!/usr/bin/env bash
# A/A check: runs the untraced suite twice x N on the same commit, each
# run with another seed (as the driver does), and prints per (metric,
# workload) the median, the quartiles and the relative spread against the
# metric's bound. Fails if a spread exceeds its bound, or if the second
# set's median is worse than the first's by more than the bound.
#
#   benchmark/aa.sh [N] [--workload W]        (N defaults to 5)
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/benchmark/out/aa"
n=5
workloads="lib_ingest net_ingest query_hot query_cold ingest_query_mix"
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workloads="$2"; shift 2 ;;
    *) n="$1"; shift ;;
  esac
done
rm -rf "$out"
for set in a b; do
  for i in $(seq 1 "$n"); do
    for w in $workloads; do
      mkdir -p "$out/$set/$w"
      cargo run --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml" -- \
        --workload "$w" --seed "$((1000 + i))" --trace 0 | tail -n 1 > "$out/$set/$w/$i.json" \
        || echo "set $set run $i $w exited nonzero" >&2
      echo "set $set run $i $w done" >&2
    done
  done
done
python3 "$root/benchmark/tools/report.py" spread "$out"
