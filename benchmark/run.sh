#!/usr/bin/env bash
# Builds loombench and runs the suite: every workload (or one) untraced,
# and with --trace a second, traced pass for the per-layer metrics.
# Prints every metric by name with unit, direction and bound, and exits
# nonzero if any run failed its oracle.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace] [--smoke]
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/benchmark/out"
workloads="lib_ingest net_ingest query_hot query_cold ingest_query_mix"
seed=0x100F
seconds=""
trace=0
extra=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workloads="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace=1; shift ;;
    --smoke) extra+=(--smoke); [ -n "$seconds" ] || seconds=1; shift ;;
    *) echo "usage: $0 [--workload W] [--seed S] [--seconds N] [--trace] [--smoke]" >&2; exit 2 ;;
  esac
done
[ -z "$seconds" ] || extra+=(--seconds "$seconds")

loombench() {
  cargo run --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml" -- "$@"
}

mkdir -p "$out/results"
status=0
files=()
for w in $workloads; do
  for t in $(seq 0 "$trace"); do
    f="$out/results/$w.trace$t.json"
    echo "== $w (trace $t)" >&2
    loombench --workload "$w" --seed "$seed" --trace "$t" "${extra[@]}" | tail -n 1 > "$f" || status=1
    files+=("$f")
  done
done
python3 "$root/benchmark/tools/report.py" table "${files[@]}"
exit $status
