#!/usr/bin/env bash
# The pairs gate (ROADMAP 10d): how a PR's parent->change row is made.
#
# Runs the frozen loombench suite on <parent-rev> and on the working
# tree in N alternating pairs per workload — both sides with the same
# seed, the side that runs first alternating from pair to pair — then
# prints
#   * benchmark/tools/report.py spread over the runs, with a/ = parent
#     and b/ = change: medians, IQR/median and how much worse the change
#     is, against each metric's BENCHMARK.json bound (needs >= 2 pairs);
#   * per workload and end-to-end metric, how many pairs the change won,
#     the two medians and the relative change;
#   * any run that failed its oracle or failed more operations than its
#     parent.
# The parent is a fresh `git archive` export of <parent-rev>'s committed
# files, the way the driver checks each side out into a new directory;
# each side builds in its own target directory.
#
#   tools/bench_pairs.sh <parent-rev> [--pairs N] [--workload W] [--seed S] [--smoke]
#
# --workload takes a space-separated list; --seed defaults to 0x100F.
# --smoke runs loombench's tiny sizes for 1 s per run (the CI leg).
# Results land in $BENCH_PAIRS_OUT (default target/bench-pairs). Exits
# nonzero when a run fails or report.py flags a metric.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
usage() {
  echo "usage: $0 <parent-rev> [--pairs N] [--workload W] [--seed S] [--smoke]" >&2
  exit 2
}
rev=""
pairs=10
seed=0x100F
workloads="lib_ingest net_ingest query_hot query_cold ingest_query_mix"
extra=()
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) [ $# -ge 2 ] || usage; pairs="$2"; shift 2 ;;
    --workload) [ $# -ge 2 ] || usage; workloads="$2"; shift 2 ;;
    --seed) [ $# -ge 2 ] || usage; seed="$2"; shift 2 ;;
    --smoke) extra=(--smoke --seconds 1); shift ;;
    -*) usage ;;
    *) [ -z "$rev" ] || usage; rev="$1"; shift ;;
  esac
done
[ -n "$rev" ] && [ "$pairs" -ge 1 ] || usage

out="${BENCH_PAIRS_OUT:-$root/target/bench-pairs}"
rm -rf "$out"
mkdir -p "$out/parent"
git -C "$root" archive "$(git -C "$root" rev-parse --verify "$rev^{commit}")" | tar -x -C "$out/parent"

build() { # <tree> <target-dir>
  CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet --manifest-path "$1/benchmark/Cargo.toml"
}
echo "building parent ($rev) and change" >&2
build "$out/parent" "$out/target-a"
build "$root" "$out/target-b"

status=0
run() { # <side> <workload> <pair>
  local bin="$out/target-$1/release/loombench"
  mkdir -p "$out/$1/$2"
  "$bin" --workload "$2" --seed "$seed" --trace 0 --out-dir "$out/scratch" "${extra[@]}" \
    | tail -n 1 > "$out/$1/$2/$3.json" || {
    echo "pair $3 $2: side $1 exited nonzero" >&2
    status=1
  }
}
for i in $(seq 1 "$pairs"); do
  for w in $workloads; do
    if [ $((i % 2)) -eq 1 ]; then run a "$w" "$i"; run b "$w" "$i"; else run b "$w" "$i"; run a "$w" "$i"; fi
    echo "pair $i/$pairs $w done" >&2
  done
done

if [ "$pairs" -ge 2 ]; then
  python3 "$root/benchmark/tools/report.py" spread "$out" || status=1
else
  echo "(report.py spread needs at least 2 pairs; win counts only)"
fi

python3 - "$out" "$root/BENCHMARK.json" <<'EOF' || status=1
import json, statistics, sys
from pathlib import Path

out, bench = Path(sys.argv[1]), json.loads(Path(sys.argv[2]).read_text())
bad = []

def load(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        bad.append(f"{path}: no result line")
        return None

print(f"\n{'workload':17} {'metric':26} {'b wins':>7} {'median a':>14} {'median b':>14} {'b vs a':>8}")
for wdir in sorted((out / "a").iterdir()):
    pairs = []
    for pa in sorted(wdir.glob("*.json"), key=lambda p: int(p.stem)):
        a, b = load(pa), load(out / "b" / wdir.name / pa.name)
        if a is None or b is None:
            continue
        for side, r in (("a", a), ("b", b)):
            if not r["correct"]:
                bad.append(f"{wdir.name} pair {pa.stem}: side {side} failed its oracle")
        if b["failed"] > a["failed"]:
            bad.append(f"{wdir.name} pair {pa.stem}: change failed {b['failed']} ops, parent {a['failed']}")
        pairs.append((a, b))
    if not pairs:
        continue
    for d in bench["end_to_end"]:
        name, sign = d["name"], 1 if d["better"] == "lower" else -1
        va = [a["metrics"][name]["value"] for a, _ in pairs]
        vb = [b["metrics"][name]["value"] for _, b in pairs]
        wins = sum(sign * (x - y) > 0 for x, y in zip(va, vb))
        ma, mb = statistics.median(va), statistics.median(vb)
        change = (mb - ma) / ma if ma else 0.0
        print(f"{wdir.name:17} {name:26} {wins:>3}/{len(pairs):<3} {ma:14.4f} {mb:14.4f} {change:8.2%}")
for b in bad:
    print("FAIL:", b)
sys.exit(1 if bad else 0)
EOF
exit $status
