#!/usr/bin/env python3
"""Prints loombench results: `table` for one suite run, `spread` for the
A/A check. Units, directions and bounds come from BENCHMARK.json."""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
DEFS = {m["name"]: m for m in BENCH["end_to_end"] + BENCH["per_layer"]}


def table(files):
    ok = True
    for f in files:
        result = json.loads(Path(f).read_text())
        ok &= result["correct"]
        print(f"\n{Path(f).stem}: correct={result['correct']} "
              f"ops_attempted={result['attempted']} ops_failed={result['failed']}")
        print(f"  {'metric':46} {'value':>16} {'unit':8} {'better':7} bound")
        for name, m in result["metrics"].items():
            d = DEFS[name]
            bound = f"{d['bound']:.0%}" if "bound" in d else "-"
            print(f"  {name:46} {m['value']:16.4f} {m['unit']:8} {d['better']:7} {bound}")
    return ok


def spread_rows(out):
    """Per (workload, metric): medians and IQR/median of both A/A sets."""
    out = Path(out)
    rows, bad = [], []
    for wdir in sorted((out / "a").iterdir()):
        runs = {s: [json.loads(p.read_text()) for p in sorted((out / s / wdir.name).glob("*.json"))]
                for s in "ab"}
        for s in "ab":
            for r in runs[s]:
                if not r["correct"]:
                    bad.append(f"{wdir.name}: a run of set {s} failed its oracle")
        for d in BENCH["end_to_end"]:
            name, bound = d["name"], d["bound"]
            medians, spreads = {}, {}
            for s in "ab":
                values = [r["metrics"][name]["value"] for r in runs[s]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                medians[s], spreads[s] = med, (q3 - q1) / med
            sign = 1 if d["better"] == "lower" else -1
            drift = sign * (medians["b"] - medians["a"]) / medians["a"]
            worst = max(spreads.values())
            flags = []
            if name != "setup_s" and worst > bound:
                flags.append("SPREAD>BOUND")
            elif name != "setup_s" and worst > bound / 3:
                flags.append("spread>bound/3")
            if drift > bound:
                flags.append("DRIFT>BOUND")
            rows.append((wdir.name, name, medians["a"], medians["b"], spreads["a"], spreads["b"],
                         drift, bound, " ".join(flags)))
            bad += [f"{wdir.name} {name}: {f}" for f in flags if f.isupper()]
    return rows, bad


def spread(out):
    rows, bad = spread_rows(out)
    print(f"{'workload':17} {'metric':26} {'median a':>14} {'median b':>14} "
          f"{'iqr/med a':>9} {'iqr/med b':>9} {'b worse':>8} {'bound':>6}")
    for w, name, ma, mb, sa, sb, drift, bound, flags in rows:
        print(f"{w:17} {name:26} {ma:14.4f} {mb:14.4f} {sa:9.2%} {sb:9.2%} {drift:8.2%} {bound:6.0%} {flags}")
    for b in bad:
        print("FAIL:", b)
    return not bad


def trajectory(results, aa, label):
    """One trajectory row: the suite's numbers plus the A/A spreads."""
    row = {"label": label, "workloads": {}, "aa": []}
    for f in sorted(Path(results).glob("*.json")):
        workload, trace = f.stem.rsplit(".trace", 1)
        result = json.loads(f.read_text())
        entry = row["workloads"].setdefault(workload, {})
        entry["per_layer" if trace == "1" else "end_to_end"] = {
            name: m["value"] for name, m in result["metrics"].items()}
        entry.setdefault("correct", True)
        entry["correct"] &= result["correct"]
    for detail in sorted(Path(results).parent.glob("*.e2e.json")):
        meta = json.loads(detail.read_text())
        row.setdefault("host", {k: meta[k] for k in (
            "nproc", "cpus_engine", "cpus_load", "commit", "rustc", "features",
            "scratch_filesystem", "open_loop_batches_per_s", "open_loop_batch_records")})
        row["workloads"][meta["workload"]]["seed"] = meta["seed"]
        row["workloads"][meta["workload"]]["query_outcomes"] = meta["query_outcomes"]
    rows, _ = spread_rows(aa)
    for w, name, ma, mb, sa, sb, drift, bound, _flags in rows:
        row["aa"].append({"workload": w, "metric": name, "median_a": ma, "median_b": mb,
                          "iqr_over_median_a": round(sa, 4), "iqr_over_median_b": round(sb, 4),
                          "b_worse_by": round(drift, 4), "bound": bound})
    print(json.dumps(row, indent=1))


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == "trajectory":
        trajectory(*sys.argv[2:])
        sys.exit(0)
    if len(sys.argv) >= 3 and sys.argv[1] == "table":
        sys.exit(0 if table(sys.argv[2:]) else 1)
    if len(sys.argv) == 3 and sys.argv[1] == "spread":
        sys.exit(0 if spread(sys.argv[2]) else 1)
    sys.exit(f"usage: {sys.argv[0]} table FILE... | spread DIR | trajectory RESULTS_DIR AA_DIR LABEL")
