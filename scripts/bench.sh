#!/usr/bin/env bash
# bench.sh — run the root reproduction benchmarks and record the results
# as JSON, seeding the repo's perf trajectory (BENCH_*.json).
#
# Usage:
#   scripts/bench.sh [OUT.json]
#
# Environment:
#   BENCH    benchmark regex       (default: Table1EthernetCopy|Figure2LADDIS)
#   COUNT    repetitions           (default: 3; medians are recorded)
#   BASELINE path to a previously recorded JSON to embed under "baseline",
#            adding wall-time and allocation speedup ratios
#
# Each benchmark iteration runs a full simulated experiment with a fixed
# seed, so the custom metric columns (the paper's table cells) must be
# byte-identical between runs and across optimization PRs; ns/op and
# allocs/op are what a perf PR is allowed to move.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_PR4.json}"
bench="${BENCH:-BenchmarkTable1EthernetCopy\$|BenchmarkFigure2LADDIS\$|BenchmarkScaleSweep\$|BenchmarkCrashRecovery\$}"
count="${COUNT:-3}"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench "$bench" -benchmem -short -benchtime=1x \
	-count="$count" . | tee "$raw"

python3 - "$raw" "$out" <<'EOF'
import json, os, re, statistics, subprocess, sys

raw_path, out_path = sys.argv[1], sys.argv[2]
runs = {}
for line in open(raw_path):
    # The -N GOMAXPROCS suffix is not part of the name: strip it so runs on
    # hosts with different CPU counts compare against the same baseline.
    m = re.match(r'^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(\d+) ns/op(.*)', line)
    if not m:
        continue
    name, ns, rest = m.group(1), int(m.group(2)), m.group(3)
    entry = runs.setdefault(name, {"ns": [], "allocs": [], "bytes": [], "metrics": {}})
    entry["ns"].append(ns)
    for val, unit in re.findall(r'(-?[\d.]+) (\S+)', rest):
        if unit == "allocs/op":
            entry["allocs"].append(int(val))
        elif unit == "B/op":
            entry["bytes"].append(int(val))
        else:
            entry["metrics"][unit] = float(val)

result = {
    "go": subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip(),
    "flags": "-short -benchtime=1x",
    "cpus": os.cpu_count(),
    "benchmarks": {},
}
for name, e in sorted(runs.items()):
    result["benchmarks"][name] = {
        "ns_per_op_median": int(statistics.median(e["ns"])),
        "ns_per_op_runs": e["ns"],
        "allocs_per_op": int(statistics.median(e["allocs"])) if e["allocs"] else None,
        "bytes_per_op": int(statistics.median(e["bytes"])) if e["bytes"] else None,
        "metrics": e["metrics"],
    }

base_path = os.environ.get("BASELINE")
if base_path:
    base = json.load(open(base_path))
    result["baseline"] = base
    speedups = {}
    for name, cur in result["benchmarks"].items():
        b = base.get("benchmarks", {}).get(name)
        if not b:
            continue
        s = {"wall_x": round(b["ns_per_op_median"] / cur["ns_per_op_median"], 2)}
        if b.get("allocs_per_op") and cur.get("allocs_per_op"):
            s["allocs_x"] = round(b["allocs_per_op"] / cur["allocs_per_op"], 2)
        s["metrics_identical"] = b.get("metrics") == cur.get("metrics")
        speedups[name] = s
    result["speedup_vs_baseline"] = speedups

json.dump(result, open(out_path, "w"), indent=2)
print(f"wrote {out_path}")
EOF
