#!/usr/bin/env bash
# bench_snapshot.sh — capture a performance snapshot of the hot paths.
#
# Runs bench/obs_overhead (simulation-loop cost per configuration, plus
# the idle-check churn counters of a READ run),
# bench/micro_benchmarks (google-benchmark JSON),
# bench/fleet_throughput (the BM_FleetThroughput family up to the
# 10k-disk / 100M-request fleet day), and bench/redundancy_bench (the
# degraded-read / rebuild-overhead points), and merges them into
# BENCH_<date>.json at the repo root: benchmark -> ns/op plus the key
# sim.* counters, a "fleet" section, and a "redundancy" section. Commit
# the file to record a before/after pair across a performance PR (see
# docs/PERFORMANCE.md).
#
# Usage: scripts/bench_snapshot.sh [output.json]
#   BUILD_DIR=dir   build directory (default: build; configured Release if
#                   missing)
#   MIN_TIME=secs   google-benchmark --benchmark_min_time (default: 0.1)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
MIN_TIME="${MIN_TIME:-0.1}"
OUT="${1:-BENCH_$(date +%F).json}"

if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$BUILD_DIR" --target obs_overhead micro_benchmarks \
  fleet_throughput redundancy_bench -j

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# obs_overhead prints the table and drops CSVs where PR_RESULTS_DIR says.
PR_RESULTS_DIR="$TMP" "$BUILD_DIR/bench/obs_overhead" | tee "$TMP/obs_overhead.txt"

"$BUILD_DIR/bench/micro_benchmarks" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_format=json >"$TMP/micro.json"

# The fleet family materializes its workloads once per point and replays
# them, so the timed region is pure simulator; the 100M-request point runs
# a single iteration (~6 s simulated fleet day).
"$BUILD_DIR/bench/fleet_throughput" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_format=json >"$TMP/fleet.json"

# Degraded reads and the rebuild engine; the fault plans are fixed event
# lists, so every iteration replays the identical faulted run.
"$BUILD_DIR/bench/redundancy_bench" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_format=json >"$TMP/redundancy.json"

python3 - "$TMP" "$OUT" <<'EOF'
import csv, json, os, subprocess, sys

tmp, out = sys.argv[1], sys.argv[2]

snapshot = {
    "commit": subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True).stdout.strip() or None,
    "benchmarks": {},
    "fleet": {},
    "redundancy": {},
    "obs_overhead": {},
    "sim_counters": {},
}

with open(os.path.join(tmp, "micro.json")) as f:
    micro = json.load(f)
snapshot["context"] = {
    k: micro.get("context", {}).get(k)
    for k in ("date", "host_name", "num_cpus", "mhz_per_cpu", "library_build_type")
}
for b in micro.get("benchmarks", []):
    entry = {"real_time_ns": b["real_time"], "cpu_time_ns": b["cpu_time"]}
    if "items_per_second" in b:
        entry["ns_per_item"] = 1e9 / b["items_per_second"]
    snapshot["benchmarks"][b["name"]] = entry

with open(os.path.join(tmp, "fleet.json")) as f:
    fleet = json.load(f)
for b in fleet.get("benchmarks", []):
    entry = {"real_time_ms": b["real_time"]}
    if "items_per_second" in b:
        entry["requests_per_second"] = b["items_per_second"]
        entry["ns_per_request"] = 1e9 / b["items_per_second"]
    if "fleet_disks" in b:
        entry["fleet_disks"] = int(b["fleet_disks"])
    snapshot["fleet"][b["name"]] = entry

with open(os.path.join(tmp, "redundancy.json")) as f:
    redundancy = json.load(f)
for b in redundancy.get("benchmarks", []):
    entry = {"real_time_ms": b["real_time"]}
    if "items_per_second" in b:
        entry["requests_per_second"] = b["items_per_second"]
        entry["ns_per_request"] = 1e9 / b["items_per_second"]
    snapshot["redundancy"][b["name"]] = entry

with open(os.path.join(tmp, "obs_overhead.csv")) as f:
    for row in csv.DictReader(f):
        snapshot["obs_overhead"][row["configuration"]] = {
            "seconds": float(row["seconds"]),
            "vs_detached": float(row["vs_detached"]),
        }

with open(os.path.join(tmp, "obs_overhead_counters.csv")) as f:
    for row in csv.DictReader(f):
        snapshot["sim_counters"][row["counter"]] = int(row["value"])

with open(out, "w") as f:
    json.dump(snapshot, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out}")
EOF
