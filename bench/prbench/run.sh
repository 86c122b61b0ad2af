#!/usr/bin/env bash
# run.sh — build prbench (Release) and run the benchmark.
#
#   bench/prbench/run.sh [--seed N] [--smoke]
#       Every workload, each in its own process, traced run included.
#       Prints `workload metric value unit` lines, writes
#       build-prbench/results/<workload>.json, the traced spans and
#       build-prbench/results/suite-seed<N>.json, then checks the suite
#       against BENCHMARK.json (check.py). --smoke runs at 1/20 scale with
#       one timed run per workload.
#
#   bench/prbench/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#       One workload. The last stdout line is the JSON result: the
#       end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
#
# Timed runs last run_seconds from BENCHMARK.json unless --seconds is given.
# The build lives in build-prbench/ and touches no file outside it: the
# prbench target is injected into the top-level project through
# CMAKE_PROJECT_press_read_INCLUDE (inject.cmake).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
cd "$root"

build="build-prbench"
workload=""
seed=42
seconds=""
trace=""
smoke=0

while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
if [ -z "$workload" ] && [ -n "$seconds$trace" ]; then
  echo "run.sh: --seconds and --trace go with --workload" >&2
  exit 2
fi

if [ "$smoke" -eq 1 ]; then
  length=(--smoke)
else
  if [ -z "$seconds" ]; then
    seconds="$(python3 -c \
      'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
  fi
  length=(--seconds "$seconds")
fi

# Compiler temporaries stay inside the build directory.
mkdir -p "$build/tmp"
export TMPDIR="$root/$build/tmp"
jobs="$(nproc 2>/dev/null || echo 2)"
[ "$jobs" -gt 4 ] && jobs=4

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S . -B "$build" \
    -DCMAKE_BUILD_TYPE=Release \
    -DPRESS_READ_BUILD_TESTS=OFF \
    -DPRESS_READ_BUILD_BENCH=OFF \
    -DPRESS_READ_BUILD_EXAMPLES=OFF \
    -DPRESS_READ_BUILD_TOOLS=OFF \
    -DCMAKE_PROJECT_press_read_INCLUDE="$here/inject.cmake" >&2
fi
cmake --build "$build" --target prbench -j "$jobs" >&2

results="$build/results"

if [ -n "$workload" ]; then
  exec "$build/prbench" --workload "$workload" --seed "$seed" \
    "${length[@]}" --trace "${trace:-0}" --out "$results"
fi

commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
date="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

workloads=(fig7_grid read_day csv_stream jsonl_telemetry raid5_degraded fleet_day)
status=0
for w in "${workloads[@]}"; do
  rm -f "$results/$w.json"
  set +e
  "$build/prbench" --workload "$w" --seed "$seed" "${length[@]}" --trace 1 \
    --commit "$commit" --date "$date" --out "$results" \
    | grep -v '^{'
  code="${PIPESTATUS[0]}"
  set -e
  if [ "$code" -ne 0 ]; then
    echo "run.sh: workload $w exited with $code" >&2
    status=1
  fi
done

suite="$results/suite-seed$seed.json"
{
  printf '{"commit": "%s", "date": "%s", "smoke": %s, "workloads": [' \
    "$commit" "$date" "$([ "$smoke" -eq 1 ] && echo true || echo false)"
  sep=""
  for w in "${workloads[@]}"; do
    if [ -f "$results/$w.json" ]; then
      printf '%s' "$sep"
      cat "$results/$w.json"
      sep=", "
    fi
  done
  printf ']}\n'
} > "$suite"
echo "run.sh: suite written to $suite" >&2

python3 "$here/check.py" BENCHMARK.json "$suite" || status=1
exit "$status"
