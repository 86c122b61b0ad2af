#!/usr/bin/env python3
"""check.py — gate a prbench suite file against BENCHMARK.json.

    python3 bench/prbench/check.py BENCHMARK.json build-prbench/results/suite-seed42.json

Fails (exit 1) unless every workload BENCHMARK.json names ran, passed its
correctness gate (error_rate 0, request conservation and sim_digest
agreement across runs, checked inside prbench), emitted every end-to-end
and per-layer metric BENCHMARK.json names, has sim.self >= 0, and has a
traced run at most 10 % slower than the untraced runs around it
(bench.trace_overhead_frac). A smoke suite only warns about that overhead:
its single short run is too noisy for the ratio to mean anything.
"""
import json
import sys

MAX_TRACE_OVERHEAD = 0.10


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        bench = json.load(f)
    with open(argv[2]) as f:
        suite = json.load(f)

    runs = {w["workload"]: w for w in suite["workloads"]}
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    problems, warnings = [], []
    for workload in (w["name"] for w in bench["workloads"]):
        run = runs.get(workload)
        if run is None:
            problems.append(f"{workload}: no result")
            continue
        metrics = run["metrics"]
        if not run["correct"]:
            problems.append(f"{workload}: failed runs: {run['errors']}")
        if metrics.get("error_rate", {}).get("value") != 0:
            problems.append(f"{workload}: error_rate is not 0")
        if run["sim_digest"] == "none":
            problems.append(f"{workload}: no sim_digest")
        missing = [n for n in names if n not in metrics]
        if missing:
            problems.append(f"{workload}: missing metrics {missing}")
        sim_self = metrics.get("sim.self_ns_per_request", {}).get("value")
        if sim_self is not None and sim_self < 0:
            problems.append(f"{workload}: sim.self_ns_per_request {sim_self} < 0")
        overhead = metrics.get("bench.trace_overhead_frac", {}).get("value")
        if overhead is not None and overhead > MAX_TRACE_OVERHEAD:
            (warnings if suite["smoke"] else problems).append(
                f"{workload}: bench.trace_overhead_frac {overhead:.3f} > "
                f"{MAX_TRACE_OVERHEAD}")

    for w in warnings:
        print(f"check.py: warning: {w}", file=sys.stderr)
    for p in problems:
        print(f"check.py: FAIL {p}", file=sys.stderr)
    if not problems:
        print(f"check.py: {len(runs)} workloads pass", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
