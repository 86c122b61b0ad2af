#!/usr/bin/env python3
"""compare.py — judge a prbench result B against a baseline A.

    python3 bench/prbench/compare.py A.json B.json
    python3 bench/prbench/compare.py A1.json,A2.json,... B1.json,B2.json,...

A and B are suite files (build-prbench/results/suite-seed<N>.json, the
committed baselines/seed-*.json) or single-workload files
(build-prbench/results/<workload>.json) from the same benchmark code and
settings. With one file per side, the samples are the timed runs inside
each process. With comma-separated lists (runs of the parent and the change,
alternating which side ran first), the samples are the runs' reported
values and pair i is A_i against B_i; a gain claim needs at least ten such
pairs. Every (workload, end-to-end metric) row gets one verdict, by the
choosing-metrics rules the README quotes:

  better      B wins at least 9/10 of the sample pairs (ties count for
              neither; at least 10 pairs) and the medians differ by more
              than A's interquartile range
  worse       B's reported value (the median timed run, or the median
              set-up burst) is worse than A's by more than the bound
  unresolved  A's own spread (IQR / median) exceeds the bound, so "no worse
              than the bound" cannot be shown, and neither side beats every
              run of the other
  unchanged   none of the above

Single-valued metrics (peak_rss_mb) of single runs are compared by value
against the bound. Per-layer metrics are listed with their relative change
(medians over runs) and get no verdict. Any sim_digest difference is
flagged (pair by pair, so pair i must run the same seed on both sides):
the simulated outputs drifted.

Exit status: 1 when any row is worse or any digest changed, else 0.
"""
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "..", "..", "BENCHMARK.json")


def load_runs(paths):
    """{workload: [run, ...]} over the comma-separated result files."""
    runs = {}
    for path in paths.split(","):
        with open(path) as f:
            data = json.load(f)
        for run in data["workloads"] if "workloads" in data else [data]:
            runs.setdefault(run["workload"], []).append(run)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(value_a, value_b, a, b, bound, lower_is_better):
    """Verdict and detail for one row: reported values and sample lists."""
    def better(x, y):  # x better than y
        return x < y if lower_is_better else x > y

    change = (value_b - value_a) / value_a if value_a else 0.0
    worse_by = change if lower_is_better else -change
    if len(a) == 1 or len(b) == 1:
        status = "worse" if worse_by > bound else "unchanged"
        return status, change, ""

    med_a, med_b = statistics.median(a), statistics.median(b)
    q1, q3 = quartiles(a)
    iqr = q3 - q1
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if better(y, x))
    detail = f"wins {wins}/{len(pairs)}, A IQR {iqr / med_a:.1%}"
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and abs(med_b - med_a) > iqr and better(med_b, med_a)):
        return "better", change, detail
    if worse_by > bound:
        return "worse", change, detail
    if iqr / med_a > bound:
        if all(better(y, x) for x in a for y in b):
            return "better", change, detail
        return "unresolved", change, detail
    return "unchanged", change, detail


def metric(runs, name):
    """(reported value, samples) of a metric over one or more runs, or None.

    One run: its reported value and its per-run samples. Several: the
    median of their reported values, and those values as the samples.
    """
    ms = [r["metrics"].get(name) for r in runs]
    if any(m is None for m in ms):
        return None
    if len(ms) == 1:
        return ms[0]["value"], ms[0].get("samples") or [ms[0]["value"]]
    values = [m["value"] for m in ms]
    return statistics.median(values), values


def main(argv):
    if len(argv) != 3:
        print("usage: compare.py A.json[,A2.json...] B.json[,B2.json...]",
              file=sys.stderr)
        return 2
    with open(BENCHMARK) as f:
        bench = json.load(f)
    runs_a, runs_b = load_runs(argv[1]), load_runs(argv[2])

    bad = False
    print(f"{'workload':16} {'metric':34} {'A':>12} {'B':>12} {'change':>8}  verdict")
    for workload in [w["name"] for w in bench["workloads"]]:
        a, b = runs_a.get(workload), runs_b.get(workload)
        if a is None or b is None:
            print(f"{workload:16} missing from {'A' if a is None else 'B'}")
            continue
        for x, y in zip(a, b):  # pair i ran the same seed on both sides
            if x["sim_digest"] != y["sim_digest"]:
                bad = True
                print(f"{workload:16} sim_digest {x['sim_digest']} -> "
                      f"{y['sim_digest']}  DIGEST CHANGED: simulated outputs "
                      f"drifted (seed {x['seed']})")
        for m in bench["end_to_end"]:
            ma, mb = metric(a, m["name"]), metric(b, m["name"])
            if ma is None or mb is None:
                print(f"{workload:16} {m['name']:34} missing")
                continue
            status, change, detail = verdict(
                ma[0], mb[0], ma[1], mb[1], m["bound"], m["better"] == "lower")
            bad |= status == "worse"
            print(f"{workload:16} {m['name']:34} {ma[0]:12.6g} {mb[0]:12.6g} "
                  f"{change:+8.1%}  {status} (bound {m['bound']:.0%}"
                  f"{'; ' + detail if detail else ''})")
        for m in bench["per_layer"]:
            ma, mb = metric(a, m["name"]), metric(b, m["name"])
            if ma is None or mb is None:
                continue
            va, vb = ma[0], mb[0]
            change = f"{(vb - va) / va:+8.1%}" if va else f"{'':8}"
            print(f"{workload:16} {m['name']:34} {va:12.6g} {vb:12.6g} {change}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
