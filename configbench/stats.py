#!/usr/bin/env python3
"""Summarises and compares configbench result sets.

A result set is a JSON-lines file as run.sh writes it: one object per run,
{"workload": ..., "seed": ..., "result": <the driver's last stdout line>}.

    python3 configbench/stats.py summary RESULTS.jsonl
        Per workload and end-to-end metric: runs, median, quartiles and
        the quartile spread as a share of the median, against the metric's
        bound in BENCHMARK.json ("!" marks a spread above a third of it).

    python3 configbench/stats.py agree A.jsonl B.jsonl
        Whether two sets of runs of the same commit agree: for every
        (workload, end-to-end metric) pair the medians may differ by at most
        the metric's bound. Exits 1 if any pair disagrees, or any run failed.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def load(path):
    """{workload: {metric: [values]}}, plus the runs that were not correct."""
    values, failed = {}, []
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            run = json.loads(line)
            result = run["result"]
            if not result or not result["correct"] or result["failed"]:
                failed.append("%s seed %s" % (run["workload"], run["seed"]))
            if not result:
                continue  # The run printed no result at all.
            per_metric = values.setdefault(run["workload"], {})
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
    return values, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summary(path):
    bounds = load_bounds()
    values, failed = load(path)
    for workload in sorted(values):
        print(workload)
        for name, vals in values[workload].items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name, {}).get("bound")
            flag = "!" if bound is not None and spread > bound / 3 else " "
            print("  %-26s n=%-3d median %-14.6g q1 %-14.6g q3 %-14.6g "
                  "spread %6.2f%% %s bound %s" %
                  (name, len(vals), med, q1, q3, 100 * spread, flag,
                   "-" if bound is None else "%g%%" % (100 * bound)))
    for run in failed:
        print("FAILED RUN: " + run)
    return 1 if failed else 0


def agree(path_a, path_b):
    bounds = load_bounds()
    a, failed_a = load(path_a)
    b, failed_b = load(path_b)
    ok = not failed_a and not failed_b
    for workload in sorted(set(a) | set(b)):
        for name, spec in bounds.items():
            va = a.get(workload, {}).get(name)
            vb = b.get(workload, {}).get(name)
            if not va or not vb:
                print("%-13s %-26s missing from one set" % (workload, name))
                ok = False
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            diff = abs(mb - ma) / ma if ma else 0.0
            verdict = "ok" if diff <= spec["bound"] else "DISAGREE"
            ok = ok and verdict == "ok"
            print("%-13s %-26s %14.6g %14.6g  %6.2f%% (bound %g%%)  %s" %
                  (workload, name, ma, mb, 100 * diff, 100 * spec["bound"],
                   verdict))
    for run in failed_a + failed_b:
        print("FAILED RUN: " + run)
    return 0 if ok else 1


def main(argv):
    if len(argv) == 3 and argv[1] == "summary":
        return summary(argv[2])
    if len(argv) == 4 and argv[1] == "agree":
        return agree(argv[2], argv[3])
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
