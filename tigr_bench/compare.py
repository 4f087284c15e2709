#!/usr/bin/env python3
"""Compare two sets of tigr_bench result directories.

    python3 tigr_bench/compare.py --base BASE_DIR... --new NEW_DIR...

Each directory holds the BENCH_<workload>.json files of one run. For
every (workload, end-to-end metric) of BENCHMARK.json the script prints
each side's median and quartiles and a verdict:

  better      the new side wins at least 9 of 10 run pairs (ties count
              for neither) and the medians differ by more than the base
              side's interquartile spread;
  unresolved  the base side's spread is wider than the metric's bound,
              and not every new run beats every base run;
  worse       the new median is worse than the base median by more than
              the bound;
  same        otherwise.

It exits 1 when any row is worse. Standard library only.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load(dirs, workload, metric):
    values = []
    for d in dirs:
        path = os.path.join(d, "BENCH_%s.json" % workload)
        try:
            with open(path) as f:
                row = json.load(f)["end_to_end"][metric]
        except (OSError, KeyError, ValueError):
            continue
        values.append(float(row["value"]))
    return values


def verdict(base, new, lower_is_better, bound):
    """Return (verdict, relative change of the median, worse-signed)."""
    better = (lambda a, b: a < b) if lower_is_better else (lambda a, b: a > b)
    b_q1, b_med, b_q3 = quartiles(base)
    n_med = statistics.median(new)
    scale = abs(b_med) if b_med else 1.0
    change = (n_med - b_med) / scale
    worsening = change if lower_is_better else -change
    spread = (b_q3 - b_q1) / scale

    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if better(n, b))
    if pairs and wins >= 0.9 * len(pairs) and abs(n_med - b_med) > b_q3 - b_q1:
        return "better", change
    all_better = all(better(n, b) for n in new for b in base)
    if spread > bound and not all_better:
        return "unresolved", change
    if worsening > bound:
        return "worse", change
    return "same", change


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    parser.add_argument("--benchmark",
                        default=os.path.join(HERE, "..", "BENCHMARK.json"))
    args = parser.parse_args(argv)

    with open(args.benchmark) as f:
        spec = json.load(f)

    header = "%-16s %-22s %26s %26s %8s  %s" % (
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
        "change", "verdict")
    print(header)
    worse = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"]:
            base = load(args.base, workload, m["name"])
            new = load(args.new, workload, m["name"])
            if not base or not new:
                print("%-16s %-22s %26s" % (workload, m["name"], "missing"))
                continue
            result, change = verdict(base, new, m["better"] == "lower",
                                     float(m["bound"]))
            worse += result == "worse"
            b, n = quartiles(base), quartiles(new)
            print("%-16s %-22s %26s %26s %+7.1f%%  %s" % (
                workload, m["name"],
                "%.4g [%.4g, %.4g]" % (b[1], b[0], b[2]),
                "%.4g [%.4g, %.4g]" % (n[1], n[0], n[2]),
                100.0 * change, result))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
