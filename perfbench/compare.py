#!/usr/bin/env python3
"""Compare two saved result sets of the benchmark: parent vs change.

    python3 perfbench/compare.py results/parent results/change

Each directory holds the records `run.py --save DIR` writes, one per
(workload, seed, trace). Make both sets with the same --seconds and the
same seeds, alternating which side runs first (README.md, "Comparing").

For every workload and metric the report gives each side's median and
quartiles, the relative change of the medians and the share of seed pairs
the change won (ties count for neither side). End-to-end metrics also get
a verdict against their bound in BENCHMARK.json:

  improved      the change won at least 9/10 of the pairs and the medians
                differ by more than the parent's own quartile distance;
  worse         the change's median is worse than the parent's by more
                than the bound;
  unresolved    the parent's own quartile distance is wider than the
                bound, and not every change run beat every parent run;
  within bound  none of the above.

It also lists runs whose output digests differ between the sides (same
workload, seed and digest key: the outputs must stay bit-identical) and
workloads where the change failed a larger share of its operations. Exit
status 1 when any metric is worse, any digest differs or a larger share
of operations failed.
"""
import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{(workload, trace): {seed: record}}"""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            record = json.load(f)
        c = record["context"]
        runs.setdefault((c["workload"], int(c["trace"])), {})[
            int(c["seed"])] = record
    if not runs:
        sys.exit(f"compare: no result records in {directory}")
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound, won):
    q1, mp, q3 = quartiles(parent)
    mc = statistics.median(change)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (mc - mp)
    if won >= 0.9 and gain > 0 and abs(mc - mp) > q3 - q1:
        return "improved"
    if mp != 0 and (q3 - q1) / abs(mp) > bound:
        all_better = (min(change) > max(parent) if better == "higher"
                      else max(change) < min(parent))
        return "within bound" if all_better else "unresolved"
    if mp != 0 and -gain / abs(mp) > bound:
        return "worse"
    return "within bound"


def fmt(q):
    """median [q1, q3]"""
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {0: spec["end_to_end"], 1: spec["per_layer"]}
    parent, change = load(args.parent), load(args.change)

    bad = False
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        p_runs, c_runs = parent[key], change[key]
        seeds = sorted(set(p_runs) & set(c_runs))
        print(f"\n{workload} ({'traced, per-layer' if trace else 'end-to-end'}"
              f"; {len(p_runs)} parent runs, {len(c_runs)} change runs, "
              f"{len(seeds)} seed pairs)")
        print(f"  {'metric':32} {'parent median [q1, q3]':34} "
              f"{'change median [q1, q3]':34} {'change':>8} {'won':>5}  "
              f"verdict")
        for m in metrics[trace]:
            name = m["name"]
            pv = [r["metrics"][name] for r in p_runs.values()]
            cv = [r["metrics"][name] for r in c_runs.values()]
            sign = 1.0 if m["better"] == "higher" else -1.0
            wins = sum(1 for s in seeds
                       if sign * (c_runs[s]["metrics"][name] -
                                  p_runs[s]["metrics"][name]) > 0)
            won = wins / len(seeds) if seeds else 0.0
            pq, cq = quartiles(pv), quartiles(cv)
            rel = (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else 0.0
            v = ("-" if trace else
                 verdict(pv, cv, m["better"], m["bound"], won))
            bad |= v == "worse"
            print(f"  {name:32} {fmt(pq):34} {fmt(cq):34} "
                  f"{rel:+8.1%} {won:5.0%}  {v}")
        for s in seeds:
            p, c = p_runs[s], c_runs[s]
            if (p["digest_key"] == c["digest_key"]
                    and p["digest"] != c["digest"]):
                bad = True
                print(f"  outputs differ: seed {s} ({p['digest_key']}): "
                      f"{p['digest']} vs {c['digest']}")
        p_failed = sum(r["failed"] for r in p_runs.values())
        c_failed = sum(r["failed"] for r in c_runs.values())
        p_tried = sum(r["attempted"] for r in p_runs.values())
        c_tried = sum(r["attempted"] for r in c_runs.values())
        if c_failed * p_tried > p_failed * c_tried:
            bad = True
            print(f"  more failed operations: {c_failed} of {c_tried} in "
                  f"the change vs {p_failed} of {p_tried} in the parent")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
