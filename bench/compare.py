#!/usr/bin/env python3
"""Compare two result files written by ``bench/series.py``.

    python3 bench/compare.py bench/out/parent.json bench/out/change.json

For each workload and metric: each side's median and quartiles, the share
of pairs (matched by seed) that B wins, and a verdict:

- ``worse``: B's median is worse than A's by more than the bound, or every
  B run is worse than every A run;
- ``better``: B wins at least nine tenths of the pairs (ties count for
  neither) and the medians differ by more than A's quartile distance;
- ``unresolved``: the run-to-run spread (quartile distance over median) of
  either side is wider than the metric's bound, unless every B run beats
  every A run or every A run beats every B run;
- ``same``: none of these.

Bounds and directions come from BENCHMARK.json.  Per-layer metrics have no
bound: counts are reported as equal or not, times with their medians.

Exit code: 1 if any end-to-end metric is ``worse``, else 2 if any is
``unresolved`` (no regression shown, none ruled out), else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(a, b, better: str, bound) -> tuple:
    """(verdict, share of pairs won by B) for two lists of values paired by index."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = [(x, y) for x, y in zip(a, b) if x != y]
    won = sum(1 for x, y in pairs if sign * (y - x) > 0)
    share = won / len(pairs) if pairs else 0.0
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    if bound is None:
        return ("equal" if a == b else "differs"), share
    spread_a = (qa3 - qa1) / abs(ma) if ma else 0.0
    spread_b = (qb3 - qb1) / abs(mb) if mb else 0.0
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    all_worse = all(sign * (y - x) < 0 for x in a for y in b)
    worse_by = sign * (ma - mb) / abs(ma) if ma else 0.0
    if all_worse and (spread_a > bound or spread_b > bound):
        return "worse", share
    if (spread_a > bound or spread_b > bound) and not all_better:
        return "unresolved", share
    if worse_by > bound:
        return "worse", share
    if share >= 0.9 and abs(mb - ma) > (qa3 - qa1):
        return "better", share
    return "same", share


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    spec = {m["name"]: (m["better"], m.get("bound")) for m in bench["end_to_end"] + bench["per_layer"]}
    with open(args.a) as fh:
        doc_a = json.load(fh)
    with open(args.b) as fh:
        doc_b = json.load(fh)
    print(f"A: {doc_a.get('git_sha')} ({doc_a.get('root')})")
    print(f"B: {doc_b.get('git_sha')} ({doc_b.get('root')})")
    regressions = unresolved = 0
    header = (f"{'workload':<13} {'metric':<52} {'A q1/med/q3':>32} {'B q1/med/q3':>32} "
              f"{'B won':>6}  verdict")
    for workload in sorted(set(doc_a["runs"]) & set(doc_b["runs"])):
        runs_a = {r["seed"]: r for r in doc_a["runs"][workload]}
        runs_b = {r["seed"]: r for r in doc_b["runs"][workload]}
        seeds = sorted(set(runs_a) & set(runs_b))
        fps = {(runs_a[s]["corpus_sha256"] == runs_b[s]["corpus_sha256"]) for s in seeds}
        print(f"\n{workload}: {len(seeds)} seeds paired; corpus fingerprints "
              f"{'identical' if fps == {True} else 'DIFFER'}")
        print(header)
        names = []
        if seeds:
            names = sorted(set(runs_a[seeds[0]]["metrics"]) & set(runs_b[seeds[0]]["metrics"]))
        for name in names:
            a = [runs_a[s]["metrics"][name] for s in seeds]
            b = [runs_b[s]["metrics"][name] for s in seeds]
            better, bound = spec.get(name, ("lower", None))
            result, share = verdict(a, b, better, bound)
            regressions += result == "worse"
            unresolved += result == "unresolved"
            qa, qb = quartiles(a), quartiles(b)
            print(f"{workload:<13} {name:<52} {'/'.join(f'{v:.4g}' for v in qa):>32} "
                  f"{'/'.join(f'{v:.4g}' for v in qb):>32} {share:>6.0%}  {result}")
    if regressions:
        return 1
    return 2 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
