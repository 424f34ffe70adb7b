#!/usr/bin/env python3
"""Run the benchmark over several seeds and collect one result file.

    python3 bench/series.py --seeds 1-10 --out bench/out/series.json
    python3 bench/series.py --seeds 1-10 --root ../parent --root . \\
        --out bench/out/parent.json --out bench/out/change.json

Every run is ``bench/run.py`` in a fresh interpreter (so the library's
process-wide caches start cold), one at a time.  With two ``--root``
checkouts the runs alternate per seed, A then B for even positions and B
then A for odd ones, so that drift on the machine hits both sides alike;
``bench/compare.py`` then pairs the runs by seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import git_sha  # noqa: E402

RUN_TIMEOUT_S = 900


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    fingerprint = next((ln.rsplit(" ", 1)[-1] for ln in lines if "corpus sha256" in ln), None)
    return {
        "seed": seed,
        "exit": proc.returncode,
        "elapsed_s": elapsed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "corpus_sha256": fingerprint,
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "stderr": proc.stderr[-2000:] if proc.returncode else "",
    }


def summarize(runs):
    out = {}
    names = sorted({n for r in runs for n in r["metrics"]})
    for name in names:
        values = [r["metrics"][name] for r in runs if name in r["metrics"]]
        if len(values) < 2:
            continue
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None, "n": len(values)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", action="append", help="checkout root (default: this one)")
    parser.add_argument("--out", action="append", required=True, help="one result file per root")
    args = parser.parse_args(argv)

    given = args.root or [os.path.relpath(os.path.dirname(HERE))]
    roots = [os.path.abspath(r) for r in given]
    if len(roots) != len(args.out) or len(roots) > 2:
        parser.error("give one --out per --root, at most two")
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    docs = [{
        "git_sha": git_sha(root),
        "root": name,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seconds": seconds,
        "trace": args.trace,
        "runs": {},
    } for root, name in zip(roots, given)]
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        for position, seed in enumerate(seeds):
            order = list(range(len(roots)))
            if position % 2:
                order.reverse()
            for side in order:
                run = one_run(roots[side], workload, seed, seconds, args.trace)
                docs[side]["runs"].setdefault(workload, []).append(run)
                ok = ok and run["exit"] == 0 and run["correct"]
                shown = " ".join(f"{k}={v:.4g}" for k, v in sorted(run["metrics"].items())
                                 if not k.endswith(".self_s"))[:300]
                print(f"{'AB'[side]} {workload} seed {seed}: exit {run['exit']} "
                      f"correct {run['correct']} {shown}", flush=True)
    for doc, path in zip(docs, args.out):
        doc["summary"] = {w: summarize(runs) for w, runs in doc["runs"].items()}
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
