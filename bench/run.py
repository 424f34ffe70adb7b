#!/usr/bin/env python3
"""One run of one graphknap benchmark workload.

    python3 bench/run.py --workload forest-sweep --seed 1 --seconds 25 --trace 0

Builds the seeded corpus from the sources under ``src/`` next to this
directory, decides instances one at a time (one closed-loop client, no
threads or subprocesses) until the decisions have taken ``--seconds`` in
total, checks every verdict against an independent reference right after
its (untimed) decision, and prints the metrics.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-module metrics with ``--trace 1``).  A fuller result file goes to
``bench/out/``.  See bench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import array  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 3       # corpus builds per run; setup_s uses their median
MIN_DECISIONS = 100     # so that at least 10 samples lie beyond p90

# Modules each workload must reach (nonzero traced calls).
HEAVY_MODULES = {
    "forest-sweep": ("knapsack", "group", "trace", "alphabet"),
    "sat-p4": ("automata", "group", "knapsack", "gadgets"),
    "sets-oracle": ("semilinear", "cancellation", "knapsack", "group", "automata", "gadgets"),
}

DECIDED = ("solvable", "unsolvable")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha(root: str = ROOT) -> str:
    """HEAD of a checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def quantile(values, q):
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def rss_mb() -> float:
    """Resident memory of this process now (VmRSS, Linux), in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmRSS line in /proc/self/status")


def max_rss_mb() -> float:
    """Peak resident memory of this process so far (ru_maxrss, Linux), in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_library():
    """Import graphknap from the checkout's own src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "graphknap", "__init__.py")):
        raise SystemExit(f"error: no graphknap sources in {SRC}")
    sys.path.insert(0, SRC)
    import graphknap

    if os.path.dirname(os.path.dirname(os.path.abspath(graphknap.__file__))) != SRC:
        raise SystemExit(f"error: imported graphknap from {graphknap.__file__}, not {SRC}")
    return graphknap


def main(argv=None) -> int:
    args = parse_args(argv)
    graphknap = load_library()
    import corpus
    import oracle

    if args.workload not in corpus.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(corpus.WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    spec = corpus.WORKLOADS[args.workload]
    limits = graphknap.SolverLimits(**spec.limits)

    # -- set-up: corpus generation, gadget construction, jsonio round trip --
    build_s = []
    fingerprints = set()
    for _ in range(SETUP_REPEATS):
        items = None  # let the previous build go before the next one
        t0 = time.perf_counter()
        items = corpus.generate(args.workload, args.seed)
        corpus.decode(items)
        build_s.append(time.perf_counter() - t0)
        fingerprints.add(corpus.fingerprint(items))
    if len(fingerprints) != 1:
        print("error: corpus generation is not deterministic", file=sys.stderr)
        return 2
    fp = fingerprints.pop()
    setup_s = import_s + statistics.median(build_s)
    setup = {"setup_s": setup_s, "import_s": import_s, "build_s": build_s}
    print(f"# workload {args.workload} seed {args.seed}: {len(items)} instances, "
          f"corpus sha256 {fp}", flush=True)
    print(f"# limits {spec.limits}", flush=True)

    if args.trace:
        return traced_run(args, items, limits, fp, setup, graphknap)

    # -- timed phase: one closed-loop client --------------------------------
    # Each verdict is checked right after its decision, outside the decision's
    # timer, and only the verdict and the time are kept: the memory the phase
    # adds is the library's, not a growing list of its results.  peak_rss_mb
    # covers the fixed prefix a traced run decides: semilinear's unbounded
    # caches grow with every new instance, so a peak over the whole run would
    # grow with the decision rate.
    verdicts = []
    times = array.array("d")
    wrong = []
    errors = []
    memo = {}
    decide_s = 0.0
    prefix_peak_mb = None
    rss_start_mb = rss_mb()
    t_phase = time.perf_counter()
    for item in items:
        if len(times) >= MIN_DECISIONS and decide_s >= args.seconds:
            break
        t0 = time.perf_counter()
        result = oracle.decide(item, limits)
        dt = time.perf_counter() - t0
        times.append(dt)
        decide_s += dt
        if len(times) == spec.traced:
            prefix_peak_mb = max_rss_mb()
        verdicts.append(result["verdict"])
        if result["verdict"] == "error":
            errors.append(result["error"])
        problem = oracle.check(item, result, memo)
        if problem:
            wrong.append(problem)
    loop_wall_s = time.perf_counter() - t_phase
    process_peak_mb = max_rss_mb()
    if prefix_peak_mb is None:  # the run ended before the prefix did
        prefix_peak_mb = process_peak_mb
    peak_rss_mb = prefix_peak_mb - rss_start_mb
    n = len(times)
    if n == len(items):
        print(f"# note: corpus exhausted after {n} decisions", flush=True)

    times_ms = [dt * 1000.0 for dt in times]
    decided = sum(v in DECIDED for v in verdicts)
    coverage_ok = all(v in verdicts for v in DECIDED)
    metrics = {
        "decisions_per_s": (n / decide_s, "1/s"),
        "decision_p50_ms": (statistics.median(times_ms), "ms"),
        "decision_p90_ms": (quantile(times_ms, 0.9), "ms"),
        "decided_share": (decided / n, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "setup_s": (setup_s, "s"),
    }
    print(f"# {n} decisions in {decide_s:.3f} s of decision time ({loop_wall_s:.3f} s with checks); "
          f"p90 over {n} samples; process peak {process_peak_mb:.1f} MiB", flush=True)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"wrong_verdicts = {len(wrong)} count")
    for line in wrong[:20]:
        print(f"# WRONG: {line}")
    for line in errors:
        print(f"# error: {line}")
    if not coverage_ok:
        print("# WRONG: decided instances do not include both solvable and unsolvable verdicts")
    caches = oracle.cache_info(graphknap)
    print(f"# semilinear caches: {caches}")

    correct = not wrong and not errors and coverage_ok
    records = list(zip(items, verdicts, times))
    write_result(args, spec, fp, setup, {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "wrong_verdicts": len(wrong),
        "wrong": wrong,
        "errors": len(errors),
        "decide_s": decide_s,
        "loop_wall_s": loop_wall_s,
        "rss_start_mb": rss_start_mb,
        "process_peak_rss_mb": process_peak_mb,
        "caches": caches,
        "families": oracle.family_summary(records),
        "decisions": [[it.family, it.kind, v, round(dt * 1000.0, 4)] for it, v, dt in records],
    })
    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": len(wrong) + len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def traced_run(args, items, limits, fp, setup, graphknap) -> int:
    """Decide a fixed stream prefix untraced, then again traced from cold
    caches; per-module metrics come from the traced pass."""
    import corpus
    import oracle
    import tracer as tracing

    count = corpus.WORKLOADS[args.workload].traced
    prefix = items[:count]
    t0 = time.perf_counter()
    plain = [(item, oracle.decide(item, limits)) for item in prefix]
    untraced_s = time.perf_counter() - t0

    oracle.clear_caches(graphknap)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        span = tracer.begin("bench.setup")
        traced_items = corpus.generate(args.workload, args.seed)
        corpus.decode(traced_items)
        tracer.finish(span)
        rebuilt_fp = corpus.fingerprint(traced_items)
        t0 = time.perf_counter()
        records = []
        for item in traced_items[:count]:
            span = tracer.begin("bench.decide")
            d0 = time.perf_counter()
            result = oracle.decide(item, limits)
            dt = time.perf_counter() - d0
            tracer.finish(span)
            records.append((item, result, dt))
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    caches = oracle.cache_info(graphknap)

    wrong = oracle.check_all(records)
    if rebuilt_fp != fp:
        wrong.append("the traced corpus build differs from the untraced one")
    for (item, a), (_, b, _) in zip(plain, records):
        if a["verdict"] != b["verdict"]:
            wrong.append(f"{item.family}: untraced verdict {a['verdict']}, traced {b['verdict']}")
    verdicts = [r["verdict"] for _, r, _ in records]
    errors = verdicts.count("error")
    coverage_ok = all(v in verdicts for v in DECIDED)

    metrics = tracer.metrics(caches)
    metrics["trace_overhead"] = traced_s / untraced_s
    module_calls, _ = tracer.by_module()
    unreached = [m for m in HEAVY_MODULES.get(args.workload, ()) if not module_calls.get(m)]
    _, module_share = tracer.by_module(root="bench.decide")

    units = {name: unit for name, unit, _ in tracing.per_layer_names()}
    print(f"# traced {len(records)} decisions: {traced_s:.3f} s traced, "
          f"{untraced_s:.3f} s untraced, {len(tracer.start)} spans")
    for module, share in sorted(module_share.items(), key=lambda kv: -kv[1]):
        print(f"# self-time share of decisions, {module}: {share:.3f}")
    for name, value in metrics.items():
        print(f"{name} = {value if isinstance(value, int) else f'{value:.6g}'} {units[name]}")
    for line in wrong[:20]:
        print(f"# WRONG: {line}")
    for name in tracer.missing:
        print(f"# warning: {name} not found, not traced")
    for module in unreached:
        print(f"# FAIL: module {module} has no traced calls on {args.workload}")
    if not coverage_ok:
        print("# WRONG: decided instances do not include both solvable and unsolvable verdicts")

    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    tracer.write_spans(spans_path)
    correct = not wrong and errors == 0 and coverage_ok and not unreached
    write_result(args, corpus.WORKLOADS[args.workload], fp, setup, {
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "module_self_share": module_share,
        "spans_file": os.path.relpath(spans_path, ROOT),
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "caches": caches,
        "wrong": wrong,
        "unreached_modules": unreached,
    })
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(wrong) + errors,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def write_result(args, spec, fp, setup, body) -> None:
    os.makedirs(OUT, exist_ok=True)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "corpus_sha256": fp,
        "limits": spec.limits,
        "setup": setup,
    }
    doc.update(body)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
