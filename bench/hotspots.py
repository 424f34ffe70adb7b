#!/usr/bin/env python3
"""Trace the two slow instances named in ROADMAP.md, once each.

    python3 bench/hotspots.py            # several minutes; writes bench/out/hotspots.json

- ``k15-gadget``: ``sat_to_p4_knapsack`` of the formula [[1, -1], [-1]]
  (k = 15, 1118 letters) through ``solve_within_bounds`` at the gadget's
  bounds; about 178 s untraced on a 2-core x86 sandbox under Python 3.11.
- ``criterion6-f2``: the F2 instance of acceptance criterion 6 (tameness
  bound 372) through ``solve``; about 52 s untraced there.

They run outside the timed workloads: each takes longer than one benchmark
run may.  The output gives each hotspot's verdict, wall time and
per-module split of self time, from the same wrappers as a traced run.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

from run import OUT, git_sha, load_library


def hotspots(lib):
    gadget = lib.sat_to_p4_knapsack(lib.CnfFormula.make(1, [[1, -1], [-1]]))
    f2 = lib.validate_alphabet(["a", "b"], [])

    def w(text):
        return lib.word_from_strs(text.split()) if text else ()

    criterion6 = lib.ExponentEquation(
        f2,
        (w(""), w(""), w("a^-1 b b a^-1"), w("")),
        (w("b b b^-1 a^-1"), w("b a^-1"), w("a b^-1")),
        ("x0", "x1", "x2"),
    )
    return [
        ("k15-gadget", "solvable",
         lambda: "unsolvable" if lib.solve_within_bounds(gadget.equation, gadget.bounds) is None
         else "solvable"),
        ("criterion6-f2", "unsolvable",
         lambda: lib.solve(criterion6, lib.SolverLimits(search_ceiling=64)).status),
    ]


def main() -> int:
    lib = load_library()
    import tracer as tracing

    os.makedirs(OUT, exist_ok=True)
    doc = {"git_sha": git_sha(), "python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
           "hotspots": {}}
    ok = True
    for name, expected, call in hotspots(lib):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            span = tracer.begin("bench.decide")
            t0 = time.perf_counter()
            got = call()
            wall = time.perf_counter() - t0
            tracer.finish(span)
        finally:
            tracer.uninstall()
        calls, self_s = tracer.aggregate()
        _, modules = tracer.by_module()
        tracer.write_spans(os.path.join(OUT, f"spans-hotspot-{name}.tsv.gz"))
        ok = ok and got == expected
        doc["hotspots"][name] = {
            "verdict": got, "expected": expected, "traced_wall_s": wall,
            "module_self_share": modules, "calls": calls, "self_s": self_s,
        }
        print(f"{name}: {got} (expected {expected}) in {wall:.1f} s traced; shares "
              + ", ".join(f"{m} {v:.3f}" for m, v in sorted(modules.items(), key=lambda kv: -kv[1])),
              flush=True)
    with open(os.path.join(OUT, "hotspots.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
