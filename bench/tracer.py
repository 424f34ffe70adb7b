"""Per-module tracing of graphknap from outside the package.

``Tracer.install`` replaces every binding of each wrapped function: the
defining module and every ``graphknap.*`` module that imported it by name,
so calls between modules are seen as well as calls from the benchmark.
Spanned functions record (name, parent span, start, end) in memory; the
per-letter functions in ``COUNTED`` only count calls, because a span per
letter would cost more than the work it measures.  ``uninstall`` puts the
original functions back.  The untraced runs never install anything.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

# (module, function, metric name, quantities); "letters", "states_out",
# "components_out" and "value_max" are read from arguments or results.
SPANNED: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("alphabet", "classify", "classify", ("calls", "self_s")),
    ("alphabet", "decompose", "decompose", ("calls", "self_s")),
    ("trace", "step_sequence", "step_sequence", ("calls", "letters", "self_s")),
    ("group", "canonical_order", "canonical_order", ("calls", "letters", "self_s")),
    ("group", "reduce_word", "reduce_word", ("calls", "self_s")),
    ("group", "is_identity", "is_identity", ("calls", "letters", "self_s")),
    ("knapsack", "solve", "solve", ("calls", "self_s")),
    ("knapsack", "solve_within_bounds", "solve_within_bounds", ("calls", "self_s")),
    ("knapsack", "solve_subset_sum", "solve_subset_sum", ("calls", "self_s")),
    ("knapsack", "preprocess", "preprocess", ("calls", "self_s")),
    ("knapsack", "tameness_bound", "tameness_bound", ("calls", "value_max")),
    ("knapsack", "verify_solution", "verify_solution", ("calls", "self_s")),
    ("knapsack", "solution_set", "solution_set", ("calls", "self_s")),
    ("knapsack", "brute_force_solutions", "brute_force_solutions", ("calls", "self_s")),
    ("semilinear", "intersect_with_hyperplane", "intersect_with_hyperplane",
     ("calls", "components_out", "self_s")),
    ("semilinear", "_minimal_solutions", "minimal_solutions", ("calls", "self_s")),
    ("automata", "unroll_loops", "unroll_loops", ("calls", "states_out", "self_s")),
    ("automata", "membership_one", "membership_one", ("calls", "self_s")),
    ("automata", "membership_one_brute", "membership_one_brute", ("calls", "self_s")),
    ("cancellation", "local_semilinear_cover", "local_semilinear_cover",
     ("calls", "components_out", "self_s")),
    ("gadgets", "sat_to_p4_automata", "sat_to_p4_automata", ("self_s",)),
    ("gadgets", "sat_to_p4_knapsack", "sat_to_p4_knapsack", ("self_s", "letters")),
    ("gadgets", "acyclic_automaton_to_knapsack_f2", "acyclic_automaton_to_knapsack_f2", ("self_s",)),
    ("jsonio", "instance_from_json", "instance_from_json", ("self_s",)),
    ("jsonio", "outcome_to_json", "outcome_to_json", ("self_s",)),
)

# Per-letter functions: call counts only.
COUNTED: Tuple[Tuple[str, str, str], ...] = (
    ("group", "append_reduced", "append_reduced"),
    ("alphabet", "IndependenceAlphabet.dependent", "dependent"),
)

# Cache statistics of semilinear's process-wide lru_cache.
CACHED: Tuple[Tuple[str, str], ...] = (("semilinear", "decompose_hyperplane_solutions"),)

BETTER = {"calls": "lower", "self_s": "lower", "letters": "lower", "states_out": "lower",
          "components_out": "lower", "value_max": "lower", "cache_hits": "higher",
          "cache_misses": "lower"}
UNITS = {"self_s": "s"}


def _size(quantity: str, args, result) -> int:
    if quantity == "letters":
        if hasattr(result, "equation"):  # a gadget instance
            return result.equation.size
        return len(args[0])
    if quantity == "states_out":
        return result.n_states
    if quantity == "components_out":
        return len(result.components)
    if quantity == "value_max":
        return result.value
    raise ValueError(quantity)


def per_layer_names() -> List[Tuple[str, str, str]]:
    """(metric name, unit, better) for every per-layer metric, in report order."""
    out = []
    for module, _, metric, quantities in SPANNED:
        for q in quantities:
            out.append((f"{module}.{metric}.{q}", UNITS.get(q, "count"), BETTER[q]))
    for module, _, metric in COUNTED:
        out.append((f"{module}.{metric}.calls", "count", "lower"))
    for module, func in CACHED:
        out.append((f"{module}.{func}.cache_hits", "count", "higher"))
        out.append((f"{module}.{func}.cache_misses", "count", "lower"))
    out.append(("trace_overhead", "ratio", "lower"))
    return out


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]
        self.counts: Dict[str, List[int]] = {}
        self.sizes: Dict[str, int] = {}
        self.missing: List[str] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name: str, func: Callable, quantities: Tuple[str, ...]) -> Callable:
        sized = [q for q in quantities if q not in ("calls", "self_s")]
        sizes = self.sizes
        begin, finish = self.begin, self.finish

        def wrapper(*args, **kwargs):
            idx = begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                finish(idx)
            for q in sized:
                key = f"{name}.{q}"
                value = _size(q, args, result)
                if q == "value_max":
                    sizes[key] = max(sizes.get(key, 0), value)
                else:
                    sizes[key] = sizes.get(key, 0) + value
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def _counted(self, name: str, func: Callable) -> Callable:
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args):
            cell[0] += 1
            return func(*args)

        wrapper.__wrapped__ = func
        return wrapper

    # -- installation --------------------------------------------------------

    def _rebind(self, module_name: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "graphknap" or n.startswith("graphknap."))]
        owner = sys.modules.get(f"graphknap.{module_name}")
        if "." in attr:  # a method: patch the class attribute
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            func = getattr(cls, meth, None) if cls is not None else None
            if func is None:
                self.missing.append(f"{module_name}.{attr}")
                return
            self._restore.append((cls, meth, func))
            setattr(cls, meth, make(func))
            return
        func = getattr(owner, attr, None)
        if func is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = make(func)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is func:
                    self._restore.append((module, name, func))
                    setattr(module, name, wrapper)

    def install(self) -> None:
        for module, func, metric, quantities in SPANNED:
            name = f"{module}.{metric}"
            self._rebind(module, func, lambda f, n=name, q=quantities: self._spanned(n, f, q))
        for module, func, metric in COUNTED:
            name = f"{module}.{metric}"
            self._rebind(module, func, lambda f, n=name: self._counted(n, f))

    def uninstall(self) -> None:
        for owner, name, func in reversed(self._restore):
            setattr(owner, name, func)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def aggregate(self, root: Optional[str] = None) -> Tuple[Dict[str, int], Dict[str, float]]:
        """Exact call counts and self time (duration minus direct children)
        per span name; with ``root``, only spans under root spans of that name."""
        calls: Dict[str, int] = {}
        self_s: Dict[str, float] = {}
        names, name, parent, start, end = self.names, self.name, self.parent, self.start, self.end
        roots = array("l")
        for i in range(len(start)):
            p = parent[i]
            roots.append(i if p < 0 else roots[p])
            if root is not None and names[name[roots[i]]] != root:
                continue
            n = names[name[i]]
            dur = end[i] - start[i]
            calls[n] = calls.get(n, 0) + 1
            self_s[n] = self_s.get(n, 0.0) + dur
            if p >= 0:
                pn = names[name[p]]
                self_s[pn] = self_s.get(pn, 0.0) - dur
        if root is None:
            for n, cell in self.counts.items():
                calls[n] = cell[0]
        return calls, self_s

    def by_module(self, root: Optional[str] = None) -> Tuple[Dict[str, int], Dict[str, float]]:
        """Calls and share of self time per module (benchmark spans by name)."""
        calls, self_s = self.aggregate(root)
        total = sum(self_s.values()) or 1.0
        module_calls: Dict[str, int] = {}
        share: Dict[str, float] = {}
        for name in set(calls) | set(self_s):
            module = name if name.startswith("bench.") else name.split(".")[0]
            module_calls[module] = module_calls.get(module, 0) + calls.get(name, 0)
            share[module] = share.get(module, 0.0) + self_s.get(name, 0.0) / total
        return module_calls, share

    def metrics(self, caches: Dict[str, dict]) -> Dict[str, float]:
        """Every per-layer metric except trace_overhead; ``caches`` maps an
        lru_cache'd function's name to its cache_info fields."""
        calls, self_s = self.aggregate()
        out: Dict[str, float] = {}
        for module, _, metric, quantities in SPANNED:
            name = f"{module}.{metric}"
            for q in quantities:
                if q == "calls":
                    out[f"{name}.calls"] = calls.get(name, 0)
                elif q == "self_s":
                    out[f"{name}.self_s"] = self_s.get(name, 0.0)
                else:
                    out[f"{name}.{q}"] = self.sizes.get(f"{name}.{q}", 0)
        for module, _, metric in COUNTED:
            name = f"{module}.{metric}"
            out[f"{name}.calls"] = calls.get(name, 0)
        for module, func in CACHED:
            info = caches.get(func, {})
            out[f"{module}.{func}.cache_hits"] = info.get("hits", 0)
            out[f"{module}.{func}.cache_misses"] = info.get("misses", 0)
        return out

    def write_spans(self, path: str) -> None:
        """Spans as gzip'd tab-separated rows: id, parent, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{names[self.name[i]]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
