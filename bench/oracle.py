"""Decisions and their independent references.

``decide`` makes the one library call an item names and nothing else; it is
the only code inside the timed region.  ``check_all`` runs afterwards,
untimed, and compares every verdict with a reference that does not come
from the solver:

- the planted witness (a planted instance is solvable);
- ``CnfFormula.satisfiable`` for the SAT formulas behind the P4 gadgets;
- path enumeration written here, with the stacked word problem, for the
  F2-gadget automata;
- ``brute_force_solutions`` up to ``BRUTE_BOUND`` for ``unsolvable``,
  ``unknown`` and solution sets;
- every returned assignment re-checked with ``is_identity_stacked`` on
  transitive forests (``is_identity`` on P4/C4, which have no stacked form).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import graphknap
from graphknap import gadgets, jsonio

from corpus import ALPHABETS, substituted

BRUTE_BOUND = 3

_alphabets: Dict[str, graphknap.IndependenceAlphabet] = {}


def alphabet(name: str) -> graphknap.IndependenceAlphabet:
    if name not in _alphabets:
        _alphabets[name] = graphknap.IndependenceAlphabet(*ALPHABETS[name])
    return _alphabets[name]


# -- decisions (timed) -------------------------------------------------------------


def decide(item, limits) -> dict:
    """One decision.  Verdicts: solvable, unsolvable, unknown, exhausted
    (ResourceExhaustedError), error (any other exception)."""
    obj = item.obj
    try:
        if item.kind == "solve":
            outcome = graphknap.solve(obj, limits)
            jsonio.outcome_to_json(outcome)
            return {"verdict": outcome.status, "assignment": outcome.assignment,
                    "budget": outcome.budget}
        if item.kind == "solve_subset_sum":
            outcome = graphknap.solve_subset_sum(obj, limits)
            jsonio.outcome_to_json(outcome)
            return {"verdict": outcome.status, "assignment": outcome.assignment}
        if item.kind == "solve_within_bounds":
            found = graphknap.solve_within_bounds(obj, item.ref["bounds"], limits)
            return {"verdict": "unsolvable" if found is None else "solvable", "assignment": found}
        if item.kind == "membership_one":
            path = graphknap.membership_one(obj, alphabet(item.ref["alphabet"]),
                                            node_cap=limits.node_cap)
            return {"verdict": "unsolvable" if path is None else "solvable", "path": path}
        if item.kind == "membership_one_brute":
            member = graphknap.membership_one_brute(obj, alphabet(item.ref["alphabet"]))
            return {"verdict": "solvable" if member else "unsolvable"}
        if item.kind == "solution_set":
            found = graphknap.solution_set(obj, limits=limits)
            return {"verdict": "unsolvable" if found.is_empty() else "solvable", "set": found}
    except graphknap.ResourceExhaustedError as exc:
        return {"verdict": "exhausted", "error": str(exc)}
    except Exception as exc:  # recorded and counted as failed, never fatal to the run
        return {"verdict": "error", "error": f"{item.family}/{item.kind}: {type(exc).__name__}: {exc}"}
    raise ValueError(f"unknown decision kind {item.kind!r}")


# -- references (untimed) ----------------------------------------------------------


def is_trivial(word, alpha) -> bool:
    """Word problem by the stacked machine where the alphabet allows it."""
    if graphknap.classify(alpha).kind == graphknap.GENERAL:
        return graphknap.is_identity(word, alpha)
    return graphknap.is_identity_stacked(word, graphknap.decompose(alpha))


def _assignment_ok(eq, assignment, bounds=None) -> bool:
    exponents = [assignment.get(v, 0) for v in eq.variables]
    if any(t < 0 for t in exponents):
        return False
    if bounds is not None:
        caps = [bounds] * len(exponents) if isinstance(bounds, int) else bounds
        if any(t > b for t, b in zip(exponents, caps)):
            return False
    return is_trivial(substituted(eq.constants, eq.cycles, exponents), eq.alphabet)


def _accepts_trivial(automaton, alpha) -> bool:
    """Some initial-to-final path has a trivial label (plain enumeration)."""
    outgoing: Dict[int, list] = {}
    for src, label, dst in automaton.transitions:
        outgoing.setdefault(src, []).append((label, dst))

    def walk(state, label) -> bool:
        if state in automaton.finals and is_trivial(label, alpha):
            return True
        return any(walk(dst, label + step) for step, dst in outgoing.get(state, ()))

    return walk(automaton.initial, ())


def _path_ok(automaton, path, alpha) -> bool:
    state, label = automaton.initial, ()
    for idx in path:
        src, step, dst = automaton.transitions[idx]
        if src != state:
            return False
        state, label = dst, label + step
    return state in automaton.finals and is_trivial(label, alpha)


def check(item, result, memo: dict) -> Optional[str]:
    """None when the verdict agrees with the reference, else the reason."""
    verdict = result["verdict"]
    if verdict in ("exhausted", "error"):
        return None
    tag = f"{item.family}/{item.kind} {jsonio.dumps(item.doc)[:160]}"
    obj = item.obj

    if item.family == "f2-gadget":
        key = id(item.automaton)
        if key not in memo:
            memo[key] = _accepts_trivial(item.automaton, alphabet("F2"))
        expected = memo[key]
        if (verdict == "solvable") != expected:
            return f"{tag}: {verdict}, path enumeration says {expected}"
        if result.get("assignment") is not None and not _assignment_ok(obj, result["assignment"], 1):
            return f"{tag}: returned assignment does not verify"
        return None

    if item.kind in ("membership_one", "solve_within_bounds") and "clauses" in item.ref:
        expected = gadgets.CnfFormula.make(item.ref["n_vars"], item.ref["clauses"]).satisfiable()
        if (verdict == "solvable") != expected:
            return f"{tag}: {verdict}, formula satisfiable={expected}"
        if result.get("path") is not None and not _path_ok(obj, result["path"], alphabet("P4")):
            return f"{tag}: witness path is not an accepting path with trivial label"
        assignment = result.get("assignment")
        if assignment is not None and not _assignment_ok(obj, assignment, item.ref["bounds"]):
            return f"{tag}: returned assignment does not verify"
        return None

    if item.kind == "solution_set":
        solutions = graphknap.brute_force_solutions(obj, BRUTE_BOUND)
        brute = {tuple(a[v] for v in obj.variables) for a in solutions}
        members = graphknap.members_up_to(result["set"], BRUTE_BOUND)
        if members != brute:
            return (f"{tag}: solution set up to {BRUTE_BOUND} is {sorted(members)}, "
                    f"brute force {sorted(brute)}")
        return None

    # solve on an equation
    planted = item.ref.get("planted")
    if planted is not None and not _assignment_ok(obj, dict(zip(obj.variables, planted))):
        return f"{tag}: planted witness {planted} does not verify (generator fault)"
    if verdict == "solvable":
        if result.get("assignment") is None or not _assignment_ok(obj, result["assignment"]):
            return f"{tag}: returned assignment does not verify"
    elif verdict == "unsolvable":
        if planted is not None:
            return f"{tag}: unsolvable, but planted witness {planted} solves it"
        if graphknap.brute_force_solutions(obj, BRUTE_BOUND):
            return f"{tag}: unsolvable, but brute force finds a solution up to {BRUTE_BOUND}"
    elif verdict == "unknown":
        budget = result.get("budget")
        if budget is not None and graphknap.brute_force_solutions(obj, min(budget, BRUTE_BOUND)):
            return f"{tag}: unknown after a complete sweep to {budget}, brute force finds a solution"
    else:
        return f"{tag}: unexpected verdict {verdict!r}"
    return None


def check_all(records) -> List[str]:
    memo: dict = {}
    out = []
    for item, result, _ in records:
        problem = check(item, result, memo)
        if problem:
            out.append(problem)
    return out


def family_summary(records) -> Dict[str, dict]:
    out: Dict[str, dict] = {}
    for item, verdict, dt in records:
        key = f"{item.family}/{item.kind}"
        entry = out.setdefault(key, {"count": 0, "seconds": 0.0, "verdicts": {}})
        entry["count"] += 1
        entry["seconds"] += dt
        entry["verdicts"][verdict] = entry["verdicts"].get(verdict, 0) + 1
    return out


# -- semilinear's process-wide caches ----------------------------------------------

_CACHED = ("decompose_hyperplane_solutions", "decompose_onedim_bounded")


def cache_info(lib) -> Dict[str, dict]:
    out = {}
    for name in _CACHED:
        func = getattr(lib.semilinear, name, None)
        if func is not None and hasattr(func, "cache_info"):
            info = func.cache_info()
            out[name] = {"hits": info.hits, "misses": info.misses, "currsize": info.currsize}
    return out


def clear_caches(lib) -> None:
    for name in _CACHED:
        func = getattr(lib.semilinear, name, None)
        if func is not None and hasattr(func, "cache_clear"):
            func.cache_clear()
