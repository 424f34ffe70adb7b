"""JSON (de)serialization for the documented external interfaces.

Schemas:
  alphabet   {"generators": ["a", "b"], "edges": [["a", "b"]]}
  word       ["a", "a^-1"]
  automaton  {"states": N, "initial": 0, "finals": [..],
              "transitions": [{"from": 0, "to": 1, "label": [..]}, ..],
              "loops": [{"state": 2, "label": [..]}, ..]}
  instance   {"alphabet": .., "constants": [word, ..], "cycles": [word, ..],
              "variables": ["x1", ..], "mode": "knapsack"|"subsetsum"|"integer"}
  semilinear {"components": [{"base": [..], "periods": [[..], ..]}, ..]}
"""

from __future__ import annotations

import json
from typing import Any, List

from .alphabet import DecompositionNode, DirectZ, FreeProduct, IndependenceAlphabet, Trivial
from .automata import WordAutomaton
from .errors import GraphKnapError, JsonFormatError
from .group import GroupWord, word_from_strs, word_to_strs
from .knapsack import ExponentEquation, SolveOutcome
from .semilinear import LinearSet, SemilinearSet


def dumps(obj: Any) -> str:
    """Deterministic rendering: sorted keys, no incidental whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _require(doc: dict, key: str, kind: type = object):
    if key not in doc:
        raise JsonFormatError(f"missing key {key!r}")
    if not isinstance(doc[key], kind):
        raise JsonFormatError(f"{key!r} must be a {kind.__name__}, got {doc[key]!r}")
    return doc[key]


def alphabet_to_json(alpha: IndependenceAlphabet) -> dict:
    edges = sorted(sorted(e, key=alpha.index) for e in alpha.edges)
    return {"generators": list(alpha.generators), "edges": edges}


def alphabet_from_json(doc: dict) -> IndependenceAlphabet:
    if not isinstance(doc, dict):
        raise JsonFormatError("alphabet document must be an object")
    try:
        return IndependenceAlphabet(_require(doc, "generators"), doc.get("edges", []))
    except GraphKnapError:
        raise
    except (TypeError, ValueError) as exc:
        raise JsonFormatError(f"bad alphabet document: {exc}") from exc


def word_from_json(items, alpha: IndependenceAlphabet = None) -> GroupWord:
    if not isinstance(items, list) or not all(isinstance(s, str) for s in items):
        raise JsonFormatError(f"word must be a list of strings, got {items!r}")
    return word_from_strs(items, alpha)


def word_to_json(word: GroupWord) -> List[str]:
    return word_to_strs(word)


def automaton_to_json(automaton: WordAutomaton) -> dict:
    return {
        "states": automaton.n_states,
        "initial": automaton.initial,
        "finals": sorted(automaton.finals),
        "transitions": [
            {"from": src, "to": dst, "label": word_to_json(label)}
            for src, label, dst in automaton.transitions
        ],
        "loops": [
            {"state": q, "label": word_to_json(label)} for q, label in automaton.loops
        ],
    }


def _int(doc: dict, key: str) -> int:
    value = _require(doc, key, int)
    if isinstance(value, bool):
        raise JsonFormatError(f"{key!r} must be an int, got {value!r}")
    return value


def _objects(doc: dict, key: str) -> list:
    """The list of objects under ``key`` (empty when absent)."""
    entries = doc.get(key, [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise JsonFormatError(f"{key!r} must be a list of objects, got {entries!r}")
    return entries


def automaton_from_json(doc: dict, alpha: IndependenceAlphabet = None) -> WordAutomaton:
    if not isinstance(doc, dict):
        raise JsonFormatError("automaton document must be an object")
    transitions = tuple(
        (_int(entry, "from"), word_from_json(_require(entry, "label"), alpha), _int(entry, "to"))
        for entry in _objects(doc, "transitions")
    )
    loops = tuple(
        (_int(entry, "state"), word_from_json(_require(entry, "label"), alpha))
        for entry in _objects(doc, "loops")
    )
    finals = _require(doc, "finals", list)
    if not all(isinstance(q, int) and not isinstance(q, bool) for q in finals):
        raise JsonFormatError(f"'finals' must be a list of ints, got {finals!r}")
    return WordAutomaton(
        n_states=_int(doc, "states"),
        initial=_int(doc, "initial"),
        finals=frozenset(finals),
        transitions=transitions,
        loops=loops,
    )


def instance_to_json(eq: ExponentEquation) -> dict:
    return {
        "alphabet": alphabet_to_json(eq.alphabet),
        "constants": [word_to_json(w) for w in eq.constants],
        "cycles": [word_to_json(w) for w in eq.cycles],
        "variables": list(eq.variables),
        "mode": eq.mode,
    }


def instance_from_json(doc: dict) -> ExponentEquation:
    if not isinstance(doc, dict):
        raise JsonFormatError("instance document must be an object")
    alpha = alphabet_from_json(_require(doc, "alphabet"))
    constants = tuple(word_from_json(w, alpha) for w in _require(doc, "constants", list))
    cycles = tuple(word_from_json(w, alpha) for w in _require(doc, "cycles", list))
    variables = _require(doc, "variables", list)
    if not all(isinstance(v, str) for v in variables):
        raise JsonFormatError("variables must be strings")
    return ExponentEquation(
        alphabet=alpha,
        constants=constants,
        cycles=cycles,
        variables=tuple(variables),
        mode=doc.get("mode", "knapsack"),
    )


def semilinear_to_json(s: SemilinearSet) -> dict:
    return {
        "components": [
            {"base": list(c.base), "periods": [list(p) for p in c.periods]}
            for c in s.components
        ]
    }


def semilinear_from_json(doc: dict) -> SemilinearSet:
    if not isinstance(doc, dict):
        raise JsonFormatError("semilinear document must be an object")
    components = []
    for entry in _require(doc, "components"):
        components.append(
            LinearSet.make(tuple(_require(entry, "base")), [tuple(p) for p in entry.get("periods", [])])
        )
    return SemilinearSet(tuple(components))


def outcome_to_json(outcome: SolveOutcome) -> dict:
    return {
        "status": outcome.status,
        "assignment": outcome.assignment,
        "bound": outcome.bound,
        "bound_provenance": outcome.bound_provenance,
        "budget": outcome.budget,
        "method": outcome.method,
    }


def cancellation_to_json(cancellation) -> List[List[int]]:
    """Sorted list of sorted 1-based block-index lists."""
    return sorted(sorted(edge) for edge in cancellation)


def cancellation_from_json(doc) -> frozenset:
    if not isinstance(doc, list):
        raise JsonFormatError("cancellation document must be a list of index lists")
    edges = []
    for entry in doc:
        if not isinstance(entry, list) or not all(isinstance(i, int) and i >= 1 for i in entry):
            raise JsonFormatError(f"bad cancellation edge {entry!r}")
        edges.append(frozenset(entry))
    return frozenset(edges)


def tree_to_json(node: DecompositionNode) -> dict:
    if isinstance(node, Trivial):
        return {"kind": "trivial"}
    if isinstance(node, DirectZ):
        return {"kind": "direct_z", "apex": node.apex, "child": tree_to_json(node.child)}
    if isinstance(node, FreeProduct):
        return {"kind": "free_product", "children": [tree_to_json(c) for c in node.children]}
    raise JsonFormatError(f"unknown tree node {node!r}")
