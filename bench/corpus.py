"""Seeded corpus for the graphknap benchmark.

Every instance is derived from the workload seed and the syntactic
parameters in ``WORKLOADS`` alone: no instance is kept or dropped because of
a verdict, a bound or a time the library computes.  Generation uses plain
word arithmetic written here (never the library's word problem), so two
commits that build instances the same way decide identical inputs; the
corpus fingerprint shows it.

Each instance is a ``Item``: one decision (which library call, on which
input) plus the independent reference its verdict is checked against.
Items reach the library only after a round trip through ``jsonio``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import graphknap
from graphknap import gadgets, jsonio

Word = Tuple[Tuple[str, int], ...]

# -- alphabets ---------------------------------------------------------------------

ALPHABETS = {
    "Z1": (["a"], []),
    "Z2": (["a", "b"], [["a", "b"]]),
    "Z3": (["a", "b", "c"], [["a", "b"], ["a", "c"], ["b", "c"]]),
    "F2": (["a", "b"], []),
    "F3": (["a", "b", "c"], []),
    "ZxF2": (["a", "b", "z"], [["a", "z"], ["b", "z"]]),
    "P4": (["a", "b", "c", "d"], [["a", "b"], ["b", "c"], ["c", "d"]]),
    "C4": (["a", "b", "c", "d"], [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]]),
}


# -- plain word arithmetic (independent of the library) ----------------------------


def random_word(rng: random.Random, gens: Sequence[str], lo: int, hi: int) -> Word:
    return tuple((rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(lo, hi)))


def inverse(word: Word) -> Word:
    return tuple((g, -s) for g, s in reversed(word))


def free_reduce(word: Word) -> Word:
    """Cancel adjacent inverse pairs only (no commutations)."""
    out: List[Tuple[str, int]] = []
    for letter in word:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def substituted(constants: Sequence[Word], cycles: Sequence[Word], exponents: Sequence[int]) -> Word:
    """h0 u1^t1 h1 ... uk^tk hk as a plain letter sequence."""
    out = list(constants[0])
    for cycle, t, const in zip(cycles, exponents, constants[1:]):
        out.extend(cycle * t)
        out.extend(const)
    return tuple(out)


def planted_equation(
    rng: random.Random, gens: Sequence[str], k: int, cycle_len: int, const_len: int, exp_max: int,
    variant: str = "planted",
) -> Tuple[List[Word], List[Word], Optional[List[int]]]:
    """Random cycles and leading constants; the last constant closes the word
    so the drawn exponents solve it.  ``variant`` "scrambled" shuffles the
    letters of the last constant: exponent sums stay the same (the abelian
    precheck passes), the planted witness is lost.  "random" draws the last
    constant like the others."""
    cycles = [random_word(rng, gens, 1, cycle_len) for _ in range(k)]
    constants = [random_word(rng, gens, 0, const_len) for _ in range(k)]
    exponents = [rng.randint(0, exp_max) for _ in range(k)]
    last = list(free_reduce(inverse(substituted(constants + [()], cycles, exponents))))
    if variant == "planted":
        return constants + [tuple(last)], cycles, exponents
    if variant == "scrambled":
        rng.shuffle(last)
    else:
        last = random_word(rng, gens, 0, const_len)
    return constants + [tuple(last)], cycles, None


# -- items -------------------------------------------------------------------------


@dataclass
class Item:
    """One decision: ``kind`` names the library call, ``doc`` the jsonio
    document it is decoded from, ``ref`` the independent reference data."""

    family: str
    kind: str
    doc: dict
    ref: Dict[str, Any] = field(default_factory=dict)
    obj: Any = None
    automaton: Any = None


def _equation_doc(alpha: "graphknap.IndependenceAlphabet", constants, cycles) -> dict:
    eq = graphknap.ExponentEquation(
        alpha,
        tuple(constants),
        tuple(cycles),
        tuple(f"x{i}" for i in range(len(cycles))),
    )
    return jsonio.instance_to_json(eq)


def _planted_items(
    rng: random.Random, family: str, kind: str, alphabet_names: Sequence[str], count: int,
    ks: Sequence[int], cycle_len: int, const_len: int, exp_max: int,
    variants: Sequence[str] = ("planted", "scrambled"),
) -> List[Item]:
    """Instances cycling through the variants, alphabets in rotation."""
    alphabets = [graphknap.IndependenceAlphabet(*ALPHABETS[name]) for name in alphabet_names]
    items = []
    for n in range(count):
        alpha_name = alphabet_names[n % len(alphabet_names)]
        alpha = alphabets[n % len(alphabet_names)]
        k = rng.choice(ks)
        constants, cycles, witness = planted_equation(
            rng, alpha.generators, k, cycle_len, const_len, exp_max, variants[n % len(variants)]
        )
        doc = _equation_doc(alpha, constants, cycles)
        items.append(Item(family, kind, doc, {"alphabet": alpha_name, "planted": witness}))
    return items


# -- families ----------------------------------------------------------------------
# Each family function returns the family's items in decision order.


def criterion8_formulas() -> List[List[List[int]]]:
    """The 629 two-variable formulas of the acceptance suite's criterion 8."""
    lits = [1, -1, 2, -2]
    patterns = sorted(
        {tuple(sorted(c)) for c in itertools.combinations_with_replacement(lits, 3)}
        | {tuple(sorted(c)) for c in itertools.combinations_with_replacement(lits, 2)}
        | {(lit,) for lit in lits}
    )
    formulas = [[list(c)] for c in patterns]
    for c1, c2 in itertools.combinations_with_replacement(patterns, 2):
        formulas.append([list(c1), list(c2)])
    return formulas


def one_clause_formulas() -> List[List[List[int]]]:
    """All one-variable one-clause formulas (clauses of one to three literals)."""
    patterns = sorted(
        {tuple(sorted(c)) for size in (1, 2, 3)
         for c in itertools.combinations_with_replacement([1, -1], size)}
    )
    return [[list(c)] for c in patterns]


def forest_planted(rng, count):
    return _planted_items(rng, "forest", "solve", ["F2", "F3", "ZxF2"], count,
                          ks=(1, 2), cycle_len=3, const_len=2, exp_max=6)


def sat_pipeline(rng, count):
    """Criterion-8 formulas in a seeded order, stratified by shape (clauses,
    literals, negative literals) so every prefix holds each shape in
    proportion: the shape sets most of a formula's cost."""
    strata: Dict[Tuple[int, int, int], List[List[List[int]]]] = {}
    for clauses in criterion8_formulas():
        literals = [set(c) for c in clauses]
        shape = (len(clauses), sum(map(len, literals)), sum(l < 0 for c in literals for l in c))
        strata.setdefault(shape, []).append(clauses)
    groups = [strata[shape] for shape in sorted(strata)]
    for group in groups:
        rng.shuffle(group)
    items = []
    for clauses in interleave(groups, [len(g) for g in groups])[:count]:
        formula = gadgets.CnfFormula.make(2, clauses)
        a1, a2 = gadgets.sat_to_p4_automata(formula)
        combined = gadgets.intersection_to_group_membership(a1, a2)
        unrolled = graphknap.unroll_loops(combined, gadgets.sat_witness_budget(formula))
        doc = jsonio.automaton_to_json(unrolled)
        items.append(Item("sat-pipeline", "membership_one", doc,
                          {"clauses": clauses, "n_vars": 2, "alphabet": "P4"}))
    return items


def sat_gadget(rng, count):
    formulas = one_clause_formulas()
    rng.shuffle(formulas)
    items = []
    for clauses in formulas[:count]:
        gadget = gadgets.sat_to_p4_knapsack(gadgets.CnfFormula.make(1, clauses))
        doc = jsonio.instance_to_json(gadget.equation)
        items.append(Item("sat-gadget", "solve_within_bounds", doc,
                          {"clauses": clauses, "n_vars": 1, "bounds": list(gadget.bounds)}))
    return items


def general_random(rng, count):
    """Random P4/C4 instances, led by the two probes named in the roadmap:
    a^x b = 1 and (a c a^-1 c^-1)^(x+1) = 1 on P4."""
    p4 = graphknap.IndependenceAlphabet(*ALPHABETS["P4"])
    commutator = (("a", 1), ("c", 1), ("a", -1), ("c", -1))
    probes = [
        Item("general-random", "solve", _equation_doc(p4, [(), (("b", 1),)], [(("a", 1),)]),
             {"alphabet": "P4", "planted": None}),
        Item("general-random", "solve", _equation_doc(p4, [(), commutator], [commutator]),
             {"alphabet": "P4", "planted": None}),
    ]
    rest = _planted_items(rng, "general-random", "solve", ["P4", "C4"], max(count - 2, 0),
                          ks=(1, 2, 3), cycle_len=4, const_len=4, exp_max=0, variants=("random",))
    return (probes + rest)[:count]


def complete_abelian(rng, count):
    return _planted_items(rng, "complete", "solve", ["Z1", "Z2", "Z3"], count,
                          ks=(1, 2, 3), cycle_len=3, const_len=3, exp_max=4,
                          variants=("planted", "random"))


def small_sets(rng, count):
    return _planted_items(rng, "solution-set", "solution_set", ["F2", "ZxF2"], count,
                          ks=(1,), cycle_len=4, const_len=3, exp_max=5)


def f2_gadget(rng, count):
    """Criterion-9 style random acyclic automata over F2, each decided three
    ways: binary subset sum, bounded knapsack at bound 1, path enumeration."""
    letters = [(g, s) for g in ("a", "b") for s in (1, -1)]
    items = []
    for _ in range(count):
        n = rng.randint(2, 5)
        transitions = []
        for _ in range(rng.randint(1, 6)):
            src = rng.randrange(n - 1)
            dst = rng.randrange(src + 1, n)
            label = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
            transitions.append((src, label, dst))
        automaton = graphknap.WordAutomaton(n, 0, frozenset({n - 1}), tuple(transitions))
        gadget = gadgets.acyclic_automaton_to_knapsack_f2(automaton)
        aut_doc = jsonio.automaton_to_json(automaton)
        eq_doc = jsonio.instance_to_json(gadget.equation)
        for kind in ("solve_subset_sum", "solve_within_bounds", "membership_one_brute"):
            doc = aut_doc if kind == "membership_one_brute" else eq_doc
            ref = {"automaton": aut_doc, "bounds": 1, "alphabet": "F2"}
            items.append(Item("f2-gadget", kind, doc, ref))
    return items


# -- workloads ---------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    make: Callable[[random.Random, int], List[Item]]
    count: int     # instances generated per run (the timed loop may not reach all)
    weight: float  # share of the decision stream while the family lasts


@dataclass(frozen=True)
class Workload:
    families: Tuple[Family, ...]
    limits: Dict[str, int]  # explicit SolverLimits for every decision
    traced: int             # stream prefix decided by a traced run; peak_rss_mb covers it


WORKLOADS: Dict[str, Workload] = {
    "forest-sweep": Workload(
        families=(
            Family(forest_planted, 32000, 1.0),
        ),
        limits={"search_ceiling": 64, "node_cap": 200_000, "automaton_states": 600},
        traced=3000,
    ),
    "sat-p4": Workload(
        families=(
            Family(sat_pipeline, 629, 6.0),
            Family(sat_gadget, 9, 0.3),
            Family(general_random, 300, 2.0),
        ),
        limits={"search_ceiling": 64, "node_cap": 200_000},
        traced=100,
    ),
    "sets-oracle": Workload(
        families=(
            Family(complete_abelian, 3000, 1.0),
            Family(small_sets, 3000, 1.0),
            Family(f2_gadget, 3000, 3.0),
        ),
        limits={"enumeration_cap": 5_000, "cover_base_cap": 512, "node_cap": 200_000},
        traced=1000,
    ),
}


def interleave(streams: Sequence[list], weights: Sequence[float]) -> list:
    """Merge the streams so every prefix holds each stream in proportion to
    its weight, while the stream lasts."""
    taken = [0] * len(streams)
    out: list = []
    while True:
        live = [i for i, s in enumerate(streams) if taken[i] < len(s)]
        if not live:
            return out
        pick = min(live, key=lambda i: ((taken[i] + 1) / weights[i], i))
        out.append(streams[pick][taken[pick]])
        taken[pick] += 1


def generate(workload: str, seed: int) -> List[Item]:
    """The workload's decision stream for this seed (documents only)."""
    spec = WORKLOADS[workload]
    streams = []
    for index, family in enumerate(spec.families):
        rng = random.Random(f"{workload}/{index}/{seed}")
        streams.append(family.make(rng, family.count))
    return interleave(streams, [f.weight for f in spec.families])


def decode(items: List[Item]) -> None:
    """JSON round trip of every document through jsonio, in place."""
    cache: Dict[str, Any] = {}
    for item in items:
        text = jsonio.dumps(item.doc)
        doc = json.loads(text)
        if item.kind in ("membership_one", "membership_one_brute"):
            item.obj = jsonio.automaton_from_json(doc)
        else:
            item.obj = jsonio.instance_from_json(doc)
        if "automaton" in item.ref:
            key = jsonio.dumps(item.ref["automaton"])
            if key not in cache:
                cache[key] = jsonio.automaton_from_json(json.loads(key))
            item.automaton = cache[key]


def fingerprint(items: List[Item]) -> str:
    """SHA-256 over the decision kinds and jsonio documents, in stream order."""
    h = hashlib.sha256()
    for item in items:
        h.update(jsonio.dumps([item.family, item.kind, item.doc, item.ref]).encode())
        h.update(b"\n")
    return h.hexdigest()
