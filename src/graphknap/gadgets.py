"""Hardness constructions as executable generators.

Two pipelines: 3SAT to a pair of loop automata over the path alphabet whose
trace languages intersect exactly for satisfiable formulas, composed down to a
knapsack instance; and arbitrary acyclic automata over two free generators to
knapsack instances whose solvability (equivalently, zero/one-solvability)
matches membership of the identity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .alphabet import IndependenceAlphabet
from .automata import WordAutomaton, check_acyclic, check_acyclic_loop
from .errors import AutomatonError, JsonFormatError
from .group import EMPTY_WORD, GroupWord, concat, invert_word, word_from_strs
from .knapsack import ExponentEquation

P4_ALPHABET = IndependenceAlphabet(
    ["a", "b", "c", "d"], [["a", "b"], ["b", "c"], ["c", "d"]]
)
F2_ALPHABET = IndependenceAlphabet(["a", "b"], [])


@dataclass(frozen=True)
class CnfFormula:
    """CNF with exactly-3 literal clauses (shorter clauses are padded by
    repeating their last literal)."""

    n_vars: int
    clauses: Tuple[Tuple[int, int, int], ...]

    def __post_init__(self):
        for clause in self.clauses:
            if not clause:
                raise JsonFormatError("empty clause")
            for lit in clause:
                if lit == 0 or abs(lit) > self.n_vars:
                    raise JsonFormatError(f"literal {lit} out of range")

    @classmethod
    def make(cls, n_vars: int, clauses: Sequence[Sequence[int]]) -> "CnfFormula":
        padded = []
        for clause in clauses:
            lits = list(clause)
            if not lits:
                raise JsonFormatError("empty clause")
            while len(lits) < 3:
                lits.append(lits[-1])
            if len(lits) > 3:
                raise JsonFormatError(f"clause {clause!r} has more than three literals")
            padded.append(tuple(lits))
        return cls(n_vars, tuple(padded))

    def satisfied_by(self, valuation: Dict[int, bool]) -> bool:
        return all(
            any((lit > 0) == valuation[abs(lit)] for lit in clause)
            for clause in self.clauses
        )

    def satisfiable(self) -> bool:
        for bits in itertools.product((False, True), repeat=self.n_vars):
            if self.satisfied_by(dict(zip(range(1, self.n_vars + 1), bits))):
                return True
        return False


def parse_dimacs(text: str) -> CnfFormula:
    n_vars = None
    n_clauses = None
    tokens: List[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise JsonFormatError(f"bad header line: {line!r}")
            n_vars, n_clauses = int(parts[2]), int(parts[3])
            continue
        tokens.extend(int(t) for t in line.split())
    if n_vars is None:
        raise JsonFormatError("missing 'p cnf' header")
    clauses: List[List[int]] = []
    current: List[int] = []
    for tok in tokens:
        if tok == 0:
            if current:
                clauses.append(current)
                current = []
        else:
            current.append(tok)
    if current:
        raise JsonFormatError("last clause not zero-terminated")
    if n_clauses is not None and len(clauses) != n_clauses:
        raise JsonFormatError(f"header promises {n_clauses} clauses, found {len(clauses)}")
    return CnfFormula.make(n_vars, clauses)


def to_dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.n_vars} {len(formula.clauses)}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def first_primes(n: int) -> List[int]:
    """The first n primes by trial division."""
    primes: List[int] = []
    candidate = 2
    while len(primes) < n:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


@dataclass(frozen=True)
class GadgetInstance:
    """A generated equation plus provenance and stored witness budgets.

    ``bounds`` gives, per cycle, an exponent budget within which a witness
    must exist whenever one exists at all; a None entry means the generator
    could not certify a budget for that cycle.
    """

    equation: ExponentEquation
    provenance: Tuple[str, ...]
    bounds: Tuple[Optional[int], ...]
    source: str

    def budget(self) -> int:
        if any(b is None for b in self.bounds):
            raise ValueError("no stored witness budget for some cycle")
        return max(self.bounds, default=0)


def _pos_word(text: str) -> GroupWord:
    return word_from_strs(text.split())


def sat_to_p4_automata(formula: CnfFormula) -> Tuple[WordAutomaton, WordAutomaton]:
    """Two loop automata over the path alphabet whose trace languages meet
    exactly when the formula is satisfiable.

    The first accepts, per clause, a (bc)^N d for every N encoding a valuation
    satisfying the clause (multiples of the variable's prime for positive
    literals, the complement classes via offset branches for negative ones);
    the second forces all clause counters equal via b^* (ad (bc)^*)^(m-1) ad c^*.
    """
    primes = first_primes(formula.n_vars)
    m = len(formula.clauses)

    transitions: List[Tuple[int, GroupWord, int]] = []
    loops: List[Tuple[int, GroupWord]] = []
    n_states = m + 1  # clause chain states 0..m; branch states appended after

    def fresh() -> int:
        nonlocal n_states
        n_states += 1
        return n_states - 1

    bc = _pos_word("b c")
    for idx, clause in enumerate(formula.clauses):
        for lit in dict.fromkeys(clause):
            p = primes[abs(lit) - 1]
            if lit > 0:
                mid = fresh()
                transitions.append((idx, _pos_word("a"), mid))
                loops.append((mid, concat(*([bc] * p))))
                transitions.append((mid, _pos_word("d"), idx + 1))
            else:
                for r in range(1, p):
                    mid = fresh()
                    transitions.append((idx, _pos_word("a"), mid))
                    loops.append((mid, concat(*([bc] * p))))
                    transitions.append((mid, concat(*([bc] * r), _pos_word("d")), idx + 1))

    a1 = WordAutomaton(
        n_states=n_states,
        initial=0,
        finals=frozenset({m}),
        transitions=tuple(transitions),
        loops=tuple(loops),
    )

    transitions2: List[Tuple[int, GroupWord, int]] = []
    loops2: List[Tuple[int, GroupWord]] = [(0, _pos_word("b"))]
    for i in range(1, m):
        loops2.append((i, bc))
    loops2.append((m, _pos_word("c")))
    ad = _pos_word("a d")
    for i in range(m):
        transitions2.append((i, ad, i + 1))
    a2 = WordAutomaton(
        n_states=m + 1,
        initial=0,
        finals=frozenset({m}),
        transitions=tuple(transitions2),
        loops=tuple(loops2),
    )
    return a1, a2


def sat_witness_budget(formula: CnfFormula) -> int:
    """Per-loop iteration bound: a satisfying counter value exists below the
    product of the primes, plus slack for the offset branches."""
    primes = first_primes(formula.n_vars)
    product = 1
    for p in primes:
        product *= p
    return product + max(primes, default=0)


def intersection_to_group_membership(a1: WordAutomaton, a2: WordAutomaton) -> WordAutomaton:
    """Loop automaton for L(A1) L(A2)^-1 over the signed alphabet: invert the
    second automaton's labels, reverse its transitions, and concatenate."""
    check_acyclic_loop(a1)
    check_acyclic_loop(a2)
    offset = a1.n_states
    transitions: List[Tuple[int, GroupWord, int]] = list(a1.transitions)
    loops: List[Tuple[int, GroupWord]] = list(a1.loops)
    for src, label, dst in a2.transitions:
        if src == dst:
            loops.append((offset + src, invert_word(label)))
        else:
            transitions.append((offset + dst, invert_word(label), offset + src))
    for q, label in a2.loops:
        loops.append((offset + q, invert_word(label)))
    for final in sorted(a1.finals):
        for a2_final in sorted(a2.finals):
            transitions.append((final, EMPTY_WORD, offset + a2_final))
    return WordAutomaton(
        n_states=a1.n_states + a2.n_states,
        initial=a1.initial,
        finals=frozenset({offset + a2.initial}),
        transitions=tuple(transitions),
        loops=tuple(loops),
    )


def _state_word_p4(state_number: int) -> GroupWord:
    """(ada)^q d (ada)^-q for a one-based state number."""
    ada = _pos_word("a d a")
    block = concat(*([ada] * state_number))
    return concat(block, _pos_word("d"), invert_word(block))


def _double(word: GroupWord) -> GroupWord:
    return tuple(letter for letter in word for _ in range(2))


def _ordered_transitions(automaton: WordAutomaton) -> List[Tuple[int, GroupWord, int]]:
    """All transitions (self-loops included) in an order where every
    transition into a state precedes every transition out of it."""
    evidence = check_acyclic_loop(automaton)
    position = {q: i for i, q in enumerate(evidence.order)}
    combined: List[Tuple[int, GroupWord, int]] = list(automaton.transitions)
    combined.extend((q, label, q) for q, label in automaton.loops)
    combined.sort(key=lambda t: (position[t[0]], position[t[2]]))
    return combined


def loop_automaton_to_knapsack_p4(automaton: WordAutomaton) -> GadgetInstance:
    """Knapsack instance over the path-alphabet group equivalent to membership
    of the identity in the loop automaton's language.

    Each transition (p, w, q) becomes the cycle p~ double(w) q~^-1 with the
    conjugated-letter state encodings; the target is initial~ final~^-1.
    """
    if len(automaton.finals) != 1:
        raise AutomatonError("gadget needs a unique final state")
    ordered = _ordered_transitions(automaton)
    final = next(iter(automaton.finals))

    def state_word(q: int) -> GroupWord:
        return _state_word_p4(q + 1)

    cycles = []
    provenance = []
    bounds: List[Optional[int]] = []
    for src, label, dst in ordered:
        cycles.append(concat(state_word(src), _double(label), invert_word(state_word(dst))))
        kind = "loop" if src == dst else "step"
        provenance.append(f"{kind} {src}->{dst}")
        bounds.append(None if src == dst else 1)
    target_inverse = concat(state_word(final), invert_word(state_word(automaton.initial)))
    constants = (EMPTY_WORD,) * len(cycles) + (target_inverse,)
    equation = ExponentEquation(
        alphabet=P4_ALPHABET,
        constants=constants,
        cycles=tuple(cycles),
        variables=tuple(f"e{i}" for i in range(len(cycles))),
    )
    return GadgetInstance(
        equation=equation,
        provenance=tuple(provenance),
        bounds=tuple(bounds),
        source="loop-automaton-p4",
    )


def sat_to_p4_knapsack(formula: CnfFormula) -> GadgetInstance:
    """Full pipeline: clause automata, language difference, knapsack instance;
    the stored per-cycle bounds come from the prime encoding."""
    a1, a2 = sat_to_p4_automata(formula)
    combined = intersection_to_group_membership(a1, a2)
    gadget = loop_automaton_to_knapsack_p4(combined)
    budget = sat_witness_budget(formula)
    bounds = tuple(
        budget if note.startswith("loop") else 1 for note in gadget.provenance
    )
    return GadgetInstance(
        equation=gadget.equation,
        provenance=gadget.provenance,
        bounds=bounds,
        source="sat-p4",
    )


def _alpha_word(i: int) -> GroupWord:
    """a^i b a^-i, the i-th member of a free family inside two generators."""
    return concat((("a", 1),) * i, (("b", 1),), (("a", -1),) * i)


def acyclic_automaton_to_knapsack_f2(automaton: WordAutomaton) -> GadgetInstance:
    """Knapsack instance over two free generators equivalent to membership of
    the identity; solvable iff solvable with zero/one exponents."""
    if len(automaton.finals) != 1:
        raise AutomatonError("gadget needs a unique final state")
    evidence = check_acyclic(automaton)
    if not evidence.acyclic:
        raise AutomatonError(f"automaton has a cycle through {evidence.cycle}")
    final = next(iter(automaton.finals))
    n = automaton.n_states

    numbering: Dict[int, int] = {automaton.initial: 1}
    if final != automaton.initial:
        numbering[final] = n
    nxt = 2
    for q in evidence.order:
        if q not in numbering:
            numbering[q] = nxt
            nxt += 1

    def embed(word: GroupWord) -> GroupWord:
        out: List[GroupWord] = []
        for gen, sign in word:
            image = _alpha_word(n + 1 if gen == "a" else n + 2)
            out.append(image if sign == 1 else invert_word(image))
        return concat(*out)

    ordered = _ordered_transitions(automaton)
    cycles = []
    provenance = []
    for src, label, dst in ordered:
        cycles.append(
            concat(_alpha_word(numbering[src]), embed(label), invert_word(_alpha_word(numbering[dst])))
        )
        provenance.append(f"step {src}->{dst}")
    target_inverse = concat(_alpha_word(numbering[final]), invert_word(_alpha_word(1)))
    constants = (EMPTY_WORD,) * len(cycles) + (target_inverse,)
    equation = ExponentEquation(
        alphabet=F2_ALPHABET,
        constants=constants,
        cycles=tuple(cycles),
        variables=tuple(f"e{i}" for i in range(len(cycles))),
    )
    return GadgetInstance(
        equation=equation,
        provenance=tuple(provenance),
        bounds=(1,) * len(cycles),
        source="acyclic-f2",
    )
