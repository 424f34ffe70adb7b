"""Acyclic (loop) automata over group alphabets and the membership-of-1 solver.

States are integers 0..n-1.  Plain acyclic automata forbid every cycle
including self-loops; loop automata additionally allow at most one self-loop
per state, which ``unroll_loops`` expands into an acyclic automaton up to a
budget.

One reachability engine, ``_reach_one``, decides membership of 1: a forward
search over pairs (state, canonical geodesic) along power edges u^t v.
``membership_one`` runs it on an automaton's transitions, and the knapsack
solver runs it on the chain of an equation's rows; each caller supplies only
its abelian test, and the engine applies both prunes.

The engine keeps its normal form incrementally (Cartier-Foata levels, as in
Diekert and Rozenberg, The Book of Traces, 1995) and only as integers.  A
prefix is the sorted list of its codes level * width + letter code, which is
at once the key that deduplicates prefixes and a valid order of its geodesic,
plus each generator's top level.  An appended letter either cancels the last
letter of its generator, when that letter is its inverse and no dependent
generator reaches above it (it is then maximal in the trace, so no other
level moves), or lands at one more than the top level of the generators it
depends on.  No prefix is decoded into letters or re-canonicalised.  Power
edges are read sums first: the abelian prune needs only exponent sums, so a
t is tested before any copy of u is appended for it.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from operator import add, le, neg
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .alphabet import DependenceTables, IndependenceAlphabet
from .errors import AutomatonError, ResourceExhaustedError
from .group import (
    EMPTY_WORD,
    GroupWord,
    _check_letters,
    concat,
    exponent_sums,
    is_identity,
)

Transition = Tuple[int, GroupWord, int]
Loop = Tuple[int, GroupWord]

DEFAULT_NODE_CAP = 2_000_000
DEFAULT_PATH_CAP = 2_000_000


@dataclass(frozen=True)
class WordAutomaton:
    """Word-labeled automaton with one initial state and a set of finals."""

    n_states: int
    initial: int
    finals: frozenset
    transitions: Tuple[Transition, ...]
    loops: Tuple[Loop, ...] = ()

    def __post_init__(self):
        states = range(self.n_states)
        if self.initial not in states:
            raise AutomatonError(f"initial state {self.initial} out of range")
        for q in self.finals:
            if q not in states:
                raise AutomatonError(f"final state {q} out of range")
        for src, _, dst in self.transitions:
            if src not in states or dst not in states:
                raise AutomatonError(f"transition endpoint out of range: {(src, dst)}")
        for q, _ in self.loops:
            if q not in states:
                raise AutomatonError(f"loop state {q} out of range")


@dataclass(frozen=True)
class AcyclicityEvidence:
    """Either a topological order of the states or a cycle witness."""

    order: Optional[Tuple[int, ...]] = None
    cycle: Optional[Tuple[int, ...]] = None

    @property
    def acyclic(self) -> bool:
        return self.order is not None


def _topological_evidence(n: int, edges: Sequence[Tuple[int, int]]) -> AcyclicityEvidence:
    succ: Dict[int, List[int]] = {q: [] for q in range(n)}
    indeg = [0] * n
    for src, dst in edges:
        succ[src].append(dst)
        indeg[dst] += 1
    queue = deque(sorted(q for q in range(n) if indeg[q] == 0))
    order = []
    while queue:
        q = queue.popleft()
        order.append(q)
        for r in sorted(succ[q]):
            indeg[r] -= 1
            if indeg[r] == 0:
                queue.append(r)
    if len(order) == n:
        return AcyclicityEvidence(order=tuple(order))
    # extract a cycle from the leftover subgraph by walking until a repeat
    leftover = {q for q in range(n) if indeg[q] > 0}
    start = min(leftover)
    walk = [start]
    seen = {start}
    while True:
        nxt = min(r for r in succ[walk[-1]] if r in leftover)
        if nxt in seen:
            cycle = walk[walk.index(nxt):] + [nxt]
            return AcyclicityEvidence(cycle=tuple(cycle))
        walk.append(nxt)
        seen.add(nxt)


def check_acyclic(automaton: WordAutomaton) -> AcyclicityEvidence:
    """Topological order of a plain acyclic automaton, or a cycle witness.

    Self-loops (whether stored as transitions or in the loops field) count as
    cycles here.
    """
    for q, _ in automaton.loops:
        return AcyclicityEvidence(cycle=(q, q))
    for src, _, dst in automaton.transitions:
        if src == dst:
            return AcyclicityEvidence(cycle=(src, src))
    return _topological_evidence(
        automaton.n_states, [(src, dst) for src, _, dst in automaton.transitions]
    )


def check_acyclic_loop(automaton: WordAutomaton) -> AcyclicityEvidence:
    """Acyclicity evidence for loop automata: at most one self-loop per state
    and no other cycles."""
    loop_count: Dict[int, int] = {}
    for q, _ in automaton.loops:
        loop_count[q] = loop_count.get(q, 0) + 1
    non_loop_edges = []
    for src, _, dst in automaton.transitions:
        if src == dst:
            loop_count[src] = loop_count.get(src, 0) + 1
        else:
            non_loop_edges.append((src, dst))
    for q, count in loop_count.items():
        if count > 1:
            raise AutomatonError(f"state {q} carries {count} self-loops; at most one is allowed")
    evidence = _topological_evidence(automaton.n_states, non_loop_edges)
    if not evidence.acyclic:
        raise AutomatonError(f"non-loop cycle through states {evidence.cycle}")
    return evidence


# A power edge (src, u, b, v, dst) reads u^t v for each t in 0..b; a plain
# transition is (src, (), 0, label, dst).
PowerEdge = Tuple[int, GroupWord, int, GroupWord, int]
# Abelian prune: (state, exponent sums of a prefix ending there) -> may the
# prefix still extend to a trivial word?
Feasible = Callable[[int, Tuple[int, ...]], bool]


def _extend(codes: List[int], top: List[int], word: Sequence, tables: DependenceTables) -> None:
    """Append the letters of ``word`` to a geodesic held as its Foata codes.

    ``codes`` is sorted and lists level * width + letter code for each letter
    of the geodesic (the letter codes, and their count ``width``, come from
    ``tables``), so it is both the canonical key of the group element and a
    valid order of the geodesic.  ``top[g]`` is one more than the highest
    level of generator id g (0 when g is absent).  The last g-letter is
    maximal in the trace exactly when no generator g depends on, g included,
    reaches above it; then a letter cancels it if it is its inverse, and no
    other level moves.  Otherwise the letter lands one level above the
    highest level among the generators it depends on.
    """
    _, dependents, code, by_code = tables
    width = len(by_code)
    for letter in word:
        c = code[letter]
        gid = c >> 1
        level = max(map(top.__getitem__, dependents[gid]))
        if level and top[gid] == level:
            partner = (level - 1) * width + (c ^ 1)
            pos = bisect_left(codes, partner)
            if pos < len(codes) and codes[pos] == partner:
                del codes[pos]
                top[gid] = 0
                for j in range(pos - 1, -1, -1):
                    if codes[j] % width >> 1 == gid:
                        top[gid] = codes[j] // width + 1
                        break
                continue
        insort(codes, level * width + c)
        top[gid] = level + 1


def _reach_one(
    n_states: int,
    initial: int,
    finals: frozenset,
    edges: Sequence[PowerEdge],
    order: Sequence[int],
    alpha: IndependenceAlphabet,
    node_cap: int,
    feasible: Feasible,
) -> Optional[List[Tuple[int, int]]]:
    """Find a path from ``initial`` to a final state whose label is trivial.

    Runs forward in the topological ``order`` over pairs (state, canonical
    key of the geodesic of the prefix read so far), deduplicated at each
    edge's target.  A prefix is dropped when its geodesic is longer than
    every label left to a final state (exact: a geodesic of length L needs L
    more letters to cancel) or when ``feasible``, asked once per (state,
    sums) in a call, rejects its exponent sums.  The sums of u^t v need no
    word, so they are tested first for each t, and copies of ``u`` are
    appended only up to a t that passes.  A prefix is extended from a copy
    of its key and its top levels (``_extend``), and the sorted codes it ends
    with are the key.  Returns the witness as (edge index, t) pairs, or None.
    Raises ResourceExhaustedError past ``node_cap`` stored prefixes.
    """
    outgoing: List[List[int]] = [[] for _ in range(n_states)]
    for idx, edge in enumerate(edges):
        outgoing[edge[0]].append(idx)
    # longest[q]: most letters any path from q to a final state reads; -1 if none
    longest = [-1] * n_states
    for q in finals:
        longest[q] = 0
    for q in reversed(order):
        for idx in outgoing[q]:
            _, u, b, v, dst = edges[idx]
            if longest[dst] >= 0:
                longest[q] = max(longest[q], b * len(u) + len(v) + longest[dst])
    if longest[initial] < 0:
        return None
    if initial in finals:
        return []

    index = alpha.positions
    tables = alpha.dependence()
    edge_sums = [(exponent_sums(u, index), exponent_sums(v, index)) for _, u, _, v, _ in edges]
    # per state: canonical key -> (its exponent sums, its top levels, key at
    # the edge's source, edge index, t); the initial key has no source
    parents: List[Dict[tuple, Tuple[tuple, tuple, Optional[tuple], int, int]]] = [
        {} for _ in range(n_states)
    ]
    parents[initial][()] = ((0,) * len(index), (0,) * len(alpha), None, -1, 0)
    stored = 1
    verdicts: Dict[Tuple[int, Tuple[int, ...]], bool] = {}

    def witness(state: int, key: Tuple[int, ...]) -> List[Tuple[int, int]]:
        path: List[Tuple[int, int]] = []
        _, _, prev, idx, t = parents[state][key]
        while prev is not None:
            path.append((idx, t))
            state, key = edges[idx][0], prev
            _, _, prev, idx, t = parents[state][key]
        path.reverse()
        return path

    for q in order:
        for key, (base, top, _, _, _) in parents[q].items():
            for idx in outgoing[q]:
                _, u, b, v, dst = edges[idx]
                room = longest[dst]
                if room < 0:
                    continue
                su, sv = edge_sums[idx]
                sums = tuple(map(add, base, sv))
                codes = None  # the geodesic with ``done`` copies of u appended
                done = 0
                for t in range(b + 1):
                    if t:
                        sums = tuple(map(add, sums, su))
                    ok = verdicts.get((dst, sums))
                    if ok is None:
                        ok = verdicts[dst, sums] = feasible(dst, sums)
                    if not ok:
                        continue
                    if codes is None:
                        codes, levels = list(key), list(top)
                    if t > done:
                        _extend(codes, levels, u * (t - done), tables)
                        done = t
                    if t < b:
                        word, word_top = codes[:], levels[:]
                    else:
                        word, word_top = codes, levels
                    _extend(word, word_top, v, tables)
                    if len(word) > room:
                        continue
                    if not word and dst in finals:
                        return witness(q, key) + [(idx, t)]
                    nf = tuple(word)
                    if nf in parents[dst]:
                        continue
                    parents[dst][nf] = (sums, tuple(word_top), key, idx, t)
                    stored += 1
                    if stored > node_cap:
                        raise ResourceExhaustedError(
                            f"reachability search exceeded {node_cap} stored prefixes"
                        )
    return None


def _abelian_windows(
    automaton: WordAutomaton, index: Mapping[str, int], order: Sequence[int]
) -> Tuple[List[Tuple[float, ...]], List[Tuple[float, ...]]]:
    """Per state, the window [lo, hi] that the exponent sums of a prefix
    ending there must lie in to extend to a trivial word: the negated
    coordinatewise interval hull of the sums of the suffixes to a final
    state; empty (lo > hi) where no final state is reachable."""
    inf = float("inf")
    lo = [(inf,) * len(index)] * automaton.n_states
    hi = [(-inf,) * len(index)] * automaton.n_states
    for q in automaton.finals:
        lo[q] = hi[q] = (0,) * len(index)
    position = {q: i for i, q in enumerate(order)}
    # edges in reverse topological order of their source: every edge out of
    # dst is folded in before an edge into dst
    for src, label, dst in sorted(automaton.transitions, key=lambda tr: -position[tr[0]]):
        vec = exponent_sums(label, index)
        lo[src] = tuple(min(a, b + c) for a, b, c in zip(lo[src], vec, lo[dst]))
        hi[src] = tuple(max(a, b + c) for a, b, c in zip(hi[src], vec, hi[dst]))
    # -sums in [lo, hi]  <=>  sums in [-hi, -lo]
    return [tuple(map(neg, v)) for v in hi], [tuple(map(neg, v)) for v in lo]


def membership_one(
    automaton: WordAutomaton,
    alpha: IndependenceAlphabet,
    node_cap: int = DEFAULT_NODE_CAP,
) -> Optional[List[int]]:
    """Search for a path whose label concatenation is trivial in the group.

    Returns the witness as a list of transition indices, or None.  Each
    transition is one plain edge of the reachability search, whose abelian
    test is the interval hull of the suffixes' exponent sums.
    """
    for _, label, _ in automaton.transitions:
        _check_letters(label, alpha)
    evidence = check_acyclic(automaton)
    if not evidence.acyclic:
        raise AutomatonError(f"automaton has a cycle through {evidence.cycle}")
    sums_lo, sums_hi = _abelian_windows(automaton, alpha.positions, evidence.order)

    def feasible(state: int, sums: Tuple[int, ...]) -> bool:
        return all(map(le, sums_lo[state], sums)) and all(map(le, sums, sums_hi[state]))

    edges = [(src, EMPTY_WORD, 0, label, dst) for src, label, dst in automaton.transitions]
    path = _reach_one(
        automaton.n_states, automaton.initial, automaton.finals, edges, evidence.order, alpha,
        node_cap, feasible,
    )
    return None if path is None else [idx for idx, _ in path]


def membership_one_brute(
    automaton: WordAutomaton,
    alpha: IndependenceAlphabet,
    path_cap: int = DEFAULT_PATH_CAP,
) -> bool:
    """Enumerate every path and reduce its full label (oracle for
    membership_one).  Raises ResourceExhaustedError past the path cap."""
    evidence = check_acyclic(automaton)
    if not evidence.acyclic:
        raise AutomatonError(f"automaton has a cycle through {evidence.cycle}")
    outgoing: Dict[int, List[Tuple[GroupWord, int]]] = {q: [] for q in range(automaton.n_states)}
    for src, label, dst in automaton.transitions:
        outgoing[src].append((label, dst))
    # depth-first in transition order; each entry: a prefix and its state's unread edges
    count = 0
    stack = [(EMPTY_WORD, iter(((EMPTY_WORD, automaton.initial),)))]
    while stack:
        prefix, pending = stack[-1]
        step = next(pending, None)
        if step is None:
            stack.pop()
            continue
        label, state = step
        word = concat(prefix, label)
        count += 1
        if count > path_cap:
            raise ResourceExhaustedError(f"path enumeration exceeded {path_cap} nodes")
        if state in automaton.finals and is_identity(word, alpha):
            return True
        stack.append((word, iter(outgoing[state])))
    return False


def unroll_loops(automaton: WordAutomaton, budget: int) -> WordAutomaton:
    """Acyclic automaton accepting exactly the words of the loop automaton
    that use each self-loop at most ``budget`` times.

    Loop states become budget+1 copies chained by the loop label; incoming
    transitions enter copy 0 and outgoing transitions leave every copy.
    """
    if budget < 0:
        raise AutomatonError("loop budget must be nonnegative")
    check_acyclic_loop(automaton)
    loops: Dict[int, GroupWord] = {}
    plain: List[Transition] = []
    for src, label, dst in automaton.transitions:
        if src == dst:
            loops[src] = label
        else:
            plain.append((src, label, dst))
    for q, label in automaton.loops:
        loops[q] = label

    index: Dict[Tuple[int, int], int] = {}
    for q in range(automaton.n_states):
        copies = budget + 1 if q in loops else 1
        for j in range(copies):
            index[(q, j)] = len(index)

    transitions: List[Transition] = []
    for q, label in sorted(loops.items()):
        for j in range(budget):
            transitions.append((index[(q, j)], label, index[(q, j + 1)]))
    for src, label, dst in plain:
        copies = budget + 1 if src in loops else 1
        for j in range(copies):
            transitions.append((index[(src, j)], label, index[(dst, 0)]))

    finals = set()
    for q in automaton.finals:
        copies = budget + 1 if q in loops else 1
        finals.update(index[(q, j)] for j in range(copies))

    return WordAutomaton(
        n_states=len(index),
        initial=index[(automaton.initial, 0)],
        finals=frozenset(finals),
        transitions=tuple(transitions),
        loops=(),
    )
