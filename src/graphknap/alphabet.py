"""Independence alphabets, their classification, and decomposition trees.

An independence alphabet is a finite simple graph on generator names.  Adjacent
generators commute in the associated group.  Graphs without an induced path or
cycle on four vertices decompose into free products and direct products with
one distinguished generator; that decomposition drives the solvers downstream.

The letter-level loops of the word problem and of the normal forms read two
tables instead of testing pairs of generators: ``commuting`` maps each
generator to the set of generators it commutes with (the cancellation scan
walks back over exactly these), and ``dependence()`` numbers the generators
in name order and lists, per number, the numbers of the generators it does not
commute with.  A letter's Foata level is one more than the highest level among
those generators, so the levels need no pairwise test either.  The second
table is built on first use, because most alphabets never need it, and is
shared by equal alphabets.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import InvalidAlphabetError, NotTransitiveForestError

GENERATOR_NAME = re.compile(r"[a-z][a-z0-9_]*\Z")

COMPLETE = "complete"
TRANSITIVE_FOREST_NOT_COMPLETE = "transitive_forest_not_complete"
GENERAL = "general"


class DependenceTables(NamedTuple):
    """Integer view of an alphabet.  Ids follow the generators' name order,
    which is the tie-break order of the normal forms, so sorting ids sorts
    names.  A signed letter (g, +1 | -1) has the code 2 * id + (1 if
    inverse), so sorting codes also puts a positive letter first."""

    ids: Dict[str, int]
    # per id: the ids of the generators it does not commute with, itself included
    dependents: Tuple[Tuple[int, ...], ...]
    code: Dict[Tuple[str, int], int]
    letters: Tuple[Tuple[str, int], ...]  # indexed by code


@functools.lru_cache(maxsize=256)
def _dependence_tables(generators: Tuple[str, ...], edges: frozenset) -> DependenceTables:
    """Built once per distinct alphabet: a workload may hold many equal
    alphabets, and each copy of the tables costs about a kilobyte."""
    names = sorted(generators)
    dependents = tuple(
        tuple(j for j, h in enumerate(names) if h == g or frozenset((g, h)) not in edges)
        for g in names
    )
    letters = tuple((g, sign) for g in names for sign in (1, -1))
    return DependenceTables(
        {g: i for i, g in enumerate(names)},
        dependents,
        {letter: c for c, letter in enumerate(letters)},
        letters,
    )


class IndependenceAlphabet:
    """A finite simple graph (generators, commutation edges).

    Generators keep their input order; the order is used as a tie-breaker by
    deterministic operations.  Instances are treated as immutable.
    ``commuting[g]`` is the set of generators that commute with ``g``.
    """

    __slots__ = ("generators", "edges", "_index", "commuting", "_dependence")

    def __init__(self, generators: Sequence[str], edges: Iterable[Sequence[str]]):
        gens = tuple(generators)
        seen = set()
        for g in gens:
            if not isinstance(g, str) or not GENERATOR_NAME.match(g):
                raise InvalidAlphabetError(f"invalid generator name: {g!r}")
            if g in seen:
                raise InvalidAlphabetError(f"duplicate generator: {g!r}")
            seen.add(g)
        normalized = set()
        for pair in edges:
            a, b = pair
            if a == b:
                raise InvalidAlphabetError(f"self-loop edge on {a!r}")
            if a not in seen or b not in seen:
                raise InvalidAlphabetError(f"edge endpoint not a generator: {pair!r}")
            normalized.add(frozenset((a, b)))
        self.generators = gens
        self.edges = frozenset(normalized)
        self._index = {g: i for i, g in enumerate(gens)}
        adjacent = {g: set() for g in gens}
        for pair in self.edges:
            a, b = sorted(pair, key=self._index.__getitem__)
            adjacent[a].add(b)
            adjacent[b].add(a)
        self.commuting = {g: frozenset(s) for g, s in adjacent.items()}
        self._dependence: Optional[DependenceTables] = None

    def __contains__(self, generator: str) -> bool:
        return generator in self._index

    def __len__(self) -> int:
        return len(self.generators)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IndependenceAlphabet)
            and self.generators == other.generators
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.generators, self.edges))

    def __repr__(self) -> str:
        edges = sorted(tuple(sorted(e, key=self.index)) for e in self.edges)
        return f"IndependenceAlphabet({list(self.generators)}, {edges})"

    def index(self, generator: str) -> int:
        return self._index[generator]

    @property
    def positions(self) -> Mapping[str, int]:
        """Read-only view of each generator's position in ``generators``, the
        coordinate it has in exponent-sum vectors."""
        return MappingProxyType(self._index)

    def independent(self, a: str, b: str) -> bool:
        """True iff a and b are distinct and joined by an edge (they commute)."""
        return b in self.commuting.get(a, ())

    def dependent(self, a: str, b: str) -> bool:
        return not self.independent(a, b)

    def dependence(self) -> DependenceTables:
        """The integer dependence tables, shared by equal alphabets."""
        if self._dependence is None:
            self._dependence = _dependence_tables(self.generators, self.edges)
        return self._dependence

    def restrict(self, generators: Sequence[str]) -> "IndependenceAlphabet":
        """Induced sub-alphabet on the given generators, in alphabet order."""
        keep = set(generators)
        gens = tuple(g for g in self.generators if g in keep)
        edges = [tuple(sorted(e, key=self.index)) for e in self.edges if e <= keep]
        return IndependenceAlphabet(gens, edges)


def validate_alphabet(generators: Sequence[str], edges: Iterable[Sequence[str]]) -> IndependenceAlphabet:
    """Build a normalized alphabet, raising InvalidAlphabetError on bad input."""
    return IndependenceAlphabet(generators, edges)


@dataclass(frozen=True)
class GraphClass:
    """Classification verdict: complete / transitive forest / general.

    For the general class, ``witness`` lists four generators inducing the
    named pattern, in path order for P4 and cyclic order for C4.
    """

    kind: str
    witness: Optional[tuple] = None
    pattern: Optional[str] = None


@dataclass(frozen=True)
class Trivial:
    def generator_set(self) -> frozenset:
        return frozenset()


@dataclass(frozen=True)
class DirectZ:
    apex: str
    child: "DecompositionNode"

    def generator_set(self) -> frozenset:
        return self.child.generator_set() | {self.apex}


@dataclass(frozen=True)
class FreeProduct:
    children: tuple

    def generator_set(self) -> frozenset:
        out = frozenset()
        for child in self.children:
            out |= child.generator_set()
        return out


DecompositionNode = Union[Trivial, DirectZ, FreeProduct]


def _induced_pattern(alpha: IndependenceAlphabet, quad: Sequence[str]):
    """Return ("P4", ordered) or ("C4", ordered) if quad induces one, else None."""
    adj = {v: [w for w in quad if w != v and alpha.independent(v, w)] for v in quad}
    degs = sorted(len(adj[v]) for v in quad)
    edge_count = sum(degs) // 2
    if edge_count == 3 and degs == [1, 1, 2, 2]:
        start = next(v for v in quad if len(adj[v]) == 1)
        path = [start]
        while len(path) < 4:
            nxt = next(w for w in adj[path[-1]] if w not in path)
            path.append(nxt)
        return "P4", tuple(path)
    if edge_count == 4 and degs == [2, 2, 2, 2]:
        start = quad[0]
        cycle = [start, adj[start][0]]
        while len(cycle) < 4:
            nxt = next(w for w in adj[cycle[-1]] if w != cycle[-2])
            cycle.append(nxt)
        return "C4", tuple(cycle)
    return None


def classify(alpha: IndependenceAlphabet) -> GraphClass:
    """Classify the alphabet per the three solver regimes.

    Complete graphs (including the empty and one-vertex graphs) come first;
    otherwise an induced P4 or C4 makes the graph general, and the remaining
    graphs are the non-complete transitive forests.
    """
    gens = alpha.generators
    n = len(gens)
    if all(alpha.independent(a, b) for a, b in itertools.combinations(gens, 2)):
        return GraphClass(COMPLETE)
    for quad in itertools.combinations(gens, 4):
        found = _induced_pattern(alpha, quad)
        if found is not None:
            pattern, ordered = found
            return GraphClass(GENERAL, witness=ordered, pattern=pattern)
    return GraphClass(TRANSITIVE_FOREST_NOT_COMPLETE)


def _components(alpha: IndependenceAlphabet, gens: Sequence[str]):
    """Connected components of the induced subgraph, ordered by least member."""
    remaining = list(gens)
    present = set(gens)
    comps = []
    seen = set()
    for g in remaining:
        if g in seen:
            continue
        comp = []
        stack = [g]
        seen.add(g)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in alpha.commuting[v]:
                if w in present and w not in seen:
                    seen.add(w)
                    stack.append(w)
        comp.sort(key=alpha.index)
        comps.append(comp)
    comps.sort(key=lambda c: alpha.index(c[0]))
    return comps


def decompose(alpha: IndependenceAlphabet) -> DecompositionNode:
    """Free-product / direct-product decomposition of a transitive forest.

    Deterministic: components are ordered by least member, and the apex of a
    connected subgraph is the least generator adjacent to all others.  Raises
    NotTransitiveForestError when the recursion gets stuck, which happens
    exactly when classify() reports the general class.
    """

    def recurse(gens):
        if not gens:
            return Trivial()
        comps = _components(alpha, gens)
        if len(comps) > 1:
            return FreeProduct(tuple(recurse(c) for c in comps))
        for g in gens:
            if all(alpha.independent(g, h) for h in gens if h != g):
                return DirectZ(g, recurse([h for h in gens if h != g]))
        raise NotTransitiveForestError(
            "no apex vertex in a connected subgraph: alphabet contains an induced P4 or C4",
            witness=tuple(gens),
        )

    return recurse(list(alpha.generators))
