"""Free-product block combinatorics: cancellations, mixed periods, grow/shrink,
and the local semilinear cover.

A substituted equation word factors into blocks (per-copy syllables of the
cycles plus syllables of the constants).  A cancellation partitions the block
indices into same-factor, trivially-multiplying, well-nested edges; it exists
exactly when the word is trivial.

Well-nestedness is what lets both directions run as one left-to-right stack
pass.  Edges e and f cross when blocks i1 < j1 < i2 < j2 alternate between
them; scanning left to right, that is exactly a later block of e arriving
while an edge opened after e is still open.  So ``verify_cancellation`` keeps
the stack of open edges (first block seen, last not yet) and requires every
later block of an edge to find that edge on top.  ``find_cancellation`` keeps
the stack of open same-factor runs, each with its geodesic; a trivial run
closes as an edge as soon as the next block comes from the other factor (or
the input ends), and the run below it, of the next block's factor, resumes.
Every run under the top is nontrivial, so each close removes the leftmost
maximal trivial run of what is left, and no block is scanned twice.

Mixed periods pump two mixed cycles in tandem; grow/shrink add and remove one
period while keeping a certified solution, and the local cover turns a single
solution into a semilinear set of solutions containing it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .alphabet import DecompositionNode, FreeProduct, IndependenceAlphabet, decompose
from .errors import CancellationError, EquationError, ResourceExhaustedError
from .group import (
    FreeProductSplit,
    GroupWord,
    SignedLetter,
    append_reduced,
    concat,
    is_identity,
    split_for_alphabet,
    syllables,
)
from .knapsack import (
    DEFAULT_LIMITS,
    ExponentEquation,
    SolverLimits,
    _q_poly,
    preprocess,
)
from .semilinear import IntVector, LinearSet, SemilinearSet, vec_add

Cancellation = FrozenSet[FrozenSet[int]]

AXIOM_PARTITION = "partition"
AXIOM_CONSISTENT = "consistent"
AXIOM_CANCELLING = "cancelling"
AXIOM_WELL_NESTED = "well-nested"
AXIOM_MAXIMAL = "maximal"


@dataclass(frozen=True)
class Block:
    """One block: a same-factor word segment with its provenance."""

    word: GroupWord
    factor: int
    source: Tuple  # ("v", i, syllable) or ("u", i, copy, syllable)


@dataclass(frozen=True)
class BlockSequence:
    """Block factorization of v0 u1^x1 v1 ... uk^xk vk for one exponent vector."""

    eq: ExponentEquation
    exponents: IntVector
    split: FreeProductSplit
    blocks: Tuple[Block, ...]
    cycle_ranges: Tuple[Optional[Tuple[int, int]], ...]  # 1-based inclusive, None if empty

    def words(self) -> List[GroupWord]:
        return [b.word for b in self.blocks]

    def block(self, index: int) -> Block:
        return self.blocks[index - 1]

    def in_cycle(self, index: int, i: int) -> bool:
        rng = self.cycle_ranges[i]
        return rng is not None and rng[0] <= index <= rng[1]


def _check_preprocessed(eq: ExponentEquation, split: FreeProductSplit) -> None:
    for cycle in eq.cycles:
        if not cycle:
            raise EquationError("unpreprocessed input: trivial cycle present")
        syls = syllables(cycle, split)
        if len(syls) > 1 and split.factor_of_word(syls[0]) == split.factor_of_word(syls[-1]):
            raise EquationError(
                "unpreprocessed input: cycle does not start and end in different factors"
            )
    for word in eq.constants + eq.cycles:
        for syl in syllables(word, split):
            if is_identity(syl, eq.alphabet):
                raise EquationError("unpreprocessed input: trivial syllable present")


def syllable_counts(eq: ExponentEquation, split: FreeProductSplit) -> List[int]:
    return [len(syllables(c, split)) for c in eq.cycles]


def block_factorize(
    eq: ExponentEquation, exponents: Sequence[int], split: Optional[FreeProductSplit] = None
) -> BlockSequence:
    """Blocks of the substituted word: syllables of each constant and, per
    cycle, the cycle's syllables repeated exponent-many times."""
    if split is None:
        split = split_for_alphabet(eq.alphabet)
    _check_preprocessed(eq, split)
    x = tuple(int(v) for v in exponents)
    if len(x) != eq.k or any(v < 0 for v in x):
        raise EquationError(f"bad exponent vector {exponents!r}")

    blocks: List[Block] = []
    ranges: List[Optional[Tuple[int, int]]] = []

    def push_constant(i: int) -> None:
        for s_idx, syl in enumerate(syllables(eq.constants[i], split)):
            blocks.append(Block(syl, split.factor_of_word(syl), ("v", i, s_idx)))

    push_constant(0)
    for i, cycle in enumerate(eq.cycles):
        syls = syllables(cycle, split)
        start = len(blocks) + 1
        for copy in range(x[i]):
            for s_idx, syl in enumerate(syls):
                blocks.append(Block(syl, split.factor_of_word(syl), ("u", i, copy, s_idx)))
        end = len(blocks)
        ranges.append((start, end) if end >= start else None)
        push_constant(i + 1)
    return BlockSequence(eq, x, split, tuple(blocks), tuple(ranges))


# -- the five axioms -----------------------------------------------------------


def _words_and_factors(
    blocks, split: Optional[FreeProductSplit], alpha
) -> Tuple[List[GroupWord], List[int], IndependenceAlphabet]:
    """Block words, their factors and the alphabet of a BlockSequence or of a
    plain sequence of same-factor words (which needs ``split`` and ``alpha``)."""
    if isinstance(blocks, BlockSequence):
        return blocks.words(), [b.factor for b in blocks.blocks], blocks.eq.alphabet
    if split is None or alpha is None:
        raise CancellationError("raw block lists need an explicit split and alphabet")
    words = [tuple(w) for w in blocks]
    return words, [split.factor_of_word(w) for w in words], alpha


def verify_cancellation(
    blocks,
    cancellation: Cancellation,
    split: Optional[FreeProductSplit] = None,
    alpha=None,
) -> Tuple[bool, Optional[str]]:
    """Check the five axioms in order and name the first one violated.

    ``blocks`` is a BlockSequence or a plain sequence of same-factor words
    (then ``split`` and ``alpha`` are required).
    """
    words, factors, alpha = _words_and_factors(blocks, split, alpha)
    m = len(words)
    edges = [sorted(e) for e in cancellation]

    covered: List[int] = []
    for e in edges:
        if not e:
            return False, AXIOM_PARTITION
        covered.extend(e)
    if sorted(covered) != list(range(1, m + 1)):
        return False, AXIOM_PARTITION

    for e in edges:
        if len({factors[i - 1] for i in e}) > 1:
            return False, AXIOM_CONSISTENT

    for e in edges:
        if not is_identity(concat(*(words[i - 1] for i in e)), alpha):
            return False, AXIOM_CANCELLING

    edge_of = [0] * (m + 1)
    for n, e in enumerate(edges):
        for i in e:
            edge_of[i] = n
    open_edges: List[int] = []
    for i in range(1, m + 1):
        n = edge_of[i]
        e = edges[n]
        if i == e[0]:
            if len(e) > 1:
                open_edges.append(n)
        elif open_edges[-1] != n:
            return False, AXIOM_WELL_NESTED
        elif i == e[-1]:
            open_edges.pop()

    for i in range(1, m):
        if factors[i - 1] == factors[i] and edge_of[i] != edge_of[i + 1]:
            return False, AXIOM_MAXIMAL

    return True, None


def find_cancellation(
    blocks,
    split: Optional[FreeProductSplit] = None,
    alpha=None,
) -> Optional[Cancellation]:
    """Constructive search in one pass over a stack of open same-factor runs
    (see the module docstring); succeeds exactly when the concatenated word is
    trivial."""
    words, factors, alpha = _words_and_factors(blocks, split, alpha)
    edges: List[FrozenSet[int]] = []
    runs: List[Tuple[int, List[int], List[SignedLetter]]] = []  # factor, indices, geodesic
    for i, (word, factor) in enumerate(zip(words, factors), 1):
        if runs and runs[-1][0] != factor and not runs[-1][2]:
            edges.append(frozenset(runs.pop()[1]))
        if not runs or runs[-1][0] != factor:
            runs.append((factor, [], []))
        _, indices, geodesic = runs[-1]
        indices.append(i)
        for letter in word:
            append_reduced(geodesic, letter, alpha)
    while runs and not runs[-1][2]:
        edges.append(frozenset(runs.pop()[1]))
    return None if runs else frozenset(edges)


# -- mixed periods and compatibility -------------------------------------------


@dataclass(frozen=True)
class MixedPeriod:
    """The vector |u_j|_syll * e_i + |u_i|_syll * e_j for mixed cycles i < j."""

    i: int
    j: int
    vector: IntVector


def mixed_periods(eq: ExponentEquation, split: Optional[FreeProductSplit] = None) -> List[MixedPeriod]:
    """All mixed periods over distinct mixed-cycle pairs, ordered by (i, j)."""
    if split is None:
        split = split_for_alphabet(eq.alphabet)
    counts = syllable_counts(eq, split)
    mixed = [i for i in range(eq.k) if counts[i] > 1]
    out = []
    for i, j in itertools.combinations(mixed, 2):
        vec = [0] * eq.k
        vec[i] = counts[j]
        vec[j] = counts[i]
        out.append(MixedPeriod(i, j, tuple(vec)))
    return out


def _rotate_left(word: GroupWord, t: int, split: FreeProductSplit) -> GroupWord:
    syls = syllables(word, split)
    t %= len(syls)
    return concat(*syls[t:], *syls[:t])


def _insertion_words(
    blocks: BlockSequence, period: MixedPeriod, p: int, q: int
) -> Tuple[GroupWord, GroupWord]:
    """The rotated powers inserted left of block p and right of block q."""
    eq, split = blocks.eq, blocks.split
    counts = syllable_counts(eq, split)
    i, j = period.i, period.j
    r = blocks.cycle_ranges[i][0]
    s = blocks.cycle_ranges[j][1]
    left = _rotate_left(eq.cycles[i] * counts[j], p - r, split)
    right = _rotate_left(eq.cycles[j] * counts[i], q - s, split)
    return left, right


def _witness_edge(
    blocks: BlockSequence, cancellation: Cancellation, period: MixedPeriod
) -> Optional[Tuple[int, int]]:
    """First two-element edge {p, q} certifying compatibility of the period."""
    i, j = period.i, period.j
    if blocks.cycle_ranges[i] is None or blocks.cycle_ranges[j] is None:
        return None
    alpha = blocks.eq.alphabet
    for edge in sorted(cancellation, key=sorted):
        if len(edge) != 2:
            continue
        p, q = sorted(edge)
        if not (blocks.in_cycle(p, i) and blocks.in_cycle(q, j)):
            continue
        left, right = _insertion_words(blocks, period, p, q)
        if is_identity(concat(left, right), alpha):
            return p, q
    return None


def _verified_blocks(
    eq: ExponentEquation,
    exponents: Sequence[int],
    cancellation: Cancellation,
    split: Optional[FreeProductSplit],
) -> BlockSequence:
    """Blocks of the substituted word; raises unless the cancellation is valid."""
    blocks = block_factorize(eq, exponents, split)
    ok, axiom = verify_cancellation(blocks, cancellation)
    if not ok:
        raise CancellationError(f"invalid cancellation: violates {axiom}")
    return blocks


def compatible_periods(
    eq: ExponentEquation,
    exponents: Sequence[int],
    cancellation: Cancellation,
    split: Optional[FreeProductSplit] = None,
) -> List[MixedPeriod]:
    """Mixed periods whose rotated powers cancel through an edge of the given
    certified solution."""
    blocks = _verified_blocks(eq, exponents, cancellation, split)
    out = []
    for period in mixed_periods(eq, blocks.split):
        if _witness_edge(blocks, cancellation, period) is not None:
            out.append(period)
    return out


# -- grow and shrink -------------------------------------------------------------


def grow(
    eq: ExponentEquation,
    exponents: Sequence[int],
    cancellation: Cancellation,
    period: MixedPeriod,
    split: Optional[FreeProductSplit] = None,
) -> Tuple[IntVector, Cancellation]:
    """Add one compatible mixed period, rebuilding the cancellation by nesting
    the inserted block pairs around the witness edge."""
    blocks = _verified_blocks(eq, exponents, cancellation, split)
    if period not in mixed_periods(eq, blocks.split):
        raise CancellationError(f"{period} is not a mixed period of this equation")
    witness = _witness_edge(blocks, cancellation, period)
    if witness is None:
        raise CancellationError(f"period {period.vector} is not compatible")
    p, q = witness
    counts = syllable_counts(eq, blocks.split)
    T = counts[period.i] * counts[period.j]

    def shift(t: int) -> int:
        if t < p:
            return t
        if t <= q:
            return t + T
        return t + 2 * T

    new_edges = [frozenset(shift(t) for t in edge) for edge in cancellation]
    new_edges.extend(frozenset((p + t - 1, q + 2 * T + 1 - t)) for t in range(1, T + 1))
    grown = vec_add(tuple(exponents), period.vector)
    return grown, frozenset(new_edges)


def removal_threshold(eq: ExponentEquation) -> int:
    """q(n) = (n + 3k + 1) + k n^2: above this mixed norm a period always
    shrinks out of a certified solution."""
    return _q_poly(eq.size, eq.k)


def shrink(
    eq: ExponentEquation,
    exponents: Sequence[int],
    cancellation: Cancellation,
    split: Optional[FreeProductSplit] = None,
) -> Optional[Tuple[MixedPeriod, IntVector, Cancellation]]:
    """Remove one mixed period from a certified solution whose mixed norm
    exceeds the removal threshold; None below the threshold.

    The removed blocks are a run of standard edges between the two chosen
    mixed cycles; the removed period stays compatible with the result.
    """
    step = _shrink_step(_verified_blocks(eq, exponents, cancellation, split), cancellation)
    return None if step is None else step[:3]


def _shrink_step(
    blocks: BlockSequence, cancellation: Cancellation
) -> Optional[Tuple[MixedPeriod, IntVector, Cancellation, BlockSequence]]:
    """``shrink`` on blocks already verified against the cancellation; also
    returns the verified blocks of the result."""
    eq, split, x = blocks.eq, blocks.split, blocks.exponents
    threshold = removal_threshold(eq)
    counts = syllable_counts(eq, split)
    mixed = [i for i in range(eq.k) if counts[i] > 1]
    over = [i for i in mixed if x[i] > threshold]
    if not over:
        return None
    i = over[0]

    # standard edges touching cycle i, grouped by the partner mixed cycle
    partner_edges: Dict[int, List[Tuple[int, int]]] = {}
    for edge in cancellation:
        if len(edge) != 2:
            continue
        a, b = sorted(edge)
        if blocks.in_cycle(a, i):
            own, other = a, b
        elif blocks.in_cycle(b, i):
            own, other = b, a
        else:
            continue
        for j in mixed:
            if j != i and blocks.in_cycle(other, j):
                partner_edges.setdefault(j, []).append((own, other))
                break
    if not partner_edges:
        raise CancellationError("certified solution lacks the guaranteed standard edges")
    j = max(partner_edges, key=lambda cand: (len(partner_edges[cand]), -cand))
    pairs = partner_edges[j]
    T = counts[i] * counts[j]
    if len(pairs) <= T:
        raise CancellationError("too few standard edges between the chosen cycles")

    left_cycle, right_cycle = (i, j) if i < j else (j, i)
    by_left = {}
    for own, other in pairs:
        left_block, right_block = (own, other) if i < j else (other, own)
        by_left[left_block] = right_block
    pL = max(by_left)
    qR = by_left[pL]
    edge_set = {(a, b) for a, b in ((min(x_, y_), max(x_, y_)) for x_, y_ in by_left.items())}
    for step in range(T + 1):
        if (pL - step, qR + step) not in edge_set:
            raise CancellationError("standard edges do not form the guaranteed run")

    removed = set(range(pL - T, pL)) | set(range(qR + 1, qR + T + 1))

    def reindex(t: int) -> int:
        if t < pL - T:
            return t
        if t <= qR:
            return t - T
        return t - 2 * T

    new_edges = []
    for edge in cancellation:
        inside = edge & removed
        if inside:
            if edge - removed:
                raise CancellationError("removed blocks leak into surviving edges")
            continue
        new_edges.append(frozenset(reindex(t) for t in edge))

    vec = [0] * eq.k
    vec[left_cycle] = counts[right_cycle]
    vec[right_cycle] = counts[left_cycle]
    period = MixedPeriod(left_cycle, right_cycle, tuple(vec))
    shrunk = tuple(a - b for a, b in zip(x, vec))
    new_cancellation = frozenset(new_edges)
    return period, shrunk, new_cancellation, _verified_blocks(eq, shrunk, new_cancellation, split)


# -- local semilinear cover -------------------------------------------------------


def certified_solution(
    eq: ExponentEquation, exponents: Sequence[int], split: Optional[FreeProductSplit] = None
) -> Tuple[IntVector, Cancellation]:
    """Find a cancellation for the exponent vector (errors if not a solution)."""
    blocks = block_factorize(eq, exponents, split)
    cancellation = find_cancellation(blocks)
    if cancellation is None:
        raise EquationError(f"exponents {blocks.exponents} are not a solution")
    return blocks.exponents, cancellation


def local_semilinear_cover(
    eq: ExponentEquation,
    exponents: Sequence[int],
    node: Optional[DecompositionNode] = None,
    limits: SolverLimits = DEFAULT_LIMITS,
) -> SemilinearSet:
    """Semilinear set of solutions containing the given one.

    Shrinks the certified solution until its mixed norm is below the removal
    threshold, fixes the mixed exponents, replaces each group of simple cycles
    sharing a cancellation edge by the full solution set of its factor-group
    subinstance, and attaches the compatible mixed periods.
    """
    from .knapsack import solution_set  # mutual recursion with the factor solver

    alpha = eq.alphabet
    if node is None:
        node = decompose(alpha)
    if not isinstance(node, FreeProduct):
        raise EquationError("local cover needs a free-product alphabet")
    if not eq.knapsack_shape:
        raise EquationError("local cover needs pairwise distinct variables")
    split = split_for_alphabet(alpha, node)
    prepared = preprocess(eq, split)
    if len(prepared.cycles) != len(eq.cycles):
        raise EquationError("equation has trivial cycles; preprocess it first")
    x_cur, c_cur = certified_solution(prepared, exponents, split)
    blocks = _verified_blocks(prepared, x_cur, c_cur, split)
    while True:
        step = _shrink_step(blocks, c_cur)
        if step is None:
            break
        _, x_cur, c_cur, blocks = step

    counts = syllable_counts(prepared, split)
    k = prepared.k
    simple = [i for i in range(k) if counts[i] == 1]

    # group the populated simple cycles by the edge holding their blocks
    edge_of: Dict[int, FrozenSet[int]] = {}
    for i in simple:
        rng = blocks.cycle_ranges[i]
        if rng is None:
            continue
        first = rng[0]
        holder = next(e for e in c_cur if first in e)
        if not all(t in holder for t in range(rng[0], rng[1] + 1)):
            raise CancellationError("simple-cycle blocks split across edges")
        edge_of[i] = holder

    groups: Dict[FrozenSet[int], List[int]] = {}
    for i, holder in edge_of.items():
        groups.setdefault(holder, []).append(i)

    part_sets: List[SemilinearSet] = []
    part_coords: List[List[int]] = []
    for holder, members in sorted(groups.items(), key=lambda kv: min(kv[1])):
        members.sort()
        member_ranges = {i: blocks.cycle_ranges[i] for i in members}
        ordered = sorted(holder)
        pieces: List[List[GroupWord]] = [[]]
        cycle_words: List[GroupWord] = []
        consumed = set()
        for t in ordered:
            owner = next(
                (i for i in members if member_ranges[i][0] <= t <= member_ranges[i][1]), None
            )
            if owner is None:
                pieces[-1].append(blocks.block(t).word)
            elif owner not in consumed:
                consumed.add(owner)
                cycle_words.append(prepared.cycles[owner])
                pieces.append([])
        side = split.left if blocks.block(ordered[0]).factor == 0 else split.right
        sub_alpha = alpha.restrict([g for g in alpha.generators if g in side])
        sub_eq = ExponentEquation(
            alphabet=sub_alpha,
            constants=tuple(concat(*piece) for piece in pieces),
            cycles=tuple(cycle_words),
            variables=tuple(prepared.variables[i] for i in members),
        )
        part = solution_set(sub_eq, limits=limits)
        part_sets.append(part)
        part_coords.append(members)

    # mixed exponents stay fixed; simple ones are replaced by the part sets,
    # except empty simple cycles (no blocks locate them), which stay pinned at 0
    base_y = [x_cur[i] if counts[i] > 1 else 0 for i in range(k)]
    periods_shared = [p.vector for p in compatible_periods(prepared, x_cur, c_cur, split)]

    components: List[LinearSet] = []
    choices = [list(s.components) for s in part_sets]
    if any(not c for c in choices):
        raise ResourceExhaustedError("a factor subinstance produced no solution components")
    for combo in itertools.product(*choices) if choices else [()]:
        base = list(base_y)
        periods = list(periods_shared)
        for coords, comp in zip(part_coords, combo):
            for pos, value in zip(coords, comp.base):
                base[pos] = value
            for p in comp.periods:
                vec = [0] * k
                for pos, value in zip(coords, p):
                    vec[pos] = value
                periods.append(tuple(vec))
        components.append(LinearSet.make(tuple(base), periods))
    return SemilinearSet(tuple(dict.fromkeys(components)))
