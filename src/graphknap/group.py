"""Graph-group words: reduction, the word problem, and free-product utilities.

Group words are tuples of signed letters ``(generator, +1 | -1)``.  The word
problem is implemented twice: ``reduce_word`` cancels inverse pairs that can be
made adjacent by commutations (valid for every alphabet), and
``is_identity_stacked`` runs the stacked counter/suspend machine along a
decomposition tree (transitive forests only).  The two are cross-checked
exhaustively in the test suite.

``append_reduced`` is the cancellation scan over letters: ``is_identity``,
``reduce_word``, the bounded sweep in ``knapsack`` and the local cover in
``cancellation`` build geodesics through it.  It walks back over the letters
in the alphabet's ``commuting`` table.  The reachability engine in
``automata`` scans no letters: it keeps a geodesic as sorted Foata codes and
reads cancellation off each generator's top level.
``canonical_order`` is the step form of a geodesic, scheduled with the
alphabet's dependence tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from .alphabet import DecompositionNode, DirectZ, FreeProduct, IndependenceAlphabet, Trivial, decompose
from .errors import CancellationError, EquationError, WordError
from .trace import step_sequence

SignedLetter = Tuple[str, int]
GroupWord = Tuple[SignedLetter, ...]

EMPTY_WORD: GroupWord = ()


def letter_from_str(text: str) -> SignedLetter:
    if text.endswith("^-1"):
        return (text[:-3], -1)
    return (text, 1)


def letter_to_str(letter: SignedLetter) -> str:
    gen, sign = letter
    return gen if sign == 1 else f"{gen}^-1"


def word_from_strs(items: Iterable[str], alpha: Optional[IndependenceAlphabet] = None) -> GroupWord:
    word = tuple(letter_from_str(s) for s in items)
    if alpha is not None:
        _check_letters(word, alpha)
    return word


def word_to_strs(word: GroupWord) -> List[str]:
    return [letter_to_str(x) for x in word]


def invert_word(word: GroupWord) -> GroupWord:
    return tuple((gen, -sign) for gen, sign in reversed(word))


def concat(*words: GroupWord) -> GroupWord:
    out: List[SignedLetter] = []
    for w in words:
        out.extend(w)
    return tuple(out)


def word_power(word: GroupWord, exponent: int) -> GroupWord:
    if exponent < 0:
        return invert_word(word) * (-exponent)
    return word * exponent


def exponent_sums(word: Sequence[SignedLetter], index: Mapping[str, int]) -> Tuple[int, ...]:
    """Image of the word in the abelianization: per generator coordinate of
    ``index``, the signed count of its letters.  Generators outside ``index``
    are ignored."""
    vec = [0] * len(index)
    for gen, sign in word:
        i = index.get(gen)
        if i is not None:
            vec[i] += sign
    return tuple(vec)


def _check_letters(word: Sequence[SignedLetter], alpha: IndependenceAlphabet) -> None:
    for gen, sign in word:
        if gen not in alpha:
            raise WordError(f"unknown generator {gen!r}")
        if sign not in (1, -1):
            raise WordError(f"bad sign on {gen!r}")


def append_reduced(buf: List[SignedLetter], letter: SignedLetter, alpha: IndependenceAlphabet) -> int:
    """Append one letter to a geodesic buffer, cancelling when an inverse
    partner is visible through commuting letters (in place).  Returns the
    index the cancelled partner had, or -1 when the letter was appended."""
    gen, sign = letter
    commuting = alpha.commuting[gen]
    i = len(buf) - 1
    while i >= 0:
        g2, s2 = buf[i]
        if g2 == gen:
            if s2 == -sign:
                del buf[i]
                return i
            break
        if g2 not in commuting:
            break
        i -= 1
    buf.append(letter)
    return -1


def _geodesic(word: Sequence[SignedLetter], alpha: IndependenceAlphabet) -> List[SignedLetter]:
    buf: List[SignedLetter] = []
    for letter in word:
        append_reduced(buf, letter, alpha)
    return buf


def _letter_order(letter: SignedLetter) -> Tuple[str, int]:
    return letter[0], -letter[1]


def canonical_order(word: Sequence[SignedLetter], alpha: IndependenceAlphabet) -> GroupWord:
    """Deterministic reordering of independent letters (step form, positive
    letters before inverses within a step)."""
    steps = step_sequence(word, alpha, itemgetter(0), _letter_order)
    return tuple(letter for step in steps for letter in step)


def reduce_word(word: Sequence[SignedLetter], alpha: IndependenceAlphabet) -> GroupWord:
    """Geodesic canonical representative; empty iff the word is trivial."""
    _check_letters(word, alpha)
    return canonical_order(_geodesic(word, alpha), alpha)


def is_identity(word: Sequence[SignedLetter], alpha: IndependenceAlphabet) -> bool:
    _check_letters(word, alpha)
    return not _geodesic(word, alpha)


# -- stacked word problem along a decomposition tree --------------------------


class TrivialState:
    __slots__ = ()

    def feed(self, letter: SignedLetter) -> None:
        raise WordError(f"letter {letter!r} not covered by decomposition tree")

    def is_one(self) -> bool:
        return True

    def clone(self) -> "TrivialState":
        return TrivialState()


class DirectZState:
    """Counter for the apex generator plus the child machine."""

    __slots__ = ("apex", "counter", "child")

    def __init__(self, apex: str, child_state):
        self.apex = apex
        self.counter = 0
        self.child = child_state

    def feed(self, letter: SignedLetter) -> None:
        gen, sign = letter
        if gen == self.apex:
            self.counter += sign
        else:
            self.child.feed(letter)

    def is_one(self) -> bool:
        return self.counter == 0 and self.child.is_one()

    def clone(self) -> "DirectZState":
        out = DirectZState(self.apex, self.child.clone())
        out.counter = self.counter
        return out


class FreeProductState:
    """Active child machine plus a stack of suspended (factor, state) frames.

    A frame is pushed exactly when the current maximal same-factor segment
    does not evaluate to the identity; a segment that does evaluate to the
    identity lets the machine resume the frame below (when factors match) or
    start fresh.  Adjacent frames always carry distinct factors.
    """

    __slots__ = ("node", "owner", "stack", "active_factor", "active", "pushes", "resumes")

    def __init__(self, node: FreeProduct, owner: dict):
        self.node = node
        self.owner = owner
        self.stack: List[tuple] = []
        self.active_factor: Optional[int] = None
        self.active = None
        self.pushes = 0
        self.resumes = 0

    def feed(self, letter: SignedLetter) -> None:
        gen = letter[0]
        factor = self.owner.get(gen)
        if factor is None:
            raise WordError(f"letter {letter!r} not covered by decomposition tree")
        if self.active_factor == factor:
            self.active.feed(letter)
            return
        if self.active is not None and not self.active.is_one():
            self.stack.append((self.active_factor, self.active))
            self.pushes += 1
            self.active_factor = None
            self.active = None
        if self.active is None or self.active.is_one():
            if self.stack and self.stack[-1][0] == factor:
                self.active_factor, self.active = self.stack.pop()
                self.resumes += 1
            else:
                self.active_factor = factor
                self.active = new_state(self.node.children[factor])
        self.active.feed(letter)

    def is_one(self) -> bool:
        return not self.stack and (self.active is None or self.active.is_one())

    def clone(self) -> "FreeProductState":
        out = FreeProductState(self.node, self.owner)
        out.stack = [(f, s.clone()) for f, s in self.stack]
        out.active_factor = self.active_factor
        out.active = None if self.active is None else self.active.clone()
        out.pushes = self.pushes
        out.resumes = self.resumes
        return out


def new_state(node: DecompositionNode):
    """Fresh stacked machine state for a decomposition (sub)tree."""
    if isinstance(node, Trivial):
        return TrivialState()
    if isinstance(node, DirectZ):
        return DirectZState(node.apex, new_state(node.child))
    owner = {}
    for i, child in enumerate(node.children):
        for gen in child.generator_set():
            owner[gen] = i
    return FreeProductState(node, owner)


def is_identity_stacked(word: Sequence[SignedLetter], tree: DecompositionNode) -> bool:
    """Single left-to-right pass over the word through the stacked machine."""
    state = new_state(tree)
    for letter in word:
        state.feed(letter)
    return state.is_one()


# -- free-product word combinatorics ------------------------------------------


@dataclass(frozen=True)
class FreeProductSplit:
    """Binary partition of the alphabet generators into the two factors."""

    left: frozenset
    right: frozenset

    def factor(self, gen: str) -> int:
        if gen in self.left:
            return 0
        if gen in self.right:
            return 1
        raise WordError(f"generator {gen!r} in neither factor")

    def factor_of_word(self, word: GroupWord) -> int:
        return self.factor(word[0][0])


def split_for_alphabet(
    alpha: IndependenceAlphabet, node: Optional[DecompositionNode] = None
) -> FreeProductSplit:
    """Binary split of a disconnected alphabet: first component vs the rest."""
    if node is None:
        node = decompose(alpha)
    if not isinstance(node, FreeProduct):
        raise EquationError("alphabet is connected; no free-product split exists")
    left = frozenset(node.children[0].generator_set())
    return FreeProductSplit(left, frozenset(alpha.generators) - left)


def syllables(word: Sequence[SignedLetter], split: FreeProductSplit) -> List[GroupWord]:
    """Maximal same-factor segments; concatenation restores the word."""
    out: List[GroupWord] = []
    current: List[SignedLetter] = []
    current_factor = None
    for letter in word:
        factor = split.factor(letter[0])
        if factor != current_factor and current:
            out.append(tuple(current))
            current = []
        current_factor = factor
        current.append(letter)
    if current:
        out.append(tuple(current))
    return out


def cyclically_reduce(
    word: Sequence[SignedLetter], split: FreeProductSplit, alpha: IndependenceAlphabet
) -> Tuple[GroupWord, GroupWord]:
    """Write the word as f^-1 g f with g cyclically reduced.

    g also conforms to the preprocessed cycle format: either a single syllable
    or a word whose first and last syllables lie in different factors.  Raises
    CancellationError when the input is trivial (no cyclic core exists).
    """
    g = reduce_word(word, alpha)
    if not g:
        raise CancellationError("word represents the identity; no cyclic core")
    f: GroupWord = EMPTY_WORD
    while True:
        syls = syllables(g, split)
        if len(syls) < 2 or split.factor_of_word(syls[0]) != split.factor_of_word(syls[-1]):
            return f, g
        if is_identity(concat(syls[-1], syls[0]), alpha):
            f = concat(invert_word(syls[0]), f)
            g = concat(*syls[1:-1])
            continue
        # same-factor ends that do not cancel: one rotation restores the format
        f = concat(invert_word(syls[0]), f)
        merged = reduce_word(concat(syls[-1], syls[0]), alpha)
        g = concat(*syls[1:-1], merged)
        return f, g
