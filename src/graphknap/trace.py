"""Trace monoid words: normal forms, equality, and projections.

A monoid word is a tuple of generator names.  Words are identified up to
swapping adjacent independent letters; the step normal form below is the
canonical representative of that class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

from .alphabet import IndependenceAlphabet
from .errors import WordError

MonoidWord = Tuple[str, ...]


@dataclass(frozen=True)
class TraceNormalForm:
    """Step decomposition: each step is a set of pairwise independent letters,
    stored sorted, and every letter of a step depends on some letter of the
    previous step."""

    steps: Tuple[Tuple[str, ...], ...]

    def flatten(self) -> MonoidWord:
        return tuple(letter for step in self.steps for letter in step)


def step_sequence(letters: Sequence, alpha: IndependenceAlphabet, generator: Callable,
                  sort_key: Callable) -> tuple:
    """Greedy step scheduling shared by monoid and group canonical forms.

    Each letter lands one step after the last letter it depends on; steps come
    out sorted by ``sort_key``.  ``generator`` maps a letter to its generator.
    The step of a letter is read off the highest step so far of each generator
    it depends on (the alphabet's dependence tables), not found by comparing
    it with earlier letters.
    """
    ids, dependents, _, _ = alpha.dependence()
    top = [0] * len(ids)  # per generator id: one more than its highest step so far
    steps: list = []
    for letter in letters:
        gid = ids[generator(letter)]
        level = max(map(top.__getitem__, dependents[gid]))
        if level == len(steps):
            steps.append([letter])
        else:
            steps[level].append(letter)
        top[gid] = level + 1
    return tuple(tuple(sorted(step, key=sort_key)) for step in steps)


def _check_word(word: Sequence[str], alpha: IndependenceAlphabet) -> MonoidWord:
    w = tuple(word)
    for letter in w:
        if letter not in alpha:
            raise WordError(f"unknown letter {letter!r}")
    return w


def foata_normal_form(word: Sequence[str], alpha: IndependenceAlphabet) -> TraceNormalForm:
    """Canonical step form; two words receive equal forms iff they are
    equivalent under the commutations of ``alpha``."""
    w = _check_word(word, alpha)
    # a monoid letter is its own generator and sorts by name
    return TraceNormalForm(step_sequence(w, alpha, str, str))


def traces_equal(u: Sequence[str], v: Sequence[str], alpha: IndependenceAlphabet) -> bool:
    return foata_normal_form(u, alpha) == foata_normal_form(v, alpha)


def project(word: Sequence[str], pair: Sequence[str], alpha: IndependenceAlphabet) -> MonoidWord:
    """Subsequence keeping only the letters of a dependent pair (or a single
    letter).  Rejects independent pairs: their projection forgets the order
    information the oracle needs."""
    w = _check_word(word, alpha)
    letters = tuple(dict.fromkeys(pair))
    if not 1 <= len(letters) <= 2:
        raise WordError(f"projection needs one or two letters, got {pair!r}")
    for letter in letters:
        if letter not in alpha:
            raise WordError(f"unknown letter {letter!r}")
    if len(letters) == 2 and alpha.independent(letters[0], letters[1]):
        raise WordError(f"projection pair {letters!r} is independent")
    keep = set(letters)
    return tuple(x for x in w if x in keep)
