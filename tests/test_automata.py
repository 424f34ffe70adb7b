import itertools
import random
from operator import itemgetter

import pytest

from graphknap import (
    AutomatonError,
    ResourceExhaustedError,
    WordAutomaton,
    WordError,
    check_acyclic,
    check_acyclic_loop,
    membership_one,
    membership_one_brute,
    unroll_loops,
    validate_alphabet,
    word_from_strs,
)
from graphknap.automata import _extend, _reach_one
from graphknap.group import append_reduced, reduce_word
from graphknap.trace import step_sequence

F2 = validate_alphabet(["a", "b"], [])

ENGINE_ALPHABETS = {
    "P4": validate_alphabet(["a", "b", "c", "d"], [["a", "b"], ["b", "c"], ["c", "d"]]),
    # generators out of name order, so ids (name order) differ from input order
    "C4": validate_alphabet(["d", "b", "c", "a"], [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]]),
    "F2": validate_alphabet(["b", "a"], []),
    "ZxF2": validate_alphabet(["z", "a", "b"], [["z", "a"], ["z", "b"]]),
    "Z3": validate_alphabet(["a", "b", "c"], [["a", "b"], ["b", "c"], ["a", "c"]]),
}
# F2 first, with its original letters, then alphabets where letters commute
SEARCH_ALPHABETS = (("F2", F2), *((n, ENGINE_ALPHABETS[n]) for n in ("P4", "C4", "ZxF2")))


def W(text):
    return word_from_strs(text.split()) if text else ()


def test_check_acyclic_forward_edge():
    aut = WordAutomaton(2, 0, frozenset({1}), ((0, W("a"), 1),))
    evidence = check_acyclic(aut)
    assert evidence.order == (0, 1)


def test_check_acyclic_rejects_self_loop_but_loop_variant_accepts():
    aut = WordAutomaton(1, 0, frozenset({0}), ((0, W("a"), 0),))
    assert check_acyclic(aut).cycle == (0, 0)
    assert check_acyclic_loop(aut).acyclic


def test_check_acyclic_back_edge_cycle():
    aut = WordAutomaton(2, 0, frozenset({1}), ((0, W("a"), 1), (1, W("b"), 0)))
    evidence = check_acyclic(aut)
    assert evidence.cycle is not None


def test_loop_automaton_bc_loop_accepted():
    aut = WordAutomaton(1, 0, frozenset({0}), (), ((0, W("b c")),))
    assert check_acyclic_loop(aut).acyclic


def test_two_loops_per_state_rejected():
    aut = WordAutomaton(1, 0, frozenset({0}), (), ((0, W("a")), (0, W("b"))))
    with pytest.raises(AutomatonError):
        check_acyclic_loop(aut)


def test_loop_free_accepted_as_loop_automaton():
    aut = WordAutomaton(2, 0, frozenset({1}), ((0, W("a"), 1),))
    assert check_acyclic_loop(aut).acyclic


def test_membership_single_cancelling_transition():
    aut = WordAutomaton(2, 0, frozenset({1}), ((0, W("a a^-1"), 1),))
    assert membership_one(aut, F2) == [0]


def test_membership_single_letter_fails():
    aut = WordAutomaton(2, 0, frozenset({1}), ((0, W("a"), 1),))
    assert membership_one(aut, F2) is None


def test_membership_diamond_picks_cancelling_branch():
    aut = WordAutomaton(
        3,
        0,
        frozenset({2}),
        ((0, W("a"), 1), (0, W("b"), 1), (1, W("a^-1"), 2)),
    )
    witness = membership_one(aut, F2)
    assert witness == [0, 2]


def test_membership_brute_matches_examples():
    for transitions, expected in [
        (((0, W("a a^-1"), 1),), True),
        (((0, W("a"), 1),), False),
        (((0, W("a"), 1), (0, W("b"), 1), (1, W("a^-1"), 2)), True),
    ]:
        n = 1 + max(max(t[0], t[2]) for t in transitions)
        finals = frozenset({n - 1})
        aut = WordAutomaton(n, 0, finals, transitions)
        assert membership_one_brute(aut, F2) == (membership_one(aut, F2) is not None) == expected


def test_membership_unreachable_final():
    aut = WordAutomaton(3, 0, frozenset({2}), ((0, W("a"), 1),))
    assert membership_one(aut, F2) is None
    assert not membership_one_brute(aut, F2)


def _random_acyclic(rng, n_states, n_transitions, max_label, alpha=F2):
    letters = list(alpha.generators) + [g + "^-1" for g in alpha.generators]
    transitions = []
    for _ in range(n_transitions):
        src = rng.randrange(n_states - 1)
        dst = rng.randrange(src + 1, n_states)
        label = W(" ".join(rng.choice(letters) for _ in range(rng.randint(0, max_label))))
        transitions.append((src, label, dst))
    return WordAutomaton(n_states, 0, frozenset({n_states - 1}), tuple(transitions))


def test_membership_matches_brute_randomized():
    for name, alpha in SEARCH_ALPHABETS:
        rng = random.Random(12345 if name == "F2" else f"brute-{name}")
        for _ in range(100):
            aut = _random_acyclic(rng, rng.randint(2, 6), rng.randint(1, 7), 3, alpha)
            assert (membership_one(aut, alpha) is not None) == membership_one_brute(aut, alpha)


def test_membership_prune_does_not_change_answers():
    # membership_one always prunes by length and by abelian windows; the
    # unpruned path enumeration is the reference
    for name, alpha in SEARCH_ALPHABETS:
        rng = random.Random(4321 if name == "F2" else f"prune-{name}")
        for _ in range(60):
            aut = _random_acyclic(rng, rng.randint(2, 6), rng.randint(1, 7), 3, alpha)
            assert (membership_one(aut, alpha) is not None) == membership_one_brute(aut, alpha)


def test_membership_rejects_foreign_letters():
    aut = WordAutomaton(2, 0, frozenset({1}), ((0, W("a z z^-1 a^-1"), 1),))
    with pytest.raises(WordError):
        membership_one(aut, F2)
    bad_sign = WordAutomaton(2, 0, frozenset({1}), ((0, (("a", 2),), 1),))
    with pytest.raises(WordError):
        membership_one(bad_sign, F2)


@pytest.mark.parametrize("n_states", [1001, 1201])
def test_membership_brute_long_chain(n_states):
    # deeper than the interpreter's default recursion limit
    transitions = tuple((q, W("a" if q % 2 == 0 else "a^-1"), q + 1) for q in range(n_states - 1))
    aut = WordAutomaton(n_states, 0, frozenset({n_states - 1}), transitions)
    expected = membership_one(aut, F2) is not None
    assert membership_one_brute(aut, F2) == expected == (n_states % 2 == 1)


def test_membership_node_cap():
    # the prefix "a" passes both prunes, so it is a second stored prefix
    aut = WordAutomaton(3, 0, frozenset({2}), ((0, W("a"), 1), (1, W("a^-1"), 2)))
    with pytest.raises(ResourceExhaustedError):
        membership_one(aut, F2, node_cap=1)
    assert membership_one(aut, F2, node_cap=2) == [0, 1]


def test_engine_asks_feasible_once_per_state_and_sums():
    # "a b" and "b a" are two stored prefixes at state 1 with equal sums, so
    # every (state, sums) after state 1 is reached twice
    edges = [(0, (), 0, W("a b"), 1), (0, (), 0, W("b a"), 1), (1, W("a"), 3, W("b^-1"), 2)]
    asked = []

    def feasible(state, sums):
        asked.append((state, sums))
        return True

    assert _reach_one(3, 0, frozenset({2}), edges, range(3), F2, 100, feasible) is None
    assert len(asked) == len(set(asked)) == 1 + 4


def test_membership_witness_label_is_trivial():
    rng = random.Random(2024)
    for _ in range(50):
        aut = _random_acyclic(rng, rng.randint(2, 6), rng.randint(1, 7), 3)
        witness = membership_one(aut, F2)
        if witness is not None:
            from graphknap import is_identity
            from graphknap.group import concat

            label = concat(*(aut.transitions[i][1] for i in witness))
            assert is_identity(label, F2)


def test_unroll_budget_two():
    aut = WordAutomaton(2, 0, frozenset({1}), ((0, W("a"), 1),), ((0, W("b c")),))
    alpha4 = validate_alphabet(["a", "b", "c"], [])
    unrolled = unroll_loops(aut, 2)
    assert check_acyclic(unrolled).acyclic
    words = _language(unrolled)
    assert words == {W("a"), W("b c a"), W("b c b c a")}


def test_unroll_budget_zero_is_skeleton():
    aut = WordAutomaton(2, 0, frozenset({1}), ((0, W("a"), 1),), ((0, W("b")),))
    unrolled = unroll_loops(aut, 0)
    assert _language(unrolled) == {W("a")}


def _language(aut):
    out = set()

    def dfs(state, word):
        if state in aut.finals:
            out.add(word)
        for src, label, dst in aut.transitions:
            if src == state:
                dfs(dst, word + label)

    dfs(aut.initial, ())
    return out


def test_unroll_language_sizes_multiply_along_chain():
    aut = WordAutomaton(
        3,
        0,
        frozenset({2}),
        ((0, W("a"), 1), (1, W("a"), 2)),
        ((0, W("b")), (1, W("c"))),
    )
    unrolled = unroll_loops(aut, 2)
    assert len(_language(unrolled)) == 9


# -- the engine's incremental Foata form ---------------------------------------

def _decode(codes, alpha):
    by_code = alpha.dependence().letters
    return tuple(by_code[c % len(by_code)] for c in codes)


def _foata_codes(word, alpha):
    """Codes level * width + letter code of a word's Foata steps, from scratch."""
    code = alpha.dependence().code
    steps = step_sequence(word, alpha, itemgetter(0), code.__getitem__)
    return sorted(level * len(code) + code[x] for level, step in enumerate(steps) for x in step)


def _top_levels(codes, alpha):
    width = len(alpha.dependence().code)
    top = [0] * len(alpha)
    for c in codes:  # sorted, so the highest level of each generator comes last
        top[c % width >> 1] = c // width + 1
    return top


@pytest.mark.parametrize("name", sorted(ENGINE_ALPHABETS))
def test_incremental_form_matches_reduce_word(name):
    alpha = ENGINE_ALPHABETS[name]
    tables = alpha.dependence()
    letters = [(g, s) for g in alpha.generators for s in (1, -1)]
    rng = random.Random(f"foata-{name}")
    for _ in range(60):
        word = [rng.choice(letters) for _ in range(rng.randint(1, 40))]
        codes, top = [], [0] * len(alpha)
        for i, letter in enumerate(word):
            _extend(codes, top, (letter,), tables)
            expected = reduce_word(word[: i + 1], alpha)
            assert _decode(codes, alpha) == expected
            assert codes == _foata_codes(expected, alpha)
            assert top == _top_levels(codes, alpha)
            if rng.random() < 0.3:  # continue from the stored key, as the engine does
                codes, top = list(tuple(codes)), list(tuple(top))


@pytest.mark.parametrize("name", sorted(ENGINE_ALPHABETS))
def test_extend_cancels_exactly_when_append_reduced_does(name):
    alpha = ENGINE_ALPHABETS[name]
    tables = alpha.dependence()
    letters = [(g, s) for g in alpha.generators for s in (1, -1)]
    rng = random.Random(f"cancel-{name}")
    cancels = 0
    for _ in range(60):
        codes, top, buf = [], [0] * len(alpha), []
        for _ in range(rng.randint(1, 40)):
            letter = rng.choice(letters)
            before = len(codes)
            _extend(codes, top, (letter,), tables)
            cancelled = append_reduced(buf, letter, alpha) >= 0
            assert (len(codes) < before) == cancelled
            assert len(codes) == len(buf)
            cancels += cancelled
    assert cancels
