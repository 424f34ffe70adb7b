import itertools
import random

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
from graphknap.automata import _FoataGeodesic
from graphknap.group import reduce_word

F2 = validate_alphabet(["a", "b"], [])


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


def _random_acyclic(rng, n_states, n_transitions, max_label):
    letters = ["a", "b", "a^-1", "b^-1"]
    transitions = []
    for _ in range(n_transitions):
        src = rng.randrange(n_states - 1)
        dst = rng.randrange(src + 1, n_states)
        label = W(" ".join(rng.choice(letters) for _ in range(rng.randint(0, max_label))))
        transitions.append((src, label, dst))
    return WordAutomaton(n_states, 0, frozenset({n_states - 1}), tuple(transitions))


def test_membership_matches_brute_randomized():
    rng = random.Random(12345)
    for _ in range(100):
        aut = _random_acyclic(rng, rng.randint(2, 6), rng.randint(1, 7), 3)
        assert (membership_one(aut, F2) is not None) == membership_one_brute(aut, F2)


def test_membership_independent_of_topological_order():
    rng = random.Random(99)
    for _ in range(40):
        aut = _random_acyclic(rng, rng.randint(2, 6), rng.randint(1, 7), 3)
        default = membership_one(aut, F2) is not None
        order = list(check_acyclic(aut).order)
        # a different valid topological order: stable-sort sources last where possible
        alt = sorted(order, key=lambda q: (sum(1 for s, _, d in aut.transitions if d == q), order.index(q)))
        pos = {q: i for i, q in enumerate(alt)}
        if all(pos[s] < pos[d] for s, _, d in aut.transitions):
            assert (membership_one(aut, F2, order=alt) is not None) == default


def test_membership_prune_does_not_change_answers():
    rng = random.Random(4321)
    for _ in range(60):
        aut = _random_acyclic(rng, rng.randint(2, 6), rng.randint(1, 7), 3)
        assert (membership_one(aut, F2, prune=True) is not None) == (
            membership_one(aut, F2, prune=False) is not None
        )


def test_membership_rejects_foreign_letters():
    aut = WordAutomaton(2, 0, frozenset({1}), ((0, W("a z z^-1 a^-1"), 1),))
    with pytest.raises(WordError):
        membership_one(aut, F2)


def test_membership_node_cap():
    aut = _random_acyclic(random.Random(7), 6, 7, 3)
    with pytest.raises(ResourceExhaustedError):
        membership_one(aut, F2, node_cap=1, prune=False)


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

ENGINE_ALPHABETS = {
    "P4": validate_alphabet(["a", "b", "c", "d"], [["a", "b"], ["b", "c"], ["c", "d"]]),
    # generators out of name order, so ids (name order) differ from input order
    "C4": validate_alphabet(["d", "b", "c", "a"], [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]]),
    "F2": validate_alphabet(["b", "a"], []),
    "ZxF2": validate_alphabet(["z", "a", "b"], [["z", "a"], ["z", "b"]]),
    "Z3": validate_alphabet(["a", "b", "c"], [["a", "b"], ["b", "c"], ["a", "c"]]),
}


@pytest.mark.parametrize("name", sorted(ENGINE_ALPHABETS))
def test_incremental_form_matches_reduce_word(name):
    alpha = ENGINE_ALPHABETS[name]
    letters = [(g, s) for g in alpha.generators for s in (1, -1)]
    rng = random.Random(f"foata-{name}")
    for _ in range(60):
        word = [rng.choice(letters) for _ in range(rng.randint(1, 40))]
        state = _FoataGeodesic.from_key(alpha, (), (0,) * len(alpha))
        for i, letter in enumerate(word):
            state.extend((letter,))
            expected = reduce_word(word[: i + 1], alpha)
            key = state.key()
            assert len(state.letters) == len(expected)
            decoded = _FoataGeodesic.from_key(alpha, key, state.top)
            assert tuple(decoded.letters) == expected
            if rng.random() < 0.3:  # continue from the decoded state, as the engine does
                state = decoded
