import itertools

import pytest

from graphknap import (
    CancellationError,
    EquationError,
    ExponentEquation,
    FreeProductSplit,
    block_factorize,
    compatible_periods,
    find_cancellation,
    grow,
    is_identity,
    local_semilinear_cover,
    mixed_periods,
    shrink,
    substitute,
    validate_alphabet,
    verify_cancellation,
    verify_solution,
    word_from_strs,
)
from graphknap.cancellation import certified_solution, removal_threshold
from graphknap.group import concat
from graphknap.semilinear import members_up_to, semilinear_member

F2 = validate_alphabet(["a", "b"], [])
SPLIT = FreeProductSplit(frozenset(["a"]), frozenset(["b"]))
P3 = validate_alphabet(["a", "b", "c"], [["a", "b"]])  # (Z x Z) * Z components {a,b},{c}
SPLIT3 = FreeProductSplit(frozenset(["a", "b"]), frozenset(["c"]))


def W(text):
    return word_from_strs(text.split()) if text else ()


def eq_of(alpha, constants, cycles, variables):
    return ExponentEquation(alpha, tuple(W(c) for c in constants), tuple(W(c) for c in cycles), tuple(variables))


def test_block_factorize_square():
    eq = eq_of(F2, ["", ""], ["a b"], ["x"])
    blocks = block_factorize(eq, (2,), SPLIT)
    assert [b.word for b in blocks.blocks] == [W("a"), W("b"), W("a"), W("b")]
    assert blocks.cycle_ranges == ((1, 4),)
    assert [b.source for b in blocks.blocks] == [
        ("u", 0, 0, 0), ("u", 0, 0, 1), ("u", 0, 1, 0), ("u", 0, 1, 1)
    ]


def test_block_factorize_zero_exponent():
    eq = eq_of(F2, ["a", "b"], ["a b"], ["x"])
    blocks = block_factorize(eq, (0,), SPLIT)
    assert [b.word for b in blocks.blocks] == [W("a"), W("b")]
    assert blocks.cycle_ranges == (None,)


def test_block_factorize_rejects_unpreprocessed():
    eq = eq_of(F2, ["", ""], ["a b a"], ["x"])  # same-factor ends
    with pytest.raises(EquationError):
        block_factorize(eq, (1,), SPLIT)


# -- references: the pairwise well-nestedness test and the recursive peel ------


def _crossing(a, b):
    """True iff some i1 < j1 < i2 < j2 exists with i's in a and j's in b."""
    a_sorted, b_sorted = sorted(a), sorted(b)
    for j1 in b_sorted:
        before = [i for i in a_sorted if i < j1]
        after = [i for i in a_sorted if i > j1]
        if before and after and b_sorted[-1] > min(after):
            return True
    return False


def verify_reference(words, cancellation, split, alpha):
    """The five axioms by their definitions, well-nestedness pair by pair."""
    factors = [split.factor_of_word(w) for w in words]
    m = len(words)
    edges = [sorted(e) for e in cancellation]
    covered = []
    for e in edges:
        if not e:
            return False, "partition"
        covered.extend(e)
    if sorted(covered) != list(range(1, m + 1)):
        return False, "partition"
    for e in edges:
        if len({factors[i - 1] for i in e}) > 1:
            return False, "consistent"
    for e in edges:
        if not is_identity(concat(*(words[i - 1] for i in e)), alpha):
            return False, "cancelling"
    for e1, e2 in itertools.combinations(edges, 2):
        if _crossing(e1, e2) or _crossing(e2, e1):
            return False, "well-nested"
    membership = {i: frozenset(e) for e in edges for i in e}
    for i in range(1, m):
        if factors[i - 1] == factors[i] and membership[i] != membership[i + 1]:
            return False, "maximal"
    return True, None


def peel_reference(words, split, alpha):
    """Peel the leftmost maximal same-factor run that multiplies to the
    identity, recurse on the rest; None when no such run is left."""
    items = [(i, w, split.factor_of_word(w)) for i, w in enumerate(words, 1)]

    def recurse(items):
        if not items:
            return []
        pos = 0
        while pos < len(items):
            end = pos
            while end + 1 < len(items) and items[end + 1][2] == items[pos][2]:
                end += 1
            if is_identity(concat(*(items[t][1] for t in range(pos, end + 1))), alpha):
                sub = recurse(items[:pos] + items[end + 1:])
                if sub is None:
                    return None
                return sub + [frozenset(items[t][0] for t in range(pos, end + 1))]
            pos = end + 1
        return None

    edges = recurse(items)
    return None if edges is None else frozenset(edges)


def set_partitions(items):
    """Every set partition of ``items``, each as a list of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for n in range(len(part)):
            yield part[:n] + [[first] + part[n]] + part[n + 1:]


RAW = [W("a"), W("b"), W("b^-1"), W("a^-1")]


def test_verify_cancellation_valid():
    ok, axiom = verify_cancellation(RAW, frozenset({frozenset({2, 3}), frozenset({1, 4})}), SPLIT, F2)
    assert ok and axiom is None


def test_verify_cancellation_crossing():
    blocks = [W("a"), W("b"), W("a^-1"), W("b^-1")]
    ok, axiom = verify_cancellation(
        blocks, frozenset({frozenset({1, 3}), frozenset({2, 4})}), SPLIT, F2
    )
    assert not ok and axiom == "well-nested"


def test_verify_cancellation_missing_block():
    ok, axiom = verify_cancellation(RAW, frozenset({frozenset({2, 3})}), SPLIT, F2)
    assert not ok and axiom == "partition"


def test_verify_cancellation_inconsistent():
    ok, axiom = verify_cancellation(RAW, frozenset({frozenset({1, 2}), frozenset({3, 4})}), SPLIT, F2)
    assert not ok and axiom == "consistent"


def test_verify_cancellation_not_cancelling():
    blocks = [W("a"), W("a")]
    ok, axiom = verify_cancellation(blocks, frozenset({frozenset({1, 2})}), SPLIT, F2)
    assert not ok and axiom == "cancelling"


def test_verify_cancellation_not_maximal():
    blocks = [W("a"), W("a^-1"), W("b"), W("b^-1")]
    ok, axiom = verify_cancellation(
        blocks, frozenset({frozenset({1, 2}), frozenset({3, 4})}), SPLIT, F2
    )
    assert ok  # adjacent same-factor pairs share their edge here
    ok, axiom = verify_cancellation(
        [W("a"), W("a^-1"), W("a"), W("a^-1")],
        frozenset({frozenset({1, 2}), frozenset({3, 4})}),
        SPLIT,
        F2,
    )
    assert not ok and axiom == "maximal"


def test_find_cancellation_simple_pair():
    assert find_cancellation([W("a"), W("a^-1")], SPLIT, F2) == frozenset({frozenset({1, 2})})


def test_find_cancellation_nontrivial_none():
    assert find_cancellation([W("a"), W("b")], SPLIT, F2) is None


SYLLABLES = [W("a"), W("a^-1"), W("a a"), W("b"), W("b^-1"), W("b b")]


def test_find_cancellation_iff_identity_exhaustive():
    for length in range(7):
        for combo in itertools.product(range(len(SYLLABLES)), repeat=length):
            blocks = [SYLLABLES[i] for i in combo]
            word = sum(blocks, ())
            found = find_cancellation(blocks, SPLIT, F2)
            assert (found is not None) == is_identity(word, F2)
            assert found == peel_reference(blocks, SPLIT, F2)
            if found is not None:
                ok, axiom = verify_cancellation(blocks, found, SPLIT, F2)
                assert ok, axiom


def test_find_cancellation_iff_identity_z2_star_z():
    syllables = [W("a"), W("b"), W("a^-1 b^-1"), W("c"), W("c^-1"), W("c c")]
    for length in range(5):
        for combo in itertools.product(range(len(syllables)), repeat=length):
            blocks = [syllables[i] for i in combo]
            word = sum(blocks, ())
            found = find_cancellation(blocks, SPLIT3, P3)
            assert (found is not None) == is_identity(word, P3)
            assert found == peel_reference(blocks, SPLIT3, P3)


def test_verify_cancellation_matches_pairwise_definition():
    # with one-letter blocks alone an odd block count never gets past the
    # cancelling axiom; a^-2 lets five blocks reach well-nested and maximal
    words = [W("a"), W("a^-1"), W("b"), W("b^-1"), W("a^-1 a^-1")]
    partitions = [
        frozenset(frozenset(e) for e in part) for part in set_partitions([1, 2, 3, 4, 5])
    ]
    assert len(partitions) == 52
    seen = set()
    for combo in itertools.product(words, repeat=5):
        blocks = list(combo)
        for partition in partitions:
            expected = verify_reference(blocks, partition, SPLIT, F2)
            assert verify_cancellation(blocks, partition, SPLIT, F2) == expected
            seen.add(expected[1])
    assert seen == {"consistent", "cancelling", "well-nested", "maximal", None}


def test_find_cancellation_thousand_nested_edges():
    blocks = [W("a"), W("b")] * 500 + [W("b^-1"), W("a^-1")] * 500
    found = find_cancellation(blocks, SPLIT, F2)
    assert found == frozenset(frozenset({t, 2001 - t}) for t in range(1, 1001))
    assert verify_cancellation(blocks, found, SPLIT, F2) == (True, None)


MIXED_EQ = eq_of(F2, ["", "", ""], ["a b", "b^-1 a^-1"], ["x", "y"])


def test_mixed_periods_pairs():
    periods = mixed_periods(MIXED_EQ, SPLIT)
    assert len(periods) == 1
    assert periods[0].vector == (2, 2)


def test_mixed_periods_empty_cases():
    assert mixed_periods(eq_of(F2, ["", ""], ["a"], ["x"]), SPLIT) == []
    assert mixed_periods(eq_of(F2, ["", ""], ["a b"], ["x"]), SPLIT) == []


def test_compatible_period_on_square_cancellation():
    x, c = certified_solution(MIXED_EQ, (1, 1), SPLIT)
    compatible = compatible_periods(MIXED_EQ, x, c, SPLIT)
    assert [p.vector for p in compatible] == [(2, 2)]


def test_simple_cycle_instance_has_no_compatible_periods():
    eq = eq_of(F2, ["", "", ""], ["a", "a^-1"], ["x", "y"])
    x, c = certified_solution(eq, (2, 2), SPLIT)
    assert compatible_periods(eq, x, c, SPLIT) == []


def test_grow_preserves_solutionhood_and_verifies():
    x, c = certified_solution(MIXED_EQ, (1, 1), SPLIT)
    period = compatible_periods(MIXED_EQ, x, c, SPLIT)[0]
    x2, c2 = grow(MIXED_EQ, x, c, period, SPLIT)
    assert x2 == (3, 3)
    ok, axiom = verify_cancellation(block_factorize(MIXED_EQ, x2, SPLIT), c2)
    assert ok, axiom
    assert is_identity(substitute(MIXED_EQ, dict(zip(MIXED_EQ.variables, x2))), F2)
    # monotone compatible sets
    after = {p.vector for p in compatible_periods(MIXED_EQ, x2, c2, SPLIT)}
    assert {period.vector} <= after


def test_grow_twice_equals_adding_twice():
    x, c = certified_solution(MIXED_EQ, (1, 1), SPLIT)
    period = compatible_periods(MIXED_EQ, x, c, SPLIT)[0]
    x2, c2 = grow(MIXED_EQ, x, c, period, SPLIT)
    x3, _ = grow(MIXED_EQ, x2, c2, period, SPLIT)
    assert x3 == (5, 5)


def test_grow_incompatible_period_rejected():
    eq = eq_of(F2, ["", "", ""], ["a", "a^-1"], ["x", "y"])
    x, c = certified_solution(eq, (1, 1), SPLIT)
    fake = mixed_periods(MIXED_EQ, SPLIT)[0]
    with pytest.raises(CancellationError):
        grow(eq, x, c, fake, SPLIT)


def test_shrink_below_threshold_returns_none():
    x, c = certified_solution(MIXED_EQ, (1, 1), SPLIT)
    assert shrink(MIXED_EQ, x, c, SPLIT) is None


def test_shrink_inverts_grow_chain():
    threshold = removal_threshold(MIXED_EQ)
    x, c = certified_solution(MIXED_EQ, (1, 1), SPLIT)
    period = compatible_periods(MIXED_EQ, x, c, SPLIT)[0]
    steps = 0
    while x[0] <= threshold:
        x, c = grow(MIXED_EQ, x, c, period, SPLIT)
        steps += 1
    assert steps > 0
    removed, x2, c2 = shrink(MIXED_EQ, x, c, SPLIT)
    assert removed.vector == period.vector
    assert x2 == tuple(a - b for a, b in zip(x, period.vector))
    ok, axiom = verify_cancellation(block_factorize(MIXED_EQ, x2, SPLIT), c2)
    assert ok, axiom
    assert verify_solution(MIXED_EQ, dict(zip(MIXED_EQ.variables, x2)))
    # removed period stays compatible afterwards
    assert period.vector in {p.vector for p in compatible_periods(MIXED_EQ, x2, c2, SPLIT)}


def test_shrink_on_brute_forced_large_solutions():
    # tiny instance, threshold q(n) = (4 + 6 + 1) + 2*16 = 43
    eq = MIXED_EQ
    threshold = removal_threshold(eq)
    assert threshold == 43
    for t in (threshold + 1, threshold + 2):
        x = (t, t)
        assert verify_solution(eq, dict(zip(eq.variables, x)))
        x_cert, c_cert = certified_solution(eq, x, SPLIT)
        result = shrink(eq, x_cert, c_cert, SPLIT)
        assert result is not None
        _, x2, c2 = result
        ok, _ = verify_cancellation(block_factorize(eq, x2, SPLIT), c2)
        assert ok


def test_local_cover_z_star_z_square_instance():
    # a^x a^-2 b^y b^-2 = 1 at (2, 2); the cycles are simple
    eq = eq_of(F2, ["", "a^-1 a^-1", "b^-1 b^-1"], ["a", "b"], ["x", "y"])
    cover = local_semilinear_cover(eq, (2, 2))
    assert semilinear_member(cover, (2, 2))
    for member in members_up_to(cover, 6):
        assert verify_solution(eq, dict(zip(eq.variables, member)))


def test_local_cover_mixed_has_periods():
    from graphknap.semilinear import magnitude
    from graphknap import tameness_bound

    x, c = certified_solution(MIXED_EQ, (1, 1), SPLIT)
    period = compatible_periods(MIXED_EQ, x, c, SPLIT)[0]
    big = (1 + 30 * 2, 1 + 30 * 2)
    cover = local_semilinear_cover(MIXED_EQ, big)
    assert semilinear_member(cover, big)
    assert any(c.periods for c in cover.components)
    for member in members_up_to(cover, 8):
        assert verify_solution(MIXED_EQ, dict(zip(MIXED_EQ.variables, member)))
    assert magnitude(cover) <= tameness_bound(MIXED_EQ).value


def test_solution_set_free_product_diagonal():
    from graphknap import solution_set
    from graphknap.semilinear import magnitude
    from graphknap import tameness_bound

    eq = MIXED_EQ  # (ab)^x (b^-1 a^-1)^y = 1, solutions are the diagonal
    s = solution_set(eq)
    assert members_up_to(s, 10) == {(t, t) for t in range(11)}
    assert magnitude(s) <= tameness_bound(eq).value


def test_local_cover_large_mixed_solution():
    cover = local_semilinear_cover(MIXED_EQ, (700, 700))
    assert semilinear_member(cover, (700, 700))
    assert all(c.periods for c in cover.components)
    for member in members_up_to(cover, 50):
        assert verify_solution(MIXED_EQ, dict(zip(MIXED_EQ.variables, member)))


def test_local_cover_rejects_non_solution():
    with pytest.raises(EquationError):
        local_semilinear_cover(MIXED_EQ, (1, 2))


def test_mutex_no_edge_holds_two_blocks_of_same_mixed_cycle():
    for x in [(1, 1), (3, 3)]:
        _, c = certified_solution(MIXED_EQ, x, SPLIT)
        blocks = block_factorize(MIXED_EQ, x, SPLIT)
        for edge in c:
            for i in range(MIXED_EQ.k):
                if len(blocks.eq.cycles[i]) > 1:
                    inside = [t for t in edge if blocks.in_cycle(t, i)]
                    assert len(inside) <= 1


def _mixed_cycles(eq, split):
    from graphknap.cancellation import syllable_counts

    counts = syllable_counts(eq, split)
    return [i for i in range(eq.k) if counts[i] > 1]


def test_nonstandard_edge_count_bound():
    # per mixed cycle, non-standard edges touching it stay below n + 3k + 1
    eq = eq_of(F2, ["a", "", "a^-1"], ["a b", "b^-1 a^-1"], ["x", "y"])
    mixed = _mixed_cycles(eq, SPLIT)
    limit = eq.size + 3 * eq.k + 1
    for x in [(1, 1), (2, 2), (4, 4)]:
        x_cert, c = certified_solution(eq, x, SPLIT)
        blocks = block_factorize(eq, x_cert, SPLIT)
        for i in mixed:
            nonstandard = 0
            for edge in c:
                if not any(blocks.in_cycle(t, i) for t in edge):
                    continue
                standard = len(edge) == 2 and all(
                    any(blocks.in_cycle(t, j) for j in mixed) for t in edge
                )
                if not standard:
                    nonstandard += 1
            assert nonstandard <= limit


def test_standard_edge_endpoints_form_interval():
    eq = MIXED_EQ
    mixed = _mixed_cycles(eq, SPLIT)
    for x in [(2, 2), (5, 5)]:
        x_cert, c = certified_solution(eq, x, SPLIT)
        blocks = block_factorize(eq, x_cert, SPLIT)
        i, j = mixed[0], mixed[1]
        endpoints = sorted(
            t
            for edge in c
            if len(edge) == 2
            and any(blocks.in_cycle(a, i) for a in edge)
            and any(blocks.in_cycle(a, j) for a in edge)
            for t in edge
            if blocks.in_cycle(t, i)
        )
        if endpoints:
            assert endpoints == list(range(endpoints[0], endpoints[-1] + 1))
