"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is exact; the corpus sizes and sweep bounds are
stated inline.
"""

import itertools
import random

import pytest

from graphknap import (
    CnfFormula,
    ExponentEquation,
    FreeProductSplit,
    NotTransitiveForestError,
    SolverLimits,
    WordAutomaton,
    block_factorize,
    brute_force_solutions,
    classify,
    compatible_periods,
    decompose,
    decompose_onedim_bounded,
    find_cancellation,
    foata_normal_form,
    grow,
    intersection_to_group_membership,
    is_identity,
    is_identity_stacked,
    knapsack_to_automaton,
    loop_automaton_to_knapsack_p4,
    members_up_to,
    membership_one,
    membership_one_brute,
    minimal_solutions_homogeneous,
    minimal_solutions_inhom,
    preprocess,
    project,
    sat_to_p4_automata,
    sat_to_p4_knapsack,
    shrink,
    solve,
    solve_subset_sum,
    solve_within_bounds,
    tameness_bound,
    traces_equal,
    unroll_loops,
    validate_alphabet,
    verify_cancellation,
    verify_solution,
    word_from_strs,
)
from graphknap.alphabet import GENERAL
from graphknap.cancellation import certified_solution, removal_threshold, split_for_alphabet
from graphknap.gadgets import F2_ALPHABET, P4_ALPHABET, sat_witness_budget
from graphknap.semilinear import dot, l1_norm, semilinear_member

F2 = validate_alphabet(["a", "b"], [])


def W(text):
    return word_from_strs(text.split()) if text else ()


# ---------------------------------------------------------------------------
# criterion 1: classification agrees with the induced-pattern oracle and with
# decomposition success over all graphs on <= 6 labeled vertices
# ---------------------------------------------------------------------------


def _pattern_table():
    """For each of the 64 labeled graphs on four fixed vertices, whether some
    vertex ordering realizes an induced path or cycle (independent route:
    ordered tuples instead of degree profiles)."""
    table = []
    pairs = list(itertools.combinations(range(4), 2))
    for mask in range(64):
        adj = [[False] * 4 for _ in range(4)]
        for i, (x, y) in enumerate(pairs):
            if mask >> i & 1:
                adj[x][y] = adj[y][x] = True
        hit = False
        for order in itertools.permutations(range(4)):
            w, x, y, z = order
            if adj[w][x] and adj[x][y] and adj[y][z] and not adj[w][y] and not adj[w][z] and not adj[x][z]:
                hit = True
                break
            if adj[w][x] and adj[x][y] and adj[y][z] and adj[z][w] and not adj[w][y] and not adj[x][z]:
                hit = True
                break
        table.append(hit)
    return table


def test_criterion_1_classification_oracle_equivalence():
    table = _pattern_table()
    sub_pairs = list(itertools.combinations(range(4), 2))
    checked = 0
    for n in range(7):
        names = ["a", "b", "c", "d", "e", "f"][:n]
        pairs = list(itertools.combinations(range(n), 2))
        pair_index = {p: i for i, p in enumerate(pairs)}
        for mask in range(1 << len(pairs)):
            edges = [
                (names[pairs[i][0]], names[pairs[i][1]])
                for i in range(len(pairs))
                if mask >> i & 1
            ]
            alpha = validate_alphabet(names, edges)
            verdict = classify(alpha)
            oracle = False
            for quad in itertools.combinations(range(n), 4):
                sub = 0
                for i, (x, y) in enumerate(sub_pairs):
                    key = (quad[x], quad[y])
                    if mask >> pair_index[key] & 1:
                        sub |= 1 << i
                if table[sub]:
                    oracle = True
                    break
            assert (verdict.kind == GENERAL) == oracle
            try:
                decompose(alpha)
                decomposed = True
            except NotTransitiveForestError:
                decomposed = False
            assert decomposed == (verdict.kind != GENERAL)
            checked += 1
    assert checked == sum(1 << (n * (n - 1) // 2) for n in range(7))
    print(f"\nACCEPTANCE 1 PASS: Wolk three-way agreement on {checked} graphs (<= 6 vertices)")


# ---------------------------------------------------------------------------
# criterion 2: word-problem cross-validation and the trace projection oracle
# ---------------------------------------------------------------------------


def _tf_alphabets_up_to_four():
    yield validate_alphabet(["a"], [])
    yield validate_alphabet(["a", "b"], [])
    yield validate_alphabet(["a", "b"], [["a", "b"]])
    for edges in [[], [["a", "b"]], [["a", "b"], ["b", "c"]], [["a", "b"], ["b", "c"], ["c", "a"]]]:
        yield validate_alphabet(["a", "b", "c"], edges)
    four = [
        [],
        [["a", "b"]],
        [["a", "b"], ["c", "d"]],
        [["a", "b"], ["b", "c"]],
        [["a", "b"], ["b", "c"], ["c", "a"]],
        [["a", "b"], ["a", "c"], ["a", "d"]],
        [["a", "b"], ["b", "c"], ["c", "a"], ["a", "d"]],
        [["a", "b"], ["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]],
        [["a", "b"], ["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"], ["c", "d"]],
    ]
    for edges in four:
        yield validate_alphabet(["a", "b", "c", "d"], edges)


def test_criterion_2_word_problem_cross_validation():
    words_checked = 0
    rng = random.Random(2020)
    for alpha in _tf_alphabets_up_to_four():
        tree = decompose(alpha)
        letters = [(g, s) for g in alpha.generators for s in (1, -1)]
        for length in range(7):
            for word in itertools.product(letters, repeat=length):
                assert is_identity(word, alpha) == is_identity_stacked(word, tree)
                words_checked += 1
        for _ in range(625):  # 16 alphabets x 625 = 10^4 sampled longer words
            length = rng.choice((7, 8))
            word = tuple(rng.choice(letters) for _ in range(length))
            assert is_identity(word, alpha) == is_identity_stacked(word, tree)
            words_checked += 1

    # monoid fragment: the step normal form induces the same partition as the
    # projection oracle (projections onto dependent pairs plus letter counts)
    graphs4 = [
        [],
        [["a", "b"]],
        [["a", "b"], ["c", "d"]],
        [["a", "b"], ["b", "c"]],
        [["a", "b"], ["b", "c"], ["c", "d"]],
        [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]],
        [["a", "b"], ["b", "c"], ["c", "a"]],
        [["a", "b"], ["a", "c"], ["a", "d"]],
        [["a", "b"], ["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"], ["c", "d"]],
    ]
    trace_words = 0
    for edges in graphs4:
        alpha = validate_alphabet(["a", "b", "c", "d"], edges)
        dep_pairs = [
            (x, y)
            for x, y in itertools.combinations(alpha.generators, 2)
            if alpha.dependent(x, y)
        ]

        def oracle_key(w):
            counts = tuple(w.count(g) for g in alpha.generators)
            projections = tuple(
                tuple(c for c in w if c in (x, y)) for x, y in dep_pairs
            )
            return (counts, projections)

        form_to_key = {}
        key_to_form = {}
        for length in range(7):
            for tup in itertools.product(alpha.generators, repeat=length):
                word = "".join(tup)
                form = foata_normal_form(word, alpha)
                key = oracle_key(word)
                assert form_to_key.setdefault(form, key) == key
                assert key_to_form.setdefault(key, form) == form
                trace_words += 1
    print(
        f"\nACCEPTANCE 2 PASS: reduce vs stacked on {words_checked} signed words; "
        f"step form matches projection oracle on {trace_words} monoid words"
    )


# ---------------------------------------------------------------------------
# criterion 3: Pottier bounds and the bounded one-dimensional decomposition
# ---------------------------------------------------------------------------


def test_criterion_3_pottier_bounds():
    cases = 0
    for k in (1, 2, 3):
        grid = list(itertools.product(range(11), repeat=k))
        for u in itertools.product(range(-5, 6), repeat=k):
            hom = minimal_solutions_homogeneous(u)
            for x in hom:
                assert l1_norm(x) <= 1 + l1_norm(u)
            for b in range(-5, 6):
                mins = minimal_solutions_inhom(u, b)
                for x in mins:
                    assert l1_norm(x) <= 1 + l1_norm(u) + abs(b)
                M = max(max(abs(c) for c in u), abs(b), 1)
                s = decompose_onedim_bounded(u, b, M)
                limit = 1 + (M + 2) * M
                for comp in s.components:
                    assert l1_norm(comp.base) <= limit
                    for p in comp.periods:
                        assert l1_norm(p) <= limit
                want = {x for x in grid if dot(u, x) == b}
                assert members_up_to(s, 10) == want, (u, b)
                cases += 1
    print(f"\nACCEPTANCE 3 PASS: bounds and set equality over {cases} (u, b) pairs")


# ---------------------------------------------------------------------------
# criterion 4: cancellation exists iff the block word is trivial
# ---------------------------------------------------------------------------


def test_criterion_4_cancellation_iff_identity():
    split = FreeProductSplit(frozenset(["a"]), frozenset(["b"]))
    syllables = [W("a"), W("a^-1"), W("a a"), W("b"), W("b^-1"), W("b b")]
    sequences = 0
    for length in range(7):
        for combo in itertools.product(range(6), repeat=length):
            blocks = [syllables[i] for i in combo]
            word = sum(blocks, ())
            found = find_cancellation(blocks, split, F2)
            assert (found is not None) == is_identity(word, F2)
            if found is not None:
                ok, axiom = verify_cancellation(blocks, found, split, F2)
                assert ok, axiom
            sequences += 1
    print(f"\nACCEPTANCE 4 PASS: cancellation iff identity on {sequences} block sequences")


# ---------------------------------------------------------------------------
# criterion 5: grow and shrink laws on constructed free-product instances
# ---------------------------------------------------------------------------


def _mixed_corpus():
    """Fifty free-product instances over two generators, k <= 3, size <= 12."""
    shapes = [
        (["", "", ""], ["a b", "b^-1 a^-1"]),
        (["", "", ""], ["a b", "a^-1 b^-1"]),
        (["", "a", "a^-1"], ["a b", "b^-1 a^-1"]),
        (["", "", "b^-1 a^-1"], ["a b", "b^-1 a^-1"]),
        (["", "", "", ""], ["a b", "b^-1 a^-1", "a"]),
        (["", "", "", ""], ["a b", "a", "b^-1 a^-1"]),
        (["b", "", "b^-1", ""], ["a b", "b^-1 a^-1", "b"]),
        (["", "", "", ""], ["a a b", "b^-1 a^-1 a^-1", "b"]),
        (["", "a b", "b^-1 a^-1", ""], ["a b", "b^-1 a^-1", "a"]),
        (["", "", ""], ["a a b", "b^-1 a^-1 a^-1"]),
    ]
    mixed_u = ["a b", "a a b", "a b b"]
    mixed_v = ["b^-1 a^-1", "b^-1 a^-1 a^-1", "b^-1 b^-1 a^-1"]
    for u in mixed_u:
        for v in mixed_v:
            shapes.append((["", "", ""], [u, v]))
            shapes.append((["a", "", "a^-1"], [u, v]))
            shapes.append((["", "b a", ""], [u, v]))
            shapes.append((["", "", "", ""], [u, "a", v]))
            shapes.append((["", "", "", ""], [u, v, "b"]))
    seen = set()
    for constants, cycles in shapes:
        key = (tuple(constants), tuple(cycles))
        if key in seen:
            continue
        seen.add(key)
        yield ExponentEquation(
            F2,
            tuple(W(c) for c in constants),
            tuple(W(c) for c in cycles),
            tuple(f"x{i}" for i in range(len(cycles))),
        )


def test_criterion_5_grow_shrink_laws():
    split = FreeProductSplit(frozenset(["a"]), frozenset(["b"]))
    instances = 0
    grows = 0
    shrinks = 0
    corpus = list(_mixed_corpus())[:50]
    assert len(corpus) == 50
    for eq in corpus:
        eq = preprocess(eq, split)
        assert eq.size <= 12 and eq.k <= 3
        base_solutions = [
            tuple(s[name] for name in eq.variables)
            for s in brute_force_solutions(eq, 2)
        ]
        instances += 1
        for x in base_solutions[:4]:
            x_cert, c_cert = certified_solution(eq, x, split)
            before = compatible_periods(eq, x_cert, c_cert, split)
            for period in before:
                x2, c2 = grow(eq, x_cert, c_cert, period, split)
                ok, axiom = verify_cancellation(block_factorize(eq, x2, split), c2)
                assert ok, axiom
                assert verify_solution(eq, dict(zip(eq.variables, x2)))
                after = {p.vector for p in compatible_periods(eq, x2, c2, split)}
                assert {p.vector for p in before} <= after
                grows += 1

    # shrink every solution above the threshold on two tiny instances whose
    # solution sets are exactly the diagonal (so the diagonal sweep is a full
    # brute-force sweep of the above-threshold region), then re-verify
    tiny = [
        ExponentEquation(F2, (W(""), W(""), W("")), (W("a b"), W("b^-1 a^-1")), ("x0", "x1")),
        ExponentEquation(
            F2, (W("a b"), W(""), W("b^-1 a^-1")), (W("a b"), W("b^-1 a^-1")), ("x0", "x1")
        ),
    ]
    for eq in tiny:
        threshold = removal_threshold(eq)
        found_above = 0
        for t in range(threshold + 1, threshold + 3):
            for x in [(t, t)]:
                if not verify_solution(eq, dict(zip(eq.variables, x))):
                    continue
                x_cert, c_cert = certified_solution(eq, x, split)
                result = shrink(eq, x_cert, c_cert, split)
                assert result is not None
                period, x2, c2 = result
                ok, axiom = verify_cancellation(block_factorize(eq, x2, split), c2)
                assert ok, axiom
                assert verify_solution(eq, dict(zip(eq.variables, x2)))
                assert period.vector in {p.vector for p in compatible_periods(eq, x2, c2, split)}
                found_above += 1
                shrinks += 1
        assert found_above > 0
        # below the threshold shrink declines
        small = brute_force_solutions(eq, 2)
        for s in small[:2]:
            x = tuple(s[name] for name in eq.variables)
            x_cert, c_cert = certified_solution(eq, x, split)
            assert shrink(eq, x_cert, c_cert, split) is None

    # grow then shrink returns to the same exponent vector
    eq = tiny[0]
    x_cert, c_cert = certified_solution(eq, (1, 1), split)
    period = compatible_periods(eq, x_cert, c_cert, split)[0]
    x_big, c_big = x_cert, c_cert
    while x_big[0] <= removal_threshold(eq):
        x_big, c_big = grow(eq, x_big, c_big, period, split)
    removed, x_back, _ = shrink(eq, x_big, c_big, split)
    assert removed.vector == period.vector
    assert x_back == tuple(a - b for a, b in zip(x_big, period.vector))

    assert instances == 50 and grows >= 10 and shrinks >= 4
    print(
        f"\nACCEPTANCE 5 PASS: {grows} grow steps verified on {instances} instances; "
        f"{shrinks} above-threshold shrinks re-verified"
    )


# ---------------------------------------------------------------------------
# criterion 6: solver soundness and bounded completeness on 200 random
# instances over four groups
# ---------------------------------------------------------------------------


def _random_word(rng, letters, max_len):
    return W(" ".join(rng.choice(letters) for _ in range(rng.randint(0, max_len))))


def test_criterion_6_solver_soundness():
    rng = random.Random(20260808)
    alphabets = [
        validate_alphabet(["a"], []),
        validate_alphabet(["a", "b"], [["a", "b"]]),
        validate_alphabet(["a", "b"], []),
        validate_alphabet(["a", "b", "z"], [["a", "z"], ["b", "z"]]),
    ]
    limits = SolverLimits(search_ceiling=64)
    stats = {"solvable": 0, "unsolvable": 0, "unknown": 0}
    for alpha in alphabets:
        letters = [g for g in alpha.generators] + [f"{g}^-1" for g in alpha.generators]
        for _ in range(50):
            k = rng.randint(1, 3)
            eq = ExponentEquation(
                alpha,
                tuple(_random_word(rng, letters, 4) for _ in range(k + 1)),
                tuple(_random_word(rng, letters, 4) for _ in range(k)),
                tuple(f"x{i}" for i in range(k)),
            )
            outcome = solve(eq, limits)
            stats[outcome.status] += 1
            eq2 = preprocess(eq)
            r = max(len(eq2.distinct_names), 1)
            # sweep to min(tameness bound, 10^3), further capped so the oracle's
            # total substitution work stays around 10^6 letters
            per_word = sum(len(c) for c in eq2.cycles) + eq2.size + 1
            sweep = min(tameness_bound(eq2).value, 1000)
            while sweep > 2 and (sweep + 1) ** r * per_word * max(sweep, 1) > 4_000_000:
                sweep //= 2
            brute = brute_force_solutions(eq2, sweep)
            if outcome.status == "solvable":
                assert verify_solution(eq, outcome.assignment)
                if all(v <= sweep for v in outcome.assignment.values()):
                    assert outcome.assignment in brute
                assert brute, "solver found a witness but a full sweep found none"
            elif outcome.status == "unsolvable":
                assert outcome.bound is not None and outcome.bound_provenance
                assert not brute
            else:
                assert not brute_force_solutions(eq2, min(outcome.budget or 0, sweep))
    assert sum(stats.values()) == 200
    print(f"\nACCEPTANCE 6 PASS: 200 random instances, outcomes {stats}, all re-verified")


# ---------------------------------------------------------------------------
# criterion 7: automaton-reduction round trip at small bounds
# ---------------------------------------------------------------------------


def test_criterion_7_automaton_round_trip():
    rng = random.Random(424242)
    alphabets = [
        validate_alphabet(["a"], []),
        validate_alphabet(["a", "b"], [["a", "b"]]),
        validate_alphabet(["a", "b"], []),
        validate_alphabet(["a", "b", "z"], [["a", "z"], ["b", "z"]]),
    ]
    trips = 0
    for alpha in alphabets:
        letters = [g for g in alpha.generators] + [f"{g}^-1" for g in alpha.generators]
        for _ in range(50):
            k = rng.randint(1, 3)
            eq = preprocess(
                ExponentEquation(
                    alpha,
                    tuple(_random_word(rng, letters, 4) for _ in range(k + 1)),
                    tuple(_random_word(rng, letters, 4) for _ in range(k)),
                    tuple(f"x{i}" for i in range(k)),
                )
            )
            if not eq.cycles:
                continue
            bound = rng.randint(0, 8)
            automaton = knapsack_to_automaton(eq, bound)
            member = membership_one(automaton, alpha) is not None
            expected = bool(brute_force_solutions(eq, bound))
            assert member == expected, (eq, bound)
            assert (solve_within_bounds(eq, bound) is not None) == expected, (eq, bound)
            trips += 1
    assert trips >= 150
    print(f"\nACCEPTANCE 7 PASS: {trips} automaton round trips agree with brute force")


# ---------------------------------------------------------------------------
# criterion 8: the 3SAT gadget end to end
# ---------------------------------------------------------------------------


def _all_formulas():
    lits = [1, -1, 2, -2]
    clause_patterns = sorted(
        {tuple(sorted(c)) for c in itertools.combinations_with_replacement(lits, 3)}
        | {tuple(sorted(c)) for c in itertools.combinations_with_replacement(lits, 2)}
        | {(l,) for l in lits}
    )
    formulas = [CnfFormula.make(2, [c]) for c in clause_patterns]
    for c1, c2 in itertools.combinations_with_replacement(clause_patterns, 2):
        formulas.append(CnfFormula.make(2, [c1, c2]))
    return formulas


def test_criterion_8_sat_gadget_end_to_end():
    # the trace identity behind the clause encoding
    for n_count in range(4):
        for m_count in range(1, 4):
            chunk = ["a"] + ["b", "c"] * n_count + ["d"]
            left = chunk * m_count
            right = ["b"] * n_count
            for _ in range(m_count - 1):
                right += ["a", "d"] + ["b", "c"] * n_count
            right += ["a", "d"] + ["c"] * n_count
            assert traces_equal(left, right, P4_ALPHABET)

    formulas = _all_formulas()
    agreements = 0
    for formula in formulas:
        a1, a2 = sat_to_p4_automata(formula)
        combined = intersection_to_group_membership(a1, a2)
        unrolled = unroll_loops(combined, sat_witness_budget(formula))
        member = membership_one(unrolled, P4_ALPHABET) is not None
        assert member == formula.satisfiable(), formula
        agreements += 1

    # the final reduction step checked on all single-variable one-clause
    # formulas plus two-clause formulas covering both verdicts
    lits1 = [1, -1]
    patterns1 = sorted(
        {tuple(sorted(c)) for size in (1, 2, 3)
         for c in itertools.combinations_with_replacement(lits1, size)}
    )
    single_var = [CnfFormula.make(1, [c]) for c in patterns1]
    single_var += [
        CnfFormula.make(1, [[1], [-1]]),        # unsatisfiable
        CnfFormula.make(1, [[1], [1]]),
        CnfFormula.make(1, [[-1], [-1]]),
        CnfFormula.make(1, [[1, -1], [-1]]),    # tautological clause
        CnfFormula.make(1, [[1, 1, 1], [-1]]),  # unsatisfiable
    ]
    knapsack_checked = 0
    for formula in single_var:
        gadget = sat_to_p4_knapsack(formula)
        solvable = solve_within_bounds(gadget.equation, gadget.bounds) is not None
        assert solvable == formula.satisfiable(), formula
        knapsack_checked += 1

    # and on random loop automata directly against bounded membership
    rng = random.Random(88)
    letters = ["a", "b", "c", "d", "a^-1", "b^-1", "c^-1", "d^-1"]
    gadget_checked = 0
    for _ in range(20):
        n = rng.randint(2, 3)
        transitions = []
        for _ in range(rng.randint(1, 3)):
            src = rng.randrange(n - 1)
            dst = rng.randrange(src + 1, n)
            transitions.append((src, _random_word(rng, letters, 2), dst))
        loops = []
        if rng.random() < 0.7:
            loops.append((rng.randrange(n), _random_word(rng, letters, 2) or W("a")))
        aut = WordAutomaton(n, 0, frozenset({n - 1}), tuple(transitions), tuple(loops))
        budget = 3
        member = membership_one(unroll_loops(aut, budget), P4_ALPHABET) is not None
        gadget = loop_automaton_to_knapsack_p4(aut)
        bounds = [budget if b is None else b for b in gadget.bounds]
        assert (solve_within_bounds(gadget.equation, bounds) is not None) == member
        gadget_checked += 1

    print(
        f"\nACCEPTANCE 8 PASS: {agreements} formulas through the trace pipeline, "
        f"{knapsack_checked} through the full knapsack instance, "
        f"{gadget_checked} loop automata cross-checked"
    )


# ---------------------------------------------------------------------------
# criterion 9: the two-generator gadget is exact and binary-exponent exact
# ---------------------------------------------------------------------------


def test_criterion_9_f2_gadget_exactness():
    from graphknap.gadgets import acyclic_automaton_to_knapsack_f2

    rng = random.Random(909090)
    letters = ["a", "b", "a^-1", "b^-1"]
    checked = 0
    for _ in range(100):
        n = rng.randint(2, 5)
        transitions = []
        for _ in range(rng.randint(1, 6)):
            src = rng.randrange(n - 1)
            dst = rng.randrange(src + 1, n)
            transitions.append((src, _random_word(rng, letters, 3), dst))
        aut = WordAutomaton(n, 0, frozenset({n - 1}), tuple(transitions))
        gadget = acyclic_automaton_to_knapsack_f2(aut)
        binary = solve_subset_sum(gadget.equation).status == "solvable"
        assert binary == membership_one_brute(aut, F2_ALPHABET)
        nat = solve_within_bounds(gadget.equation, 3) is not None
        assert nat == binary
        checked += 1
    print(f"\nACCEPTANCE 9 PASS: {checked} random automata, gadget = path oracle, N = binary")


# ---------------------------------------------------------------------------
# criterion 10: the solution count of the tight abelian instance
# ---------------------------------------------------------------------------


def test_criterion_10_solution_count():
    z1 = validate_alphabet(["a"], [])
    eq = ExponentEquation(
        z1,
        (W(""), W(""), W(""), W("a^-1 a^-1 a^-1")),
        (W("a"), W("a"), W("a")),
        ("x1", "x2", "x3"),
    )
    solutions = brute_force_solutions(eq, 3)
    assert len(solutions) == 10
    assert solve(eq).status == "solvable"
    print("\nACCEPTANCE 10 PASS: exactly 10 solutions of the three-variable sum")
