import itertools
import random

import pytest

from graphknap import (
    EquationError,
    ExponentEquation,
    FreeProductSplit,
    SolverLimits,
    WordError,
    brute_force_solutions,
    decompose,
    knapsack_to_automaton,
    membership_one,
    preprocess,
    solution_set,
    solve,
    solve_integer_valued,
    solve_subset_sum,
    solve_within_bounds,
    substitute,
    tameness_bound,
    tameness_bound_value,
    validate_alphabet,
    verify_solution,
    word_from_strs,
)
from graphknap.group import invert_word
from graphknap.knapsack import (
    _abelian_feasible,
    _abelian_solution_set,
    _abelianize,
    _knapsack_automaton_with_roles,
    _sweep,
)
from graphknap.semilinear import members_up_to, semilinear_member

Z1 = validate_alphabet(["a"], [])
F2 = validate_alphabet(["a", "b"], [])
Z2 = validate_alphabet(["a", "b"], [["a", "b"]])
P4 = validate_alphabet(["a", "b", "c", "d"], [["a", "b"], ["b", "c"], ["c", "d"]])


def W(text):
    return word_from_strs(text.split()) if text else ()


def eq_of(alpha, constants, cycles, variables, mode="knapsack"):
    return ExponentEquation(alpha, tuple(W(c) for c in constants), tuple(W(c) for c in cycles), tuple(variables), mode)


def test_preprocess_folds_conjugator():
    eq = eq_of(F2, ["", ""], ["b^-1 a b"], ["x"])
    split = FreeProductSplit(frozenset(["a"]), frozenset(["b"]))
    out = preprocess(eq, split)
    assert out.cycles == (W("a"),)
    assert out.constants[0] == W("b^-1")
    assert out.constants[1] == W("b")


def test_preprocess_reduced_instance_unchanged():
    eq = eq_of(F2, ["a", "b"], ["a b"], ["x"])
    split = FreeProductSplit(frozenset(["a"]), frozenset(["b"]))
    out = preprocess(eq, split)
    assert out.constants == eq.constants and out.cycles == eq.cycles


def test_preprocess_drops_trivial_cycle():
    eq = eq_of(F2, ["a", "", "a^-1"], ["a a^-1", "b"], ["x", "y"])
    out = preprocess(eq)
    assert out.cycles == (W("b"),)
    assert out.variables == ("y",)
    assert out.free_variables == ("x",)


def test_tameness_bound_z_leaf():
    assert tameness_bound_value(decompose(Z1), 10, 1).value == 21


def test_tameness_bound_f2_worked_example():
    assert tameness_bound_value(decompose(F2), 10, 2).value == 269


def test_tameness_bound_trivial():
    assert tameness_bound_value(decompose(validate_alphabet([], [])), 10, 0).value == 0


def test_tameness_bound_direct_product_formula():
    n, k = 6, 1
    child = tameness_bound_value(decompose(Z1), n, k).value
    shift = n + k * n * child
    expected = 2 * child + child * shift * (shift + 2)
    got = tameness_bound_value(decompose(Z2), n, k).value
    assert got == expected


def test_solve_over_z_power():
    eq = eq_of(Z1, ["", "a^-1 a^-1 a^-1 a^-1"], ["a a"], ["x"])
    outcome = solve(eq)
    assert outcome.status == "solvable"
    assert outcome.assignment == {"x": 2}


def test_solve_f2_target_ab_solvable_ba_not():
    solvable = eq_of(F2, ["", "", "b^-1 a^-1"], ["a", "b"], ["x", "y"])
    out = solve(solvable)
    assert out.status == "solvable" and out.assignment == {"x": 1, "y": 1}

    unsolvable = eq_of(F2, ["", "", "a^-1 b^-1"], ["a", "b"], ["x", "y"])
    out = solve(unsolvable)
    assert out.status == "unsolvable"
    assert out.bound is not None


def test_solve_counts_ten_solutions():
    eq = eq_of(Z1, ["", "", "", "a^-1 a^-1 a^-1"], ["a", "a", "a"], ["x1", "x2", "x3"])
    assert solve(eq).status == "solvable"
    assert len(brute_force_solutions(eq, 3)) == 10


def test_solve_repeated_variables_forced_equal():
    # a^x b^x = a^2 b^2 forces x = 2 over the free group
    eq = eq_of(F2, ["", "", "b^-1 b^-1 a^-1 a^-1"], ["a", "b"], ["x", "x"])
    out = solve(eq)
    assert out.status == "solvable"
    assert out.assignment == {"x": 2}


def test_solve_repeated_variables_never_claims_unsolvable_on_forest():
    # a^x b^x = b a: the abelianization pins x = 1, which fails the word problem
    eq = eq_of(F2, ["", "", "a^-1 b^-1"], ["a", "b"], ["x", "x"])
    out = solve(eq, SolverLimits(search_ceiling=8))
    assert out.status == "unsolvable" and out.method == "abelian-pin"
    # [a,b]^x [a,b]^x = [a,b] has no solution, but its abelian set is infinite
    # and a repeated variable has no magnitude certificate, so it stays open
    eq = eq_of(F2, ["", "", "b a b^-1 a^-1"], ["a b a^-1 b^-1"] * 2, ["x", "x"])
    out = solve(eq, SolverLimits(search_ceiling=8))
    assert out.status == "unknown"


def test_subset_sum_examples():
    eq = eq_of(Z1, ["", "", ""], ["a", "a^-1"], ["x", "y"])
    out = solve_subset_sum(eq)
    assert out.status == "solvable" and out.assignment == {"x": 0, "y": 0}

    eq = eq_of(Z1, ["", "a^-1 a^-1"], ["a"], ["x"])
    assert solve_subset_sum(eq).status == "unsolvable"


def test_integer_valued_examples():
    eq = eq_of(Z1, ["", "a a"], ["a a"], ["x"])
    out = solve_integer_valued(eq)
    assert out.status == "solvable" and out.assignment == {"x": -1}
    assert solve(eq).status == "unsolvable"


def test_integer_valued_doubles_cycles():
    from graphknap.knapsack import integer_valued_rewrite

    eq = eq_of(F2, ["", "", ""], ["a", "b"], ["x", "y"])
    rewritten, pairs = integer_valued_rewrite(eq)
    assert rewritten.k == 4
    assert set(pairs) == {"x", "y"}


def test_brute_force_bound_zero_tests_constant():
    eq = eq_of(Z1, ["a", "a^-1"], ["a"], ["x"])
    sols = brute_force_solutions(eq, 0)
    assert sols == [{"x": 0}]


def test_automaton_construction_counts():
    eq = eq_of(Z1, ["", ""], ["a"], ["x"])
    aut = knapsack_to_automaton(eq, 1)
    assert aut.n_states == 4
    assert len(aut.transitions) == 4


def test_automaton_bound_zero_accepts_only_constants():
    eq = eq_of(F2, ["a", "a^-1"], ["b"], ["x"])
    aut = knapsack_to_automaton(eq, 0)
    witness = membership_one(aut, F2)
    assert witness is not None
    labels = [aut.transitions[i][1] for i in witness]
    assert labels == [W("a"), W("a^-1")]


def test_automaton_rejects_repeated_variables():
    eq = eq_of(F2, ["", "", ""], ["a", "b"], ["x", "x"])
    with pytest.raises(EquationError):
        knapsack_to_automaton(eq, 2)
    # per-cycle bounds are checked against the caller's cycles, also the
    # trivial ones that preprocessing drops
    eq = eq_of(F2, ["", "", ""], ["a", "b"], ["x", "y"])
    dropped = eq_of(F2, ["", "", ""], ["a", "b b^-1"], ["x", "y"])
    for bad_eq, bounds in [(eq, [1]), (eq, [1, 1, 1]), (eq, [1, 1, -3]), (dropped, [1, -1])]:
        with pytest.raises(EquationError):
            solve_within_bounds(bad_eq, bounds)


def _random_equation(rng, alpha, k, word_len):
    letters = [g for g in alpha.generators] + [g + "^-1" for g in alpha.generators]
    def rw():
        return W(" ".join(rng.choice(letters) for _ in range(rng.randint(0, word_len))))
    return ExponentEquation(
        alpha,
        tuple(rw() for _ in range(k + 1)),
        tuple(rw() for _ in range(k)),
        tuple(f"x{i}" for i in range(k)),
    )


def test_automaton_roundtrip_matches_brute_force():
    rng = random.Random(616)
    for _ in range(25):
        eq = _random_equation(rng, F2, rng.randint(1, 2), 3)
        eq = preprocess(eq)
        if not eq.cycles:
            continue
        bound = rng.randint(0, 4)
        aut = knapsack_to_automaton(eq, bound)
        member = membership_one(aut, F2) is not None
        assert member == bool(brute_force_solutions(eq, bound))


def test_automaton_witness_extracts_assignment():
    eq = eq_of(F2, ["", "", "b^-1 a^-1"], ["a", "b"], ["x", "y"])
    aut, roles = _knapsack_automaton_with_roles(eq, 2)
    witness = membership_one(aut, F2)
    counts = {"x": 0, "y": 0}
    for idx in witness:
        role, i = roles[idx]
        if role == "u":
            counts[eq.variables[i]] += 1
    assert counts == {"x": 1, "y": 1}
    assert verify_solution(eq, counts)


def test_solvable_outcomes_reverify_everywhere():
    rng = random.Random(31337)
    for alpha in [Z1, Z2, F2]:
        for _ in range(20):
            eq = _random_equation(rng, alpha, rng.randint(1, 3), 3)
            out = solve(eq)
            if out.status == "solvable":
                assert verify_solution(eq, out.assignment)
            elif out.status == "unsolvable":
                assert out.bound is not None
                small = min(out.bound, 4)
                assert not brute_force_solutions(eq, small)


def test_general_alphabet_never_unsolvable():
    # no magnitude bound exists for general alphabets; unsolvable may only be
    # claimed for the degenerate no-variable instances or by the abelian
    # precheck, whose certificate is an infeasible exponent-sum system
    rng = random.Random(5150)
    for _ in range(15):
        eq = _random_equation(rng, P4, 2, 2)
        out = solve(eq, SolverLimits(search_ceiling=4))
        if out.status == "unsolvable":
            if preprocess(eq).cycles:
                assert out.method in ("abelian-precheck", "abelian-pin")
                abelian = _abelian_solution_set(*_abelianize(preprocess(eq)))
                if out.method == "abelian-precheck":
                    assert abelian.is_empty()
                else:
                    # a finite abelian set whose every point fails the word problem
                    names = preprocess(eq).distinct_names
                    assert not any(c.periods for c in abelian.components)
                    assert not any(
                        verify_solution(eq, dict(zip(names, c.base))) for c in abelian.components
                    )
                assert not brute_force_solutions(eq, 3)
        else:
            assert out.status in ("solvable", "unknown")
    crafted = eq_of(P4, ["", "d^-1 d^-1 a^-1"], ["a d d"], ["x"])
    out = solve(crafted, SolverLimits(search_ceiling=4))
    assert out.status == "solvable" and out.assignment == {"x": 1}


def test_solve_deterministic():
    eq = eq_of(F2, ["", "", "b^-1 a^-1"], ["a", "b"], ["x", "y"])
    first = solve(eq)
    second = solve(eq)
    assert first.status == second.status and first.assignment == second.assignment


def test_solution_set_z_hyperplane():
    # x - y = 1 over Z
    eq = eq_of(Z1, ["", "", "a^-1"], ["a", "a^-1"], ["x", "y"])
    s = solution_set(eq)
    grid = {
        (x, y)
        for x in range(7)
        for y in range(7)
        if verify_solution(eq, {"x": x, "y": y})
    }
    assert members_up_to(s, 6) == grid


def test_solution_set_direct_product():
    # over Z x Z: a^x b^y = a^2 b^3 with apex constraints on both coordinates
    eq = eq_of(Z2, ["", "", "b^-1 b^-1 b^-1 a^-1 a^-1"], ["a", "b"], ["x", "y"])
    s = solution_set(eq)
    assert semilinear_member(s, (2, 3))
    assert members_up_to(s, 5) == {(2, 3)}


def test_solution_set_free_variable_cylinder():
    eq = eq_of(Z1, ["", "", ""], ["a a^-1", "a"], ["x", "y"])
    s = solution_set(eq)
    assert members_up_to(s, 4) == {(x, 0) for x in range(5)}


def test_solution_set_direct_product_over_free_product():
    # apex generator over two free factors: a^x c^y b^z = a^2 c^2 b^3
    p3 = validate_alphabet(["a", "b", "c"], [["a", "b"], ["b", "c"]])
    eq = eq_of(
        p3,
        ["", "", "", "b^-1 b^-1 b^-1 c^-1 c^-1 a^-1 a^-1"],
        ["a", "c", "b"],
        ["x", "y", "z"],
    )
    s = solution_set(eq)
    assert members_up_to(s, 5) == {(2, 2, 3)}
    grid = {
        (x, y, z)
        for x in range(5) for y in range(5) for z in range(5)
        if verify_solution(eq, {"x": x, "y": y, "z": z})
    }
    assert grid == {(2, 2, 3)}


def test_automaton_per_cycle_bounds_layout():
    eq = eq_of(F2, ["", "", "b^-1 a^-1"], ["a", "b"], ["x", "y"])
    aut = knapsack_to_automaton(eq, [2, 0])
    # compact chain: start, post-v0, two a-steps, bridge, zero b-steps, final
    assert membership_one(aut, F2) is None  # needs y = 1 > its bound
    aut = knapsack_to_automaton(eq, [2, 1])
    witness = membership_one(aut, F2)
    assert witness is not None


SWEEP_ALPHABETS = {
    "F2": F2,
    "ZxF2": validate_alphabet(["z", "a", "b"], [["z", "a"], ["z", "b"]]),
    "Z3": validate_alphabet(["a", "b", "c"], [["a", "b"], ["b", "c"], ["a", "c"]]),
    "P4": P4,
    "C4": validate_alphabet(["d", "b", "c", "a"], [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]]),
}


def _sweep_reference(eq, budget):
    """The from-scratch enumeration: every candidate substituted and reduced."""
    names = eq.distinct_names
    for combo in itertools.product(range(budget + 1), repeat=len(names)):
        assignment = dict(zip(names, combo))
        if verify_solution(eq, assignment):
            yield assignment


@pytest.mark.parametrize("name", sorted(SWEEP_ALPHABETS))
def test_sweep_matches_from_scratch_reference(name):
    alpha = SWEEP_ALPHABETS[name]
    rng = random.Random(f"sweep/{name}")
    letters = list(alpha.generators) + [g + "^-1" for g in alpha.generators]

    def rw(longest):
        return W(" ".join(rng.choice(letters) for _ in range(rng.randint(0, longest))))

    found = repeated = 0
    for _ in range(120):
        k = rng.randint(0, 3)
        variables = tuple(rng.choice("xyz"[: rng.randint(1, 3)]) for _ in range(k))
        cycles = tuple(rw(3) for _ in range(k))
        constants = [rw(2) for _ in range(k + 1)]
        if rng.random() < 0.5:
            # plant a solution: the last constant cancels the prefix
            planted = {v: rng.randint(0, 2) for v in variables}
            prefix = ExponentEquation(alpha, tuple(constants[:-1]) + ((),), cycles, variables)
            constants[-1] = invert_word(substitute(prefix, planted))
        eq = ExponentEquation(alpha, tuple(constants), cycles, variables)
        repeated += not eq.knapsack_shape
        for budget in range(5):
            expected = list(_sweep_reference(eq, budget))
            assert list(_sweep(eq, budget)) == expected, (eq, budget)
            found += len(expected)
    assert found >= 100 and repeated >= 10


def test_sweep_rejects_bad_sign_in_cycle():
    eq = ExponentEquation(F2, ((), ()), ((("a", 2),),), ("x",))
    for budget in (1, 3):
        with pytest.raises(WordError):
            brute_force_solutions(eq, budget)


def test_abelian_feasible_matches_per_cycle_boxes():
    rng = random.Random(2718)
    checked = feasible = 0
    for _ in range(400):
        r = rng.randint(0, 3)
        m = rng.randint(1, 3)
        zs = [tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(r)]
        bounds = [rng.randint(0, 3) for _ in range(r)]
        reachable = {
            tuple(sum(t * z[d] for t, z in zip(ts, zs)) for d in range(m))
            for ts in itertools.product(*(range(b + 1) for b in bounds))
        }
        targets = list(reachable) + [tuple(rng.randint(-4, 4) for _ in range(m)) for _ in range(4)]
        for target in targets:
            expected = target in reachable
            assert _abelian_feasible(target, zs, bounds) == expected, (target, zs, bounds)
            checked += 1
            feasible += expected
    assert feasible >= 1000 and checked - feasible >= 500


def test_abelian_verdicts_match_brute_force():
    # every solution is a point of the abelian solution set, and an abelian or
    # pinned outcome's bound covers the least solution (or every point), so
    # brute force up to that bound decides the instance on its own
    rng = random.Random(1729)
    pinned = {"solvable": 0, "unsolvable": 0}
    for name in ["F2", "ZxF2", "P4", "C4", "Z2"]:
        alpha = SWEEP_ALPHABETS.get(name, Z2)
        letters = list(alpha.generators) + [g + "^-1" for g in alpha.generators]

        def rw(longest):
            return W(" ".join(rng.choice(letters) for _ in range(rng.randint(0, longest))))

        for _ in range(150):
            k = rng.randint(0, 3)
            eq = ExponentEquation(
                alpha, tuple(rw(3) for _ in range(k + 1)), tuple(rw(2) for _ in range(k)),
                tuple(f"x{i}" for i in range(k)),
            )
            out = solve(eq, SolverLimits(search_ceiling=4))
            if out.method in ("abelian", "abelian-pin") and out.bound <= 8:
                solutions = brute_force_solutions(eq, out.bound)
                assert bool(solutions) == (out.status == "solvable"), (name, eq)
                if out.method == "abelian-pin":
                    pinned[out.status] += 1
    assert pinned["solvable"] and pinned["unsolvable"], pinned
