"""Exponent equations over graph groups and the dispatching solver.

An exponent equation is h0 g1^x1 h1 ... gk^xk hk = 1 with exponents over N.
Solving starts, on every alphabet class, with one abelian stage: the exact
solution set of the abelianized equation (hyperplane decompositions) contains
every solution.  An empty set is unsolvable; on complete graphs the set decides
exactly; a finite set is decided by checking its points with the word problem
(``abelian-pin``).  Otherwise one search loop, ``_solve_by_search``, asks
bounded questions: on non-complete transitive forests its first budget is
the magnitude bound of their class when that bound is small enough (the
certified sweep), else budgets deepen 1, 2, 4, ..., and general alphabets
get deepening only, so "unsolvable" is never claimed without a certificate
(an abelian one or a complete sweep up to a certified bound).

Every bounded decision with pairwise distinct variables (the sweep, each
deepening step, ``solve_within_bounds``) is membership of 1 in the chain
automaton v0, then one power edge u_i^t v_i (t <= b_i) per cycle, decided by
the reachability engine in ``automata`` with exact bounded abelian
feasibility (per-cycle bounds) as its prune.  Every ``solvable`` outcome is
built by ``_solvable``, which re-verifies its assignment with the word
problem.

Enumerating every solution up to a bound (``brute_force_solutions``, subset
sum, the search for repeated variables, the free-product solution sets) is
one depth-first sweep over the rows, ``_sweep``: candidates share the geodesic
of their common prefix, and a prefix longer than the letters the remaining
rows can supply is cut.  Both are exact: the prefix geodesic is the one a
from-scratch reduction builds, and appending m letters shortens a geodesic by
at most m.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .alphabet import (
    COMPLETE,
    TRANSITIVE_FOREST_NOT_COMPLETE,
    DecompositionNode,
    DirectZ,
    FreeProduct,
    IndependenceAlphabet,
    Trivial,
    classify,
    decompose,
)
from .automata import WordAutomaton, _reach_one
from .errors import EquationError, ResourceExhaustedError
from .group import (
    EMPTY_WORD,
    FreeProductSplit,
    GroupWord,
    SignedLetter,
    _check_letters,
    append_reduced,
    concat,
    cyclically_reduce,
    exponent_sums,
    invert_word,
    is_identity,
    reduce_word,
    split_for_alphabet,
    word_power,
)
from .semilinear import (
    LinearSet,
    SemilinearSet,
    decompose_hyperplane_solutions,
    intersect_with_hyperplane,
    magnitude,
    max_norm,
)

MODE_KNAPSACK = "knapsack"
MODE_SUBSETSUM = "subsetsum"
MODE_INTEGER = "integer"

SOLVABLE = "solvable"
UNSOLVABLE = "unsolvable"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class ExponentEquation:
    """h0 g1^x1 h1 ... gk^xk hk = 1; variable names may repeat."""

    alphabet: IndependenceAlphabet
    constants: Tuple[GroupWord, ...]
    cycles: Tuple[GroupWord, ...]
    variables: Tuple[str, ...]
    mode: str = MODE_KNAPSACK
    free_variables: Tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.constants) != len(self.cycles) + 1:
            raise EquationError("need exactly one constant more than cycles")
        if len(self.variables) != len(self.cycles):
            raise EquationError("need one variable per cycle")
        if self.mode not in (MODE_KNAPSACK, MODE_SUBSETSUM, MODE_INTEGER):
            raise EquationError(f"unknown mode {self.mode!r}")
        for word in self.constants + self.cycles:
            for gen, sign in word:
                if gen not in self.alphabet:
                    raise EquationError(f"unknown generator {gen!r} in equation")

    @property
    def size(self) -> int:
        return sum(len(w) for w in self.constants) + sum(len(w) for w in self.cycles)

    @property
    def k(self) -> int:
        return len(self.cycles)

    @property
    def distinct_names(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(self.variables))

    @property
    def knapsack_shape(self) -> bool:
        return len(self.distinct_names) == len(self.variables)

    @property
    def all_names(self) -> Tuple[str, ...]:
        return self.distinct_names + tuple(
            v for v in self.free_variables if v not in self.distinct_names
        )


def substitute(eq: ExponentEquation, assignment: Dict[str, int]) -> GroupWord:
    """The word h0 g1^x1 h1 ... with the assignment's exponents filled in."""
    parts: List[GroupWord] = [eq.constants[0]]
    for i, cycle in enumerate(eq.cycles):
        exponent = assignment.get(eq.variables[i], 0)
        parts.append(word_power(cycle, exponent))
        parts.append(eq.constants[i + 1])
    return concat(*parts)


def verify_solution(eq: ExponentEquation, assignment: Dict[str, int]) -> bool:
    return is_identity(substitute(eq, assignment), eq.alphabet)


def preprocess(eq: ExponentEquation, split: Optional[FreeProductSplit] = None) -> ExponentEquation:
    """Reduce all words, delete trivial cycles (their variables become free),
    and, given a free-product split, cyclically reduce each cycle folding the
    conjugators into the neighboring constants."""
    alpha = eq.alphabet
    constants = [reduce_word(w, alpha) for w in eq.constants]
    cycles = [reduce_word(w, alpha) for w in eq.cycles]

    new_constants: List[GroupWord] = [constants[0]]
    new_cycles: List[GroupWord] = []
    new_vars: List[str] = []
    dropped: List[str] = []
    for i, cycle in enumerate(cycles):
        if not cycle:
            dropped.append(eq.variables[i])
            new_constants[-1] = reduce_word(concat(new_constants[-1], constants[i + 1]), alpha)
        else:
            new_cycles.append(cycle)
            new_vars.append(eq.variables[i])
            new_constants.append(constants[i + 1])

    if split is not None:
        for i, cycle in enumerate(new_cycles):
            conj, core = cyclically_reduce(cycle, split, alpha)
            if conj:
                new_constants[i] = reduce_word(concat(new_constants[i], invert_word(conj)), alpha)
                new_constants[i + 1] = reduce_word(concat(conj, new_constants[i + 1]), alpha)
            new_cycles[i] = core

    free = tuple(
        dict.fromkeys(
            list(eq.free_variables) + [v for v in dropped if v not in new_vars]
        )
    )
    return ExponentEquation(
        alphabet=alpha,
        constants=tuple(new_constants),
        cycles=tuple(new_cycles),
        variables=tuple(new_vars),
        mode=eq.mode,
        free_variables=free,
    )


# -- tameness bound -------------------------------------------------------------


@dataclass(frozen=True)
class TamenessBound:
    """Magnitude bound for solution sets over a transitive forest, with the
    per-node values of the structural recursion."""

    value: int
    n: int
    k: int
    nodes: Tuple[Tuple[str, int], ...]


def _q_poly(n: int, k: int) -> int:
    return (n + 3 * k + 1) + k * n * n


def tameness_bound_value(node: DecompositionNode, n: int, k: int) -> TamenessBound:
    """Pure structural recursion: trivial nodes contribute 0; a bare integer
    factor contributes 1 + 2n; a direct product with one integer factor maps a
    child bound M to 2M + M(n + knM)(n + knM + 2); a free product of bounds
    p0, p1 contributes q(n) + p0 + p1 + n with q(n) = (n + 3k + 1) + kn^2,
    nested left-to-right for more than two factors."""
    trace: List[Tuple[str, int]] = []

    def walk(nd: DecompositionNode, path: str) -> int:
        if isinstance(nd, Trivial):
            value = 0
            trace.append((f"{path}:trivial", value))
            return value
        if isinstance(nd, DirectZ):
            if isinstance(nd.child, Trivial):
                value = 1 + 2 * n
                trace.append((f"{path}:z[{nd.apex}]", value))
                return value
            m_child = walk(nd.child, path + ".child")
            shift = n + k * n * m_child
            value = 2 * m_child + m_child * shift * (shift + 2)
            trace.append((f"{path}:directz[{nd.apex}]", value))
            return value
        values = [walk(child, f"{path}.{i}") for i, child in enumerate(nd.children)]
        q = _q_poly(n, k)
        acc = values[-1]
        for v in reversed(values[:-1]):
            acc = q + v + acc + n
        trace.append((f"{path}:freeproduct", acc))
        return acc

    total = walk(node, "root")
    return TamenessBound(value=total, n=n, k=k, nodes=tuple(trace))


def tameness_bound(eq: ExponentEquation, tree: Optional[DecompositionNode] = None) -> TamenessBound:
    """Bound for the (preprocessed) equation along the alphabet's tree."""
    if tree is None:
        tree = decompose(eq.alphabet)
    return tameness_bound_value(tree, eq.size, eq.k)


# -- automaton reduction --------------------------------------------------------


def knapsack_to_automaton(eq: ExponentEquation, bound: Union[int, Sequence[int]]) -> WordAutomaton:
    """Acyclic automaton accepting exactly the substituted words with every
    exponent at most the bound (uniform or per cycle); membership of a trivial
    word is equivalent to solvability within the bound.

    States form one chain: v0, then per cycle i a run of b_i steps each
    reading u_i or the empty word, then v_i.
    """
    automaton, _ = _knapsack_automaton_with_roles(eq, bound)
    return automaton


def _bound_list(eq: ExponentEquation, bound: Union[int, Sequence[int]]) -> List[int]:
    """One exponent bound per cycle from a uniform or per-cycle bound."""
    bounds = [bound] * eq.k if isinstance(bound, int) else [int(b) for b in bound]
    if len(bounds) != eq.k or any(b < 0 for b in bounds):
        raise EquationError(f"bad exponent bound {bound!r}")
    return bounds


def _knapsack_automaton_with_roles(
    eq: ExponentEquation, bound: Union[int, Sequence[int]]
) -> Tuple[WordAutomaton, List[Tuple[str, int]]]:
    if not eq.knapsack_shape:
        raise EquationError("automaton reduction needs pairwise distinct variables")
    transitions: List[Tuple[int, GroupWord, int]] = [(0, eq.constants[0], 1)]
    roles: List[Tuple[str, int]] = [("v", 0)]
    current = 1
    for i, b in enumerate(_bound_list(eq, bound)):
        for _ in range(b):
            transitions += [(current, eq.cycles[i], current + 1), (current, EMPTY_WORD, current + 1)]
            roles += [("u", i), ("eps", i)]
            current += 1
        transitions.append((current, eq.constants[i + 1], current + 1))
        roles.append(("v", i + 1))
        current += 1
    automaton = WordAutomaton(
        n_states=current + 1,
        initial=0,
        finals=frozenset({current}),
        transitions=tuple(transitions),
    )
    return automaton, roles


# -- outcomes and limits ---------------------------------------------------------


@dataclass
class SolveOutcome:
    status: str
    assignment: Optional[Dict[str, int]] = None
    bound: Optional[int] = None
    bound_provenance: Optional[str] = None
    budget: Optional[int] = None
    method: str = ""


@dataclass(frozen=True)
class SolverLimits:
    automaton_states: int = 100_000
    search_ceiling: int = 1024
    enumeration_cap: int = 500_000
    node_cap: int = 2_000_000
    subset_vars_cap: int = 22
    brute_cap: int = 2_000_000
    cover_base_cap: int = 2048


DEFAULT_LIMITS = SolverLimits()


def _full_assignment(eq: ExponentEquation, partial: Dict[str, int]) -> Dict[str, int]:
    out = {name: 0 for name in eq.all_names}
    out.update(partial)
    return out


def _solvable(eq: ExponentEquation, found: Dict[str, int], **fields) -> Optional[SolveOutcome]:
    """The ``solvable`` outcome for the exponents ``found`` (names left out
    are 0), or None when the word problem rejects them.  Every ``solvable``
    outcome is built here; callers whose search is exact assert a result."""
    assignment = _full_assignment(eq, found)
    if not verify_solution(eq, assignment):
        return None
    return SolveOutcome(SOLVABLE, assignment=assignment, **fields)


def brute_force_solutions(
    eq: ExponentEquation, bound: int, limits: SolverLimits = DEFAULT_LIMITS
) -> List[Dict[str, int]]:
    """All assignments with every exponent <= bound, verified by the word
    problem; lexicographic order over the distinct variable names."""
    names = eq.distinct_names
    r = len(names)
    if (bound + 1) ** r > limits.brute_cap:
        raise ResourceExhaustedError(
            f"brute-force sweep of ({bound}+1)^{r} assignments exceeds the cap"
        )
    return [_full_assignment(eq, found) for found in _sweep(eq, bound)]


def _sweep(eq: ExponentEquation, budget: int) -> Iterator[Dict[str, int]]:
    """Every solution with all exponents <= budget, as an assignment of the
    distinct variable names, in lexicographic order.

    Depth first over the rows: the geodesic of h0 g1^x1 h1 ... gi^xi hi is
    built once and shared by every candidate extending it; raising x_{i+1}
    appends one more copy of g_{i+1}.  A row whose variable appeared earlier
    takes that exponent, so with the first-appearing variable outermost the
    order is that of ``itertools.product`` over the distinct names.  A prefix
    is cut when its geodesic is longer than the letters the remaining rows can
    still supply.  Both are exact: appending left to right builds the same
    geodesic as reducing each candidate from scratch, and appending m letters
    shortens a geodesic by at most m, so the cut loses no solution.  Letters
    are checked once, up front.
    """
    alpha = eq.alphabet
    for word in eq.constants + (eq.cycles if budget else ()):
        _check_letters(word, alpha)
    k, variables = eq.k, eq.variables
    fresh = [variables.index(name) == i for i, name in enumerate(variables)]
    # supply[i]: the most letters rows i+1 .. k can append after h_i
    supply = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        supply[i] = supply[i + 1] + budget * len(eq.cycles[i]) + len(eq.constants[i + 1])
    values = dict.fromkeys(eq.distinct_names, 0)

    def extend(i: int, buf: List[SignedLetter]) -> Iterator[Dict[str, int]]:
        # buf is the geodesic of the prefix before h_i, owned by this call
        for letter in eq.constants[i]:
            append_reduced(buf, letter, alpha)
        if len(buf) > supply[i]:
            return
        if i == k:
            yield dict(values)
            return
        cycle, name = eq.cycles[i], variables[i]
        room = len(eq.constants[i + 1]) + supply[i + 1]
        done = 0
        for t in range(budget + 1) if fresh[i] else (values[name],):
            for _ in range(t - done):
                for letter in cycle:
                    append_reduced(buf, letter, alpha)
            done = t
            if len(buf) > room + (budget - t) * len(cycle):
                break
            if len(buf) <= room:
                values[name] = t
                yield from extend(i + 1, buf[:])

    return extend(0, [])


# -- the solver -------------------------------------------------------------------


def _abelianize(eq: ExponentEquation) -> Tuple[List[Tuple[int, ...]], Tuple[int, ...]]:
    """Per distinct variable the exponent-sum column of its cycles, plus the
    right-hand side -sum over constants."""
    index = eq.alphabet.positions
    columns = [
        exponent_sums(concat(*(c for c, v in zip(eq.cycles, eq.variables) if v == name)), index)
        for name in eq.distinct_names
    ]
    return columns, tuple(-s for s in exponent_sums(concat(*eq.constants), index))


def _abelian_solution_set(columns: List[Tuple[int, ...]], rhs: Tuple[int, ...]) -> SemilinearSet:
    """Exact solution set over N of the abelianized equation given by
    ``_abelianize`` (empty iff the exponent-sum system has no nonnegative
    solution)."""
    r = len(columns)
    solutions = SemilinearSet((LinearSet.make((0,) * r, [
        tuple(1 if j == i else 0 for j in range(r)) for i in range(r)
    ]),))
    for row_index in range(len(rhs)):
        row = tuple(col[row_index] for col in columns)
        b = rhs[row_index]
        bound_m = max(max_norm(row), abs(b), 1)
        solutions = intersect_with_hyperplane(solutions, row, b, bound_m)
        if solutions.is_empty():
            break
    return solutions


def _finite_points(solutions: SemilinearSet, limits: SolverLimits) -> Optional[List[Tuple[int, ...]]]:
    """The points of a finite abelian solution set in (sum, lex) order; None
    when some component has a period or the points exceed the enumeration
    cap."""
    if any(c.periods for c in solutions.components):
        return None
    points = sorted({c.base for c in solutions.components}, key=lambda v: (sum(v), v))
    return points if len(points) <= limits.enumeration_cap else None


def _abelian_stage(eq: ExponentEquation, complete: bool, limits: SolverLimits) -> Optional[SolveOutcome]:
    """Decide from the exact abelianized solution set, or return None.

    The abelianization is a homomorphism, so every solution of ``eq`` is a
    point of that set, on every graph: an empty set refutes the equation, and
    a finite set leaves only its points to check by the word problem.  On a
    complete graph the abelianization is an isomorphism, so the least base is
    a solution.
    """
    names = eq.distinct_names
    solutions = _abelian_solution_set(*_abelianize(eq))
    if solutions.is_empty():
        return SolveOutcome(
            UNSOLVABLE, bound=0,
            bound_provenance="abelianized equation has no solution over the naturals",
            method="abelian-precheck",
        )
    if complete:
        witness = min((c.base for c in solutions.components), key=lambda v: (sum(v), v))
        outcome = _solvable(eq, dict(zip(names, witness)), bound=magnitude(solutions),
                            bound_provenance="abelianization", method="abelian")
        assert outcome is not None
        return outcome
    points = _finite_points(solutions, limits)
    if points is None:
        return None
    bound, n = magnitude(solutions), len(points)
    for point in points:
        outcome = _solvable(
            eq, dict(zip(names, point)), bound=bound, method="abelian-pin",
            bound_provenance=f"least of {n} abelian solutions to pass the word problem",
        )
        if outcome is not None:
            return outcome
    return SolveOutcome(UNSOLVABLE, bound=bound, method="abelian-pin",
                        bound_provenance=f"all {n} abelian solutions fail the word problem")


def _abelian_feasible(
    target: Tuple[int, ...], zs: List[Tuple[int, ...]], bounds: Sequence[int]
) -> bool:
    """Exact test for: some t with 0 <= t_j <= bounds[j] has
    sum_j t_j z_j == target."""
    r = len(zs)
    if r == 0:
        return all(c == 0 for c in target)
    if r == 1:
        z = zs[0]
        pivot = next((i for i, c in enumerate(z) if c != 0), None)
        if pivot is None:
            return all(c == 0 for c in target)
        num, den = target[pivot], z[pivot]
        if num % den:
            return False
        t = num // den
        return 0 <= t <= bounds[0] and all(t * a == c for a, c in zip(z, target))
    if r == 2:
        z1, z2 = zs
        m = len(target)
        for d1 in range(m):
            for d2 in range(d1 + 1, m):
                det = z1[d1] * z2[d2] - z1[d2] * z2[d1]
                if det:
                    n1 = target[d1] * z2[d2] - target[d2] * z2[d1]
                    n2 = z1[d1] * target[d2] - z1[d2] * target[d1]
                    if n1 % det or n2 % det:
                        return False
                    t1, t2 = n1 // det, n2 // det
                    if not (0 <= t1 <= bounds[0] and 0 <= t2 <= bounds[1]):
                        return False
                    return all(t1 * a + t2 * b == c for a, b, c in zip(z1, z2, target))
        if all(c == 0 for c in z1):
            return _abelian_feasible(target, [z2], bounds[1:])
    z1 = zs[0]
    for t1 in range(bounds[0] + 1):
        rest = tuple(c - t1 * a for c, a in zip(target, z1))
        if _abelian_feasible(rest, zs[1:], bounds[1:]):
            return True
    return False


def _decide_bounded_chain(
    eq: ExponentEquation, bound: Union[int, Sequence[int]], limits: SolverLimits
) -> Optional[Dict[str, int]]:
    """Exact decision of solvability with every exponent <= its bound
    (uniform integer or one bound per cycle).

    Runs the reachability search on the chain v0, then one power edge
    u_i^t v_i (t <= b_i) per cycle.  Deduplicating on the group element
    collapses the exponent counter; a prefix is also dropped when the
    remaining rows cannot repair its exponent sums (exact bounded feasibility
    over the abelianization).  Raises ResourceExhaustedError past the node cap.
    """
    bounds = _bound_list(eq, bound)
    k = eq.k
    index = eq.alphabet.positions
    z = [exponent_sums(cycle, index) for cycle in eq.cycles]
    # after row j (state j + 1), u_{j+1}^x v_{j+1} ... u_k^x v_k must cancel the
    # prefix: the negated sums of v_{j+1} .. v_k, the cycles left, their bounds
    rest = [
        (tuple(-s for s in exponent_sums(concat(*eq.constants[j + 1:]), index)), z[j:],
         bounds[j:])
        for j in range(k + 1)
    ]

    def feasible(state: int, sums: Tuple[int, ...]) -> bool:
        neg_rest, zs, rest_bounds = rest[state - 1]
        return _abelian_feasible(tuple(map(sub, neg_rest, sums)), zs, rest_bounds)

    edges = [(0, EMPTY_WORD, 0, eq.constants[0], 1)] + [
        (i + 1, eq.cycles[i], bounds[i], eq.constants[i + 1], i + 2) for i in range(k)
    ]
    path = _reach_one(
        k + 2, 0, frozenset({k + 1}), edges, range(k + 2), eq.alphabet, limits.node_cap, feasible
    )
    if path is None:
        return None
    return {eq.variables[idx - 1]: t for idx, t in path if idx}


def solve_within_bounds(
    eq: ExponentEquation,
    bound: Union[int, Sequence[int]],
    limits: SolverLimits = DEFAULT_LIMITS,
) -> Optional[Dict[str, int]]:
    """Exact bounded solvability (uniform or per-cycle exponent bounds);
    returns a verified assignment or None.  Needs pairwise distinct variables."""
    if not eq.knapsack_shape:
        raise EquationError("bounded decision needs pairwise distinct variables")
    bounds = _bound_list(eq, bound)
    eq2 = preprocess(eq)
    kept = [i for i, name in enumerate(eq.variables) if name in eq2.variables]
    found = _decide_bounded_chain(eq2, [bounds[i] for i in kept], limits)
    if found is None:
        return None
    outcome = _solvable(eq, found)
    assert outcome is not None
    return outcome.assignment


def _solve_by_search(
    eq: ExponentEquation, limits: SolverLimits, bound: Optional[int]
) -> SolveOutcome:
    """Bounded decisions; ``bound`` is the tameness bound on transitive
    forests, else None, and certified with pairwise distinct variables.

    When the chain automaton at a certified bound fits ``automaton_states``,
    one decision at the bound settles the equation (``certified-sweep``).
    Otherwise budgets deepen 1, 2, 4, ... up to ``search_ceiling``, and
    completing a certified bound proves ``unsolvable`` (``search``).  A sweep
    past the node cap goes on as uncertified deepening (``search(after sweep
    cap)``); any other exhausted cap gives ``unknown``.
    """
    target = bound if eq.knapsack_shape else None
    sweeping = target is not None and (eq.k + 2) * (target + 1) <= limits.automaton_states
    method, budget = ("certified-sweep", target) if sweeping else ("search", 1)
    last_complete: Optional[int] = None
    while True:
        if not eq.knapsack_shape and (budget + 1) ** len(eq.distinct_names) > limits.enumeration_cap:
            return SolveOutcome(UNKNOWN, budget=last_complete, method=method)
        try:
            if eq.knapsack_shape:
                found = _decide_bounded_chain(eq, budget, limits)
            else:
                found = next(_sweep(eq, budget), None)
        except ResourceExhaustedError:
            if not sweeping:
                return SolveOutcome(UNKNOWN, budget=last_complete, method=method)
            sweeping, target, method, budget = False, None, "search(after sweep cap)", 1
            continue
        if found is not None:
            if sweeping:
                outcome = _solvable(eq, found, bound=target, bound_provenance="tameness bound",
                                    method=method)
            else:
                outcome = _solvable(eq, found, budget=budget, method=method)
            assert outcome is not None
            return outcome
        if sweeping:
            return SolveOutcome(
                UNSOLVABLE, bound=target,
                bound_provenance="tameness bound swept exhaustively (exponents above it "
                "are never needed for solvability)",
                method=method,
            )
        last_complete = budget
        if target is not None and budget >= target:
            return SolveOutcome(
                UNSOLVABLE, bound=target,
                bound_provenance="complete sweep up to the certified bound",
                budget=budget, method=method,
            )
        if budget >= limits.search_ceiling:
            return SolveOutcome(UNKNOWN, budget=budget, method=method)
        budget = min(2 * budget, limits.search_ceiling)
        if target is not None:
            budget = min(budget, target)


def solve(eq: ExponentEquation, limits: SolverLimits = DEFAULT_LIMITS) -> SolveOutcome:
    """Decide solvability over N. Every Solvable outcome carries a verified
    assignment; Unsolvable is only reported with a completeness certificate."""
    kind = classify(eq.alphabet).kind
    tree = decompose(eq.alphabet) if kind == TRANSITIVE_FOREST_NOT_COMPLETE else None
    split = split_for_alphabet(eq.alphabet, tree) if isinstance(tree, FreeProduct) else None
    eq2 = preprocess(eq, split)
    decided = _abelian_stage(eq2, kind == COMPLETE, limits)
    if decided is not None:
        return decided
    bound = None if tree is None else tameness_bound(eq2, tree).value
    return _solve_by_search(eq2, limits, bound)


def solve_subset_sum(eq: ExponentEquation, limits: SolverLimits = DEFAULT_LIMITS) -> SolveOutcome:
    """Exhaustive binary sweep; always exact."""
    names = eq.distinct_names
    if len(names) > limits.subset_vars_cap:
        raise ResourceExhaustedError(
            f"{len(names)} binary variables exceed the subset-sum cap"
        )
    fields = dict(bound=1, bound_provenance="exhaustive binary sweep", method="subsetsum")
    found = next(_sweep(eq, 1), None)
    if found is None:
        return SolveOutcome(UNSOLVABLE, **fields)
    outcome = _solvable(eq, found, **fields)
    assert outcome is not None
    return outcome


def integer_valued_rewrite(eq: ExponentEquation) -> Tuple[ExponentEquation, Dict[str, Tuple[str, str]]]:
    """Replace each power g^x by g^x_pos (g^-1)^x_neg with one shared fresh
    pair per distinct variable; a Z-solution is read back as pos - neg."""
    taken = set(eq.variables) | set(eq.free_variables)
    pair_names: Dict[str, Tuple[str, str]] = {}
    for name in eq.distinct_names:
        pos, neg = name + "_pos", name + "_neg"
        while pos in taken or neg in taken:
            pos, neg = pos + "_", neg + "_"
        taken.update((pos, neg))
        pair_names[name] = (pos, neg)
    constants: List[GroupWord] = [eq.constants[0]]
    cycles: List[GroupWord] = []
    variables: List[str] = []
    for i, cycle in enumerate(eq.cycles):
        pos, neg = pair_names[eq.variables[i]]
        cycles.append(cycle)
        variables.append(pos)
        constants.append(EMPTY_WORD)
        cycles.append(invert_word(cycle))
        variables.append(neg)
        constants.append(eq.constants[i + 1])
    rewritten = ExponentEquation(
        alphabet=eq.alphabet,
        constants=tuple(constants),
        cycles=tuple(cycles),
        variables=tuple(variables),
        mode=MODE_KNAPSACK,
        free_variables=eq.free_variables,
    )
    return rewritten, pair_names


def solve_integer_valued(eq: ExponentEquation, limits: SolverLimits = DEFAULT_LIMITS) -> SolveOutcome:
    """Solvability with exponents over Z, via the doubled rewrite."""
    rewritten, pair_names = integer_valued_rewrite(eq)
    outcome = solve(rewritten, limits)
    if outcome.status != SOLVABLE:
        return outcome
    assignment = {}
    for name in eq.distinct_names:
        pos, neg = pair_names[name]
        assignment[name] = outcome.assignment[pos] - outcome.assignment[neg]
    for name in eq.free_variables:
        assignment.setdefault(name, 0)
    return SolveOutcome(SOLVABLE, assignment=assignment, bound=outcome.bound,
                        bound_provenance=outcome.bound_provenance,
                        budget=outcome.budget, method=outcome.method + "+integer-rewrite")


# -- solution sets (factor solver for the free-product cover) ---------------------


def _cylinderize(core: SemilinearSet, kept: Sequence[int], k: int) -> SemilinearSet:
    """Embed a solution set over the kept coordinates into N^k, leaving the
    dropped coordinates free (unit periods)."""
    dropped = [j for j in range(k) if j not in set(kept)]
    components = []
    for comp in core.components:
        base = [0] * k
        for pos, value in zip(kept, comp.base):
            base[pos] = value
        periods = []
        for p in comp.periods:
            vec = [0] * k
            for pos, value in zip(kept, p):
                vec[pos] = value
            periods.append(tuple(vec))
        periods.extend(tuple(1 if j == d else 0 for j in range(k)) for d in dropped)
        components.append(LinearSet.make(tuple(base), periods))
    return SemilinearSet(tuple(dict.fromkeys(components)))


def _project_word(word: GroupWord, keep: frozenset) -> GroupWord:
    return tuple(letter for letter in word if letter[0] in keep)


def solution_set(
    eq: ExponentEquation,
    tree: Optional[DecompositionNode] = None,
    limits: SolverLimits = DEFAULT_LIMITS,
) -> SemilinearSet:
    """Solution set over N^k (coordinates in variable order) for equations over
    transitive forests with pairwise distinct variables.

    Exact for alphabets whose decomposition stacks integer factors (trivial
    and direct-product nodes) and at free-product nodes whose abelian solution
    set is finite (its verified points); at other free-product nodes the set is
    assembled from local covers of the solutions found up to the tameness
    bound, which keeps every returned vector a genuine solution.
    """
    if not eq.knapsack_shape:
        raise EquationError("solution_set needs pairwise distinct variables")
    if tree is None:
        tree = decompose(eq.alphabet)
    return _solution_set_node(eq, tree, limits)


def _solution_set_node(
    eq: ExponentEquation, node: DecompositionNode, limits: SolverLimits
) -> SemilinearSet:
    alpha = eq.alphabet
    k = len(eq.cycles)
    reduced = preprocess(eq)
    kept = [i for i, name in enumerate(eq.variables) if name in reduced.variables]

    if not reduced.cycles:
        if is_identity(reduced.constants[0], alpha):
            core = SemilinearSet((LinearSet.make((), ()),))
        else:
            core = SemilinearSet.empty()
        return _cylinderize(core, [], k) if not core.is_empty() else SemilinearSet.empty()

    if isinstance(node, Trivial):
        raise EquationError("nontrivial cycle over the trivial group")

    if isinstance(node, DirectZ):
        apex = {node.apex: 0}
        z = tuple(exponent_sums(c, apex)[0] for c in reduced.cycles)
        y = -exponent_sums(concat(*reduced.constants), apex)[0]
        if isinstance(node.child, Trivial):
            core = decompose_hyperplane_solutions(z, y)
        else:
            keep = frozenset(node.child.generator_set())
            sub = ExponentEquation(
                alphabet=alpha,
                constants=tuple(_project_word(w, keep) for w in reduced.constants),
                cycles=tuple(_project_word(w, keep) for w in reduced.cycles),
                variables=reduced.variables,
                mode=reduced.mode,
            )
            base_set = _solution_set_node(sub, node.child, limits)
            bound_m = max(max_norm(z), abs(y), 1)
            core = intersect_with_hyperplane(base_set, z, y, bound_m)
        return _cylinderize(core, kept, k)

    # free product: a finite abelian set pins the solutions; otherwise assemble
    # from local covers over bounded base solutions
    from .cancellation import local_semilinear_cover

    prepared = preprocess(reduced, split_for_alphabet(alpha, node))
    points = _finite_points(_abelian_solution_set(*_abelianize(prepared)), limits)
    if points is not None:
        core = SemilinearSet(tuple(
            LinearSet.make(p, ()) for p in points
            if verify_solution(prepared, dict(zip(prepared.variables, p)))
        ))
        return _cylinderize(core, kept, k)
    bound = tameness_bound(prepared, node).value
    if bound > limits.cover_base_cap:
        raise ResourceExhaustedError(
            f"free-product solution-set enumeration bound {bound} exceeds the cap"
        )
    if (bound + 1) ** len(prepared.distinct_names) > limits.enumeration_cap:
        raise ResourceExhaustedError("free-product solution-set enumeration too large")
    components: List[LinearSet] = []
    for assignment in _sweep(prepared, bound):
        vector = tuple(assignment[name] for name in prepared.variables)
        cover = local_semilinear_cover(prepared, vector, node=node, limits=limits)
        components.extend(cover.components)
    core = SemilinearSet(tuple(dict.fromkeys(components)))
    return _cylinderize(core, kept, k)
