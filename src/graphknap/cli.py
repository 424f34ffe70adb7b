"""Batch command-line front end; one JSON document per invocation.

Exit codes: 0 decided, 2 undecided (search budget exhausted), 1 usage or
input error.  Identical inputs and flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Tuple

from . import jsonio
from .alphabet import classify, decompose
from .automata import membership_one, unroll_loops
from .errors import GraphKnapError
from .gadgets import (
    acyclic_automaton_to_knapsack_f2,
    parse_dimacs,
    sat_to_p4_knapsack,
)
from .group import is_identity_stacked, reduce_word
from .knapsack import (
    SolverLimits,
    UNKNOWN,
    brute_force_solutions,
    preprocess,
    solve,
    solve_integer_valued,
    solve_subset_sum,
    tameness_bound,
)
from .trace import traces_equal


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_alphabet(path: str):
    return jsonio.alphabet_from_json(_load_json(path))


def _parse_word_flag(text: str, alpha):
    try:
        items = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphKnapError(f"word flag is not valid JSON: {exc}") from exc
    return jsonio.word_from_json(items, alpha)


def _natural(text: str) -> int:
    """argparse type of the nonnegative integer flags."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """Usage errors print one ``error: ...`` line, like input errors, and exit 1."""

    def error(self, message: str):
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="graphknap", description=__doc__)
    parser.add_argument("--seed", type=int, default=None, help="echoed in the output")
    parser.add_argument("--format", choices=["json"], default="json",
                        help="output format (only json)")
    parser.add_argument("-o", "--output", default=None, help="also write the JSON here")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="graph class of an alphabet")
    p.add_argument("-i", "--input", required=True)

    p = sub.add_parser("decompose", help="decomposition tree of a transitive forest")
    p.add_argument("-i", "--input", required=True)

    p = sub.add_parser("wp", help="word problem")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--word", required=True, help="JSON array of signed letters")
    p.add_argument("--alg", choices=["reduce", "stacked"], default="reduce")

    p = sub.add_parser("trace-eq", help="trace equality of two monoid words")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = sub.add_parser("solve", help="solve an exponent equation instance")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--mode", choices=["knapsack", "subsetsum", "integer"], default=None)
    p.add_argument("--ceiling", type=_natural, default=None, help="search budget ceiling")

    p = sub.add_parser("bound", help="tameness bound report")
    p.add_argument("-i", "--input", required=True)

    automaton = sub.add_parser("automaton", help="automaton operations").add_subparsers(
        dest="automaton_command", required=True
    )
    p = automaton.add_parser("member", help="is some accepted word trivial in the group")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--alphabet", required=True)
    p.add_argument("--budget", type=_natural, default=None, help="per-loop unrolling budget")

    oracle = sub.add_parser("oracle", help="brute-force oracles").add_subparsers(
        dest="oracle_command", required=True
    )
    p = oracle.add_parser("brute", help="all bounded solutions by enumeration")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--bound", type=_natural, required=True)

    gen = sub.add_parser("gen", help="hardness-instance generators").add_subparsers(
        dest="gen_command", required=True
    )
    p = gen.add_parser("sat-p4", help="3SAT (DIMACS) to a path-alphabet knapsack instance")
    p.add_argument("-i", "--input", required=True)
    p = gen.add_parser("f2-gadget", help="acyclic automaton to a free-group knapsack instance")
    p.add_argument("-i", "--input", required=True)

    return parser


def _limits_for(args) -> SolverLimits:
    if getattr(args, "ceiling", None) is None:
        return SolverLimits()
    return SolverLimits(search_ceiling=args.ceiling)


def _dispatch(args) -> Tuple[dict, int]:
    if args.command == "classify":
        verdict = classify(_load_alphabet(args.input))
        return {
            "class": verdict.kind,
            "witness": list(verdict.witness) if verdict.witness else None,
        }, 0

    if args.command == "decompose":
        tree = decompose(_load_alphabet(args.input))
        return {"tree": jsonio.tree_to_json(tree)}, 0

    if args.command == "wp":
        alpha = _load_alphabet(args.input)
        word = _parse_word_flag(args.word, alpha)
        if args.alg == "stacked":
            tree = decompose(alpha)
            return {"identity": is_identity_stacked(word, tree)}, 0
        geodesic = reduce_word(word, alpha)
        return {
            "identity": not geodesic,
            "geodesic": jsonio.word_to_json(geodesic),
        }, 0

    if args.command == "trace-eq":
        alpha = _load_alphabet(args.input)
        left = json.loads(args.left)
        right = json.loads(args.right)
        return {"equal": traces_equal(left, right, alpha)}, 0

    if args.command == "solve":
        eq = jsonio.instance_from_json(_load_json(args.input))
        mode = args.mode or eq.mode
        limits = _limits_for(args)
        if mode == "subsetsum":
            outcome = solve_subset_sum(eq, limits)
        elif mode == "integer":
            outcome = solve_integer_valued(eq, limits)
        else:
            outcome = solve(eq, limits)
        return jsonio.outcome_to_json(outcome), 2 if outcome.status == UNKNOWN else 0

    if args.command == "bound":
        eq = preprocess(jsonio.instance_from_json(_load_json(args.input)))
        report = tameness_bound(eq)
        return {
            "value": report.value,
            "n": report.n,
            "k": report.k,
            "nodes": [[name, value] for name, value in report.nodes],
        }, 0

    if args.command == "automaton":
        alpha = _load_alphabet(args.alphabet)
        automaton = jsonio.automaton_from_json(_load_json(args.input), alpha)
        budget = args.budget
        if automaton.loops or any(src == dst for src, _, dst in automaton.transitions):
            if budget is None:
                raise GraphKnapError("loop automaton: supply --budget to unroll")
            automaton = unroll_loops(automaton, budget)
        witness = membership_one(automaton, alpha)
        payload = {
            "member": witness is not None,
            "witness": witness,
        }
        if budget is not None:
            payload["budget"] = budget
        return payload, 0

    if args.command == "oracle":
        eq = jsonio.instance_from_json(_load_json(args.input))
        solutions = brute_force_solutions(eq, args.bound)
        return {
            "bound": args.bound,
            "count": len(solutions),
            "solutions": [dict(sorted(s.items())) for s in solutions],
        }, 0

    if args.command == "gen":
        if args.gen_command == "sat-p4":
            with open(args.input, "r", encoding="utf-8") as handle:
                formula = parse_dimacs(handle.read())
            gadget = sat_to_p4_knapsack(formula)
        else:
            automaton = jsonio.automaton_from_json(_load_json(args.input))
            gadget = acyclic_automaton_to_knapsack_f2(automaton)
        return {
            "instance": jsonio.instance_to_json(gadget.equation),
            "bounds": list(gadget.bounds),
            "budget": gadget.budget(),
            "provenance": list(gadget.provenance),
            "source": gadget.source,
        }, 0

    raise GraphKnapError(f"unknown command {args.command!r}")


def run(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        payload, code = _dispatch(args)
    except (GraphKnapError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.seed is not None:
        payload["seed"] = args.seed
    text = jsonio.dumps(payload)
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
