"""Command-line front end.

Exit codes: 0 success / affirmative answer, 1 well-formed negative
answer, 2 input error (including construction or analysis arguments no
instance matches), 3 solver budget exceeded, 4 internal error (any
other exception, such as a failed self-verification).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import (
    DEFAULT_BUDGET,
    AnalysisInputError,
    candidate_deletion,
    candidate_partition,
)
from .constructions import (
    ConstructionInputError,
    fully_single_crossing,
    implement_clique,
    implement_empty,
    implement_even_cycle,
    implement_general,
    implement_path,
    implement_permutation_graph,
    implement_tree,
    ramsey_extract,
)
from .elections import (
    ElectionError,
    emit_election,
    is_single_crossing,
    multicrossing_graph,
    parse_election,
)
from .generate import random_election, random_graph
from .graphs import (
    GraphError,
    _edge_lines,
    _int_names,
    emit_dot,
    emit_graph,
    parse_graph,
    recognize_permutation,
    transitive_orientation,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class InputError(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _load_election(path: str):
    try:
        return parse_election(_read(path))
    except ElectionError as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_graph(path: str):
    try:
        return parse_graph(_read(path))
    except GraphError as exc:
        raise InputError(f"{path}: {exc}") from None


def _cmd_check(args) -> int:
    e = _load_election(args.election)
    ok, witness = is_single_crossing(e)
    if ok:
        print("single-crossing")
        return EXIT_OK
    (a, b), (i, j, k) = witness
    print(f"not single-crossing: pair {{{a},{b}}} crosses twice "
          f"(witness voters {i} < {j} < {k})")
    return EXIT_NEGATIVE


def _cmd_gamma(args) -> int:
    e = _load_election(args.election)
    g = multicrossing_graph(e)
    if args.dot:
        sys.stdout.write(emit_dot(g))
    elif args.edges:
        sys.stdout.write(_edge_lines(g))
    else:
        sys.stdout.write(emit_graph(g))
    return EXIT_OK


def _cmd_implement(args) -> int:
    family = args.family or "general"
    if family in ("path", "cycle", "clique", "empty"):
        if args.size is None:
            raise InputError(f"--family {family} requires --size")
    if family == "path":
        result = implement_path(args.size)
    elif family == "cycle":
        result = implement_even_cycle(args.size)
    elif family == "clique":
        result = implement_clique(_int_names(args.size))
    elif family == "empty":
        result = implement_empty(_int_names(args.size))
    else:
        if args.graph is None:
            raise InputError(f"--family {family} requires a graph file")
        g = _load_graph(args.graph)
        if family == "tree":
            result = implement_tree(g)
        elif family == "permutation":
            diagram = recognize_permutation(g)
            if diagram is None:
                print("not a permutation graph", file=sys.stderr)
                return EXIT_NEGATIVE
            result = implement_permutation_graph(diagram)
        else:
            result = implement_general(g)
    print(f"# voters_used: {result.voters_used}")
    sys.stdout.write(emit_election(result.election))
    return EXIT_OK


def _cmd_fullsc(args) -> int:
    sys.stdout.write(emit_election(fully_single_crossing(args.m)))
    return EXIT_OK


def _cmd_analyze(args) -> int:
    e = _load_election(args.election)
    if args.problem == "deletion":
        result = candidate_deletion(e, args.k, budget=args.budget)
    else:
        result = candidate_partition(e, args.k, budget=args.budget)
    print(json.dumps(result.to_json_dict(), indent=2, sort_keys=True))
    if result.budget_exceeded:
        return EXIT_BUDGET
    return EXIT_OK if result.feasible else EXIT_NEGATIVE


def _cmd_recognize(args) -> int:
    g = _load_graph(args.graph)
    orientation = transitive_orientation(g)
    print(f"comparability: {'yes' if orientation is not None else 'no'}")
    # a permutation graph is a comparability graph
    diagram = recognize_permutation(g) if orientation is not None else None
    if diagram is None:
        print("permutation: no")
        return EXIT_NEGATIVE
    print("permutation: yes")
    print("pi1: " + " ".join(diagram.pi1))
    print("pi2: " + " ".join(diagram.pi2))
    return EXIT_OK


def _cmd_ramsey(args) -> int:
    e = _load_election(args.election)
    result = ramsey_extract(e)
    print(f"{result.kind}: " + " ".join(result.members))
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.what == "random-election":
        e = random_election(args.m, args.n, seed=args.seed)
        sys.stdout.write(emit_election(e))
    else:
        g = random_graph(args.v, args.p, seed=args.seed)
        sys.stdout.write(emit_graph(g))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multicross",
        description="Multi-crossing graphs of elections: checks, "
                    "constructions and closeness analyses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="single-crossing verdict with witness")
    p.add_argument("election")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gamma", help="emit the multi-crossing graph")
    p.add_argument("election")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--dot", action="store_true")
    fmt.add_argument("--edges", action="store_true")
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("implement", help="build an election implementing a graph")
    p.add_argument("graph", nargs="?")
    p.add_argument("--family",
                   choices=["path", "cycle", "tree", "clique", "empty",
                            "permutation", "general"])
    p.add_argument("--size", type=int)
    p.set_defaults(func=_cmd_implement)

    p = sub.add_parser("fullsc", help="fully single-crossing election")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_fullsc)

    p = sub.add_parser("analyze", help="closeness measures")
    asub = p.add_subparsers(dest="problem", required=True)
    for problem in ("deletion", "partition"):
        ap = asub.add_parser(problem)
        ap.add_argument("election")
        ap.add_argument("--k", type=int, required=True)
        ap.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        ap.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("recognize", help="comparability/permutation verdicts")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("ramsey", help="extract a clique or independent set")
    p.add_argument("election")
    p.set_defaults(func=_cmd_ramsey)

    p = sub.add_parser("gen", help="reproducible random instances")
    gsub = p.add_subparsers(dest="what", required=True)
    gp = gsub.add_parser("random-election")
    gp.add_argument("--m", type=int, required=True)
    gp.add_argument("--n", type=int, required=True)
    gp.add_argument("--seed", type=int, required=True)
    gp.set_defaults(func=_cmd_gen)
    gp = gsub.add_parser("random-graph")
    gp.add_argument("--v", type=int, required=True)
    gp.add_argument("--p", type=float, required=True)
    gp.add_argument("--seed", type=int, required=True)
    gp.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ElectionError, GraphError, ConstructionInputError,
            AnalysisInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a fault of the program, never a negative answer
        detail = " ".join(str(exc).split())
        print(f"error: internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
