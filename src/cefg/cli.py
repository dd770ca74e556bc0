"""Command-line interface.

Commands::

    cefg solve GAME [--format text|json|dot] [--trace-verbosity summary|full]
                    [--singletons-only] [-o OUT]
    cefg bi GAME [--format text|json] [-o OUT]
    cefg trace GAME [-o OUT]
    cefg export GAME [-o OUT]          (solve --format dot)
    cefg oracle-check [GAME] [--random N] [--seed S] [--max-nodes M]

Exit codes: 0 success, 1 oracle mismatch, 2 parse/validation error or an
output file that cannot be written, 3 solver error (e.g. an unsupported
mixed equilibrium).
"""

from __future__ import annotations

import argparse
import random
import sys

from .errors import CefgError, GameFormatError, GameValidationError, OutputError
from .gamefile import load_game
from .noncoop import backward_induction
from .oracle import equivalence_check, random_game
from .render import (
    bracket_summary,
    export_dot,
    outcome_str,
    partition_str,
    profile_to_json,
    render_solution,
    render_trace,
    solution_to_json,
)
from .ri import solve_game

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3


def int_at_least(low: int):
    """argparse type: an integer `low` or more (a usage error otherwise)."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {low} or more, not {value}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cefg",
        description="Solve coalitional extensive-form games by recursive "
                    "backward induction.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("text", "json", "dot")):
        p.add_argument("input", help="game description file")
        p.add_argument("-o", "--output", help="write to file instead of stdout")
        if formats:
            p.add_argument("--format", choices=formats, default="text")

    p_solve = sub.add_parser("solve", help="recursive-induction solution")
    add_common(p_solve)
    p_solve.add_argument("--trace-verbosity", choices=("summary", "full"),
                         default="summary")
    p_solve.add_argument("--singletons-only", action="store_true",
                         help="restrict feasibility to singletons "
                              "(noncooperative reduction)")

    p_bi = sub.add_parser("bi", help="backward-induction baseline")
    add_common(p_bi, formats=("text", "json"))

    p_trace = sub.add_parser("trace", help="complete nested solution listing")
    add_common(p_trace, formats=None)

    p_export = sub.add_parser("export", help="solved tree as Graphviz DOT "
                                             "(same as solve --format dot)")
    add_common(p_export, formats=None)
    p_export.set_defaults(format="dot", singletons_only=False,
                          trace_verbosity="summary")

    p_oracle = sub.add_parser("oracle-check",
                              help="compare the solver against the brute-force oracle")
    p_oracle.add_argument("input", nargs="?", help="game description file")
    p_oracle.add_argument("--random", type=int_at_least(0), metavar="N", default=0,
                          help="check N random games instead of a file")
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--max-nodes", type=int_at_least(1), default=15,
                          help="oracle size guard")
    p_oracle.add_argument("-o", "--output")
    return parser


def _emit(text: str, output) -> None:
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputError(f"cannot write {output}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    tree, utils = load_game(args.input)
    profile = solve_game(tree, utils, singletons_only=args.singletons_only)
    if args.format == "json":
        _emit(profile_to_json(profile), args.output)
        return EXIT_OK
    if args.format == "dot":
        _emit(export_dot(tree, profile), args.output)
        return EXIT_OK
    lines = [
        f"outcome: {outcome_str(profile.outcome)}",
        f"partition: {partition_str(profile.partition)}",
        f"summary: {bracket_summary(profile)}",
        "trace:",
        render_trace(profile, args.trace_verbosity),
    ]
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_bi(args) -> int:
    tree, utils = load_game(args.input)
    sol = backward_induction(tree, utils)
    if args.format == "json":
        _emit(solution_to_json(sol), args.output)
        return EXIT_OK
    order = sorted(sol.actions, key=lambda s: tree.position(tree.info_sets[s][0]))
    path = ", ".join(f"{sid}:{sol.actions[sid]}" for sid in order)
    _emit(f"outcome: {outcome_str(sol.outcome)}\nactions: {path}\n", args.output)
    return EXIT_OK


def _cmd_trace(args) -> int:
    tree, utils = load_game(args.input)
    profile = solve_game(tree, utils)
    _emit(render_solution(profile) + "\n", args.output)
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    reports = []
    if args.random:
        rng = random.Random(args.seed)
        for _ in range(args.random):
            tree, utils = random_game(rng, max_nodes=args.max_nodes)
            reports.append(equivalence_check(tree, utils, max_nodes=args.max_nodes))
    elif args.input:
        tree, utils = load_game(args.input)
        reports.append(equivalence_check(tree, utils, max_nodes=args.max_nodes))
    else:
        raise GameFormatError("MissingInput", "oracle-check needs a file or --random N")
    lines = []
    mismatches = 0
    for rep in reports:
        status = "match" if rep.match else "MISMATCH"
        line = (f"{rep.game_digest} {status} solver={outcome_str(rep.solver_outcome)} "
                f"oracle={outcome_str(rep.oracle_outcome)}")
        if not rep.match:
            mismatches += 1
            line += f" divergence={rep.first_divergence[0]}:{rep.first_divergence[1]}"
        lines.append(line)
    lines.append(f"checked {len(reports)} game(s), {mismatches} mismatch(es)")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_MISMATCH if mismatches else EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "bi": _cmd_bi,
        "trace": _cmd_trace,
        "export": _cmd_solve,
        "oracle-check": _cmd_oracle_check,
    }
    try:
        return handlers[args.command](args)
    except (GameFormatError, GameValidationError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CefgError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
