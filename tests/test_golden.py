"""CLI output on the bundled games, byte for byte against recorded goldens.

A change that makes one of these fail changes user-visible output. To
re-record a golden on purpose, run the command shown in the test id with
`-o tests/golden/<game>.<suffix>`.

The bundled games are all perfect-information. Five more games live next
to their goldens in `tests/golden/`. Two have perfect information and a
chance root: `chance-perfect.game`, with three branches weighted 1/3, 2/3
and 0, and `chance-one-branch.game`, with one branch. Three have imperfect
information: `layered.game`, a stack of three simultaneous-move layers with
a mixed one at the bottom; `chance-layers.game`, a chance root over a 2x2
layer with a pure equilibrium and a matching-pennies layer with none; and
`chance-mixed-stack.game`, a chance root weighted 2/7 and 5/7 over a 3x3
cyclic layer whose only equilibrium mixes all three strategies of each
player, with a 2x2 matching-pennies layer below one of its cells.
"""

from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from cefg import GameTree, cli, load_game, parse_game, serialize_game
from cefg.cli import main
from conftest import game_path

GOLDEN = Path(__file__).resolve().parent / "golden"
GAMES = ("abortion", "example2", "example2-modified")
CHANCE_GAMES = ("chance-perfect", "chance-one-branch")
# (command and its flags, golden file suffix)
COMMANDS = (
    (("solve",), "solve.txt"),
    (("solve", "--trace-verbosity", "full"), "solve-full.txt"),
    (("solve", "--format", "json"), "solve-json.json"),
    (("solve", "--format", "dot"), "solve-dot.dot"),
    (("export",), "solve-dot.dot"),
    (("trace",), "trace.txt"),
    (("bi",), "bi.txt"),
    (("bi", "--format", "json"), "bi-json.json"),
)
IMPERFECT_GAMES = ("layered", "chance-layers", "chance-mixed-stack")
IMPERFECT_COMMANDS = tuple(c for c in COMMANDS if c[0][0] != "bi")


def _check_golden(capsys, path, game, argv, suffix):
    command, *flags = argv
    code = main([command, str(path), *flags])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{game}.{suffix}").read_bytes()


@pytest.mark.parametrize("game", GAMES + CHANCE_GAMES)
@pytest.mark.parametrize("argv, suffix", COMMANDS,
                         ids=[" ".join(argv) for argv, _ in COMMANDS])
def test_cli_output_matches_golden(capsys, game, argv, suffix):
    path = game_path(f"{game}.game") if game in GAMES else GOLDEN / f"{game}.game"
    _check_golden(capsys, path, game, argv, suffix)


@pytest.mark.parametrize("game", IMPERFECT_GAMES)
@pytest.mark.parametrize("argv, suffix", IMPERFECT_COMMANDS,
                         ids=[" ".join(argv) for argv, _ in IMPERFECT_COMMANDS])
def test_imperfect_cli_output_matches_golden(capsys, game, argv, suffix):
    _check_golden(capsys, GOLDEN / f"{game}.game", game, argv, suffix)


@pytest.mark.parametrize("game", IMPERFECT_GAMES)
def test_bi_refuses_imperfect_golden_game(capsys, game):
    assert main(["bi", str(GOLDEN / f"{game}.game")]) == 3
    assert capsys.readouterr().out == ""


def _as_fractions(tree):
    """The same tree with every payoff and chance probability a `Fraction`,
    as a hand-built game may hold them; the parser loads integral numbers as
    `int`. (No golden game has tables, weights or synergies.)"""
    nodes = {nid: replace(node, payoffs=tuple(map(Fraction, node.payoffs)))
             if node.is_terminal else node for nid, node in tree.nodes.items()}
    chance = tree.chance_at_root and {
        c: Fraction(p) for c, p in tree.chance_at_root.items()}
    return GameTree(nodes, tree.root, tree.players, tree.info_sets, chance)


@pytest.mark.parametrize("game", GAMES + CHANCE_GAMES + IMPERFECT_GAMES)
def test_fraction_numbers_print_the_parsed_games_bytes(monkeypatch, capsys, game):
    # int and Fraction compare, hash and print alike, so a game whose
    # integral numbers are Fractions must give every golden byte for byte.
    path = game_path(f"{game}.game") if game in GAMES else GOLDEN / f"{game}.game"
    tree, utils = load_game(path)
    assert any(type(v) is int for z in tree.terminal_ids for v in tree.nodes[z].payoffs)
    rebuilt = _as_fractions(tree)
    assert all(type(v) is Fraction
               for z in tree.terminal_ids for v in rebuilt.nodes[z].payoffs)
    loads = []
    monkeypatch.setattr(cli, "load_game", lambda p: loads.append(p) or (rebuilt, utils))
    commands = IMPERFECT_COMMANDS if game in IMPERFECT_GAMES else COMMANDS
    for argv, suffix in commands:
        _check_golden(capsys, path, game, argv, suffix)
    assert len(loads) == len(commands)


@pytest.mark.parametrize("game", GAMES + CHANCE_GAMES + IMPERFECT_GAMES)
def test_written_back_games_print_the_goldens(tmp_path, capsys, game):
    # A game written back by `serialize_game` (its numbers exact, its
    # fractions "p/q") is the same game: every golden, byte for byte.
    path = game_path(f"{game}.game") if game in GAMES else GOLDEN / f"{game}.game"
    written = tmp_path / path.name
    written.write_text(serialize_game(parse_game(path.read_text())))
    commands = IMPERFECT_COMMANDS if game in IMPERFECT_GAMES else COMMANDS
    for argv, suffix in commands:
        _check_golden(capsys, written, game, argv, suffix)
