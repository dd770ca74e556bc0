"""CLI output on the bundled games, byte for byte against recorded goldens.

A change that makes one of these fail changes user-visible output. To
re-record a golden on purpose, run the command shown in the test id with
`-o tests/golden/<game>.<suffix>`.
"""

from pathlib import Path

import pytest

from cefg.cli import main
from conftest import game_path

GOLDEN = Path(__file__).resolve().parent / "golden"
GAMES = ("abortion", "example2", "example2-modified")
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


@pytest.mark.parametrize("game", GAMES)
@pytest.mark.parametrize("argv, suffix", COMMANDS,
                         ids=[" ".join(argv) for argv, _ in COMMANDS])
def test_cli_output_matches_golden(capsys, game, argv, suffix):
    command, *flags = argv
    code = main([command, str(game_path(f"{game}.game")), *flags])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{game}.{suffix}").read_bytes()
