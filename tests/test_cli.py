"""Command-line interface: commands, formats, exit codes."""

import json
import time

import pytest

from cefg import GameFormatError, GameValidationError, load_game_text
from cefg.cli import main
from cefg.oracle import OracleReport
from conftest import (chain_text, expand_v1_entries, game_path, make_game_text,
                      wide_layer_text)
from test_imperfect import JORDAN_NODES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_example2(capsys):
    code, out, _ = run(capsys, "solve", str(game_path("example2.game")))
    assert code == 0
    assert "outcome: (6, 3, 5)" in out
    assert "[{R},{a,d},{e,g,j,l}; {1,3},2]" in out
    assert "partition: {1,3},2" in out


def test_bi_example2(capsys):
    code, out, _ = run(capsys, "bi", str(game_path("example2.game")))
    assert code == 0
    assert "(5, 5, 3)" in out


def test_bi_abortion_path(capsys):
    code, out, _ = run(capsys, "bi", str(game_path("abortion.game")))
    assert code == 0
    assert "outcome: (3, 2, 1)" in out
    assert "g:Illegal" in out and "a:N" in out


def test_solve_singletons_only_matches_bi(capsys):
    code, out, _ = run(capsys, "solve", str(game_path("example2.game")),
                       "--singletons-only")
    assert code == 0
    assert "outcome: (5, 5, 3)" in out


def test_solve_full_verbosity_shows_supergame_internals(capsys):
    _, brief, _ = run(capsys, "solve", str(game_path("example2.game")))
    _, full, _ = run(capsys, "solve", str(game_path("example2.game")),
                     "--trace-verbosity", "full")
    assert len(full.splitlines()) > len(brief.splitlines())
    assert "(view {1,3},2)" in full


def test_trace_command_has_fig_entries(capsys):
    code, out, _ = run(capsys, "trace", str(game_path("example2.game")))
    assert code == 0
    for needle in ("[{b},{h}; {2,3}]", "[{c},{j,k}; 2,3]",
                   "[{a},{e,g}; 2,{1,3}]", "[{d},{i,l}; 2,{1,3}]"):
        assert needle in out


def test_export_writes_dot(tmp_path, capsys):
    out_file = tmp_path / "tree.dot"
    code, _, _ = run(capsys, "export", str(game_path("abortion.game")),
                     "-o", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("digraph game {")
    assert 'label="2,3"' in text


def test_solve_json_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code, _, _ = run(capsys, "solve", str(game_path("example2.game")),
                         "--format", "json", "-o", str(target))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    body = json.loads(a.read_text())
    assert body["outcome"] == [6, 3, 5]


def test_oracle_check_file(capsys):
    code, out, _ = run(capsys, "oracle-check", str(game_path("example2.game")))
    assert code == 0
    assert "match" in out and "0 mismatch(es)" in out


def test_oracle_check_random_deterministic(capsys):
    code1, out1, _ = run(capsys, "oracle-check", "--random", "4", "--seed", "9")
    code2, out2, _ = run(capsys, "oracle-check", "--random", "4", "--seed", "9")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "checked 4 game(s), 0 mismatch(es)" in out1


def test_oracle_check_negative_random_count_is_a_usage_error(capsys):
    # A negative count used to check 0 games and exit 0.
    with pytest.raises(SystemExit) as exc:
        main(["oracle-check", "--random", "-3"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "argument --random: must be 0 or more, not -3" in err
    assert "Traceback" not in err
    code, out, err = run(capsys, "oracle-check", "--random", "0")
    assert code == 2 and out == ""
    assert "MissingInput" in err


@pytest.mark.parametrize("value", ["0", "-2"])
def test_oracle_check_nonpositive_max_nodes_is_a_usage_error(capsys, value):
    # It used to exit 3: "solver error: 1 nodes exceeds the oracle limit".
    with pytest.raises(SystemExit) as exc:
        main(["oracle-check", "--random", "1", "--max-nodes", value])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"argument --max-nodes: must be 1 or more, not {value}" in err
    assert "Traceback" not in err
    code, out, _ = run(capsys, "oracle-check", "--random", "1", "--max-nodes", "1")
    assert code == 0 and "checked 1 game(s), 0 mismatch(es)" in out


def test_oracle_check_mismatch_exit_code(capsys, monkeypatch, example2):
    fake = OracleReport("deadbeef0000", (1, 1, 1), (2, 2, 2),
                        ((1,), (2,), (3,)), ((1,), (2,), (3,)),
                        False, ("x7", "outcome"))
    monkeypatch.setattr("cefg.cli.equivalence_check", lambda *a, **k: fake)
    code, out, _ = run(capsys, "oracle-check", str(game_path("example2.game")))
    assert code == 1
    assert "MISMATCH" in out and "divergence=x7:outcome" in out


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent/game.game")
    assert code == 2
    assert "error: NotFound" in err and "/nonexistent/game.game" in err


@pytest.mark.parametrize("target", ["", "missing/x.txt"],
                         ids=["directory", "missing-parent"])
def test_unwritable_output_exits_2(tmp_path, capsys, target):
    out = tmp_path / target
    code, stdout, err = run(capsys, "solve", str(game_path("example2.game")),
                            "-o", str(out))
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: cannot write") and str(out) in err


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.game"
    bad.write_text("{ not json")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2
    assert "SyntaxError" in err


def test_validation_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.game"
    bad.write_text(make_game_text({
        "r": {"player": 1, "actions": {"a": "z1", "b": "z2"}},
        "z1": [1, 2], "z2": [3, 2, 1],
    }))
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2
    assert "PayoffLengthMismatch" in err


CYCLE_NODES = {  # b1 lies below A's a1, and a2 below B's b2
    "r": {"player": 3, "actions": {"L": "a1", "R": "b2"}},
    "a1": {"player": 1, "actions": {"x": "b1", "y": "z1"}},
    "b1": {"player": 2, "actions": {"u": "z2", "v": "z3"}},
    "b2": {"player": 2, "actions": {"u": "a2", "v": "z4"}},
    "a2": {"player": 1, "actions": {"x": "z5", "y": "z6"}},
    **{f"z{k}": [0, 0, 0] for k in range(1, 7)},
}

# P1 moves at r, P2 at H without seeing it, then P1 at Sa or Sb. No pure
# equilibrium, and P1 holds three of the layer's information sets.
SEVERAL_SETS_NODES = {
    "r": {"player": 1, "actions": {"a": "ha", "b": "hb"}},
    "ha": {"player": 2, "actions": {"h": "sah", "t": "sat"}},
    "hb": {"player": 2, "actions": {"h": "sbh", "t": "sbt"}},
    **{nid: {"player": 1, "actions": {"x": f"z{2 * k}", "y": f"z{2 * k + 1}"}}
       for k, nid in enumerate(("sah", "sat", "sbh", "sbt"))},
    **{f"z{k}": list(p) for k, p in enumerate(
        [(3, -3), (-2, 3), (-2, -2), (3, -2), (-1, -1), (-2, 1), (2, 2), (-2, -2)])},
}


@pytest.mark.parametrize("text,reason", [
    pytest.param(make_game_text(JORDAN_NODES, info_sets={
        "h2": ["rh", "rt"], "h3": ["a1", "a2", "a3", "a4"]}),
        "3 players are involved", id="three-player-mixed-layer"),
    pytest.param(make_game_text(CYCLE_NODES, info_sets={
        "A": ["a1", "a2"], "B": ["b1", "b2"]}),
        "information-set order has a cycle", id="info-set-cycle"),
    pytest.param(make_game_text(SEVERAL_SETS_NODES, players=2, info_sets={
        "H": ["ha", "hb"], "Sa": ["sah", "sat"], "Sb": ["sbh", "sbt"]}),
        "mixed play across several information sets",
        id="mixed-play-across-several-sets"),
])
def test_solver_error_exits_3(tmp_path, capsys, text, reason):
    game = tmp_path / "bad.game"
    game.write_text(text)
    code, _, err = run(capsys, "solve", str(game))
    assert code == 3
    assert "solver error" in err and reason in err


def _malformed(edit, **kw):
    doc = json.loads(make_game_text({
        "r": {"player": 1, "actions": {"a": "z1", "b": "z2"}},
        "z1": [1, 2, 0], "z2": [2, 1, 0],
    }, **kw))
    edit(doc)
    return json.dumps(doc)


def _set_utility(utility):
    return lambda doc: doc["coalitions"].update(utility=utility)


def _chance_root_in_a_set(doc):
    del doc["nodes"]["r"]["player"]
    doc["info_sets"] = {"h": ["r"]}


@pytest.mark.parametrize("text,code", [
    pytest.param(_malformed(_set_utility(
        {"table": {"1,x": {"z1": 1, "z2": 1}}})), "SyntaxError",
        id="non-integer-table-key"),
    pytest.param(_malformed(_set_utility({"table": [1, 2]})), "SyntaxError",
                 id="non-dict-table"),
    pytest.param(_malformed(lambda doc: doc.update(synergies=[5])),
                 "SyntaxError", id="non-dict-synergy"),
    pytest.param(_malformed(lambda doc: doc.update(info_sets=["r"])),
                 "SyntaxError", id="info-sets-list"),
    pytest.param(_malformed(_set_utility(
        {"combinator": "weighted", "weights": {"1": "abc"}})), "SyntaxError",
        id="non-numeric-weight"),
    pytest.param(_malformed(lambda doc: doc["nodes"]["r"].update(
        actions=[["a", "z1"], ["b"]])), "SyntaxError", id="one-element-action"),
    pytest.param(_malformed(lambda doc: doc.update(
        players=["P1", "P1", "P3"])), "DuplicatePlayer",
        id="duplicate-player-names"),
    pytest.param(_malformed(lambda doc: None, feasible=[[1, 1, 2]]),
                 "BadCoalition", id="repeated-coalition-member"),
    pytest.param(_malformed(lambda doc: None, feasible=[[1, 2]], utility={
        "table": {"1,2": {"z1": 1, "z2": 1}, "1,9": {"z1": 1, "z2": 1}}}),
        "BadCoalition", id="table-key-member-out-of-range"),
    pytest.param(_malformed(lambda doc: None, feasible=[[1, 2]], utility={
        "table": {"1,2": {"z1": 1, "z2": 1}, "2,2": {"z1": 1, "z2": 1}}}),
        "BadCoalition", id="repeated-table-key-member"),
    pytest.param(_malformed(lambda doc: None, feasible=[[1, 2]], utility={
        "table": {"1,2": {"z1": 1, "z2": 1, "zz": 1}}}),
        "BadCoalition", id="table-value-at-a-non-terminal"),
    pytest.param(_malformed(lambda doc: None, feasible=[[1, 2]], utility={
        "table": {"1,2": {"z1": 1, "z2": 1}, "2,1": {"z1": 2, "z2": 2}}}),
        "BadCoalition", id="two-table-keys-for-one-coalition"),
    pytest.param(_malformed(lambda doc: None, feasible=[[1, 2]], utility={
        "table": {"1,2": {"z1": 1, "z2": 1}, "01,2": {"z1": 2, "z2": 2}}}),
        "BadCoalition", id="table-key-with-a-leading-zero-repeats-a-coalition"),
    pytest.param(_malformed(lambda doc: doc["coalitions"].update(
        feasable=[[2, 3]])), "UnknownField", id="misspelt-feasible"),
    pytest.param(_malformed(_set_utility(
        {"combinator": "weighted", "wieghts": {"1": 5}})), "UnknownField",
        id="misspelt-weights"),
    pytest.param(_malformed(_set_utility(
        {"combinator": "min", "weights": {"1": 5}})), "SyntaxError",
        id="weights-beside-min"),
    pytest.param(_malformed(lambda doc: None, feasible=[[1, 2]], utility={
        "combinator": "sum", "table": {"1,2": {"z1": 1, "z2": 1}}}),
        "SyntaxError", id="combinator-beside-table"),
    *(pytest.param(_malformed(lambda doc: None, feasible=[[1, 2]], utility={
        "table": {key: {"z1": 1, "z2": 1}}}), "SyntaxError", id=f"table-key-with-{sign}")
      for key, sign in (("0_1,2", "underscore"), ("+1,2", "plus"), ("1, 2", "space"))),
    pytest.param(_malformed(lambda doc: doc["nodes"]["r"].update(player=True)),
                 "BadPlayer", id="boolean-node-player"),
    pytest.param(_malformed(lambda doc: doc.update(synergies=[
        {"player": True, "block": [1, 2], "terminal": "z1", "value": 3}])),
        "BadSynergy", id="boolean-synergy-player"),
    pytest.param(_malformed(lambda doc: doc.update(synergies=[
        {"player": 1, "block": [1, 1], "terminal": "z1", "value": 3}])),
        "BadSynergy", id="repeated-synergy-block-member"),
    pytest.param(_malformed(lambda doc: doc.update(synergies=[
        {"player": 1, "block": [1, 9], "terminal": "z1", "value": 3}])),
        "BadSynergy", id="synergy-block-member-out-of-range"),
    pytest.param(_malformed(lambda doc: doc.update(synergies=[
        {"player": 1, "block": [], "terminal": "z1", "value": 3}])),
        "BadSynergy", id="empty-synergy-block"),
    pytest.param(_malformed(lambda doc: doc.update(synergies=[
        {"player": 1, "block": [0, 1], "terminal": "z1", "value": 3}])),
        "BadSynergy", id="synergy-block-member-zero"),
    pytest.param(json.dumps({**json.loads(game_path("example2.game").read_text()),
                             "info_sets": {"x6": ["x5"]}}),
                 "BadInfoSet", id="info-set-named-after-another-node"),
    pytest.param(_malformed(_set_utility(
        {"combinator": "weighted", "weights": {"1": 2, "9": 2, "P1": 2}})),
        "BadWeight", id="weight-of-no-player"),
    pytest.param(_malformed(lambda doc: doc.update(format_version=True)),
                 "UnknownField", id="boolean-format-version"),
    pytest.param(_malformed(lambda doc: doc["nodes"]["z1"].update(
        payoffs=[float("nan"), 2, 0])), "SyntaxError", id="nan-payoff"),
    pytest.param(_malformed(lambda doc: None, chance={"z1": 0.5, "z2": 0.5}),
                 "BadChanceDistribution", id="chance-root-with-a-player"),
    pytest.param(_malformed(_chance_root_in_a_set, chance={"z1": 0.5, "z2": 0.5}),
                 "BadInfoSet", id="chance-root-in-an-info-set"),
    pytest.param(_malformed(lambda doc: None, chance={"z1": 1e400, "z2": 0}),
                 "SyntaxError", id="infinite-probability"),
    pytest.param(_malformed(lambda doc: None).replace(
        "[1, 2, 0]", f"[{'9' * 5000}, 2, 0]"), "SyntaxError", id="overlong-integer"),
    pytest.param("[" * 100_000 + "]" * 100_000, "SyntaxError", id="deep-nesting"),
    pytest.param(_malformed(lambda doc: doc["nodes"]["z1"].update(
        payoffs=["1/0", 2, 0])), "SyntaxError", id="rational-with-zero-denominator"),
    pytest.param(_malformed(lambda doc: doc["nodes"]["z1"].update(
        payoffs=["x", 2, 0])), "SyntaxError", id="non-numeric-payoff-string"),
    pytest.param(_malformed(lambda doc: None, chance={"z1": "1/3 ", "z2": "2/3"}),
                 "SyntaxError", id="rational-with-trailing-space"),
    pytest.param(_malformed(_set_utility(
        {"combinator": "weighted", "weights": {"1": "2/-3"}})), "SyntaxError",
        id="rational-with-negative-denominator"),
    pytest.param(_malformed(lambda doc: doc.update(synergies=[
        {"player": 1, "block": [1, 2], "terminal": "z1", "value": "1.5/2"}])),
        "SyntaxError", id="rational-with-decimal-numerator"),
    pytest.param(b"\xff\xfe{\x00}\x00", "SyntaxError", id="not-utf-8"),
    pytest.param(None, "NotAFile", id="directory"),
])
def test_malformed_input_is_a_typed_error(tmp_path, capsys, text, code):
    # A str is a game text; bytes are a file that is not UTF-8 text, and
    # None a directory in place of the file, which only `cefg` reads.
    bad = tmp_path / "bad.game"
    if isinstance(text, str):
        with pytest.raises((GameFormatError, GameValidationError), match=code):
            load_game_text(text)
        bad.write_text(text)
    elif isinstance(text, bytes):
        bad.write_bytes(text)
    else:
        bad.mkdir()
    exit_code, _, err = run(capsys, "solve", str(bad))
    assert exit_code == 2
    assert code in err


@pytest.mark.parametrize("name,loop", [
    pytest.param("loop.game", True, id="symlink-loop"),
    pytest.param("a" * 300 + ".game", False, id="overlong-name"),
])
def test_unreadable_path_is_a_typed_error(tmp_path, capsys, name, loop):
    bad = tmp_path / name
    if loop:
        bad.symlink_to(bad)
    exit_code, out, err = run(capsys, "solve", str(bad))
    assert exit_code == 2
    assert out == ""
    assert "NotReadable" in err and str(bad) in err


def test_info_set_named_apart_from_its_node(tmp_path, capsys):
    # A one-node information set under its own name is the same game as
    # the undeclared set: the text outputs match, and nothing crashes.
    doc = json.loads(game_path("example2.game").read_text())
    doc["info_sets"] = {"h": ["x5"]}
    game = tmp_path / "named.game"
    game.write_text(json.dumps(doc))
    for argv in (["solve"], ["trace"]):
        code, out, _ = run(capsys, *argv, str(game))
        assert code == 0
        assert out == run(capsys, *argv, str(game_path("example2.game")))[1]
    code, out, _ = run(capsys, "solve", str(game), "--format", "json")
    assert code == 0
    actions = expand_v1_entries(json.loads(out))["x7/x7"]["actions"]
    assert "h" in actions and "x5" not in actions


def test_deep_chain_loads_in_linear_time():
    # A quadratic build takes seconds at this depth.
    text = chain_text(2000)
    start = time.perf_counter()
    tree, _ = load_game_text(text)
    assert time.perf_counter() - start < 1.0
    assert len(tree.subgame_roots) == 4001


@pytest.mark.parametrize("argv", [["solve"], ["bi"], ["solve", "--format", "json"]],
                         ids=["solve", "bi", "solve-json"])
def test_deep_chain_solves_without_a_depth_limit(tmp_path, capsys, argv):
    # The solvers walk subgames innermost first, so no depth reaches
    # Python's recursion limit.
    game = tmp_path / "chain.game"
    game.write_text(chain_text(2000))
    code, out, err = run(capsys, argv[0], str(game), *argv[1:])
    assert code == 0
    assert err == ""
    assert out


@pytest.mark.parametrize("depth,exit_code", [(5, 0), (6, 0), (7, 3)])
def test_wide_layer_beyond_the_profile_bound_is_a_solver_error(
        tmp_path, capsys, depth, exit_code):
    # Depth 6 is a layer of 16,384 pure profiles, exactly at the bound;
    # depth 7 has 4,194,304, and is refused before any strategy is built.
    game = tmp_path / "wide.game"
    game.write_text(wide_layer_text(depth))
    start = time.perf_counter()
    code, out, err = run(capsys, "solve", str(game))
    assert code == exit_code
    if exit_code:
        assert time.perf_counter() - start < 5.0
        assert out == ""
        assert "layer at r has 4194304 pure profiles" in err
    else:
        assert out.startswith("outcome: ")
