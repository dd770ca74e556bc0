"""Brute-force oracle: definitions re-derived, cross-checks, negative control."""

import json
import random

import pytest

from cefg import TooLarge, backward_induction, load_game_text, solve_game
from cefg.oracle import (
    OracleReport,
    equivalence_check,
    game_digest,
    oracle_bi,
    oracle_solve,
    random_game,
)
from conftest import game_path, make_game_text


def test_oracle_bi_abortion(abortion):
    tree, utils = abortion
    sol = oracle_bi(tree, utils)
    assert sol.outcome == (3, 2, 1)


def test_oracle_bi_single_decision_game():
    tree, utils = load_game_text(make_game_text({
        "r": {"player": 1, "actions": {"a": "z1", "b": "z2"}},
        "z1": [4, 0, 0], "z2": [2, 0, 0],
    }))
    assert oracle_bi(tree, utils).outcome == (4, 0, 0)


def test_oracle_bi_matches_backward_induction_on_random_games():
    rng = random.Random(2024)
    for _ in range(500):
        tree, utils = random_game(rng, max_depth=3, max_nodes=25)
        a = backward_induction(tree, utils)
        b = oracle_bi(tree, utils)
        assert a.outcome == b.outcome
        assert a.actions == b.actions


def test_oracle_bi_too_large_guard():
    tree, utils = load_game_text(make_game_text({
        "r": {"player": 1, "actions": {"a": "z1", "b": "z2"}},
        "z1": [1, 2, 3], "z2": [3, 2, 1],
    }))
    with pytest.raises(TooLarge):
        oracle_bi(tree, utils, max_profiles=1)


def test_oracle_solve_example2(example2):
    tree, utils = example2
    sol = oracle_solve(tree, utils)
    assert sol.outcome == (6, 3, 5)
    assert sol.partition == ((1, 3), (2,))


def test_oracle_solve_modified(example2_modified):
    tree, utils = example2_modified
    sol = oracle_solve(tree, utils)
    assert sol.outcome == (5, 5, 3)
    assert sol.partition == ((1, 2), (3,))


def test_oracle_solve_singletons_equals_oracle_bi(example2):
    tree, utils = example2
    sol = oracle_solve(tree, utils.restricted_to_singletons())
    assert sol.outcome == oracle_bi(tree, utils).outcome


def test_oracle_solve_size_guards(example2):
    tree, utils = example2
    with pytest.raises(TooLarge):
        oracle_solve(tree, utils, max_nodes=5)
    big = make_game_text({
        "r": {"player": 1, "actions": {"a": "z1", "b": "z2"}},
        "z1": [1, 2, 3, 4], "z2": [4, 3, 2, 1],
    }, players=4)
    tree4, utils4 = load_game_text(big)
    with pytest.raises(TooLarge):
        oracle_solve(tree4, utils4)


def test_equivalence_check_fixtures(abortion, example2, example2_modified):
    for tree, utils in (abortion, example2, example2_modified):
        report = equivalence_check(tree, utils)
        assert report.match
        assert report.first_divergence is None
        assert report.solver_outcome == report.oracle_outcome


def test_equivalence_check_corrupted_stub(example2):
    tree, utils = example2

    def corrupted(t, u):
        profile = solve_game(t, u)

        class Fake:
            outcome = tuple(v + 1 for v in profile.outcome)
            partition = profile.partition

            @staticmethod
            def standalone_entry(nid):
                return profile.standalone_entry(nid)

        return Fake()

    report = equivalence_check(tree, utils, solver=corrupted)
    assert not report.match
    assert report.first_divergence == ("x7", "outcome")


def test_equivalence_check_refuses_before_solving(example2):
    tree, utils = example2

    def unreachable(t, u):
        raise AssertionError("solved a game the oracle refuses")

    with pytest.raises(TooLarge):
        equivalence_check(tree, utils, solver=unreachable, max_nodes=3)


def test_digest_is_stable(example2):
    tree, utils = example2
    assert game_digest(tree, utils) == game_digest(tree, utils)
    assert len(game_digest(tree, utils)) == 12


def _digest_game(edit=None):
    """example2 under a chance root, with weights and a synergy."""
    nodes = json.loads(game_path("example2.game").read_text())["nodes"]
    nodes["c"] = {"actions": {"L": "x7", "R": "z9"}}
    nodes["z9"] = {"payoffs": [1, 1, 1]}
    doc = {
        "format_version": 1, "players": ["P1", "P2", "P3"], "root": "c",
        "nodes": nodes, "chance": {"x7": 0.5, "z9": 0.5},
        "coalitions": {"feasible": "all", "utility": {
            "combinator": "weighted", "weights": {"1": 1, "2": 1, "3": 1}}},
        "synergies": [{"player": 1, "block": [1, 3], "terminal": "z8",
                       "value": 7}],
    }
    if edit:
        edit(doc)
    return doc


def _table_game(edit=None):
    doc = json.loads(game_path("example2.game").read_text())
    doc["coalitions"] = {"feasible": [[1, 3]], "utility": {"table": {"1,3": {
        z: min(body["payoffs"][0], body["payoffs"][2])
        for z, body in doc["nodes"].items() if "payoffs" in body}}}}
    if edit:
        edit(doc)
    return doc


def _digest(doc):
    return game_digest(*load_game_text(json.dumps(doc)))


@pytest.mark.parametrize("base,edited", [
    # Moving x5 of example2 from P2 to P3 moves its RI outcome from
    # (6, 3, 5) to (4, 4, 5).
    pytest.param(_digest_game(), _digest_game(
        lambda d: d["nodes"]["x5"].update(player=3)), id="owner"),
    pytest.param(_digest_game(), _digest_game(
        lambda d: d.update(info_sets={"h": ["x5"]})), id="info-set"),
    pytest.param(_digest_game(), _digest_game(
        lambda d: d.update(chance={"x7": 0.25, "z9": 0.75})), id="chance"),
    pytest.param(_digest_game(), _digest_game(
        lambda d: d["coalitions"]["utility"]["weights"].update({"2": 2})),
        id="weights"),
    pytest.param(_digest_game(), _digest_game(
        lambda d: d["synergies"][0].update(value=8)), id="synergy"),
    pytest.param(_digest_game(), _digest_game(
        lambda d: d["nodes"]["z1"].update(payoffs=[5, 5, 4])), id="payoffs"),
    pytest.param(_table_game(), _table_game(
        lambda d: d["coalitions"]["utility"]["table"]["1,3"].update(z8=6)),
        id="table"),
])
def test_digest_sees_every_field(base, edited):
    assert _digest(base) != _digest(edited)
    assert _digest(base) == _digest(json.loads(json.dumps(base)))


def test_oracle_never_reads_solver_internals():
    import ast
    import cefg.oracle as mod
    with open(mod.__file__) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ri":
            names = {a.name for a in node.names}
            assert names <= {"solve_game"}, "oracle may only call the solver entry point"
