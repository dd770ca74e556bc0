"""Brute-force oracle: definitions re-derived, cross-checks, negative control."""

import importlib.util
import json
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from cefg import TooLarge, backward_induction, load_game, load_game_text, solve_game
from cefg.model import Synergy
from cefg.oracle import (
    OracleReport,
    equivalence_check,
    game_digest,
    oracle_bi,
    oracle_solve,
    random_game,
)
from conftest import game_path, make_game_text

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = Path(__file__).resolve().parent / "golden"


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


@pytest.mark.parametrize("game, refusal", [
    ("layered", "perfect information only"),  # two simultaneous-move layers
    ("chance-perfect", "does not handle chance moves"),  # perfect information
])
def test_oracle_bi_refuses_what_it_does_not_enumerate(game, refusal):
    tree, utils = load_game(GOLDEN / f"{game}.game")
    with pytest.raises(TooLarge, match=refusal):
        oracle_bi(tree, utils)


@pytest.mark.parametrize("game", ["layered", "chance-perfect"])
def test_oracle_solve_refuses_imperfect_information_and_chance(game):
    tree, utils = load_game(GOLDEN / f"{game}.game")
    with pytest.raises(TooLarge, match="handles perfect information, no chance"):
        oracle_solve(tree, utils, max_nodes=len(tree.nodes))


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


def test_equivalence_check_without_standalone_entries_keeps_the_root(example2):
    # A stub profile with no `standalone_entry` cannot be searched below the
    # root, so the divergence stays where the outcomes differ.
    tree, utils = example2

    def corrupted(t, u):
        profile = solve_game(t, u)

        class Fake:
            outcome = tuple(v + 1 for v in profile.outcome)
            partition = profile.partition

        return Fake()

    report = equivalence_check(tree, utils, solver=corrupted)
    assert not report.match
    assert report.first_divergence == (tree.root, "outcome")


@pytest.mark.parametrize("field,value", [
    ("outcome", (9, 9, 9)),
    ("partition", ((1, 2, 3),)),
])
def test_equivalence_check_localizes_a_divergence_below_the_root(example2, field,
                                                                 value):
    # The stub differs at the root and, standing alone, at x5 alone.
    tree, utils = example2

    def corrupted(t, u):
        profile = solve_game(t, u)

        class Fake:
            outcome = tuple(v + 1 for v in profile.outcome)
            partition = profile.partition

            @staticmethod
            def standalone_entry(nid):
                entry = profile.standalone_entry(nid)
                return entry._replace(**{field: value}) if nid == "x5" else entry

        return Fake()

    report = equivalence_check(tree, utils, solver=corrupted)
    assert not report.match
    assert report.first_divergence == ("x5", field)


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


def test_singletons_only_has_one_form_and_one_digest():
    # A game whose feasible list is empty and the same game restricted to
    # singletons in code are one game: one utility system, one digest.
    doc = json.loads(game_path("example2.game").read_text())
    listed = load_game_text(json.dumps(
        {**doc, "coalitions": {**doc["coalitions"], "feasible": []}}))
    tree, utils = load_game_text(json.dumps(doc))
    assert game_digest(tree, utils.restricted_to_singletons()) == game_digest(*listed)
    assert utils.restricted_to_singletons() == listed[1]


def _with_utility_kind(rng, tree, utils, kind):
    """`random_game`'s all-feasible `min` utilities, swapped for `kind`."""
    n = tree.n_players
    players = range(1, n + 1)
    blocks = [b for size in range(2, n + 1) for b in combinations(players, size)]
    if kind == "sum":
        return replace(utils, combinator="sum")
    if kind == "weighted":
        weights = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in players)
        return replace(utils, combinator="weighted", weights=weights)
    if kind == "table":
        table = {b: {z: Fraction(rng.randint(-50, 50)) for z in tree.terminal_ids}
                 for b in blocks}
        return replace(utils, combinator=None, table=table)
    if kind == "feasible":
        return replace(utils, feasible=frozenset(rng.sample(blocks, rng.randint(0, len(blocks)))))
    assert kind == "synergy"
    synergies = []
    for _ in range(rng.randint(1, 6)):
        block = rng.choice(blocks)
        synergies.append(Synergy(rng.choice(block), block, rng.choice(tree.terminal_ids),
                                 Fraction(rng.randint(1, 200))))
    return replace(utils, synergies=tuple(synergies))


@pytest.mark.parametrize("kind", ["sum", "weighted", "table", "feasible", "synergy"])
def test_solver_matches_oracle_on_every_utility_kind(kind):
    rng = random.Random(18)
    for _ in range(80):
        tree, utils = random_game(rng)
        utils = _with_utility_kind(rng, tree, utils, kind)
        profile, reference = solve_game(tree, utils), oracle_solve(tree, utils)
        assert (profile.outcome, profile.partition) == (reference.outcome,
                                                        reference.partition)


def _perfbench_gen():
    """The benchmark's game generator, loaded from its file without putting
    `perfbench/` on the import path."""
    path = PERFBENCH / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_oracle_reproduces_the_committed_benchmark_references():
    # Seed 1's `chains` games and its `coalitions` games of at most four
    # players: the fixtures, twelve pool games and twelve chains.
    gen = _perfbench_gen()
    refs = {}
    for workload in ("coalitions", "chains"):
        refs.update(json.loads((PERFBENCH / "refs" / f"{workload}.json").read_text()))
    games = [load_game_text(text) + (text,)
             for workload in ("coalitions", "chains")
             for _, text in gen.workload_games(workload, 1)]
    games = [g for g in games if g[0].n_players <= 4]
    assert len(games) == 27
    systems = [utils for _, utils, _ in games]
    assert {u.combinator for u in systems} >= {"min", "sum", "weighted"}
    assert any(u.table is not None for u in systems)
    assert any(u.synergies for u in systems)
    assert any(u.feasible is not None for u in systems)
    for tree, utils, text in games:
        sol = oracle_solve(tree, utils, max_nodes=len(tree.nodes),
                           max_players=tree.n_players)
        assert refs[gen.text_digest(text)] == {
            "outcome": [str(v) for v in sol.outcome],
            "partition": [list(b) for b in sol.partition]}


def test_oracle_never_reads_solver_internals():
    import ast
    import cefg.oracle as mod
    with open(mod.__file__) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ri":
            names = {a.name for a in node.names}
            assert names <= {"solve_game"}, "oracle may only call the solver entry point"
        if isinstance(node, ast.ImportFrom) and node.module == "model":
            names = {a.name for a in node.names}
            assert not names & {"Valuation", "block_value"}, \
                "oracle reads UtilitySystem, not the solver's valuation tables"
