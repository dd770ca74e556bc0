"""Model layer: validation, utilities, merged views, subgame structure."""

import ast
import json
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, count, product
from pathlib import Path

import pytest

import cefg

from cefg import (
    GameValidationError,
    InfeasibleCoalition,
    load_game,
    load_game_text,
    parse_game,
    validate_game,
)
from cefg.model import (
    GameTree,
    Node,
    Valuation,
    block_containing,
    block_value,
    dist_payoffs,
    individual_values,
    singleton_partition,
)
from cefg.oracle import random_game
from cefg.ri import _Solver, walk_entries
from conftest import GAMES, cycle_text, make_game_text, spanning_set_text


def test_abortion_fixture_validates(abortion):
    tree, utils = abortion
    assert tree.n_players == 3
    assert len(tree.terminal_ids) == 6
    assert tree.is_perfect_information
    assert utils.combinator == "min"


def test_trivial_single_terminal_game():
    tree, utils = load_game_text(make_game_text({"z": [0]}, players=1))
    assert tree.terminal_ids == ("z",)
    assert tree.decision_ids == ()


def test_cycle_detected():
    text = make_game_text({
        "r": {"player": 1, "actions": {"a": "m", "b": "z"}},
        "m": {"player": 2, "actions": {"c": "r", "d": "z2"}},
        "z": [1, 2, 3], "z2": [3, 2, 1],
    })
    with pytest.raises(GameValidationError) as err:
        load_game_text(text)
    assert "CycleDetected" in err.value.codes()


def test_two_parents_is_a_cycle_violation():
    text = make_game_text({
        "r": {"player": 1, "actions": {"a": "z", "b": "z"}},
        "z": [1, 2, 3],
    })
    with pytest.raises(GameValidationError) as err:
        load_game_text(text)
    assert "CycleDetected" in err.value.codes()


@pytest.mark.parametrize("nodes,violations", [
    ({"r": {"player": 1, "actions": {"a": "x", "b": "y"}},
      "x": {"player": 2, "actions": {"c": "z", "d": "z1"}},
      "y": {"player": 3, "actions": {"e": "z", "f": "z2"}},
      "z": [1, 2, 3], "z1": [2, 3, 1], "z2": [3, 1, 2], "lost": [0, 0, 0]},
     [("CycleDetected", "node z has two parents (x and y)"),
      ("UnreachableNode", "nodes not reachable from root: lost")]),
    ({"r": {"player": 1, "actions": {"a": "r", "b": "z"}}, "z": [1, 2, 3]},
     [("CycleDetected", "root r appears as a child of r")]),
])
def test_a_cycle_is_reported_once_and_unreachable_nodes_still_are(nodes, violations):
    with pytest.raises(GameValidationError) as err:
        load_game_text(make_game_text(nodes, root="r"))
    assert err.value.violations == violations


def test_payoff_length_mismatch():
    text = make_game_text({
        "r": {"player": 1, "actions": {"a": "z1", "b": "z2"}},
        "z1": [1, 2], "z2": [3, 2, 1],
    })
    with pytest.raises(GameValidationError) as err:
        load_game_text(text)
    assert "PayoffLengthMismatch" in err.value.codes()


def test_info_set_action_mismatch():
    text = make_game_text({
        "r": {"player": 1, "actions": {"a": "m1", "b": "m2"}},
        "m1": {"player": 2, "actions": {"x": "z1", "y": "z2"}},
        "m2": {"player": 2, "actions": {"x": "z3", "w": "z4"}},
        "z1": [1, 1, 1], "z2": [2, 2, 2], "z3": [3, 3, 3], "z4": [4, 4, 4],
    }, info_sets={"h": ["m1", "m2"]})
    with pytest.raises(GameValidationError) as err:
        load_game_text(text)
    assert "InfoSetActionMismatch" in err.value.codes()


def test_bad_chance_distribution():
    text = make_game_text({
        "r": {"actions": {"a": "z1", "b": "z2"}},
        "z1": [1, 2, 3], "z2": [3, 2, 1],
    }, chance={"z1": 0.7, "z2": 0.7})
    with pytest.raises(GameValidationError) as err:
        load_game_text(text)
    assert "BadChanceDistribution" in err.value.codes()


def test_chance_sum_is_exact():
    text = make_game_text({
        "r": {"actions": {"a": "z1", "b": "z2"}},
        "z1": [1, 2, 3], "z2": [3, 2, 1],
    }, chance={"z1": 0.5, "z2": 0.4999999999})
    with pytest.raises(GameValidationError) as err:
        load_game_text(text)
    assert "BadChanceDistribution" in err.value.codes()

    # 0.1 + 0.2 + 0.7 is 1 in decimal, though not in binary floats.
    text = make_game_text({
        "r": {"actions": {"a": "z1", "b": "z2", "c": "z3"}},
        "z1": [1, 2, 3], "z2": [3, 2, 1], "z3": [2, 2, 2],
    }, chance={"z1": 0.1, "z2": 0.2, "z3": 0.7})
    tree, _ = load_game_text(text)
    assert sum(tree.chance_at_root.values()) == 1


def test_missing_coalition_utility_in_table_mode():
    text = make_game_text({
        "r": {"player": 1, "actions": {"a": "z1", "b": "z2"}},
        "z1": [1, 2], "z2": [2, 1],
    }, players=2, utility={"table": {"1,2": {"z1": 1}}})
    with pytest.raises(GameValidationError) as err:
        load_game_text(text)
    assert "MissingCoalitionUtility" in err.value.codes()


def test_two_table_keys_for_one_coalition_are_reported():
    # A spec built in code skips the parser, so validation makes the check.
    spec = replace(parse_game(make_game_text({
        "r": {"player": 1, "actions": {"a": "z1", "b": "z2"}},
        "z1": [1, 2], "z2": [2, 1],
    }, players=2)), utility={"table": {(1, 2): {"z1": 1, "z2": 1},
                                       (2, 1): {"z1": 5, "z2": 5}}})
    with pytest.raises(GameValidationError) as err:
        validate_game(spec)
    assert "BadCoalition" in err.value.codes()
    assert "[1, 2] and [2, 1]" in str(err.value)


def test_imperfect_recall_detected():
    # Player 1 moves at the root and then forgets its own move.
    text = make_game_text({
        "r": {"player": 1, "actions": {"a": "m1", "b": "m2"}},
        "m1": {"player": 1, "actions": {"x": "z1", "y": "z2"}},
        "m2": {"player": 1, "actions": {"x": "z3", "y": "z4"}},
        "z1": [1, 0, 0], "z2": [2, 0, 0], "z3": [3, 0, 0], "z4": [4, 0, 0],
    }, info_sets={"h": ["m1", "m2"]})
    with pytest.raises(GameValidationError) as err:
        load_game_text(text)
    assert "ImperfectRecall" in err.value.codes()


# -- coalition and individual utilities ----------------------------------------


def test_min_coalition_utility_known_values(abortion, example2):
    tree_a, utils_a = abortion
    # (1,3,2) and (3,2,1) for coalition {2,3}
    assert utils_a.coalition_value({2, 3}, "z1", tree_a) == 2
    assert utils_a.coalition_value({2, 3}, "z2", tree_a) == 1
    tree_e, utils_e = example2
    # (6,3,5) and (1,1,6) for coalition {1,3}
    assert utils_e.coalition_value({1, 3}, "z8", tree_e) == 5
    assert utils_e.coalition_value({1, 3}, "z7", tree_e) == 1


def test_singleton_utility_is_own_payoff(example2):
    tree, utils = example2
    for z in tree.terminal_ids:
        for i in (1, 2, 3):
            assert utils.coalition_value({i}, z, tree) == tree.nodes[z].payoffs[i - 1]


def test_min_combinator_exhaustive(example2):
    tree, utils = example2
    for size in (2, 3):
        for members in combinations((1, 2, 3), size):
            for z in tree.terminal_ids:
                expected = min(tree.nodes[z].payoffs[i - 1] for i in members)
                assert utils.coalition_value(members, z, tree) == expected


def test_an_unknown_combinator_is_refused_where_a_coalition_is_valued(example2):
    # The parser refuses an unknown combinator; a `UtilitySystem` built in
    # code with one fails at the first merged value, and a singleton's value
    # never reads the combinator.
    tree, utils = example2
    odd = replace(utils, combinator="max")
    assert odd.coalition_value({2}, "z8", tree) == 3
    with pytest.raises(ValueError, match="unknown combinator 'max'"):
        odd.coalition_value({1, 3}, "z8", tree)


def test_infeasible_coalition_rejected():
    text = make_game_text({
        "r": {"player": 1, "actions": {"a": "z1", "b": "z2"}},
        "z1": [1, 2, 3], "z2": [3, 2, 1],
    }, feasible=[[2, 3]])
    tree, utils = load_game_text(text)
    assert utils.coalition_value({2, 3}, "z1", tree) == 2
    with pytest.raises(InfeasibleCoalition):
        utils.coalition_value({1, 2}, "z1", tree)
    # Read through the tables: only the feasible value is stored.
    valuation = Valuation(tree, utils)
    pure = (("z1", Fraction(1)),)
    assert block_value((2, 3), pure, ((1,), (2, 3)), valuation) == 2
    for block in ((1, 2), (1, 3), (1, 2, 3)):
        with pytest.raises(InfeasibleCoalition):
            block_value(block, pure, (block,), valuation)
    assert set(valuation.coalitions) == {((2, 3), "z1")}


def test_individual_values_are_each_players_block_value():
    # Every memo entry's dist and partition in solves of the goldens (the
    # chance root, mixed layers), of example2 under a chance root with a
    # synergy, and of random draws with synergies or tables.
    from test_oracle import _digest_game, _with_utility_kind
    golden = sorted(GAMES.glob("*.game"))
    golden += sorted((Path(__file__).parent / "golden").glob("*.game"))
    games = [load_game(path) for path in golden]
    games.append(load_game_text(json.dumps(_digest_game())))
    rng = random.Random(2323)
    for kind in ("synergy", "table") * 40:
        tree, utils = random_game(rng, max_players=4, max_nodes=20)
        games.append((tree, _with_utility_kind(rng, tree, utils, kind)))
    seen = {"named": 0, "overridden": 0, "mixed": 0}
    for tree, utils in games:
        solver = _Solver(tree, utils)
        solver.solve(tree.root, singleton_partition(tree.n_players))
        named = {s.terminal for s in utils.synergies}
        for entry in (e for memo in solver.memo.values() for e in memo.values()):
            dist, partition = entry.dist, entry.partition
            values = individual_values(dist, partition, solver.valuation)
            assert values == tuple(block_value((i,), dist, partition, solver.valuation)
                                   for i in range(1, tree.n_players + 1))
            payoffs = tree.nodes[dist[0][0]].payoffs
            if len(dist) > 1:
                seen["mixed"] += 1
            elif dist[0][0] not in named:
                assert values is payoffs
            else:
                seen["named"] += 1
                seen["overridden"] += values != payoffs
    assert all(seen.values()), seen


def test_repeated_member_is_not_a_coalition(example2):
    tree, utils = example2
    assert utils.is_feasible((1, 2)) and utils.is_feasible((2, 3, 1))
    for members in ((1, 1), (2, 2, 3), (3, 3, 3)):
        assert not utils.is_feasible(members)
        with pytest.raises(InfeasibleCoalition):
            utils.coalition_value(members, "z8", tree)


def test_individual_utility_default_and_synergy(example2):
    tree, utils = example2
    # No synergies: identity, whatever the partition.
    assert utils.individual_value(3, "z8", ((1, 3), (2,)), tree) == 5
    assert utils.individual_value(1, "z8", ((1,), (2,), (3,)), tree) == 6

    text = make_game_text({
        "r": {"player": 1, "actions": {"a": "z1", "b": "z2"}},
        "z1": [1, 2, 3], "z2": [3, 2, 1],
    }, synergies=[{"player": 1, "block": [1, 2], "terminal": "z1", "value": 7}])
    tree_s, utils_s = load_game_text(text)
    assert utils_s.individual_value(1, "z1", ((1, 2), (3,)), tree_s) == 7
    assert utils_s.individual_value(1, "z1", ((1,), (2,), (3,)), tree_s) == 1
    assert utils_s.individual_value(2, "z1", ((1, 2), (3,)), tree_s) == 2


@pytest.mark.parametrize("values", [(10, 0), (0, 10)])
def test_first_listed_synergy_wins(values):
    # Two synergies match player 1, block (1,) and z1: the first one listed
    # is the value, in `individual_value` and so in the solved outcome.
    text = make_game_text({
        "r": {"player": 1, "actions": {"a": "z1", "b": "z2"}},
        "z1": [1, 2], "z2": [3, 1],
    }, players=2, synergies=[{"player": 1, "block": [1], "terminal": "z1",
                              "value": v} for v in values])
    tree, utils = load_game_text(text)
    first = values[0]
    assert utils.individual_value(1, "z1", singleton_partition(2), tree) == first
    assert block_value((1,), (("z1", Fraction(1)),), singleton_partition(2),
                       Valuation(tree, utils)) == first
    assert cefg.solve_game(tree, utils).outcome == ((1, 2) if first else (3, 1))


# -- expected values over terminal distributions -------------------------------

UTILITY_KINDS = {
    "min": {"combinator": "min"},
    "sum": {"combinator": "sum"},
    "weighted": {"combinator": "weighted", "weights": {"1": 2, "2": 0.5}},
    "table": {"table": {"1,2": {"z1": 0.25, "z2": -4}}},
}


def _dist_game(utility):
    text = make_game_text({
        "r": {"player": 1, "actions": {"a": "z1", "b": "z2"}},
        "z1": [1.5, 2], "z2": [3, -1],
    }, players=2, utility=utility,
        synergies=[{"player": 1, "block": [1, 2], "terminal": "z1", "value": 7}])
    return load_game_text(text)


def _weighted_sum(dist, value):
    return sum((p * value(z) for z, p in dist), Fraction(0))


@pytest.mark.parametrize("kind", sorted(UTILITY_KINDS))
@pytest.mark.parametrize("dist", [
    (("z1", Fraction(1)),),
    (("z2", Fraction(1)),),
    (("z1", Fraction(1, 2)), ("z2", Fraction(1, 2))),  # an even mix
    (("z1", Fraction(1, 3)), ("z2", Fraction(2, 3))),  # two chance branches
])
def test_expected_values_equal_weighted_sums(kind, dist):
    tree, utils = _dist_game(UTILITY_KINDS[kind])
    grand, singles = ((1, 2),), ((1,), (2,))
    payoffs = {z: tree.nodes[z].payoffs for z in tree.terminal_ids}

    got = dist_payoffs(dist, tree)
    assert all(type(v) in (int, Fraction) for v in got)
    assert got == tuple(_weighted_sum(dist, lambda z: payoffs[z][k])
                        for k in range(2))

    valuation = Valuation(tree, utils)
    got = block_value((1, 2), dist, grand, valuation)
    assert type(got) in (int, Fraction)
    assert got == _weighted_sum(
        dist, lambda z: utils.coalition_value((1, 2), z, tree))

    for partition in (grand, singles):  # z1 carries a synergy under grand
        for i in (1, 2):
            got = block_value((i,), dist, partition, valuation)
            assert type(got) in (int, Fraction)
            assert got == _weighted_sum(
                dist, lambda z: utils.individual_value(i, z, partition, tree))
    assert block_value((1,), (("z1", Fraction(1)),), grand, valuation) == 7


def _golden_and_random_games():
    golden = Path(__file__).resolve().parent / "golden"
    paths = sorted(GAMES.glob("*.game")) + sorted(golden.glob("*.game"))
    rng = random.Random(15)
    return ([load_game(p) for p in paths]
            + [random_game(rng, max_nodes=20) for _ in range(40)])


def test_valuation_tables_match_the_definition():
    """Every value the solve's tables hold, and every block of every view it
    reached at every terminal, reads through `block_value` as the direct
    `coalition_value` or `individual_value`; infeasible blocks still raise."""
    for tree, utils in _golden_and_random_games():
        solver = _Solver(tree, utils)
        solver.solve(tree.root, singleton_partition(tree.n_players))
        valuation = solver.valuation
        for (block, z), value in valuation.coalitions.items():
            assert value == utils.coalition_value(block, z, tree)
        for view in solver.memo:
            for block, z in product(view, tree.terminal_ids):
                assert utils.is_feasible(block)
                direct = (utils.individual_value(block[0], z, view, tree)
                          if len(block) == 1 else utils.coalition_value(block, z, tree))
                assert block_value(block, ((z, Fraction(1)),), view, valuation) == direct
        z = tree.terminal_ids[0]
        for block in ((1, 1), (1, tree.n_players + 1)):
            for _ in range(2):  # a failed read is not stored
                with pytest.raises(InfeasibleCoalition):
                    block_value(block, ((z, Fraction(1)),), (block,), valuation)


def test_every_dist_is_a_distribution():
    """`dist_payoffs` and `block_value` read a one-terminal dist as pure, which is exact
    only while every dist has positive probabilities summing to 1."""
    for tree, utils in _golden_and_random_games():
        dists = [cefg.spne_in_subgame(tree, utils).dist]
        profile = cefg.solve_game(tree, utils)
        dists += [entry.dist for entry in walk_entries(profile.contexts().values())]
        for dist in dists:
            assert dist and all(p > 0 for _, p in dist)
            assert sum(p for _, p in dist) == 1


# -- subgames, subtrees, supergames ---------------------------------------------


def test_subgame_at_x5(example2):
    tree, _ = example2
    assert "x5" in tree.subgame_roots
    nodes = tree.subtree_nodes("x5")
    decisions = [n for n in nodes if n in tree.decision_ids]
    terminals = [n for n in nodes if tree.nodes[n].is_terminal]
    p3_nodes = [n for n in decisions if tree.nodes[n].player == 3]
    p2_nodes = [n for n in decisions if tree.nodes[n].player == 2]
    assert len(p3_nodes) == 2 and len(p2_nodes) == 1 and len(terminals) == 4


def test_subgame_at_root_and_terminal(example2):
    tree, _ = example2
    assert {"x7", "z1"} <= tree.subgame_roots
    assert len(tree.subtree_nodes("x7")) == len(tree.nodes)
    assert set(tree.subtree_nodes("z1")) == {"z1"}


def test_root_of_in_perfect_information(example2):
    tree, _ = example2
    # Each decision node roots the smallest subgame holding its info set.
    for nid in tree.decision_ids:
        assert nid in tree.subgame_roots
        assert tree.layer_info_sets(nid) == (tree.info_set_of(nid),)


def test_layer_decomposition_is_a_lookup_on_subgame_roots():
    golden = Path(__file__).resolve().parent / "golden"
    tree, _ = cefg.load_game(golden / "layered.game")
    assert tree.frontier_of("r0") == ("z0_00", "r1", "z0_10", "z0_11")
    assert tree.layer_info_sets("r0") == ("r0", "h0")
    assert tree.layer_info_sets("r2") == ("r2", "h2")
    assert tree.layer_info_sets("z0_00") == tree.frontier_of("z0_00") == ()
    assert tree.movers["r0"] == {1, 2} and tree.movers["c2_0"] == {2}
    assert tree.movers["z0_00"] == frozenset()
    with pytest.raises(KeyError):
        tree.frontier_of("c0_0")  # inside r0's layer, not a subgame root
    tree, _ = cefg.load_game(golden / "chance-layers.game")
    assert tree.frontier_of("root") == ("a0", "b0")
    assert tree.layer_info_sets("root") == ()
    assert tree.layer_info_sets("b0") == ("b0", "hb")


def test_one_node_layers_are_roots_alone_in_their_layer(example2):
    tree, _ = example2
    decision_roots = tree.subgame_roots - set(tree.terminal_ids)
    assert decision_roots and tree.one_node_layers == decision_roots
    golden = Path(__file__).resolve().parent / "golden"
    tree, _ = cefg.load_game(golden / "layered.game")
    assert {"r0", "r1", "r2"} <= tree.subgame_roots
    assert tree.one_node_layers == frozenset()
    tree, _ = cefg.load_game(golden / "chance-layers.game")
    assert tree.nodes["root"].player is None and "root" in tree.subgame_roots
    assert "root" not in tree.one_node_layers
    assert not tree.one_node_layers & set(tree.terminal_ids)
    # A singleton set named apart from its node is still a one-node layer.
    doc = json.loads((GAMES / "example2.game").read_text())
    doc["info_sets"] = {"h": ["x5"]}
    tree, _ = load_game_text(json.dumps(doc))
    assert tree.layer_info_sets("x5") == ("h",) and "x5" in tree.one_node_layers


def test_layer_order_puts_each_set_after_the_sets_below_it():
    # H = {a1, a2} has a1 under the chain r, c1, c2, c3 and a2 beside it.
    tree, _ = load_game_text(spanning_set_text(3))
    order = tree.layer_order("r")
    assert order == ("H", "c3", "c2", "c1", "r")
    assert tree.layer_order("r") is order
    below = {"H": set(), "c3": {"H"}, "c2": {"c3", "H"}, "c1": {"c2", "c3", "H"},
             "r": {"c1", "c2", "c3", "H"}}
    assert {(s, t) for s in order for t in order if s != t and tree.set_below(s, t)} == {
        (s, t) for t in order for s in below[t]}
    tree, _ = load_game_text(cycle_text())
    assert tree.layer_order("r") is None


SIMULTANEOUS_GADGET = make_game_text({
    "top": {"player": 1, "actions": {"out": "zo", "in": "y"}},
    "y": {"player": 2, "actions": {"l": "yl", "r": "yr"}},
    "yl": {"player": 3, "actions": {"u": "z1", "v": "z2"}},
    "yr": {"player": 3, "actions": {"u": "z3", "v": "z4"}},
    "zo": [0, 0, 0], "z1": [1, 2, 3], "z2": [2, 3, 1],
    "z3": [3, 1, 2], "z4": [1, 3, 2],
}, info_sets={"h3": ["yl", "yr"]})


def test_subtree_and_root_of_in_simultaneous_gadget():
    tree, _ = load_game_text(SIMULTANEOUS_GADGET)
    # y is the last singleton ancestor: h3 lies in the layer of y's subgame.
    assert "y" in tree.subgame_roots and "h3" in tree.layer_info_sets("y")
    assert "h3" not in tree.layer_info_sets("top")
    nodes = set(tree.subtree_nodes("yl")) | set(tree.subtree_nodes("yr"))
    assert nodes == {"yl", "yr", "z1", "z2", "z3", "z4"}
    assert "yl" not in tree.subgame_roots


# -- subtrees and subgame roots against their definitions ----------------------


def _naive_subtree(tree, nid) -> list:
    """The subtree at `nid`, by depth-first search, children in declaration
    order."""
    out, stack = [], [nid]
    while stack:
        cur = stack.pop()
        out.append(cur)
        stack.extend(c for _, c in reversed(tree.nodes[cur].actions))
    return out


def _naive_subgame_roots(tree) -> set:
    """The root, the terminals, and every decision node with a singleton
    information set whose subtree holds each information set it touches
    whole."""
    roots = set()
    for nid, node in tree.nodes.items():
        if node.is_terminal or nid == tree.root:
            roots.add(nid)
            continue
        if node.player is None or len(tree.info_sets[tree.info_set_of(nid)]) != 1:
            continue
        inside = set(_naive_subtree(tree, nid))
        if all(sum(m in inside for m in members) in (0, len(members))
               for members in tree.info_sets.values()):
            roots.add(nid)
    return roots


def _assert_matches_definition(tree):
    assert tree.subgame_roots == _naive_subgame_roots(tree)
    for root in tree.nodes:
        below = _naive_subtree(tree, root)
        assert tree.subtree_nodes(root) == below
        for nid in tree.nodes:
            assert tree.in_subtree(nid, root) == (nid in below)


def _random_tree(rng) -> GameTree:
    """A random tree, sometimes under a chance root, whose decision nodes
    fall into random information sets (perfect recall not required)."""
    nodes, ids = {}, (f"n{k}" for k in count())

    def grow(depth):
        nid = next(ids)
        if depth == 0 or (depth < 4 and rng.random() < 0.3):  # root decides
            nodes[nid] = Node(nid, payoffs=(Fraction(0), Fraction(0)))
        else:
            kids = [grow(depth - 1) for _ in range(rng.randint(1, 3))]
            nodes[nid] = Node(nid, player=rng.randint(1, 2), actions=tuple(
                (f"a{k}", kid) for k, kid in enumerate(kids)))
        return nid

    chance = None
    if rng.random() < 0.3:
        root = next(ids)
        kids = [grow(3) for _ in range(rng.randint(2, 3))]
        nodes[root] = Node(root, actions=tuple(
            (f"c{k}", kid) for k, kid in enumerate(kids)))
        chance = {kid: Fraction(1, len(kids)) for kid in kids}
    else:
        root = grow(4)
    decisions = [nid for nid, node in nodes.items() if node.player is not None]
    rng.shuffle(decisions)
    info_sets = {}
    while decisions:
        size = rng.choice((1, 1, 2, 3))
        info_sets[f"h{len(info_sets)}"], decisions = decisions[:size], decisions[size:]
    return GameTree(nodes, root, ("P1", "P2"), info_sets, chance)


def test_subtrees_and_subgame_roots_match_definition(abortion, example2,
                                                       example2_modified):
    for tree, _ in (abortion, example2, example2_modified,
                    load_game_text(SIMULTANEOUS_GADGET)):
        _assert_matches_definition(tree)
    rng = random.Random(20)
    inner_roots = inner_others = chance_roots = 0
    for _ in range(250):
        tree = _random_tree(rng)
        _assert_matches_definition(tree)
        chance_roots += tree.chance_at_root is not None
        inner_roots += sum(nid in tree.subgame_roots for nid in tree.decision_ids
                           if nid != tree.root)
        inner_others += sum(nid not in tree.subgame_roots
                            for nid in tree.decision_ids)
    # The sample exercises every branch of the rule.
    assert chance_roots > 30 and inner_roots > 100 and inner_others > 100


def _reads_tree_internal(node) -> bool:
    """`tree._x` or `<expr>.tree._x`."""
    if not (isinstance(node, ast.Attribute) and node.attr.startswith("_")):
        return False
    owner = node.value
    return ((isinstance(owner, ast.Name) and owner.id == "tree")
            or (isinstance(owner, ast.Attribute) and owner.attr == "tree"))


def test_only_the_model_reads_tree_internals():
    offenders = []
    for path in sorted(Path(cefg.__file__).parent.glob("*.py")):
        if path.name == "model.py":
            continue
        offenders.extend(f"{path.name}:{node.lineno} .{node.attr}"
                         for node in ast.walk(ast.parse(path.read_text()))
                         if _reads_tree_internal(node))
    assert offenders == []


def _checked_views(tree, utils) -> set:
    """The views of the solver's audit, each checked to be a canonical
    partition of 1..n (sorted blocks, ordered by smallest member) whose
    blocks are feasible: what merging whole blocks into a feasible union
    yields."""
    views = {step.view for step in cefg.solve_game(tree, utils).audit}
    for view in views:
        assert all(list(b) == sorted(b) for b in view)
        assert [b[0] for b in view] == sorted({b[0] for b in view})
        assert sorted(sum(view, ())) == list(range(1, tree.n_players + 1))
        assert all(utils.is_feasible(b) for b in view)
    return views


def test_solver_views_are_canonical_partitions_of_feasible_blocks(example2):
    restricted = load_game_text(make_game_text({
        "r": {"player": 1, "actions": {"a": "m", "b": "z3"}},
        "m": {"player": 2, "actions": {"c": "z1", "d": "z2"}},
        "z1": [1, 2, 3, 4], "z2": [4, 3, 2, 1], "z3": [2, 4, 1, 3],
    }, players=4, feasible=[[1, 3], [2, 4], [1, 2, 4]]))
    assert ((1, 3), (2, 4)) in _checked_views(*restricted)
    assert {((1, 3), (2,)), ((1, 2, 3),)} <= _checked_views(*example2)
    rng = random.Random(16)
    for tree, utils in (_golden_and_random_games()
                        + [random_game(rng, max_players=4) for _ in range(40)]):
        _checked_views(tree, utils)


def test_subgame_partition_of_terminals(example2):
    tree, _ = example2
    whole = tree.subtree_nodes("x7")
    assert len(whole) == len(tree.nodes)
    left = set(tree.subtree_nodes("x5")) & set(tree.terminal_ids)
    right = set(tree.subtree_nodes("x6")) & set(tree.terminal_ids)
    assert left | right == set(tree.terminal_ids)
    assert not left & right


def _coalitions_with(utils, i):
    """Feasible coalitions containing `i`: size ascending, then lexicographic."""
    players = range(1, utils.n_players + 1)
    return [m for size in players for m in combinations(players, size)
            if i in m and utils.is_feasible(m)]


def test_feasible_coalitions_containing(example2):
    tree, utils = example2
    assert _coalitions_with(utils, 1) == [(1,), (1, 2), (1, 3), (1, 2, 3)]

    singles = utils.restricted_to_singletons()
    for i in (1, 2, 3):
        assert _coalitions_with(singles, i) == [(i,)]

    text = make_game_text({
        "r": {"player": 1, "actions": {"a": "z1", "b": "z2"}},
        "z1": [1, 2, 3], "z2": [3, 2, 1],
    }, feasible=[[2, 3]])
    _, utils_r = load_game_text(text)
    assert _coalitions_with(utils_r, 1) == [(1,)]
    assert _coalitions_with(utils_r, 2) == [(2,), (2, 3)]


def test_validate_game_via_parse():
    from conftest import game_path
    spec = parse_game(game_path("example2.game").read_text())
    tree, utils = validate_game(spec)
    assert len(tree.terminal_ids) == 8
