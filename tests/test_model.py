"""Model layer: validation, utilities, views, subgame structure."""

from fractions import Fraction

import pytest

from cefg import (
    GameValidationError,
    InfeasibleCoalition,
    NotASubgameRoot,
    build_supergame,
    coalition_utility,
    feasible_coalitions_containing,
    individual_utility,
    load_game_text,
    parse_game,
    root_of,
    subgame_at,
    subtree_at,
    validate_game,
)
from cefg.model import dist_payoffs, expected_coalition_value, expected_individual_value
from conftest import make_game_text


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
    assert coalition_utility({2, 3}, "z1", utils_a, tree_a) == 2
    assert coalition_utility({2, 3}, "z2", utils_a, tree_a) == 1
    tree_e, utils_e = example2
    # (6,3,5) and (1,1,6) for coalition {1,3}
    assert coalition_utility({1, 3}, "z8", utils_e, tree_e) == 5
    assert coalition_utility({1, 3}, "z7", utils_e, tree_e) == 1


def test_singleton_utility_is_own_payoff(example2):
    tree, utils = example2
    for z in tree.terminal_ids:
        for i in (1, 2, 3):
            assert coalition_utility({i}, z, utils, tree) == tree.nodes[z].payoffs[i - 1]


def test_min_combinator_exhaustive(example2):
    tree, utils = example2
    from itertools import combinations
    for size in (2, 3):
        for members in combinations((1, 2, 3), size):
            for z in tree.terminal_ids:
                expected = min(tree.nodes[z].payoffs[i - 1] for i in members)
                assert coalition_utility(members, z, utils, tree) == expected


def test_infeasible_coalition_rejected():
    text = make_game_text({
        "r": {"player": 1, "actions": {"a": "z1", "b": "z2"}},
        "z1": [1, 2, 3], "z2": [3, 2, 1],
    }, feasible=[[2, 3]])
    tree, utils = load_game_text(text)
    assert coalition_utility({2, 3}, "z1", utils, tree) == 2
    with pytest.raises(InfeasibleCoalition):
        coalition_utility({1, 2}, "z1", utils, tree)


def test_individual_utility_default_and_synergy(example2):
    tree, utils = example2
    # No synergies: identity, whatever the partition.
    assert individual_utility(3, "z8", [[1, 3], [2]], utils, tree) == 5
    assert individual_utility(1, "z8", [[1], [2], [3]], utils, tree) == 6

    text = make_game_text({
        "r": {"player": 1, "actions": {"a": "z1", "b": "z2"}},
        "z1": [1, 2, 3], "z2": [3, 2, 1],
    }, synergies=[{"player": 1, "block": [1, 2], "terminal": "z1", "value": 7}])
    tree_s, utils_s = load_game_text(text)
    assert individual_utility(1, "z1", [[1, 2], [3]], utils_s, tree_s) == 7
    assert individual_utility(1, "z1", [[1], [2], [3]], utils_s, tree_s) == 1
    assert individual_utility(2, "z1", [[1, 2], [3]], utils_s, tree_s) == 2


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
    (("z1", Fraction(1, 2)),),  # length 1 but not pure
    (("z1", Fraction(1, 3)), ("z2", Fraction(2, 3))),  # two chance branches
])
def test_expected_values_equal_weighted_sums(kind, dist):
    tree, utils = _dist_game(UTILITY_KINDS[kind])
    grand, singles = ((1, 2),), ((1,), (2,))
    payoffs = {z: tree.nodes[z].payoffs for z in tree.terminal_ids}

    got = dist_payoffs(dist, tree)
    assert all(isinstance(v, Fraction) for v in got)
    assert got == tuple(_weighted_sum(dist, lambda z: payoffs[z][k])
                        for k in range(2))

    got = expected_coalition_value((1, 2), dist, utils, tree)
    assert isinstance(got, Fraction)
    assert got == _weighted_sum(
        dist, lambda z: utils.coalition_value((1, 2), z, tree))

    for partition in (grand, singles):  # z1 carries a synergy under grand
        for i in (1, 2):
            got = expected_individual_value(i, dist, partition, utils, tree)
            assert isinstance(got, Fraction)
            assert got == _weighted_sum(
                dist, lambda z: utils.individual_value(i, z, partition, tree))
    assert expected_individual_value(1, (("z1", Fraction(1)),), grand,
                                     utils, tree) == 7


# -- subgames, subtrees, supergames ---------------------------------------------


def test_subgame_at_x5(example2):
    tree, _ = example2
    view = subgame_at(tree, "x5")
    decisions = [n for n in view.nodes if n in tree.decision_ids]
    terminals = [n for n in view.nodes if tree.nodes[n].is_terminal]
    p3_nodes = [n for n in decisions if tree.nodes[n].player == 3]
    p2_nodes = [n for n in decisions if tree.nodes[n].player == 2]
    assert len(p3_nodes) == 2 and len(p2_nodes) == 1 and len(terminals) == 4


def test_subgame_at_root_and_terminal(example2):
    tree, _ = example2
    assert len(subgame_at(tree, "x7").nodes) == len(tree.nodes)
    assert subgame_at(tree, "z1").nodes == ("z1",)


def test_root_of_in_perfect_information(example2):
    tree, _ = example2
    for nid in tree.decision_ids:
        assert root_of(tree, nid) == nid


def test_subtree_and_root_of_in_simultaneous_gadget():
    text = make_game_text({
        "top": {"player": 1, "actions": {"out": "zo", "in": "y"}},
        "y": {"player": 2, "actions": {"l": "yl", "r": "yr"}},
        "yl": {"player": 3, "actions": {"u": "z1", "v": "z2"}},
        "yr": {"player": 3, "actions": {"u": "z3", "v": "z4"}},
        "zo": [0, 0, 0], "z1": [1, 2, 3], "z2": [2, 3, 1],
        "z3": [3, 1, 2], "z4": [1, 3, 2],
    }, info_sets={"h3": ["yl", "yr"]})
    tree, _ = load_game_text(text)
    assert root_of(tree, "h3") == "y"  # last singleton ancestor
    view = subtree_at(tree, "h3")
    assert set(view.nodes) == {"yl", "yr", "z1", "z2", "z3", "z4"}
    with pytest.raises(NotASubgameRoot):
        subgame_at(tree, "yl")


def test_build_supergame_player_counts(example2):
    tree, utils = example2
    view = build_supergame(tree, utils, {1, 3})
    assert len(view.effective_players) == 2  # 3 - 2 + 1
    assert view.merged_player_of(1) == (1, 3)
    assert view.merged_player_of(2) == (2,)

    grand = build_supergame(tree, utils, {1, 2, 3})
    assert len(grand.effective_players) == 1

    text = make_game_text({
        "r": {"player": 1, "actions": {"a": "z1", "b": "z2"}},
        "z1": [1, 2, 3, 4, 5, 6], "z2": [6, 5, 4, 3, 2, 1],
    }, players=6)
    tree6, utils6 = load_game_text(text)
    view6 = build_supergame(tree6, utils6, {1, 2, 4})
    assert view6.effective_players == ((1, 2, 4), (3,), (5,), (6,))


def test_build_supergame_preserves_shape(example2):
    tree, utils = example2
    view = build_supergame(tree, utils, {2, 3})
    assert view.base is tree  # same nodes, actions, terminals


def test_subgame_partition_of_terminals(example2):
    tree, _ = example2
    whole = subgame_at(tree, "x7")
    assert len(whole.nodes) == len(set(whole.nodes))
    left = set(subgame_at(tree, "x5").nodes) & set(tree.terminal_ids)
    right = set(subgame_at(tree, "x6").nodes) & set(tree.terminal_ids)
    assert left | right == set(tree.terminal_ids)
    assert not left & right


def test_feasible_coalitions_containing(example2):
    tree, utils = example2
    assert feasible_coalitions_containing(1, utils) == [
        frozenset({1}), frozenset({1, 2}), frozenset({1, 3}), frozenset({1, 2, 3})]

    singles = utils.restricted_to_singletons()
    for i in (1, 2, 3):
        assert feasible_coalitions_containing(i, singles) == [frozenset({i})]

    text = make_game_text({
        "r": {"player": 1, "actions": {"a": "z1", "b": "z2"}},
        "z1": [1, 2, 3], "z2": [3, 2, 1],
    }, feasible=[[2, 3]])
    _, utils_r = load_game_text(text)
    assert feasible_coalitions_containing(1, utils_r) == [frozenset({1})]
    assert feasible_coalitions_containing(2, utils_r) == [
        frozenset({2}), frozenset({2, 3})]


def test_validate_game_via_parse():
    from conftest import game_path
    spec = parse_game(game_path("example2.game").read_text())
    tree, utils = validate_game(spec)
    assert len(tree.terminal_ids) == 8
