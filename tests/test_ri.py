"""Recursive-induction solver: fixtures, the audit's reference points and IR
chains, properties."""

import gc
import inspect
import random
import sys
import types
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from cefg import (
    CefgError,
    MixedEquilibriumUnsupported,
    UntimeableLayer,
    backward_induction,
    check_ir_invariants,
    load_game,
    load_game_text,
    oracle_solve,
    solve_game,
    spne_in_subgame,
)
from cefg.model import (
    canon_block,
    canon_partition,
    individual_values,
    singleton_partition,
)
from cefg.oracle import random_game
from cefg.render import (
    bracket_summary,
    export_dot,
    profile_to_json,
    render_solution,
    render_trace,
)
from cefg.ri import Entry, SolutionProfile, SolveStep, _Solver, walk_entries
from conftest import GAMES, chain_text, cycle_text, make_game_text


def test_abortion_ri(abortion):
    tree, utils = abortion
    prof = solve_game(tree, utils)
    assert prof.outcome == (2, 4, 3)
    assert prof.coalition is None
    assert prof.partition == ((1,), (2,), (3,))
    illegal = prof.standalone_entry("a")
    assert illegal.coalition == (2, 3)
    assert illegal.outcome == (1, 3, 2)
    assert illegal.actions == {"a": "Y", "a1": "L"}
    legal = prof.standalone_entry("b")
    assert legal.coalition is None
    assert legal.outcome == (2, 4, 3)


def test_example2_ri(example2):
    tree, utils = example2
    prof = solve_game(tree, utils)
    assert prof.outcome == (6, 3, 5)
    assert prof.partition == ((1, 3), (2,))
    assert bracket_summary(prof) == "[{R},{a,d},{e,g,j,l}; {1,3},2]"


def test_example2_modified_ri(example2_modified):
    tree, utils = example2_modified
    prof = solve_game(tree, utils)
    assert prof.outcome == (5, 5, 3)
    assert prof.partition == ((1, 2), (3,))
    assert bracket_summary(prof) == "[{L},{a,c},{e,g,j,k}; {1,2},3]"
    rejected = [s for s in prof.trace_steps()
                if s.node == "x7" and s.kind == "ir-rejected"
                and s.coalition == (1, 3)]
    assert len(rejected) == 1
    assert rejected[0].reason == "blocked-by:1"


def test_singleton_feasibility_reduces_to_bi(abortion, example2):
    for tree, utils in (abortion, example2):
        prof = solve_game(tree, utils, singletons_only=True)
        bi = backward_induction(tree, utils)
        assert prof.outcome == bi.outcome
        assert prof.root_entry.actions == bi.actions


# -- the audit: index points, reference-point sequences, IR chains -------------


def _steps_at(prof, node):
    """The base-view audit group at `node`: the index point, the supergame
    points in sorted order, each with its IR verdict, then the adopted
    point."""
    return [s for s in prof.trace_steps() if s.node == node]


def _points(steps):
    """(coalition, active value, outcome) of the index point and of each
    supergame point, in sequence order."""
    return [(s.coalition, s.active_value, s.outcome) for s in steps
            if s.kind in ("index-point", "supergame-solved")]


def _adopted(steps):
    (step,) = [s for s in steps if s.kind == "adopted"]
    return step


def test_index_point_example2_root(example2):
    r0 = _steps_at(solve_game(*example2), "x7")[0]
    assert r0.kind == "index-point"
    assert r0.outcome == (2, 2, 6)
    assert r0.active_value == 2
    assert r0.coalition is None


def test_index_point_terminal_base_case(example2):
    prof = solve_game(*example2)
    assert prof.standalone_entry("z8").outcome == (6, 3, 5)
    assert _steps_at(prof, "z8") == []


def test_index_point_abortion_root(abortion):
    prof = solve_game(*abortion)
    steps = _steps_at(prof, "g")
    assert steps[0].kind == "index-point"
    assert steps[0].outcome == (2, 4, 3)
    # Singletons are adopted at g, so the root plays the index point.
    assert _adopted(steps).coalition is None
    assert prof.root_entry.actions["g"] == "Legal"


def test_sequence_example2_root(example2):
    steps = _steps_at(solve_game(*example2), "x7")
    assert _points(steps) == [
        (None, 2, (2, 2, 6)),
        ((1, 2, 3), 4, (4, 4, 5)),
        ((1, 2), 5, (5, 5, 3)),
        ((1, 3), 6, (6, 3, 5)),
    ]


def test_sequence_singletons_only(example2):
    steps = _steps_at(solve_game(*example2, singletons_only=True), "x7")
    assert [s.kind for s in steps] == ["index-point", "adopted"]


def test_sequence_subset_precedes_superset_on_ties():
    # Both supergames end at the same terminal, so P1 values them equally;
    # {1,2} must come before {1,2,3}.
    text = make_game_text({
        "r": {"player": 1, "actions": {"a": "z1", "b": "z2"}},
        "z1": [5, 4, 3], "z2": [1, 2, 6],
    })
    points = _points(_steps_at(solve_game(*load_game_text(text)), "r"))
    coalitions = [c for c, _, _ in points]
    assert coalitions.index((1, 2)) < coalitions.index((1, 2, 3))
    values = [v for _, v, _ in points[1:]]
    assert values == sorted(values)


def test_ir_chain_example2_root(example2):
    best = _adopted(_steps_at(solve_game(*example2), "x7"))
    assert best.coalition == (1, 3)
    assert best.outcome == (6, 3, 5)


def test_ir_chain_modified_root(example2_modified):
    best = _adopted(_steps_at(solve_game(*example2_modified), "x7"))
    assert best.coalition == (1, 2)
    assert best.outcome == (5, 5, 3)


def test_ir_chain_length_one(example2):
    steps = _steps_at(solve_game(*example2, singletons_only=True), "x7")
    best = _adopted(steps)
    assert (best.coalition, best.active_value, best.outcome) == _points(steps)[0]


def test_ir_chain_x5(example2):
    steps = _steps_at(solve_game(*example2), "x5")
    assert steps[0].kind == "index-point"
    assert steps[0].outcome == (5, 5, 3)
    best = _adopted(steps)
    assert best.coalition == (2, 3)
    assert best.outcome == (1, 6, 4)


def test_audit_groups_follow_the_reference_point_definition(
        abortion, example2, example2_modified):
    # Every (node, view) group of the audit is one run of the paper's step:
    # the index point, then each supergame point in sorted order with its
    # IR verdict, then the adopted point, which is the last accepted point
    # (or the index point when none was accepted).
    rng = random.Random(2718)
    games = [abortion, example2, example2_modified] + [
        random_game(rng, max_players=4, max_nodes=20) for _ in range(60)]
    groups = 0
    for tree, utils in games:
        prof = solve_game(tree, utils)
        by_key: dict = {}
        for step in prof.audit:
            by_key.setdefault((step.node, step.view), []).append(step)
        for (node, view), group in by_key.items():
            kinds = [s.kind for s in group]
            assert kinds[0] == "index-point", (node, view)
            assert kinds[-1] == "adopted", (node, view)
            middle = group[1:-1]
            assert len(middle) % 2 == 0
            pairs = list(zip(middle[::2], middle[1::2]))
            for point, verdict in pairs:
                assert point.kind == "supergame-solved"
                assert verdict.kind in ("ir-accepted", "ir-rejected")
                assert (verdict.coalition, verdict.outcome) == (
                    point.coalition, point.outcome)
            order = [(p.active_value, len(p.coalition), p.coalition)
                     for p, _ in pairs]
            assert order == sorted(order), (node, view)
            last = group[0]
            for point, verdict in pairs:
                if verdict.kind == "ir-accepted":
                    last = verdict
            adopted = group[-1]
            assert (adopted.coalition, adopted.outcome) == (
                last.coalition, last.outcome)
            groups += 1
        check_ir_invariants(prof)
    assert groups == 2019


# -- chance at the root ------------------------------------------------------------


def test_chance_single_branch_returns_branch_profile():
    text = make_game_text({
        "r": {"actions": {"go": "m"}},
        "m": {"player": 1, "actions": {"a": "z1", "b": "z2"}},
        "z1": [3, 1, 1], "z2": [1, 3, 3],
    }, chance={"m": 1})
    tree, utils = load_game_text(text)
    prof = solve_game(tree, utils)
    # The chance root is a layer like any other: its entry sits at r and
    # holds the branch's own entry.
    assert prof.root_entry.node == "r"
    assert prof.root_entry.children["m"] == prof.standalone_entry("m")
    assert prof.outcome == (3, 1, 1)


def test_chance_two_branch_expectation():
    text = make_game_text({
        "r": {"actions": {"left": "z1", "right": "z2"}},
        "z1": [2, 0], "z2": [0, 2],
    }, players=2, chance={"z1": 0.5, "z2": 0.5})
    tree, utils = load_game_text(text)
    prof = solve_game(tree, utils)
    assert prof.outcome == (1, 1)


def test_chance_duplicated_example2():
    nodes = {"root": {"actions": {"L": "L_x7", "R": "R_x7"}}}
    for side in ("L", "R"):
        nodes[f"{side}_x7"] = {"player": 1, "actions": {"L": f"{side}_x5", "R": f"{side}_x6"}}
        nodes[f"{side}_x5"] = {"player": 2, "actions": {"a": f"{side}_x1", "b": f"{side}_x2"}}
        nodes[f"{side}_x6"] = {"player": 2, "actions": {"c": f"{side}_x3", "d": f"{side}_x4"}}
        for k, (acts, (pa, pb)) in enumerate([
                (("e", "f"), ([5, 5, 3], [2, 2, 1])),
                (("g", "h"), ([4, 4, 5], [1, 6, 4])),
                (("i", "j"), ([3, 1, 2], [2, 2, 6])),
                (("k", "l"), ([1, 1, 6], [6, 3, 5]))], start=1):
            nodes[f"{side}_x{k}"] = {"player": 3, "actions": {
                acts[0]: f"{side}_z{2 * k - 1}", acts[1]: f"{side}_z{2 * k}"}}
            nodes[f"{side}_z{2 * k - 1}"] = pa
            nodes[f"{side}_z{2 * k}"] = pb
    text = make_game_text(nodes, root="root", chance={"L_x7": 0.5, "R_x7": 0.5})
    tree, utils = load_game_text(text)
    prof = solve_game(tree, utils)
    assert prof.outcome == (6, 3, 5)
    for side in ("L", "R"):
        branch = prof.root_entry.children[f"{side}_x7"]
        assert branch.coalition == (1, 3)
        assert branch.outcome == (6, 3, 5)


def test_two_branch_chance_root_mixes_branch_solutions():
    # The outcome at a two-branch chance root is the weighted sum.
    text = make_game_text({
        "c": {"actions": {"l": "m1", "r": "m2"}},
        "m1": {"player": 1, "actions": {"x": "z1", "w": "z3"}},
        "m2": {"player": 2, "actions": {"y": "z2", "w": "z4"}},
        "z1": [2, 0], "z2": [0, 2], "z3": [1, 0], "z4": [0, 1],
    }, players=2, chance={"m1": "1/2", "m2": "1/2"})
    prof = solve_game(*load_game_text(text))
    assert prof.outcome == (1, 1)
    assert prof.root_entry.actions == {"m1": "x", "m2": "y"}
    assert dict(prof.root_entry.dist) == {"z1": Fraction(1, 2), "z2": Fraction(1, 2)}


# -- properties --------------------------------------------------------------------


def test_reduction_property_sample():
    rng = random.Random(1234)
    for _ in range(120):
        tree, utils = random_game(rng, max_depth=4, max_nodes=30)
        prof = solve_game(tree, utils, singletons_only=True)
        bi = backward_induction(tree, utils)
        assert prof.outcome == bi.outcome
        assert prof.root_entry.actions == bi.actions


def test_solvers_and_renderers_do_not_recurse_down_the_tree():
    # Under a recursion limit a few frames above this one, only the nesting
    # of supergame solves (at most once per player) may use the stack.
    games = [load_game_text(chain_text(300)),
             random_game(random.Random(12), min_players=4, max_players=4,
                         max_nodes=20)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        for tree, utils in games:
            profile = solve_game(tree, utils)
            spne_in_subgame(tree, utils)
            render_solution(profile)
            profile_to_json(profile)
            export_dot(tree, profile)
            render_trace(profile, "full")
    finally:
        sys.setrecursionlimit(limit)
    assert games[1][0].n_players == 4


def test_deep_entries_compare_without_a_depth_limit():
    # A 5,000-level chain nests deeper than Python's recursion limit, so
    # equality may not recurse through `children`.
    a, b = (solve_game(*load_game_text(chain_text(5000))) for _ in range(2))
    assert a.root_entry == b.root_entry
    assert not a.root_entry != b.root_entry
    assert a.root_entry == tuple(a.root_entry) and tuple(b.root_entry) == a.root_entry
    above = b.root_entry
    for _ in range(4000):
        above = above.children[f"c{int(above.node[1:]) + 1}"]
    kid = above.children["t" + above.node[1:]]
    above.children[kid.node] = kid._replace(outcome=(0, 0))
    assert a.root_entry != b.root_entry
    assert not a.root_entry == b.root_entry


def test_memoization_is_transparent(example2):
    tree, utils = example2
    fast = solve_game(tree, utils)

    class Unmemoized(_Solver):  # solves every subgame again at each call
        def solve(self, g, view):
            for y in self.tree.frontier_of(g):
                self.solve(y, view)
            # The kids are solved afresh; the memoized walk then solves only `g`.
            self.memo.setdefault(view, {}).pop(g, None)
            return super().solve(g, view)

    solver = Unmemoized(tree, utils)
    base = singleton_partition(tree.n_players)
    root_entry = solver.solve(tree.root, base)
    slow = SolutionProfile(tree, utils, root_entry, solver.memo[base], solver.audit)
    assert fast.root_entry == slow.root_entry
    for nid in tree.decision_ids:
        assert fast.standalone_entry(nid).outcome == slow.standalone_entry(nid).outcome
        assert fast.standalone_entry(nid).actions == slow.standalone_entry(nid).actions


def test_a_profile_keeps_only_the_entries_of_its_contexts(example2):
    # Every Entry a solved profile holds alive lies in the DAG under its
    # contexts: the solver's merged-view memos are not kept. The walk follows
    # the profile's references, its fields made on first read included, but
    # not into classes, functions or modules, which reach every object.
    tree, utils = example2
    prof = solve_game(tree, utils)
    prof.audit, prof.trace_steps(), prof.root_context, bracket_summary(prof)
    dag = {id(entry) for entry in prof.entries().values()}
    seen, stack, reached = {id(prof)}, [prof], []
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if id(ref) in seen or isinstance(ref, (type, types.FunctionType,
                                                   types.ModuleType)):
                continue
            seen.add(id(ref))
            stack.append(ref)
            if isinstance(ref, Entry):
                reached.append(ref)
    assert len(reached) == len(dag)
    assert all(id(entry) in dag for entry in reached)


def test_entries_hold_only_their_own_subtree_sets(abortion, example2,
                                                  example2_modified):
    rng = random.Random(606)
    games = [abortion, example2, example2_modified]
    games += [random_game(rng, max_players=4, max_nodes=20) for _ in range(60)]
    for tree, utils in games:
        for entry in solve_game(tree, utils).entries().values():
            for sid in entry.actions:
                assert all(tree.in_subtree(m, entry.node)
                           for m in tree.info_sets[sid]), (entry.node, sid)


def test_each_entry_stores_its_layer_and_extends_its_children():
    golden = sorted(GAMES.glob("*.game"))
    golden += sorted((Path(__file__).parent / "golden").glob("*.game"))
    rng = random.Random(1414)
    games = [load_game(path) for path in golden]
    games += [random_game(rng, max_players=4, max_nodes=20) for _ in range(60)]
    for tree, utils in games:
        profile = solve_game(tree, utils)
        for entry in walk_entries(profile.contexts().values()):
            assert set(entry.own) == set(tree.layer_info_sets(entry.node))
            full = dict(entry.own)
            for kid in entry.children.values():
                full.update(kid.actions)
            assert entry.actions == full


def test_entries_store_play_linear_in_depth():
    # One layer's play per entry: the stored items are at most one per
    # decision node and view. A whole subgame's map per entry summed to
    # 80,201 over these entries.
    tree, utils = load_game_text(chain_text(400))
    profile = solve_game(tree, utils)
    views = {step.view for step in profile.audit}
    stored = sum(len(entry.own)
                 for entry in walk_entries(profile.contexts().values()))
    assert stored <= len(views) * len(tree.decision_ids) == 800


def test_two_solves_byte_identical_json(example2):
    tree, utils = example2
    a = profile_to_json(solve_game(tree, utils))
    b = profile_to_json(solve_game(tree, utils))
    assert a == b


def test_ir_invariants_on_fixtures(abortion, example2, example2_modified):
    for tree, utils in (abortion, example2, example2_modified):
        prof = solve_game(tree, utils)
        groups, accepted = check_ir_invariants(prof)
        assert groups > 0
    # Example 2 must show at least the x5 and root acceptances.
    prof = solve_game(example2[0], example2[1])
    _, accepted = check_ir_invariants(prof)
    assert accepted >= 3


def test_ir_invariants_on_random_games():
    rng = random.Random(77)
    for _ in range(40):
        tree, utils = random_game(rng)
        prof = solve_game(tree, utils)
        check_ir_invariants(prof)


def test_adopted_exactly_once_per_subgame_root(example2):
    tree, utils = example2
    prof = solve_game(tree, utils)
    adopted = [s for s in prof.trace_steps() if s.kind == "adopted"]
    assert sorted(s.node for s in adopted) == sorted(tree.decision_ids)


def test_idle_coalitions_flagged_in_trace(example2):
    tree, utils = example2
    prof = solve_game(tree, utils)
    flagged = [s for s in prof.trace_steps()
               if s.node == "x1" and s.kind == "supergame-solved"
               and s.coalition == (1, 3)]
    assert flagged and flagged[0].reason == "idle:1"


def test_local_argmax_where_index_adopted(example2):
    tree, utils = example2
    prof = solve_game(tree, utils)
    # x6 standalone adopted its index point: c must maximize P2's value
    # over the adopted successor outcomes.
    entry = prof.standalone_entry("x6")
    assert entry.coalition is None
    values = {label: prof.standalone_entry(child).outcome[1]
              for label, child in tree.nodes["x6"].actions}
    chosen = entry.actions["x6"]
    assert values[chosen] == max(values.values())


def test_positive_affine_rescaling_preserves_structure(example2):
    tree, utils = example2
    # Rebuild the same game with explicit coalition tables equal to the min
    # values, then rescale every utility function by its own positive affine
    # map. Adopted actions, coalitions, and partitions must not move.

    def game_text(transform):
        scale_i = {1: (2, 3), 2: (5, 1), 3: (1, 0)}
        scale_c = {(1, 2): (3, 7), (1, 3): (2, 0), (2, 3): (4, 1), (1, 2, 3): (6, 2)}
        nodes = {}
        for nid in tree.preorder:
            node = tree.nodes[nid]
            if node.is_terminal:
                pay = [int(v) for v in node.payoffs]
                if transform:
                    pay = [scale_i[i + 1][0] * v + scale_i[i + 1][1]
                           for i, v in enumerate(pay)]
                nodes[nid] = pay
            else:
                nodes[nid] = {"player": node.player,
                              "actions": {a: c for a, c in node.actions}}
        table = {}
        for members, key in ((
                (1, 2), "1,2"), ((1, 3), "1,3"), ((2, 3), "2,3"), ((1, 2, 3), "1,2,3")):
            row = {}
            for z in tree.terminal_ids:
                v = int(utils.coalition_value(members, z, tree))
                if transform:
                    a, b = scale_c[members]
                    v = a * v + b
                row[z] = v
            table[key] = row
        return make_game_text(nodes, root="x7", utility={"table": table})

    base_tree, base_utils = load_game_text(game_text(False))
    scaled_tree, scaled_utils = load_game_text(game_text(True))
    p0 = solve_game(base_tree, base_utils)
    p1 = solve_game(scaled_tree, scaled_utils)
    assert p0.coalition == p1.coalition
    assert p0.partition == p1.partition
    assert p0.root_entry.actions == p1.root_entry.actions
    for nid in base_tree.decision_ids:
        e0, e1 = p0.standalone_entry(nid), p1.standalone_entry(nid)
        assert e0.coalition == e1.coalition
        assert e0.actions == e1.actions


def test_recursion_shrinks_effective_players(example2):
    tree, utils = example2
    solver = _Solver(tree, utils)
    solver.solve(tree.root, singleton_partition(tree.n_players))
    for view, memo in solver.memo.items():
        assert memo and 1 <= len(view) <= tree.n_players


def test_adopting_block_may_be_a_strict_superset():
    # The {1,2} supergame internally merges with player 3 at its root, so
    # the adopting block of the {1,2} reference point is the grand
    # coalition, and all three agents must strictly improve.
    text = make_game_text({
        "r": {"player": 1, "actions": {"a": "za", "b": "m"}},
        "m": {"player": 3, "actions": {"e": "ze", "f": "zf"}},
        "za": [3, 3, 1], "ze": [4, 4, 4], "zf": [0, 0, 5],
    })
    tree, utils = load_game_text(text)
    prof = solve_game(tree, utils)
    assert prof.outcome == (4, 4, 4)
    assert prof.coalition == (1, 2)          # the point entered the sequence as {1,2}
    assert prof.partition == ((1, 2, 3),)    # but the adopted block is grand
    accepted = [s for s in prof.trace_steps()
                if s.node == "r" and s.kind == "ir-accepted"]
    assert accepted[0].coalition == (1, 2)
    assert sorted(i for i, _, _ in accepted[0].comparisons) == [1, 2, 3]
    from cefg.oracle import equivalence_check
    assert equivalence_check(tree, utils).match


def test_four_player_games_solve_and_satisfy_invariants():
    rng = random.Random(4040)
    for _ in range(15):
        tree, utils = random_game(rng, max_players=4, min_players=4,
                                  max_depth=3, max_nodes=14)
        prof = solve_game(tree, utils)
        check_ir_invariants(prof)
        assert len(prof.outcome) == 4


# Game 1/14 of the `coalitions` benchmark workload at seed 1: 4 players,
# `sum` with synergies. At x0 under the view 1,2,{3,4} the adopting block
# {2,3,4} is accepted because each member strictly gains, while the value
# of the active block {3,4} falls from 177 to 133.
SUM_SYNERGY_GAME = """\
{"format_version": 1, "players": ["P1", "P2", "P3", "P4"], "root": "x0",
 "nodes": {
  "x0": {"player": 3, "actions": {"a": "x1", "b": "x2", "c": "x3"}},
  "x2": {"player": 4, "actions": {"a": "x4", "b": "x5"}},
  "x3": {"player": 4, "actions": {"a": "x6", "b": "x7", "c": "x8"}},
  "x5": {"player": 2, "actions": {"a": "x9", "b": "x10"}},
  "x9": {"player": 2, "actions": {"a": "x11", "b": "x12"}},
  "x1": {"player": 1, "actions": {"a": "x13", "b": "x14"}},
  "x12": {"player": 1, "actions": {"a": "x15", "b": "x16"}},
  "x13": {"player": 2, "actions": {"a": "x17", "b": "x18"}},
  "x16": {"player": 3, "actions": {"a": "x19", "b": "x20", "c": "x21"}},
  "x8": {"player": 4, "actions": {"a": "x22", "b": "x23"}},
  "x6": {"player": 1, "actions": {"a": "x24", "b": "x25", "c": "x26"}},
  "x10": {"player": 1, "actions": {"a": "x27", "b": "x28"}},
  "x15": {"player": 2, "actions": {"a": "x29", "b": "x30"}},
  "x26": {"player": 3, "actions": {"a": "x31", "b": "x32"}},
  "x28": {"player": 4, "actions": {"a": "x33", "b": "x34"}},
  "x4": {"payoffs": [18, 31, 8, 12]},
  "x7": {"payoffs": [36, 5, 45, 92]},
  "x11": {"payoffs": [64, 61, 83, 63]},
  "x14": {"payoffs": [78, 36, 38, 77]},
  "x17": {"payoffs": [89, 81, 37, 76]},
  "x18": {"payoffs": [80, 93, 90, 43]},
  "x19": {"payoffs": [59, 30, 27, 7]},
  "x20": {"payoffs": [66, 23, 60, 43]},
  "x21": {"payoffs": [76, 31, 58, 47]},
  "x22": {"payoffs": [52, 18, 73, 77]},
  "x23": {"payoffs": [28, 4, 72, 8]},
  "x24": {"payoffs": [53, 20, 89, 88]},
  "x25": {"payoffs": [18, 41, 20, 29]},
  "x27": {"payoffs": [5, 28, 84, 51]},
  "x29": {"payoffs": [7, 25, 85, 42]},
  "x30": {"payoffs": [83, 8, 14, 80]},
  "x31": {"payoffs": [26, 65, 70, 53]},
  "x32": {"payoffs": [5, 10, 83, 99]},
  "x33": {"payoffs": [76, 71, 99, 42]},
  "x34": {"payoffs": [86, 84, 72, 44]}
 },
 "synergies": [
  {"player": 4, "block": [1, 4], "terminal": "x32", "value": 7},
  {"player": 4, "block": [3, 4], "terminal": "x24", "value": 15},
  {"player": 3, "block": [1, 2, 3, 4], "terminal": "x29", "value": 1}
 ],
 "coalitions": {"feasible": "all", "utility": {"combinator": "sum"}}}
"""


def test_ir_invariants_allow_merged_block_value_to_fall():
    tree, utils = load_game_text(SUM_SYNERGY_GAME)
    prof = solve_game(tree, utils)
    falls = [s for s in prof.audit
             if s.node == "x0" and s.view == ((1,), (2,), (3, 4))
             and s.kind in ("index-point", "ir-accepted")]
    assert [s.active_value for s in falls] == [177, 133]
    assert all(cand > held for _, cand, held in falls[1].comparisons)
    check_ir_invariants(prof)
    reference = oracle_solve(tree, utils, max_nodes=len(tree.nodes),
                             max_players=tree.n_players)
    assert (prof.outcome, prof.partition) == (reference.outcome,
                                              reference.partition)


def test_ir_invariants_catch_a_falling_singleton_value(example2):
    tree, utils = example2
    prof = solve_game(tree, utils)
    step = next(s for s in prof.audit if s.kind == "ir-accepted"
                and all(len(b) == 1 for b in s.view))
    bad = step._replace(active_value=step.active_value - 100)
    prof.audit = tuple(bad if s is step else s for s in prof.audit)
    with pytest.raises(CefgError, match="does not increase"):
        check_ir_invariants(prof)


@pytest.mark.parametrize("kind,corrupt,message", [
    ("ir-accepted", lambda comparisons, owner: (), "lacks comparisons"),
    ("ir-accepted",
     lambda comparisons, owner: tuple(c for c in comparisons if c[0] != owner),
     "does not compare every member of the active block"),
    ("ir-accepted",
     lambda comparisons, owner: ((comparisons[0][0], comparisons[0][2],
                                  comparisons[0][2]),) + comparisons[1:],
     "does not strictly improve"),
    ("ir-rejected",
     lambda comparisons, owner: tuple((i, held + 1, held) for i, _, held in comparisons),
     "improves every agent"),
], ids=["accepted-lacks-comparisons", "accepted-misses-a-member", "accepted-not-strict",
        "rejected-all-strict"])
def test_ir_invariants_catch_a_corrupted_accepted_step(example2, kind, corrupt, message):
    # The first step of `kind` in the audit, changed in one way.
    tree, utils = example2
    prof = solve_game(tree, utils)
    rows = list(prof.audit)
    k = next(k for k, s in enumerate(rows) if s.kind == kind)
    rows[k] = rows[k]._replace(comparisons=corrupt(
        rows[k].comparisons, tree.owner(rows[k].node)))
    prof.audit = tuple(rows)
    with pytest.raises(CefgError, match=message):
        check_ir_invariants(prof)


def test_steps_and_entries_are_immutable_named_tuples(example2):
    tree, utils = example2
    prof = solve_game(tree, utils)
    step, entry = prof.audit[0], prof.root_entry
    with pytest.raises(AttributeError):
        step.kind = "adopted"
    with pytest.raises(AttributeError):
        entry.outcome = ()
    assert SolveStep._fields == ("node", "kind", "coalition", "outcome", "reason",
                                 "view", "active_value", "comparisons")
    assert Entry._fields == ("node", "own", "dist", "outcome", "partition",
                             "coalition", "children")
    assert repr(step).startswith("SolveStep(node=")


def test_untimeable_layer_is_refused_by_type():
    tree, utils = load_game_text(cycle_text())
    assert tree.layer_order("r") is None
    with pytest.raises(UntimeableLayer, match="information-set order has a cycle"):
        solve_game(tree, utils)
    assert set(spne_in_subgame(tree, utils).actions) == {"r", "A", "B"}


# The root layer holds S = {s1, s2}, whose first node s1 lies under u, and
# T = {t1, t2}: neither lies above the other, and S's first node is the deeper.
READY_SETS_NODES = {
    "r": {"player": 1, "actions": {"a": "u", "b": "t1", "c": "s2", "d": "t2"}},
    "u": {"player": 1, "actions": {"x": "s1", "y": "z0"}},
    "s1": {"player": 2, "actions": {"l": "k1", "m": "z1"}},
    "s2": {"player": 2, "actions": {"l": "z2", "m": "z3"}},
    "t1": {"player": 2, "actions": {"p": "k2", "q": "z4"}},
    "t2": {"player": 2, "actions": {"p": "z5", "q": "z6"}},
    "k1": {"player": 1, "actions": {"e": "z7", "f": "z8"}},
    "k2": {"player": 1, "actions": {"e": "z9", "f": "z10"}},
    "z0": [0, 0], "z1": [0, 1], "z2": [3, 1], "z3": [4, 0], "z4": [4, 4], "z5": [0, 3],
    "z6": [1, 0], "z7": [1, 4], "z8": [3, 3], "z9": [1, 2], "z10": [2, 3],
}


def test_ready_sets_go_deepest_first_then_in_preorder():
    tree, utils = load_game_text(make_game_text(
        READY_SETS_NODES, players=2, root="r",
        info_sets={"S": ["s1", "s2"], "T": ["t1", "t2"]}))
    # S and T are ready at once: S is deeper, so it goes first. Then u and
    # T are ready at the same depth, and u comes first in preorder.
    assert tree.layer_order("r") == ("S", "u", "T", "r")
    below = {"S": set(), "u": {"S"}, "T": set(), "r": {"S", "T", "u"}}
    assert {(s, t) for s in below for t in below if s != t and tree.set_below(s, t)} == {
        (s, t) for t in below for s in below[t]}
    prof = solve_game(tree, utils)
    adopted = [(s.node, s.coalition) for s in prof.trace_steps() if s.kind == "adopted"]
    assert adopted == [("k1", None), ("k2", None), ("S", (1, 2)), ("u", (1, 2)),
                       ("T", (1, 2)), ("r", None)]
    root = prof.root_entry
    assert root.own == {"r": "b", "u": "x", "S": "l", "T": "q"}
    assert (root.dist, root.outcome) == ((("z4", 1),), (4, 4))
    assert (root.partition, root.coalition) == (((1,), (2,)), None)


# Each game's audit steps by kind, its distinct views and its step count.
# The counts are deterministic, so a change that solves more supergames shows
# here as an exact diff; one that moves them on purpose says why in CHANGES.md.
_WORK_COUNTS = {
    "abortion": ({"adopted": 24, "index-point": 24, "ir-accepted": 1,
                  "ir-rejected": 28, "supergame-solved": 29}, 5, 106),
    "example2": ({"adopted": 34, "index-point": 34, "ir-accepted": 3,
                  "ir-rejected": 38, "supergame-solved": 41}, 5, 150),
    "example2-modified": ({"adopted": 34, "index-point": 34, "ir-accepted": 2,
                           "ir-rejected": 39, "supergame-solved": 41}, 5, 150),
    "chance-layers": ({"adopted": 4, "index-point": 4, "ir-rejected": 2,
                       "supergame-solved": 2}, 2, 12),
    "chance-mixed-stack": ({"adopted": 8, "index-point": 8, "ir-rejected": 4,
                            "supergame-solved": 4}, 2, 24),
    "chance-one-branch": ({"adopted": 9, "index-point": 9, "ir-accepted": 1,
                           "ir-rejected": 10, "supergame-solved": 11}, 5, 40),
    "chance-perfect": ({"adopted": 22, "index-point": 22, "ir-accepted": 1,
                        "ir-rejected": 26, "supergame-solved": 27}, 5, 98),
    "layered": ({"adopted": 10, "index-point": 10, "ir-accepted": 1,
                 "ir-rejected": 4, "supergame-solved": 5}, 2, 30),
}


_GOLDEN_GAMES = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("path", sorted(GAMES.glob("*.game"))
                         + sorted(_GOLDEN_GAMES.glob("*.game")), ids=lambda p: p.stem)
def test_work_counts_are_pinned(path):
    audit = solve_game(*load_game(path)).audit
    kinds, views, steps = _WORK_COUNTS[path.stem]
    assert Counter(step.kind for step in audit) == kinds
    assert len({step.view for step in audit}) == views
    assert len(audit) == steps


@pytest.mark.parametrize("path", sorted(GAMES.glob("*.game"))
                         + sorted(_GOLDEN_GAMES.glob("*.game")), ids=lambda p: p.stem)
@pytest.mark.parametrize("first", ["audit", "trace_steps"])
def test_audit_steps_are_made_once_whichever_is_read_first(path, first):
    golden = (_GOLDEN_GAMES / f"{path.stem}.solve.txt").read_text()
    golden_full = (_GOLDEN_GAMES / f"{path.stem}.solve-full.txt").read_text()
    tree, utils = load_game(path)
    prof = solve_game(tree, utils)
    if first == "audit":
        audit = prof.audit
        trace = prof.trace_steps()
    else:
        trace = prof.trace_steps()
        audit = prof.audit
    assert type(audit) is tuple and all(type(s) is SolveStep for s in audit)
    assert prof.audit is audit and prof.trace_steps() is trace
    assert trace == tuple(s for s in audit if s.view == singleton_partition(tree.n_players))
    assert render_trace(prof) == golden.split("\ntrace:\n", 1)[1][:-1]
    assert render_trace(prof, "full") == golden_full.split("\ntrace:\n", 1)[1][:-1]
    check_ir_invariants(prof)
    # The audit is an attribute a caller may replace, as the invariant
    # tests above do.
    prof.audit = audit[:1]
    assert prof.audit == audit[:1]


def _golden_and_restricted_games(seed):
    """Every golden game, then 40 random 4-5 player games, each with a
    random list of feasible coalitions."""
    from test_oracle import _with_utility_kind
    games = [load_game(p) for p in sorted(GAMES.glob("*.game"))
             + sorted(_GOLDEN_GAMES.glob("*.game"))]
    rng = random.Random(seed)
    for _ in range(40):
        tree, utils = random_game(rng, max_players=5, min_players=4, max_nodes=12)
        games.append((tree, _with_utility_kind(rng, tree, utils, "feasible")))
    return games


def _solved_definition_games(seed):
    """Every golden game, 40 restricted 4-5 player draws and seeded
    imperfect-information draws, each solved; refused draws are skipped."""
    from test_imperfect import _imperfect_games
    for tree, utils in (_golden_and_restricted_games(seed)
                        + list(_imperfect_games(seed, 1000))):
        try:
            yield tree, solve_game(tree, utils)
        except (MixedEquilibriumUnsupported, UntimeableLayer):
            continue


def test_trace_steps_are_the_base_views_steps_of_the_audit():
    solved = 0
    for tree, prof in _solved_definition_games(3434):
        base = singleton_partition(tree.n_players)
        assert prof.trace_steps() == tuple(s for s in prof.audit if s.view == base)
        solved += 1
    assert solved > 100, solved


def test_ir_invariants_count_the_consecutive_node_view_groups_and_acceptances():
    # The reference groups the audit by runs of equal (node, view), as the
    # paper's step at one subgame root under one view is one run.
    accepted = 0
    for _, prof in _solved_definition_games(3535):
        keys = [(s.node, s.view) for s in prof.audit]
        runs = sum(k == 0 or key != keys[k - 1] for k, key in enumerate(keys))
        acceptances = sum(s.kind == "ir-accepted" for s in prof.audit)
        assert check_ir_invariants(prof) == (runs, acceptances)
        accepted += acceptances
    assert accepted > 20


def test_each_candidate_is_a_supergame_step_then_its_ir_step():
    # A candidate's supergame-solved step and its IR step are read from one
    # candidate of its adoption's row; checked here from their definition. A
    # step is named after its subgame root in a one-node layer and after its
    # information set in a wider one (`layered`, `chance-layers`), so its
    # root comes from the set.
    wide_seen = 0
    for tree, utils in _golden_and_restricted_games(2626):
        layer_root = {sid: g for g in tree.subgame_roots
                      for sid in tree.layer_info_sets(g)}
        prof = solve_game(tree, utils)
        audit = prof.audit
        candidates = 0
        for k, step in enumerate(audit):
            if step.kind in ("ir-accepted", "ir-rejected"):
                assert audit[k - 1].kind == "supergame-solved"
            if step.kind != "supergame-solved":
                continue
            candidates += 1
            ir = audit[k + 1]
            assert ir.kind in ("ir-accepted", "ir-rejected")
            assert ((ir.node, ir.coalition, ir.outcome, ir.view, ir.active_value)
                    == (step.node, step.coalition, step.outcome, step.view,
                        step.active_value))
            root = step.node if step.node in tree.one_node_layers else layer_root[step.node]
            wide_seen += root != step.node
            idle = [str(i) for i in step.coalition if i not in tree.movers[root]]
            assert step.reason == ("idle:" + ",".join(idle) if idle else "")
            assert step.comparisons == ()
        # One stored row per adoption: as many as index points and as
        # adopted steps. Each candidate in a row holds its first compared
        # agent that does not gain, or None, then the compared block and the
        # candidate's and the accepted point's individual values, from which
        # its IR step's comparisons are made; no row holds an idle note or a
        # reason's text.
        kinds = Counter(s.kind for s in audit)
        assert len(prof._rows) == kinds["index-point"] == kinds["adopted"]
        cands = [c for row in prof._rows for c in row[5]]
        assert len(cands) == candidates
        assert all(failing == next((a for a in members if not cand[a - 1] > held[a - 1]),
                                   None)
                   for failing, _, _, _, members, cand, held in cands)
        ir_steps = [s for s in audit if s.kind in ("ir-accepted", "ir-rejected")]
        assert [s.comparisons for s in ir_steps] == [
            tuple((a, cand[a - 1], held[a - 1]) for a in members)
            for _, _, _, _, members, cand, held in cands]
        fields = [f for row in prof._rows for f in (*row[:5], *row[6:])] + [
            f for c in cands for f in c]
        assert not any(isinstance(field, str) and field.startswith(("idle", "blocked"))
                       for field in fields)
    assert wide_seen


def test_without_synergies_each_entrys_outcome_is_its_individual_values():
    # `_adopt` reads a point's individual values from its Entry's `outcome`
    # when the game has no synergies: a player's expected payoff. Checked on
    # every memo entry of the goldens and of the benchmark's seed-1 `layers`
    # games (chance roots, mixed layers), of seeded draws under each
    # synergy-free utility kind, and of seeded imperfect-information draws.
    from test_imperfect import _imperfect_games
    from test_oracle import _perfbench_gen, _with_utility_kind
    games = [load_game(p) for p in sorted(GAMES.glob("*.game"))
             + sorted(_GOLDEN_GAMES.glob("*.game"))]
    rng = random.Random(3030)
    for kind in ("sum", "weighted", "table", "feasible") * 10:
        tree, utils = random_game(rng, max_players=4, max_nodes=15)
        games.append((tree, _with_utility_kind(rng, tree, utils, kind)))
    games += [load_game_text(text) for _, text in _perfbench_gen().workload_games("layers", 1)]
    games += _imperfect_games(3030, 300)
    seen = {"entries": 0, "chance": 0, "mixed": 0}
    for tree, utils in games:
        assert not utils.synergies
        solver = _Solver(tree, utils)
        try:
            solver.solve(tree.root, singleton_partition(tree.n_players))
        except (MixedEquilibriumUnsupported, UntimeableLayer):
            continue
        for entry in (e for memo in solver.memo.values() for e in memo.values()):
            assert entry.outcome == individual_values(entry.dist, entry.partition,
                                                      solver.valuation)
            seen["entries"] += 1
            seen["chance"] += entry.node == tree.root and tree.chance_at_root is not None
            seen["mixed"] += any(isinstance(a, tuple) for a in entry.own.values())
    assert min(seen.values()) > 10, seen


def test_a_synergy_decides_the_ir_test_where_it_overrides_a_payoff():
    # P2 moves at r. Under the grand coalition a synergy makes P2's value at
    # zb 5, not its payoff 0. The supergame {1,2} (sum) plays b, and its
    # individual values (2, 5), not its outcome (2, 0), pass the IR test
    # against the index point (1, 1).
    tree, utils = load_game_text(make_game_text({
        "r": {"player": 2, "actions": {"a": "za", "b": "zb"}},
        "za": [1, 1], "zb": [2, 0],
    }, players=2, combinator="sum",
        synergies=[{"player": 2, "block": [1, 2], "terminal": "zb", "value": 5}]))
    prof = solve_game(tree, utils)
    assert [(s.kind, s.coalition, s.outcome, s.comparisons) for s in prof.audit
            if s.kind.startswith("ir-")] == [
        ("ir-accepted", (1, 2), (2, 0), ((1, 2, 1), (2, 5, 1)))]
    assert (prof.outcome, prof.partition, prof.coalition) == ((2, 0), ((1, 2),), (1, 2))


@pytest.mark.parametrize("restrict", ["all", "feasible", "singletons_only"])
def test_merge_lists_match_their_definition(restrict):
    # For each (view, block) a solve fills: every feasible union of `block`
    # with some other blocks, its merged view, and that view's memo, in
    # (size, union) order.
    from test_oracle import _with_utility_kind
    rng = random.Random(2627)
    games = [load_game(p) for p in sorted(GAMES.glob("*.game"))
             + sorted(_GOLDEN_GAMES.glob("*.game"))]
    games += [random_game(rng, max_players=5, min_players=4, max_nodes=12)
              for _ in range(20)]
    filled = 0
    for tree, utils in games:
        if restrict == "feasible":
            utils = _with_utility_kind(rng, tree, utils, "feasible")
        elif restrict == "singletons_only":
            utils = utils.restricted_to_singletons()
        solver = _Solver(tree, utils)
        solver.solve(tree.root, singleton_partition(tree.n_players))
        for (view, block), merges in solver.merges.items():
            others = [b for b in view if b != block]
            expected = []
            for size in range(1, len(others) + 1):
                for combo in combinations(others, size):
                    union = canon_block(block + sum(combo, ()))
                    if utils.is_feasible(union):
                        kept = [b for b in others if b not in combo]
                        expected.append((union, canon_partition(kept + [union])))
            expected.sort(key=lambda pair: (len(pair[0]), pair[0]))
            assert [(union, merged) for union, merged, _ in merges] == expected
            assert all(memo is solver.memo[merged] for _, merged, memo in merges)
            filled += bool(merges)
    assert filled if restrict != "singletons_only" else not filled


# Three 6-player draws: (distinct views, audit steps) of each solve.
_SIX_PLAYER_COUNTS = [(188, 8744), (184, 7688), (188, 9380)]


def test_six_player_games_solve_and_reduce_to_backward_induction():
    rng = random.Random(606)
    for views, steps in _SIX_PLAYER_COUNTS:
        tree, utils = random_game(rng, max_players=6, min_players=6, max_nodes=15)
        assert tree.n_players == 6
        prof = solve_game(tree, utils)
        check_ir_invariants(prof)
        assert (len({step.view for step in prof.audit}), len(prof.audit)) == (views, steps)
        reduced = solve_game(tree, utils, singletons_only=True)
        reference = backward_induction(tree, utils)
        assert reduced.outcome == reference.outcome
        assert reduced.root_entry.actions == reference.actions
