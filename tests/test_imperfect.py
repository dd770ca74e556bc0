"""Imperfect information: simultaneous layers, supertrees, desk-scale checks."""

import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from cefg import (
    CefgError,
    GameValidationError,
    MixedEquilibriumUnsupported,
    TooLarge,
    bracket_summary,
    check_ir_invariants,
    load_game,
    load_game_text,
    render_trace,
    solve_game,
    spne_in_subgame,
)
from conftest import make_game_text

LAYERED = Path(__file__).resolve().parent / "golden" / "layered.game"

PD = make_game_text({
    "r": {"player": 1, "actions": {"C": "rc", "D": "rd"}},
    "rc": {"player": 2, "actions": {"c": "z1", "d": "z2"}},
    "rd": {"player": 2, "actions": {"c": "z3", "d": "z4"}},
    "z1": [3, 3], "z2": [0, 5], "z3": [5, 0], "z4": [1, 1],
}, players=2, info_sets={"h2": ["rc", "rd"]})


def test_prisoners_dilemma_core_fixture():
    tree, utils = load_game_text(PD)
    prof = solve_game(tree, utils)
    index = [s for s in prof.trace_steps() if s.kind == "index-point"]
    assert [s.outcome for s in index] == [(1, 1)]
    assert prof.outcome == (3, 3)
    assert prof.coalition == (1, 2)
    assert prof.partition == ((1, 2),)


def test_prisoners_dilemma_singletons_only():
    tree, utils = load_game_text(PD)
    prof = solve_game(tree, utils, singletons_only=True)
    assert prof.outcome == (1, 1)
    assert prof.partition == ((1,), (2,))


def test_embedded_matching_pennies_subgame():
    text = make_game_text({
        "top": {"player": 1, "actions": {"out": "zo", "in": "y"}},
        "y": {"player": 2, "actions": {"H": "yh", "T": "yt"}},
        "yh": {"player": 3, "actions": {"h": "z1", "t": "z2"}},
        "yt": {"player": 3, "actions": {"h": "z3", "t": "z4"}},
        "zo": [1, 2, 2],
        "z1": [0, 1, -1], "z2": [0, -1, 1], "z3": [0, -1, 1], "z4": [0, 1, -1],
    }, info_sets={"h3": ["yh", "yt"]}, feasible=[[2, 3]])
    tree, utils = load_game_text(text)
    sub = spne_in_subgame(tree, utils, root="y")
    half = Fraction(1, 2)
    assert sub.outcome == (0, 0, 0)
    assert dict(sub.actions["y"]) == {"H": half, "T": half}
    assert dict(sub.actions["h3"]) == {"h": half, "t": half}
    prof = solve_game(tree, utils)
    # P1 prefers the sure (1, 2, 2) to the zero-value contest; the {2,3}
    # merger inside the contest cannot rescue both players at once.
    assert prof.outcome == (1, 2, 2)


def _hand_solve_2x2(cells, feasible_grand=True):
    """Independent enumeration of the one-shot coalitional 2x2 game.

    `cells` maps (row, col) in {0,1}^2 to (u1, u2) Fractions. Returns the
    predicted outcome vector.
    """
    def nash_value():
        for r, c in product((0, 1), (0, 1)):  # row-major
            u = cells[(r, c)]
            if all(cells[(rr, c)][0] <= u[0] for rr in (0, 1)) and \
                    all(cells[(r, cc)][1] <= u[1] for cc in (0, 1)):
                return u
        A = [[cells[(r, c)][0] for c in (0, 1)] for r in (0, 1)]
        B = [[cells[(r, c)][1] for c in (0, 1)] for r in (0, 1)]
        q = (A[1][1] - A[0][1]) / (A[0][0] - A[0][1] - A[1][0] + A[1][1])
        p = (B[1][1] - B[1][0]) / (B[0][0] - B[1][0] - B[0][1] + B[1][1])
        probs = {(r, c): (p if r == 0 else 1 - p) * (q if c == 0 else 1 - q)
                 for r, c in cells}
        v1 = sum(probs[rc] * cells[rc][0] for rc in cells)
        v2 = sum(probs[rc] * cells[rc][1] for rc in cells)
        return (v1, v2)

    base = nash_value()
    if not feasible_grand:
        return base
    best_cell, best_key = None, None
    for r, c in product((0, 1), (0, 1)):
        u1, u2 = cells[(r, c)]
        key = (min(u1, u2), u1, u2)
        if best_key is None or key > best_key:
            best_cell, best_key = (r, c), key
    u1, u2 = cells[best_cell]
    if u1 > base[0] and u2 > base[1]:
        return (u1, u2)
    return base


def _simultaneous_game_text(cells):
    return make_game_text({
        "r": {"player": 1, "actions": {"U": "ru", "D": "rd"}},
        "ru": {"player": 2, "actions": {"L": "z00", "R": "z01"}},
        "rd": {"player": 2, "actions": {"L": "z10", "R": "z11"}},
        "z00": [int(cells[(0, 0)][0]), int(cells[(0, 0)][1])],
        "z01": [int(cells[(0, 1)][0]), int(cells[(0, 1)][1])],
        "z10": [int(cells[(1, 0)][0]), int(cells[(1, 0)][1])],
        "z11": [int(cells[(1, 1)][0]), int(cells[(1, 1)][1])],
    }, players=2, info_sets={"h2": ["ru", "rd"]})


def test_random_2x2_coalitional_games_match_hand_enumeration():
    rng = random.Random(404)
    for _ in range(200):
        values = rng.sample(range(-20, 40), 8)
        cells = {(r, c): (Fraction(values.pop()), Fraction(values.pop()))
                 for r, c in product((0, 1), (0, 1))}
        tree, utils = load_game_text(_simultaneous_game_text(cells))
        prof = solve_game(tree, utils)
        assert prof.outcome == _hand_solve_2x2(cells)


def test_pd_shaped_cells_adopt_grand_coalition():
    cells = {(0, 0): (Fraction(3), Fraction(3)), (0, 1): (Fraction(0), Fraction(5)),
             (1, 0): (Fraction(5), Fraction(0)), (1, 1): (Fraction(1), Fraction(1))}
    assert _hand_solve_2x2(cells) == (3, 3)
    tree, utils = load_game_text(_simultaneous_game_text(cells))
    prof = solve_game(tree, utils)
    assert prof.outcome == (3, 3)
    assert prof.coalition == (1, 2)


JORDAN_NODES = {
    "r": {"player": 1, "actions": {"H": "rh", "T": "rt"}},
    "rh": {"player": 2, "actions": {"h": "a1", "t": "a2"}},
    "rt": {"player": 2, "actions": {"h": "a3", "t": "a4"}},
    "a1": {"player": 3, "actions": {"x": "z1", "y": "z2"}},
    "a2": {"player": 3, "actions": {"x": "z3", "y": "z4"}},
    "a3": {"player": 3, "actions": {"x": "z5", "y": "z6"}},
    "a4": {"player": 3, "actions": {"x": "z7", "y": "z8"}},
    "z1": [1, 1, -1], "z2": [1, -1, 1], "z3": [-1, -1, -1], "z4": [-1, 1, 1],
    "z5": [-1, 1, 1], "z6": [-1, -1, -1], "z7": [1, -1, 1], "z8": [1, 1, -1],
}


def test_three_player_contested_layer_raises():
    text = make_game_text(JORDAN_NODES,
                          info_sets={"h2": ["rh", "rt"],
                                     "h3": ["a1", "a2", "a3", "a4"]})
    tree, utils = load_game_text(text)
    with pytest.raises(MixedEquilibriumUnsupported):
        solve_game(tree, utils)


def test_fixed_layer_resolve():
    # The SPNE extension of pinned successor play: free info sets
    # best-respond to the fixed ones.
    from cefg.model import singleton_partition
    from cefg.model import Valuation
    from cefg.noncoop import layer_play

    tree, utils = load_game_text(PD)
    view = singleton_partition(2)
    continuation = {}

    valuation = Valuation(tree, utils)
    assignment, dist = layer_play(valuation, view, "r", continuation,
                                  {"h2": "c"})
    assert assignment == {"r": "D"}
    assert dict(dist) == {"z3": Fraction(1)}

    mixed = (("c", Fraction(1, 2)), ("d", Fraction(1, 2)))
    assignment, dist = layer_play(valuation, view, "r", continuation,
                                  {"h2": mixed})
    assert assignment == {"r": "D"}  # 3 expected beats 1.5
    assert dict(dist) == {"z3": Fraction(1, 2), "z4": Fraction(1, 2)}


def test_singletons_only_cyclic_layer_above_decision_matches_spne():
    # A matching-pennies-like 2x2 layer whose (U, L) cell continues into a
    # decision node. The column set keeps the layer's mixed equilibrium,
    # so the row set above it must not be re-solved against that play.
    text = make_game_text({
        "r": {"player": 1, "actions": {"U": "ru", "D": "rd"}},
        "ru": {"player": 2, "actions": {"L": "c", "R": "z01"}},
        "rd": {"player": 2, "actions": {"L": "z10", "R": "z11"}},
        "c": {"player": 1, "actions": {"x": "zc1", "y": "zc2"}},
        "zc1": [2, 0], "zc2": [0, 5],
        "z01": [0, 1], "z10": [0, 3], "z11": [1, 0],
    }, players=2, info_sets={"h2": ["ru", "rd"]})
    tree, utils = load_game_text(text)
    spne = spne_in_subgame(tree, utils)
    prof = solve_game(tree, utils, singletons_only=True)
    assert spne.outcome == (Fraction(2, 3), Fraction(3, 4))
    assert prof.outcome == spne.outcome
    for sid in ("r", "h2"):
        assert prof.root_entry.actions[sid] == spne.actions[sid]


def test_pinned_set_index_point():
    # r0 and h0 share the top layer. h0 adopts {1,2}, which pins its
    # action, so r0's index point re-solves the layer against that pin
    # instead of starting from the layer equilibrium.
    tree, utils = load_game(LAYERED)
    prof = solve_game(tree, utils)
    lines = render_trace(prof).splitlines()
    at = lines.index("[h0] adopted {1,2} -> (33, 31)")
    assert lines[at + 1] == "[r0] index point -> (36, 12)"
    assert prof.outcome == (36, 12)
    assert prof.partition == ((1,), (2,))
    assert bracket_summary(prof) == (
        "[{R0b,C1a,mix(R2a=1/2,R2b=1/2)},"
        "{C0b,R1a,mix(C2a=17/36,C2b=19/36)}; 1,2]")


def test_pinned_set_index_point_of_a_committed_prisoners_dilemma():
    # PD with P1's `keep` node below (C, c), so that h2 has a decision node
    # below it. Derived from README's definition: the layer of r holds r and
    # h2, and h2 adopts first, because it lies below r.
    # - Layer equilibrium: (D, d) -> (1, 1), the only pure equilibrium; keep
    #   is worth (3, 3) to P1 alone and to {1,2} alike.
    # - h2 (P2): index point (1, 1). The {1,2} supergame maximizes
    #   min(u1, u2) over the four cells: (C, c) -> (3, 3). P1 and P2 both
    #   gain (3 > 1), so h2 adopts {1,2} and pins c.
    # - r (P1): the layer re-solved with h2 pinned to c is P1's best reply to
    #   c, D -> (5, 0). The {1,2} point (3, 3) does not improve P1 (3 <= 5),
    #   so r adopts its index point: (5, 0) with no coalition.
    # Starting r from the layer equilibrium instead would accept (3, 3) with
    # {1,2}, the answer of `PD`, whose h2 has no decision node below it.
    tree, utils = load_game_text(make_game_text({
        "r": {"player": 1, "actions": {"C": "rc", "D": "rd"}},
        "rc": {"player": 2, "actions": {"c": "k", "d": "z2"}},
        "rd": {"player": 2, "actions": {"c": "z3", "d": "z4"}},
        "k": {"player": 1, "actions": {"keep": "z1", "quit": "z0"}},
        "z1": [3, 3], "z0": [0, 0], "z2": [0, 5], "z3": [5, 0], "z4": [1, 1],
    }, players=2, info_sets={"h2": ["rc", "rd"]}))
    prof = solve_game(tree, utils)
    assert [(s.node, s.kind, s.coalition, s.outcome) for s in prof.trace_steps()
            if s.node != "k"] == [
        ("h2", "index-point", None, (1, 1)),
        ("h2", "supergame-solved", (1, 2), (3, 3)),
        ("h2", "ir-accepted", (1, 2), (3, 3)),
        ("h2", "adopted", (1, 2), (3, 3)),
        ("r", "index-point", None, (5, 0)),
        ("r", "supergame-solved", (1, 2), (3, 3)),
        ("r", "ir-rejected", (1, 2), (3, 3)),
        ("r", "adopted", None, (5, 0)),
    ]
    assert (prof.outcome, prof.partition, prof.coalition) == ((5, 0), ((1,), (2,)), None)
    assert prof.root_entry.actions == {"r": "D", "h2": "c", "k": "keep"}


def test_pinned_set_index_point_at_the_root():
    # The root n0 (player 1) shares its layer with h0 = {n2, n7} (player 2).
    # h0 adopts first and pins its action, so n0's index point re-solves
    # the layer against that pin; starting from the layer equilibrium
    # instead ends at (3, 5, 0) with {1,2} merged. This pins today's answer,
    # found by a search over `_imperfect_games` at seeds 1-4; it is not an
    # independent reference.
    tree, utils = load_game_text(make_game_text({
        "n0": {"player": 1, "actions": {"a": "n1", "b": "n2", "c": "n7"}},
        "n1": [1, 4, 0],
        "n2": {"player": 2, "actions": {"a": "n3", "b": "n4"}},
        "n3": [2, 0, 3],
        "n4": {"player": 3, "actions": {"a": "n5", "b": "n6"}},
        "n5": [6, 0, 3], "n6": [0, 5, 1],
        "n7": {"player": 2, "actions": {"a": "n8", "b": "n9"}},
        "n8": [2, 5, 6], "n9": [3, 5, 0],
    }, info_sets={"h0": ["n2", "n7"]}))
    prof = solve_game(tree, utils)
    assert prof.outcome == (6, 0, 3)
    assert prof.partition == ((1,), (2,), (3,))
    assert bracket_summary(prof) == "[{b},{b},{a}; 1,2,3]"


def _imperfect_games(seed, draws):
    """Seeded 2-3 player games of depth at most 3, with payoffs in 0..6 so
    that values tie, and same-player decision nodes of equal width paired
    into information sets; yields the draws that validate and have a
    non-singleton set."""
    rng = random.Random(seed)
    for _ in range(draws):
        players, nodes = rng.randint(2, 3), {}

        def build(depth):
            nid = f"n{len(nodes)}"
            nodes[nid] = None  # reserve the id before the children take theirs
            if depth == 3 or (depth and rng.random() < 0.3):
                nodes[nid] = [rng.randint(0, 6) for _ in range(players)]
            else:
                labels = "abc"[:rng.choice((2, 2, 3))]
                nodes[nid] = {"player": rng.randint(1, players),
                              "actions": {a: build(depth + 1) for a in labels}}
            return nid

        build(0)
        groups: dict = {}
        for nid, body in nodes.items():
            if isinstance(body, dict):
                groups.setdefault((body["player"], len(body["actions"])), []).append(nid)
        info_sets = {}
        for members in groups.values():
            rng.shuffle(members)
            for k in range(0, len(members) - 1, 2):
                if rng.random() < 0.7:
                    info_sets[f"h{len(info_sets)}"] = members[k:k + 2]
        if not info_sets:
            continue
        try:
            yield load_game_text(make_game_text(nodes, players=players,
                                                info_sets=info_sets))
        except GameValidationError:
            continue


def test_reduction_and_ir_invariants_on_imperfect_information():
    # With only singletons feasible, RI is the SPNE, also where the sets of
    # a wider layer adopt bottom-up; the full solve keeps the acceptance
    # rule's invariants.
    checked = set_steps = 0
    for seed in (1, 2):
        for tree, utils in _imperfect_games(seed, 2000):
            try:
                single = solve_game(tree, utils, singletons_only=True)
                spne = spne_in_subgame(tree, utils)
                full = solve_game(tree, utils)
            except (MixedEquilibriumUnsupported, TooLarge):
                continue
            except CefgError as exc:  # refused, as `test_solver_error_exits_3` pins
                assert "information-set order has a cycle" in str(exc)
                continue
            assert single.outcome == spne.outcome
            assert single.root_entry.actions == spne.actions
            check_ir_invariants(full)
            checked += 1
            set_steps += sum(len(tree.info_sets.get(step.node, ())) > 1
                             for step in full.audit)
    assert checked >= 200 and set_steps >= 200
