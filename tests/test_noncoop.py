"""Backward induction, best responses, and equilibrium selection."""

import json
import random
import time
from fractions import Fraction
from itertools import combinations, product
from math import prod
from pathlib import Path

import pytest

from cefg import (
    ImperfectInformation,
    MixedEquilibriumUnsupported,
    TooLarge,
    backward_induction,
    load_game,
    load_game_text,
    solve_game,
    spne_in_subgame,
)
from cefg import noncoop
from cefg.model import (
    Valuation,
    block_containing,
    block_value,
    singleton_partition,
)
from cefg.noncoop import _layer_equilibrium, layer_play, support_enumeration
from cefg.oracle import random_game
from cefg.ri import _Solver
from conftest import make_game_text, spanning_set_text, wide_layer_text

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_bi_abortion(abortion):
    tree, utils = abortion
    sol = backward_induction(tree, utils)
    assert sol.outcome == (3, 2, 1)
    assert sol.actions["g"] == "Illegal"
    assert sol.actions["a"] == "N"


def test_bi_example2(example2):
    tree, utils = example2
    sol = backward_induction(tree, utils)
    assert sol.outcome == (5, 5, 3)


def test_bi_supergame_example2(example2):
    # The solver's own entry for the {1,3} supergame: BI with 1 and 3 merged.
    tree, utils = example2
    solver = _Solver(tree, utils)
    solver.solve(tree.root, singleton_partition(tree.n_players))
    sol = solver.memo[((1, 3), (2,))]["x7"]
    assert sol.outcome == (6, 3, 5)
    assert sol.actions["x7"] == "R"
    assert sol.actions["x6"] == "d"
    assert sol.actions["x4"] == "l"


def test_bi_rejects_imperfect_information():
    text = make_game_text({
        "r": {"player": 1, "actions": {"a": "m1", "b": "m2"}},
        "m1": {"player": 2, "actions": {"x": "z1", "y": "z2"}},
        "m2": {"player": 2, "actions": {"x": "z3", "y": "z4"}},
        "z1": [1, 1, 0], "z2": [2, 2, 0], "z3": [3, 3, 0], "z4": [4, 4, 0],
    }, info_sets={"h": ["m1", "m2"]})
    tree, utils = load_game_text(text)
    with pytest.raises(ImperfectInformation):
        backward_induction(tree, utils)


def _best_response(tree, utils, x, subs, partition=None):
    """The one-node layer at `x` played over the solved children `subs`:
    (the chosen label, the mover's block value of the dist it reaches)."""
    partition = partition or singleton_partition(tree.n_players)
    valuation = Valuation(tree, utils)
    continuation = {child: sol.dist for child, sol in subs.items()}
    own, dist = layer_play(valuation, partition, x, continuation)
    block = block_containing(partition, tree.nodes[x].player)
    return own[tree.info_set_of(x)], block_value(block, dist, partition, valuation)


def test_best_response_at_x6(example2):
    tree, utils = example2
    subs = {c: spne_in_subgame(tree, utils, root=c) for c in ("x3", "x4")}
    action, value = _best_response(tree, utils, "x6", subs)
    assert action == "c" and value == 2


def test_best_response_single_action():
    text = make_game_text({
        "r": {"player": 1, "actions": {"only": "z"}},
        "z": [4, 0, 0],
    })
    tree, utils = load_game_text(text)
    subs = {"z": spne_in_subgame(tree, utils, root="z")}
    action, value = _best_response(tree, utils, "r", subs)
    assert action == "only" and value == 4


def test_best_response_tie_takes_first_declared():
    text = make_game_text({
        "r": {"player": 1, "actions": {"a": "z1", "b": "z2"}},
        "z1": [2, 5, 0], "z2": [2, 9, 0],
    })
    tree, utils = load_game_text(text)
    subs = {z: spne_in_subgame(tree, utils, root=z) for z in ("z1", "z2")}
    action, value = _best_response(tree, utils, "r", subs)
    assert action == "a" and value == 2


@pytest.mark.parametrize("payoffs, want", [
    # The coalition's value is its members' minimum, 1 under both actions.
    (([1, 3, 0], [3, 1, 0]), "b"),  # member 1 gains under the second action
    (([1, 2, 0], [1, 5, 0]), "b"),  # member 1 ties, member 2 gains
    (([2, 2, 0], [2, 2, 5]), "a"),  # the members tie too: first declared
])
def test_best_response_merged_tie_goes_to_the_lowest_member(payoffs, want):
    text = make_game_text({
        "r": {"player": 1, "actions": {"a": "z1", "b": "z2"}},
        "z1": payoffs[0], "z2": payoffs[1],
    })
    tree, utils = load_game_text(text)
    subs = {z: spne_in_subgame(tree, utils, root=z) for z in ("z1", "z2")}
    action, value = _best_response(tree, utils, "r", subs, ((1, 2), (3,)))
    assert action == want and value == min(payoffs[0][:2])


def test_merged_tie_in_a_wider_layer_goes_to_the_lowest_member():
    # P1 moves at g, then P2 moves at x or y without seeing P1's move. The
    # coalition {1,2} values each outcome at its members' minimum: La and Rb
    # both give it 2, and Lb and Ra 0. Its members break the tie, member 1
    # first: Rb gives member 1 5, La only 2. So the one player of this
    # two-set layer picks (R, b), as a one-node layer of its own would.
    tree, utils = load_game_text(make_game_text({
        "g": {"player": 1, "actions": {"L": "x", "R": "y"}},
        "x": {"player": 2, "actions": {"a": "zLa", "b": "zLb"}},
        "y": {"player": 2, "actions": {"a": "zRa", "b": "zRb"}},
        "zLa": [2, 5], "zLb": [0, 0], "zRa": [0, 0], "zRb": [5, 2],
    }, players=2, info_sets={"h": ["x", "y"]}))
    assert layer_play(Valuation(tree, utils), ((1, 2),), "g", {}) == \
        ({"g": "R", "h": "b"}, (("zRb", 1),))


def _partitions(n):
    """Every partition of players 1..n, each block sorted and the blocks
    ordered by their least member."""
    parts = [()]
    for i in range(1, n + 1):
        parts = [p[:k] + (b + (i,),) + p[k + 1:] for p in parts for k, b in enumerate(p)] \
            + [p + ((i,),) for p in parts]
    return parts


def test_one_node_layer_game_equals_best_response(abortion, example2,
                                                  example2_modified):
    # `layer_play` answers a one-node layer by its owner's best response
    # instead of playing its normal form; both must pick the same action and
    # dist under every view. random_game payoffs are distinct, so a game with
    # a tie at every node checks that both take the first maximizer, and,
    # under a merged view, that both break the coalition's ties by its
    # members' values.
    ties = load_game_text(make_game_text({
        "r": {"player": 1, "actions": {"a": "m1", "b": "m2"}},
        "m1": {"player": 2, "actions": {"x": "z1", "y": "z2"}},
        "m2": {"player": 3, "actions": {"x": "z3", "y": "z4"}},
        "z1": [1, 4, 0], "z2": [3, 4, 0], "z3": [1, 0, 2], "z4": [0, 1, 2],
    }))
    rng = random.Random(77)
    games = [abortion, example2, example2_modified, ties]
    games += [random_game(rng) for _ in range(60)]
    for tree, utils in games:
        valuation = Valuation(tree, utils)
        views = [p for p in _partitions(tree.n_players) if all(map(utils.is_feasible, p))]
        for g in tree.decision_ids:
            continuation = {y: spne_in_subgame(tree, utils, root=y).dist
                            for y in tree.frontier_of(g)}
            for partition in views:
                assert layer_play(valuation, partition, g, continuation) == \
                    _layer_equilibrium(valuation, partition, g, continuation, {})


MATCHING_PENNIES = make_game_text({
    "r": {"player": 1, "actions": {"H": "rh", "T": "rt"}},
    "rh": {"player": 2, "actions": {"h": "z1", "t": "z2"}},
    "rt": {"player": 2, "actions": {"h": "z3", "t": "z4"}},
    "z1": [1, -1], "z2": [-1, 1], "z3": [-1, 1], "z4": [1, -1],
}, players=2, info_sets={"h2": ["rh", "rt"]})


def test_spne_matching_pennies_mixed():
    tree, utils = load_game_text(MATCHING_PENNIES)
    sol = spne_in_subgame(tree, utils)
    assert sol.outcome == (0, 0)
    half = Fraction(1, 2)
    assert dict(sol.actions["r"]) == {"H": half, "T": half}
    assert dict(sol.actions["h2"]) == {"h": half, "t": half}


def test_support_enumeration_against_analytic_2x2():
    # For a 2x2 game with no pure equilibrium the mixed equilibrium is
    # unique and has a closed form; cross-check on random integer games.
    rng = random.Random(11)
    checked = 0
    while checked < 50:
        A = [[Fraction(rng.randint(-9, 9)) for _ in range(2)] for _ in range(2)]
        B = [[Fraction(rng.randint(-9, 9)) for _ in range(2)] for _ in range(2)]
        if _has_pure_nash(A, B):
            continue
        den_q = A[0][0] - A[0][1] - A[1][0] + A[1][1]
        den_p = B[0][0] - B[1][0] - B[0][1] + B[1][1]
        if den_q == 0 or den_p == 0:
            continue
        q = (A[1][1] - A[0][1]) / den_q   # column player's prob of first column
        p = (B[1][1] - B[1][0]) / den_p   # row player's prob of first row
        if not (0 <= p <= 1 and 0 <= q <= 1):
            continue
        res = support_enumeration(A, B)
        assert res is not None
        x, y = res
        assert x == [p, 1 - p]
        assert y == [q, 1 - q]
        checked += 1


def _has_pure_nash(A, B):
    for i, j in product(range(2), range(2)):
        if all(A[k][j] <= A[i][j] for k in range(2)) and \
                all(B[i][k] <= B[i][j] for k in range(2)):
            return True
    return False


def _reference_support_enumeration(A, B):
    # Support enumeration as it was written over `Fraction`s, kept as the
    # independent reference for the integer kernel.
    m, n = len(A), len(A[0])
    for size in range(2, min(m, n) + 1):
        for sup_r in combinations(range(m), size):
            for sup_c in combinations(range(n), size):
                res = _reference_check_support(A, B, sup_r, sup_c)
                if res is not None:
                    return res
    return None


def _reference_check_support(A, B, sup_r, sup_c):
    m, n = len(A), len(A[0])
    y_part = _reference_solve_indifference([[A[i][j] for j in sup_c] for i in sup_r])
    if y_part is None or any(p < 0 for p in y_part[0]):
        return None
    x_part = _reference_solve_indifference([[B[i][j] for i in sup_r] for j in sup_c])
    if x_part is None or any(p < 0 for p in x_part[0]):
        return None
    y_probs, v = y_part
    x_probs, w = x_part
    x = [Fraction(0)] * m
    y = [Fraction(0)] * n
    for k, i in enumerate(sup_r):
        x[i] = x_probs[k]
    for k, j in enumerate(sup_c):
        y[j] = y_probs[k]
    for i in range(m):
        if i not in sup_r and sum(A[i][j] * y[j] for j in range(n)) > v:
            return None
    for j in range(n):
        if j not in sup_c and sum(B[i][j] * x[i] for i in range(m)) > w:
            return None
    return x, y


def _reference_solve_indifference(M):
    k = len(M)
    rows = [[M[i][j] for j in range(k)] + [Fraction(-1), Fraction(0)]
            for i in range(k)]
    rows.append([Fraction(1)] * k + [Fraction(0), Fraction(1)])
    sol = _reference_gauss(rows, k + 1)
    if sol is None:
        return None
    return sol[:k], sol[k]


def _reference_gauss(rows, unknowns):
    rows = [list(r) for r in rows]
    for col in range(unknowns):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = [v / head for v in rows[col]]
        for r in range(len(rows)):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    for r in range(unknowns, len(rows)):
        if rows[r][-1] != 0:
            return None
    return [rows[r][-1] for r in range(unknowns)]


def _reference_determinant(rows):
    rows = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, len(rows)):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


@pytest.mark.parametrize("k", [2, 3, 4])
def test_indifference_matches_the_fraction_reference(k):
    # Seeded integer k x k systems, each solved on its own: the closed
    # forms (k = 2 and 3) and Bareiss (k = 4) against Fraction
    # Gauss-Jordan. Some draws repeat a row or a column, so the tallies
    # show singular systems as well as systems of negative determinant.
    rng = random.Random(3000 + k)
    seen = {"solved": 0, "singular": 0, "negative": 0}
    for _ in range(2000):
        M = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(k)]
        if rng.random() < 0.2:
            i, j = rng.sample(range(k), 2)
            M[i] = list(M[j])
        elif rng.random() < 0.2:
            i, j = rng.sample(range(k), 2)
            for row in M:
                row[i] = row[j]
        got = noncoop._indifferent(M)
        want = _reference_solve_indifference([[Fraction(v) for v in row] for row in M])
        det = _reference_determinant([row + [-1] for row in M] + [[1] * k + [0]])
        assert (want is None) == (det == 0)
        if want is None:
            assert got is None, M
            seen["singular"] += 1
            continue
        probs, value, den = got
        assert den > 0
        assert [Fraction(q, den) for q in probs] == want[0], M
        assert Fraction(value, den) == want[1], M
        seen["solved"] += 1
        seen["negative"] += det < 0
    assert min(seen.values()) > 500, seen


def test_layer_walk_matches_its_definition():
    # The chance root of `chance-mixed-stack` weights its branches 2/7 and
    # 5/7; below x, a mixed 3x3 layer sits above the frontier node s, whose
    # dist is itself mixed. A terminal's probability is the product of the
    # probabilities on its path; a zero-probability branch reaches nothing.
    tree, _ = load_game(GOLDEN / "chance-mixed-stack.game")
    F = Fraction
    s_dist = (("zHh", F(1, 12)), ("zHt", F(1, 4)), ("zTh", F(1, 6)), ("zTt", F(1, 2)))
    assignment = {"x": (("A", F(1, 3)), ("B", F(0)), ("C", F(2, 3))),
                  "hx": (("a", F(1, 4)), ("b", F(0)), ("c", F(3, 4)))}
    x_dist = noncoop._layer_walk(tree, "x", {"s": s_dist}, assignment)
    assert x_dist == (
        ("zAa", F(1, 3) * F(1, 4)),
        ("zAc", F(1, 3) * F(3, 4)),
        ("zCa", F(2, 3) * F(1, 4)),
        ("zHh", F(2, 3) * F(3, 4) * F(1, 12)),
        ("zHt", F(2, 3) * F(3, 4) * F(1, 4)),
        ("zTh", F(2, 3) * F(3, 4) * F(1, 6)),
        ("zTt", F(2, 3) * F(3, 4) * F(1, 2)),
    )
    root_dist = noncoop._layer_walk(tree, "root", {"x": x_dist, "w": (("zwl", 1),)}, {})
    assert root_dist == (
        ("zAa", F(2, 7) * F(1, 3) * F(1, 4)),
        ("zAc", F(2, 7) * F(1, 3) * F(3, 4)),
        ("zCa", F(2, 7) * F(2, 3) * F(1, 4)),
        ("zHh", F(2, 7) * F(2, 3) * F(3, 4) * F(1, 12)),
        ("zHt", F(2, 7) * F(2, 3) * F(3, 4) * F(1, 4)),
        ("zTh", F(2, 7) * F(2, 3) * F(3, 4) * F(1, 6)),
        ("zTt", F(2, 7) * F(2, 3) * F(3, 4) * F(1, 2)),
        ("zwl", F(5, 7)),
    )
    assert all(type(p) is Fraction for _, p in root_dist)
    # Pure play down to a frontier node ends in that node's dist, as is.
    pure = noncoop._layer_walk(tree, "x", {"s": s_dist}, {"x": "C", "hx": "c"})
    assert pure is s_dist


def test_support_enumeration_matches_the_fraction_reference():
    # Seeded m x n bimatrices (m, n in 2..4) with p/q entries, q in
    # {1, 2, 3, 6}, some with a duplicated row or column. For a 2 x 2
    # support the indifference system's determinant is a - b - c + d, so
    # the tallies below show that the corpus holds singular supports and
    # supports whose elimination ends on a negative pivot.
    rng = random.Random(13)
    seen = {"mixed": 0, "none": 0, "duplicated": 0, "singular": 0,
            "negative": 0}
    for _ in range(5000):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        A, B = ([[Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 6)))
                  for _ in range(n)] for _ in range(m)] for _ in range(2))
        if rng.random() < 0.3:
            i, k = rng.sample(range(m), 2)
            A[i], B[i] = list(A[k]), list(B[k])
            seen["duplicated"] += 1
        if rng.random() < 0.3:
            j, k = rng.sample(range(n), 2)
            for row in A + B:
                row[j] = row[k]
            seen["duplicated"] += 1
        for M in (A, B):
            for (i, k), (j, l) in product(combinations(range(m), 2),
                                          combinations(range(n), 2)):
                det = M[i][j] - M[i][l] - M[k][j] + M[k][l]
                seen["singular"] += det == 0
                seen["negative"] += det < 0
        want = _reference_support_enumeration(A, B)
        assert support_enumeration(A, B) == want, (A, B)
        seen["none" if want is None else "mixed"] += 1
    assert min(seen.values()) > 1000, seen


def test_coordination_game_selects_first_pure_row_major():
    text = make_game_text({
        "r": {"player": 1, "actions": {"A": "ra", "B": "rb"}},
        "ra": {"player": 2, "actions": {"A": "z1", "B": "z2"}},
        "rb": {"player": 2, "actions": {"A": "z3", "B": "z4"}},
        "z1": [1, 1], "z2": [0, 0], "z3": [0, 0], "z4": [2, 2],
    }, players=2, info_sets={"h2": ["ra", "rb"]})
    tree, utils = load_game_text(text)
    sol = spne_in_subgame(tree, utils)
    # (A, A) comes before (B, B) in row-major enumeration.
    assert sol.actions["r"] == "A" and sol.actions["h2"] == "A"
    assert sol.outcome == (1, 1)


def _random_layer(rng, n, m):
    """One simultaneous-move layer of `n` players with `m` actions each.

    Player 1 moves at the root r with actions a0, a1, ...; players 2 and 3
    move at information sets h2 and h3 with actions b* and c*. The terminal
    of a pure profile is z followed by its action indices. Payoffs are 0-3,
    so ties are common.
    """
    def node_id(prefix):
        if not prefix:
            return "r"
        return ("z" if len(prefix) == n else "n") + "".join(map(str, prefix))

    nodes, info_sets = {}, {}
    for depth in range(n + 1):
        for prefix in product(range(m), repeat=depth):
            nid = node_id(prefix)
            if depth == n:
                nodes[nid] = [rng.randint(0, 3) for _ in range(n)]
                continue
            nodes[nid] = {"player": depth + 1, "actions": {
                "abc"[depth] + str(a): node_id(prefix + (a,)) for a in range(m)}}
            if depth:
                info_sets.setdefault(f"h{depth + 1}", []).append(nid)
    return make_game_text(nodes, players=n, info_sets=info_sets)


def _layer_sweep():
    """Seeded 2x2, 2x3 and 3x2 layers: (tree, utils, n, m, each pure
    profile's payoffs in row-major order)."""
    rng = random.Random(5)
    for n, m in [(2, 2)] * 100 + [(2, 3)] * 100 + [(3, 2)] * 100:
        tree, utils = load_game_text(_random_layer(rng, n, m))
        pay = {profile: tree.nodes["z" + "".join(map(str, profile))].payoffs
               for profile in product(range(m), repeat=n)}
        yield tree, utils, n, m, pay


def test_layer_game_matches_its_definition():
    # Pure equilibria: the first row-major profile that no unilateral
    # deviation strictly improves. Without one, two players mix by support
    # enumeration over the payoff matrices built here; three players raise.
    seen = {"pure": 0, "mixed": 0, "none": 0}
    for tree, utils, n, m, pay in _layer_sweep():
        sets = ["r"] + [f"h{k}" for k in range(2, n + 1)]
        def play():
            return layer_play(Valuation(tree, utils), singleton_partition(n), "r", {})
        pure = next((p for p in pay if all(
            pay[p[:k] + (alt,) + p[k + 1:]][k] <= pay[p][k]
            for k in range(n) for alt in range(m))), None)
        if pure is not None:
            want = {sid: "abc"[k] + str(pure[k]) for k, sid in enumerate(sets)}
            dist = (("z" + "".join(map(str, pure)), Fraction(1)),)
            assert play() == (want, dist)
            seen["pure"] += 1
            continue
        found = None
        if n == 2:
            A = [[pay[(i, j)][0] for j in range(m)] for i in range(m)]
            B = [[pay[(i, j)][1] for j in range(m)] for i in range(m)]
            found = support_enumeration(A, B)
        if found is None:
            with pytest.raises(MixedEquilibriumUnsupported):
                play()
            seen["none"] += 1
            continue
        x, y = found
        want = {"r": tuple((f"a{i}", x[i]) for i in range(m)),
                "h2": tuple((f"b{j}", y[j]) for j in range(m))}
        dist = tuple(sorted((f"z{i}{j}", x[i] * y[j])
                            for i in range(m) for j in range(m) if x[i] * y[j]))
        assert play() == (want, dist)
        seen["mixed"] += 1
    assert all(seen.values()), seen


def test_pinned_layer_matches_its_definition():
    # RI's index point above pinned sets re-solves the layer with them
    # fixed. Pinning each set in turn to each of its actions, the free sets
    # play the first row-major pure equilibrium of what is left; without
    # one, two free players mix so that neither gains by a pure deviation.
    def expected(k, probs):  # player k's payoff when player i mixes probs[i]
        return sum(prod(probs[i].get(p[i], 0) for i in range(n)) * pay[p][k]
                   for p in pay)

    seen = {"pure": 0, "mixed": 0}
    for tree, utils, n, m, pay in _layer_sweep():
        sets = ["r"] + [f"h{k}" for k in range(2, n + 1)]
        valuation = Valuation(tree, utils)
        for pin, pinned in enumerate(sets):
            free = [k for k in range(n) if k != pin]
            for a in range(m):
                own, dist = layer_play(valuation, singleton_partition(n), "r",
                                       {}, {pinned: "abc"[pin] + str(a)})
                pure = next((p for p in pay if p[pin] == a and all(
                    pay[p[:k] + (alt,) + p[k + 1:]][k] <= pay[p][k]
                    for k in free for alt in range(m))), None)
                if pure is not None:
                    want = {sets[k]: "abc"[k] + str(pure[k]) for k in free}
                    reached = (("z" + "".join(map(str, pure)), Fraction(1)),)
                    assert (own, dist) == (want, reached)
                    seen["pure"] += 1
                    continue
                assert len(free) == 2 and set(own) == {sets[k] for k in free}
                probs = [{a: 1} if k == pin else
                         {int(label[1:]): p for label, p in own[sets[k]]}
                         for k in range(n)]
                for k in free:
                    held = expected(k, probs)
                    for alt in range(m):
                        deviated = probs[:k] + [{alt: 1}] + probs[k + 1:]
                        assert expected(k, deviated) <= held
                assert dist == tuple(sorted(
                    ("z" + "".join(map(str, p)), w) for p in pay
                    if (w := prod(probs[i].get(p[i], 0) for i in range(n)))))
                seen["mixed"] += 1
    assert all(seen.values()), seen


JORDAN = make_game_text({
    "r": {"player": 1, "actions": {"H": "rh", "T": "rt"}},
    "rh": {"player": 2, "actions": {"h": "a1", "t": "a2"}},
    "rt": {"player": 2, "actions": {"h": "a3", "t": "a4"}},
    "a1": {"player": 3, "actions": {"x": "z1", "y": "z2"}},
    "a2": {"player": 3, "actions": {"x": "z3", "y": "z4"}},
    "a3": {"player": 3, "actions": {"x": "z5", "y": "z6"}},
    "a4": {"player": 3, "actions": {"x": "z7", "y": "z8"}},
    # P1 wants to match P2, P2 wants to match P3, P3 wants to mismatch P1.
    "z1": [1, 1, -1], "z2": [1, -1, 1], "z3": [-1, -1, -1], "z4": [-1, 1, 1],
    "z5": [-1, 1, 1], "z6": [-1, -1, -1], "z7": [1, -1, 1], "z8": [1, 1, -1],
}, info_sets={"h2": ["rh", "rt"], "h3": ["a1", "a2", "a3", "a4"]})


def test_three_player_mixed_layer_is_unsupported():
    tree, utils = load_game_text(JORDAN)
    with pytest.raises(MixedEquilibriumUnsupported):
        spne_in_subgame(tree, utils)


def test_layer_at_the_profile_bound_is_accepted_and_above_it_refused(
        monkeypatch):
    # The depth-4 wide layer has 8 x 8 = 64 pure profiles.
    tree, utils = load_game_text(wide_layer_text(4))
    base = singleton_partition(2)
    monkeypatch.setattr(noncoop, "_MAX_LAYER_PROFILES", 64)
    assignment, _ = layer_play(Valuation(tree, utils), base, "r", {})
    assert len(assignment) == 6
    monkeypatch.setattr(noncoop, "_MAX_LAYER_PROFILES", 63)
    with pytest.raises(TooLarge, match="layer at r has 64 pure profiles"):
        layer_play(Valuation(tree, utils), base, "r", {})
    with pytest.raises(TooLarge):
        solve_game(tree, utils)
    with pytest.raises(TooLarge):
        spne_in_subgame(tree, utils)


@pytest.mark.parametrize("depth,size", [
    (57, "576460752303423488"),  # 2 ** 59: 18 digits still print in full
    (58, "a 19-digit number of"),
    (15_000, "a 4517-digit number of"),  # past the 4,300 digits `str` allows
])
def test_refusal_of_a_wide_layer_names_a_long_count_by_its_digits(depth, size):
    # The root layer of `spanning_set_text(depth)` has 2 ** (depth + 2) profiles.
    tree, utils = load_game_text(spanning_set_text(depth))
    with pytest.raises(TooLarge, match=f"layer at r has {size} pure profiles, more than"):
        layer_play(Valuation(tree, utils), singleton_partition(2), "r", {})


def test_one_player_layer_scan_is_linear_in_its_profiles():
    # Under the merged view the depth-6 wide layer is 16,384 strategies of
    # one player, and its equilibria come late in row-major order, so a
    # scan quadratic in the profiles takes minutes.
    doc = json.loads(wide_layer_text(6))
    for nid, node in doc["nodes"].items():
        if "payoffs" in node:
            node["payoffs"] = [9, 9] if nid == "nbbbbbb" else [0, 0]
    tree, utils = load_game_text(json.dumps(doc))
    start = time.perf_counter()
    assignment, dist = layer_play(Valuation(tree, utils), ((1, 2),), "r", {})
    assert time.perf_counter() - start < 5.0
    assert dist == (("nbbbbbb", 1),)
    assert len(assignment) == 14


@pytest.mark.parametrize("depth,bound,dist,labels", [
    (4, 64, "naaab", "aaaaba"),
    (6, 16_384, "naaabaa", "aaaabaaaaaaaaa"),
])
def test_layer_reads_only_the_profiles_its_scan_needs(monkeypatch, depth, bound,
                                                      dist, labels):
    # The wide layer has `bound` pure profiles and an early pure equilibrium:
    # the scan walks fewer profiles than the layer holds, and still selects
    # the first pure equilibrium row-major, pinned here.
    walk, calls = noncoop._layer_walk, []
    monkeypatch.setattr(noncoop, "_layer_walk",
                        lambda *args: calls.append(1) or walk(*args))
    sol = spne_in_subgame(*load_game_text(wide_layer_text(depth)))
    assert len(calls) < bound
    assert sol.dist == ((dist, 1),)
    assert "".join(label for _, label in sorted(sol.actions.items())) == labels


def test_bi_profile_is_nash_under_single_node_deviations():
    rng = random.Random(5)
    for _ in range(120):
        tree, utils = random_game(rng, max_nodes=12, max_depth=3)
        sol = backward_induction(tree, utils)
        for nid in tree.decision_ids:
            node = tree.nodes[nid]
            held = _play_value(tree, sol.actions, tree.root, node.player)
            for label, _ in node.actions:
                if label == sol.actions[nid]:
                    continue
                deviated = dict(sol.actions)
                deviated[nid] = label
                assert _play_value(tree, deviated, tree.root, node.player) <= held


def _play_value(tree, actions, start, player):
    nid = start
    while not tree.nodes[nid].is_terminal:
        nid = tree.nodes[nid].child(actions[nid])
    return tree.nodes[nid].payoffs[player - 1]


def test_spne_restriction_is_equilibrium_in_subgames():
    rng = random.Random(9)
    for _ in range(60):
        tree, utils = random_game(rng, max_nodes=12, max_depth=3)
        sol = spne_in_subgame(tree, utils)
        for g in tree.decision_ids:
            sub = spne_in_subgame(tree, utils, root=g)
            for sid in sub.actions:
                assert sol.actions[sid] == sub.actions[sid]


def test_determinism_identical_solutions(example2):
    tree, utils = example2
    a = backward_induction(tree, utils)
    b = backward_induction(tree, utils)
    assert a == b
