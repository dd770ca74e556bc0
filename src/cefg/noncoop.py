"""Noncooperative baselines: backward induction and subgame-perfect equilibria.

These solvers treat the effective players of a view (merged coalitions count
as one player) as fully independent. They supply the index reference points
for the recursive solver and the `bi` CLI baseline.

Selection is deterministic everywhere:

* a player alone in its layer, at one node or at several sets, takes its
  first best response in declaration order; a merged player breaks ties in
  coalition utility by its members' individual ones, lowest member first;
* pure equilibria are enumerated row-major (players ordered by smallest
  member, strategies in declaration order) and the first one wins;
* mixed equilibria come from two-player support enumeration (integer-scaled,
  fraction-free, results exact), supports by size then lexicographic.

A layer's dist multiplies chance and mixed probabilities as integer pairs
and makes one `Fraction` per terminal reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product
from math import lcm, log10, prod
from operator import mul

from .errors import ImperfectInformation, MixedEquilibriumUnsupported, TooLarge
from .model import (
    Valuation,
    block_containing,
    block_value,
    dist_payoffs,
    singleton_partition,
)


# The most pure profiles a layer's normal form may have. `_layer_equilibrium`
# reads profiles on demand, but a layer of several players whose equilibrium
# comes late reads and keeps every one. With Python 3.11 on a 2-CPU host,
# `solve_game` on a layer of 16,384 profiles takes under 0.5 s; tabulating
# all 4,194,304 of a wider one ran out of a 2 GB address space.
_MAX_LAYER_PROFILES = 1 << 14


@dataclass(frozen=True)
class LocalSolution:
    """A solved subgame: full profile, terminal distribution, payoffs.

    `actions` maps info-set id to a pure action label or, for mixed play, to
    a tuple of (label, probability) pairs.
    """

    actions: dict
    dist: tuple
    outcome: tuple
    partition: tuple


def backward_induction(tree, utils) -> LocalSolution:
    """Standard backward induction over a perfect-information game, with
    every player independent: the subgame-perfect equilibrium of a tree
    whose every layer is one node.
    """
    if not tree.is_perfect_information:
        raise ImperfectInformation("backward induction needs singleton info sets")
    return spne_in_subgame(tree, utils)


# -- one layer as a normal-form game ------------------------------------------


def _layer_walk(tree, g, continuation, assignment) -> tuple:
    """Terminal distribution reached from subgame root `g` when each of its
    layer's information sets plays its action in `assignment`: a label or
    a mix of (label, probability) pairs. The chance root mixes its branches
    by their chance probabilities; a frontier node ends in its dist in
    `continuation`. A path's probability is an integer pair until its end;
    a tree reaches each terminal by one path, whose pair makes its `Fraction`."""
    nodes = tree.nodes
    ends, stack = [], [(g, 1, 1)]  # (node, its path's numerator, denominator)
    while stack:
        nid, num, den = stack.pop()
        node = nodes[nid]
        # Follow pure actions down to an end (a terminal or a frontier
        # node); a mixed action, or chance, stacks its branches instead.
        while not node.is_terminal and (nid == g or nid not in continuation):
            if node.player is None:
                act = tuple((label, tree.chance_at_root[c])
                            for label, c in node.actions)
            else:
                act = assignment[tree.info_set_of(nid)]
            if isinstance(act, tuple):
                stack.extend((node.child(label), num * p.numerator, den * p.denominator)
                             for label, p in act if p)
                break
            nid = node.child(act)
            node = nodes[nid]
        else:
            dist = ((nid, 1),) if node.is_terminal else continuation[nid]
            if num == den and not stack and not ends:
                return dist  # pure play: the only end, kept as is
            ends.extend((z, num * q.numerator, den * q.denominator) for z, q in dist)
    return tuple(sorted((z, Fraction(num, den)) for z, num, den in ends))


def _best_response(block, plays, partition, valuation) -> tuple:
    """The first of `plays`, (choice, dist) pairs in order, with `block`'s
    best value. A merged block breaks ties by its members' values, lowest
    member first, read only for the plays tied at the top."""
    def members(dist):
        return [block_value((i,), dist, partition, valuation) for i in block]
    best = None  # only the best play so far is kept
    for play in plays:
        value = block_value(block, play[1], partition, valuation)
        if best is None or value > top:
            best, top, key = play, value, None
        elif value == top and len(block) > 1:
            key = key or members(best[1])
            if (challenger := members(play[1])) > key:
                best, key = play, challenger
    return best


def _layer_equilibrium(valuation, partition, g, continuation, fixed) -> tuple:
    """Equilibrium of the reduced normal form of subgame `g`'s layer, played
    over the information sets that `fixed` does not pin: (their actions, each
    a label or ((label, prob), ...), and the dist reached). The chance
    root's layer has no players: its one profile mixes the branches.

    The normal form is read on demand: a pure profile's assignment, dist
    and block values are computed the first time the pure scan, or the
    bimatrix of support enumeration, reads that profile. A layer with one
    effective player is that player's best response, read in one pass.
    """
    tree = valuation.tree
    free = [s for s in tree.layer_info_sets(g) if s not in fixed]
    labels = {s: tree.nodes[tree.info_sets[s][0]].action_labels() for s in free}
    count = prod(len(ls) for ls in labels.values())
    if count > _MAX_LAYER_PROFILES:
        if count < 10 ** 18:
            size = str(count)
        else:  # a layer of thousands of sets has a count of thousands of digits
            digits = int(log10(count)) + 1
            digits += (count >= 10 ** digits) - (count < 10 ** (digits - 1))
            size = f"a {digits}-digit number of"
        raise TooLarge(
            f"the layer at {g} has {size} pure profiles, more than the "
            f"{_MAX_LAYER_PROFILES} its normal form may hold")
    owners = {s: block_containing(partition, tree.owner(s)) for s in free}
    players = sorted(set(owners.values()), key=lambda b: b[0])
    sets_of = [tuple(s for s in free if owners[s] == b) for b in players]
    if len(players) == 1:  # its best response, in one pass
        assignments = (dict(zip(free, strategy)) for strategy in product(*labels.values()))
        plays = ((a, _layer_walk(tree, g, continuation, {**fixed, **a})) for a in assignments)
        return _best_response(players[0], plays, partition, valuation)
    strategies = [list(product(*(labels[s] for s in sets))) for sets in sets_of]
    memo: dict = {}  # pure profile -> (assignment, dist, each player's block value)

    def play(profile):
        if profile not in memo:
            assignment = dict(zip(chain(*sets_of), chain(*profile)))
            dist = _layer_walk(tree, g, continuation, {**fixed, **assignment})
            memo[profile] = assignment, dist, tuple(
                block_value(b, dist, partition, valuation) for b in players)
        return memo[profile]

    # The first profile, row-major, where every player gets its best value
    # against the others; each is computed once, on first use.
    best: dict = {}  # (player k, the others' strategies) -> k's best value
    for profile in product(*strategies):
        assignment, dist, values = play(profile)
        for k, alts in enumerate(strategies):
            key = (k, profile[:k], profile[k + 1:])
            if key not in best:
                best[key] = max(play(key[1] + (a,) + key[2])[2][k] for a in alts)
            if values[k] < best[key]:
                break
        else:
            return assignment, dist
    if len(players) != 2:
        raise MixedEquilibriumUnsupported(
            f"no pure equilibrium in the layer at {g} and "
            f"{len(players)} players are involved")
    if any(len(sets) != 1 for sets in sets_of):
        raise MixedEquilibriumUnsupported(
            f"mixed play across several information sets at {g} "
            "is not supported")
    A, B = ([[play((r, c))[2][k] for c in strategies[1]] for r in strategies[0]]
            for k in (0, 1))
    found = support_enumeration(A, B)
    if found is None:
        raise MixedEquilibriumUnsupported(
            f"support enumeration found no equilibrium at {g}")
    assignment = {sid: tuple((label, p) for (label,), p in zip(strats, probs))
                  for (sid,), strats, probs in zip(sets_of, strategies, found)}
    return assignment, _layer_walk(tree, g, continuation, {**fixed, **assignment})


def support_enumeration(A, B):
    """First mixed equilibrium of a bimatrix game; results are exact.

    Precondition: the game has no pure equilibrium. A size-1 support pair
    passes exactly when it is a weak pure equilibrium, so the scan starts
    at size 2: equal-size support pairs, sizes ascending then
    lexicographic. Each matrix is scaled to integers once, by the lcm of
    its entries' denominators (a positive scale changes no indifference
    probability and no comparison), so every support pair is solved and
    tested fraction-free. Returns (x, y) as lists of `Fraction` or None.
    """
    A, B = _integer_scaled(A), _integer_scaled(B)
    m, n = len(A), len(A[0])
    for size in range(2, min(m, n) + 1):
        for sup_r in combinations(range(m), size):
            for sup_c in combinations(range(n), size):
                y = _indifferent([[A[i][j] for j in sup_c] for i in sup_r])
                if y is None or any(p < 0 for p in y[0]):
                    continue
                x = _indifferent([[B[i][j] for i in sup_r] for j in sup_c])
                if x is None or any(p < 0 for p in x[0]):
                    continue
                # Off the support, no pure reply may beat the value; both
                # sides are scaled by the same positive denominator.
                if any(sum(A[i][j] * p for j, p in zip(sup_c, y[0])) > y[1]
                       for i in range(m) if i not in sup_r):
                    continue
                if any(sum(B[i][j] * p for i, p in zip(sup_r, x[0])) > x[1]
                       for j in range(n) if j not in sup_c):
                    continue
                return _spread(x, sup_r, m), _spread(y, sup_c, n)
    return None


def _integer_scaled(M):
    d = lcm(*(v.denominator for row in M for v in row))
    return [[v.numerator * (d // v.denominator) for v in row] for row in M]


def _spread(solution, support, size):
    probs, _, den = solution
    full = [Fraction(0)] * size
    for i, p in zip(support, probs):
        full[i] = Fraction(p, den)
    return full


def _indifferent(M):
    """Solve sum_j M[i][j] p_j = v for all i, sum_j p_j = 1, in integers.

    Returns (numerators of p, numerator of v, positive common denominator),
    or None when the system is singular. For k = 2 and 3, p is the cross
    product of M's row differences (their minors), and its sum is the
    system's determinant up to sign. Larger systems run fraction-free
    (Bareiss) Gauss-Jordan on the (k+1)x(k+1) system: every division is
    exact, and at the end every diagonal entry is the determinant up to sign.
    """
    k = len(M)
    if k == 2:
        (a, b), (c, d) = M
        p = [d - b, a - c]
    elif k == 3:
        (a, b, c), (d, e, f), (g, h, i) = M
        x, y, z, u, w, t = a - d, b - e, c - f, d - g, e - h, f - i
        p = [y * t - z * w, z * u - x * t, x * w - y * u]
    else:
        rows = [r + [-1, 0] for r in M]
        rows.append([1] * k + [0, 1])
        prev = 1
        for col in range(k + 1):
            pivot = next((r for r in range(col, k + 1) if rows[r][col]), None)
            if pivot is None:
                return None
            rows[col], rows[pivot] = rows[pivot], rows[col]
            top = rows[col]
            head = top[col]
            for r, row in enumerate(rows):
                if r != col:
                    f = row[col]
                    rows[r] = [(head * a - f * b) // prev for a, b in zip(row, top)]
            prev = head
        p = [rows[i][-1] for i in range(k)]  # each the last pivot times p_i
    den = sum(p)
    if not den:
        return None
    sign = 1 if den > 0 else -1
    return [sign * q for q in p], sign * sum(map(mul, M[0], p)), sign * den


# -- subgame-perfect equilibrium ----------------------------------------------


def layer_play(valuation, partition, g, continuation, fixed=None) -> tuple:
    """The noncooperative play of subgame `g`'s layer, given each frontier node's solved
    dist in `continuation`: (the actions of its information sets that `fixed` does not
    pin, the dist reached). A layer with one effective player is that player's best
    response; any other, the chance root's included, is its normal form's equilibrium,
    with the sets in `fixed` (only a wider layer has any) playing their pinned actions."""
    tree = valuation.tree
    if g not in tree.one_node_layers:
        return _layer_equilibrium(valuation, partition, g, continuation, fixed or {})
    node = tree.nodes[g]
    plays = ((label, continuation[child]) for label, child in node.actions)
    label, dist = _best_response(block_containing(partition, node.player), plays, partition, valuation)
    return {tree.info_set_of(g): label}, dist


def spne_in_subgame(tree, utils, root=None) -> LocalSolution:
    """A subgame-perfect equilibrium with deterministic selection.

    Solves innermost subgames first, in reverse preorder, each layer by
    `layer_play` with the selection rules in the module docstring.
    """
    partition = singleton_partition(tree.n_players)
    valuation = Valuation(tree, utils)
    root = root if root is not None else tree.root
    actions: dict = {}  # every layer's assignment, one dict for the subgame
    dists: dict = {}
    for g in reversed(tree.subtree_nodes(root)):
        if tree.nodes[g].is_terminal:
            dists[g] = ((g, 1),)
        elif g in tree.subgame_roots:
            continuation = {y: dists[y] for y in tree.frontier_of(g)}
            assignment, dists[g] = layer_play(valuation, partition, g, continuation)
            actions.update(assignment)
    return LocalSolution(actions, dists[root], dist_payoffs(dists[root], tree),
                         partition)
