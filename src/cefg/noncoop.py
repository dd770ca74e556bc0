"""Noncooperative baselines: backward induction and subgame-perfect equilibria.

These solvers treat the effective players of a view (merged coalitions count
as one player) as fully independent. They supply the index reference points
for the recursive solver and the `bi` CLI baseline.

Selection is deterministic everywhere:

* best responses scan actions in declaration order and keep the first
  maximizer; a merged player breaks coalition-utility ties by its members'
  individual utilities, lowest member id first;
* pure equilibria are enumerated row-major (players ordered by smallest
  member, strategies in declaration order) and the first one wins;
* mixed equilibria come from two-player support enumeration (integer-scaled,
  fraction-free, results exact), supports by size then lexicographic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import lcm, prod

from .errors import ImperfectInformation, MixedEquilibriumUnsupported, TooLarge
from .model import (
    GameTree,
    block_containing,
    block_value,
    dist_payoffs,
    make_dist,
    singleton_partition,
)


# The most pure profiles a layer's normal form may have. `LayerGame.solve`
# tabulates every profile, then scans the table once. Measured with Python
# 3.11 on a 2-CPU host: a layer of 16,384 profiles solves in 0.3 s to 0.7 s,
# and one of 4,194,304 runs out of a 2 GB address space.
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


def best_response(tree, utils, partition, block, node, dists):
    """`block`'s best action at `node` given each child's continuation dist.

    `dists` maps child id -> terminal distribution. Returns (action label,
    choice key). The key leads with the block's own utility (`block_value`);
    a merged block then prefers higher individual utility for its
    lowest-indexed member, and so on down. Remaining ties go to the first
    action in declaration order.
    """
    best_label, best_key = None, None
    for label, child in node.actions:
        dist = dists[child]
        key = (block_value(block, dist, partition, utils, tree),)
        if len(block) > 1:
            key += tuple(block_value((i,), dist, partition, utils, tree)
                         for i in block)
        if best_key is None or key > best_key:
            best_label, best_key = label, key
    return best_label, best_key


def backward_induction(tree, utils) -> LocalSolution:
    """Standard backward induction over a perfect-information game, with
    every player independent: the subgame-perfect equilibrium of a tree
    whose every layer is one node.
    """
    if not tree.is_perfect_information:
        raise ImperfectInformation("backward induction needs singleton info sets")
    return spne_in_subgame(tree, utils)


# -- one layer as a normal-form game ------------------------------------------


class LayerGame:
    """Reduced normal form of one subgame layer.

    The layer of subgame `g` is everything between its root and its maximal
    proper subgames; `continuation` maps each frontier node to the terminal
    distribution of its already-solved subgame. `fixed` pins some of the
    layer's information sets to given (pure or mixed) actions; the game is
    played over the others. The chance root's layer has no players: its
    one profile mixes the branches by their chance probabilities.
    """

    def __init__(self, tree: GameTree, utils, partition, g, continuation,
                 fixed=None):
        self.tree, self.utils, self.partition = tree, utils, partition
        self.g = g
        self.continuation = dict(continuation)
        self.fixed = dict(fixed or {})
        self.info_sets = tuple(s for s in tree.layer_info_sets(g)
                               if s not in self.fixed)
        labels = {s: tree.nodes[tree.info_sets[s][0]].action_labels()
                  for s in self.info_sets}
        count = prod(len(ls) for ls in labels.values())
        if count > _MAX_LAYER_PROFILES:
            raise TooLarge(
                f"the layer at {g} has {count} pure profiles, more than the "
                f"{_MAX_LAYER_PROFILES} its normal form may hold")
        owners = {}
        for sid in self.info_sets:
            owners[sid] = block_containing(partition, tree.info_set_player(sid))
        self.players = sorted({b for b in owners.values()}, key=lambda b: b[0])
        self.sets_of = {b: tuple(s for s in self.info_sets if owners[s] == b)
                        for b in self.players}
        self.strategies = {}
        for b in self.players:
            self.strategies[b] = [
                dict(zip(self.sets_of[b], combo))
                for combo in product(*(labels[s] for s in self.sets_of[b]))]

    def playout(self, assignment) -> tuple:
        """Terminal distribution reached from g under `assignment`.

        `assignment` maps the free information sets to a label or a mix of
        (label, probability) pairs; the fixed sets play their pinned actions.
        """
        if self.fixed:
            assignment = {**self.fixed, **assignment}
        nodes, continuation = self.tree.nodes, self.continuation
        pairs, stack = [], [(self.g, 1)]
        while stack:
            nid, prob = stack.pop()
            node = nodes[nid]
            # Follow pure actions down to an end (a terminal or a frontier
            # node); a mixed action, or chance, stacks its branches instead.
            while not node.is_terminal and (nid == self.g or nid not in continuation):
                if node.player is None:
                    act = tuple((label, self.tree.chance_at_root[c])
                                for label, c in node.actions)
                else:
                    act = assignment[self.tree.info_set_of(nid)]
                if isinstance(act, tuple):
                    stack.extend((node.child(label), prob * p) for label, p in act if p)
                    break
                nid = node.child(act)
                node = nodes[nid]
            else:
                dist = ((nid, Fraction(1)),) if node.is_terminal else continuation[nid]
                if prob == 1 and not stack and not pairs:
                    return dist  # pure play: the only end, kept as is
                pairs.extend((z, prob * q) for z, q in dist)
        return make_dist(pairs)

    def solve(self):
        """Equilibrium profile: {info set -> action | ((label, prob), ...)}.

        The normal form is built once: one row-major table of (assignment,
        dist, each player's block value) per pure profile, which both the
        pure scan and the bimatrix of support enumeration read.
        """
        ranges = [range(len(self.strategies[b])) for b in self.players]
        table = {}
        for profile in product(*ranges):
            assignment = {}
            for b, ix in zip(self.players, profile):
                assignment.update(self.strategies[b][ix])
            dist = self.playout(assignment)
            table[profile] = (assignment, dist, tuple(
                block_value(b, dist, self.partition, self.utils, self.tree)
                for b in self.players))
        # The first profile, row-major, where every player gets its best value
        # against the others; each is computed once, on first use.
        best: dict = {}  # (player k, the others' strategies) -> k's best value
        for profile, (assignment, dist, values) in table.items():
            for k, alts in enumerate(ranges):
                key = (k, profile[:k], profile[k + 1:])
                if key not in best:
                    best[key] = max(table[key[1] + (a,) + key[2]][2][k] for a in alts)
                if values[k] < best[key]:
                    break
            else:
                return assignment, dist
        if len(self.players) != 2:
            raise MixedEquilibriumUnsupported(
                f"no pure equilibrium in the layer at {self.g} and "
                f"{len(self.players)} players are involved")
        if any(len(self.sets_of[b]) != 1 for b in self.players):
            raise MixedEquilibriumUnsupported(
                f"mixed play across several information sets at {self.g} "
                "is not supported")
        A, B = ([[table[(i, j)][2][k] for j in ranges[1]] for i in ranges[0]]
                for k in (0, 1))
        found = support_enumeration(A, B)
        if found is None:
            raise MixedEquilibriumUnsupported(
                f"support enumeration found no equilibrium at {self.g}")
        assignment = {}
        for b, probs in zip(self.players, found):
            (sid,) = self.sets_of[b]
            assignment[sid] = tuple((strategy[sid], p) for strategy, p
                                    in zip(self.strategies[b], probs))
        return assignment, self.playout(assignment)


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

    Fraction-free (Bareiss) Gauss-Jordan on the (k+1)x(k+1) system: every
    division is exact, and at the end every diagonal entry equals the last
    pivot, the determinant up to the sign of the row swaps. Returns
    (numerators of p, numerator of v, positive common denominator), or
    None when the system is singular.
    """
    k = len(M)
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
    sign = 1 if prev > 0 else -1
    return ([sign * rows[i][-1] for i in range(k)], sign * rows[k][-1],
            sign * prev)


# -- subgame-perfect equilibrium ----------------------------------------------


def layer_play(tree, utils, partition, g, continuation) -> tuple:
    """The noncooperative play of subgame `g`'s layer, given each frontier
    node's solved dist in `continuation`: (its information sets' actions, the
    dist reached). A one-node layer is its owner's best response; any other
    layer, the chance root's included, is its normal form's equilibrium."""
    node = tree.nodes[g]
    layer = tree.layer_info_sets(g)
    if len(layer) == 1 and tree.info_sets[layer[0]] == (g,):
        block = block_containing(partition, node.player)
        label, _ = best_response(tree, utils, partition, block, node, continuation)
        return {layer[0]: label}, continuation[node.child(label)]
    return LayerGame(tree, utils, partition, g, continuation).solve()


def spne_in_subgame(tree, utils, root=None) -> LocalSolution:
    """A subgame-perfect equilibrium with deterministic selection.

    Solves innermost subgames first, in reverse preorder, each layer by
    `layer_play` with the selection rules in the module docstring.
    """
    partition = singleton_partition(tree.n_players)
    root = root if root is not None else tree.root
    actions: dict = {}  # every layer's assignment, one dict for the subgame
    dists: dict = {}
    for g in reversed(tree.subtree_nodes(root)):
        if tree.nodes[g].is_terminal:
            dists[g] = ((g, Fraction(1)),)
        elif g in tree.subgame_roots:
            continuation = {y: dists[y] for y in tree.frontier_of(g)}
            assignment, dists[g] = layer_play(tree, utils, partition, g, continuation)
            actions.update(assignment)
    return LocalSolution(actions, dists[root], dist_payoffs(dists[root], tree),
                         partition)
