"""Core model for coalitional extensive-form games.

A game couples a finite rooted tree (decision nodes owned by players,
terminal nodes carrying payoff vectors, information sets partitioning the
decision nodes) with a utility system that assigns a von Neumann-Morgenstern
utility function to every feasible coalition. Players are the integers
1..n; a coalition is a frozenset of players; a partition is a tuple of
sorted member tuples, ordered by smallest member.

All payoffs and probabilities are exact rationals, an `int` when integral and
a `fractions.Fraction` otherwise, so that every comparison made by the solvers
is exact and runs are bit-reproducible; the two compare, hash and print alike.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import lcm
from operator import mul
from typing import Iterable, Mapping

from .errors import InfeasibleCoalition

PartitionKey = tuple  # tuple[tuple[int, ...], ...], blocks sorted by min member


def canon_block(members: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(members))


def canon_partition(blocks: Iterable[Iterable[int]]) -> PartitionKey:
    """Canonical partition: blocks as sorted tuples, ordered by min member."""
    return tuple(sorted((canon_block(b) for b in blocks), key=lambda b: b[0]))


def singleton_partition(n: int) -> PartitionKey:
    return tuple((i,) for i in range(1, n + 1))


def block_containing(partition: PartitionKey, player: int) -> tuple[int, ...]:
    for block in partition:
        if player in block:
            return block
    raise KeyError(f"player {player} not in partition {partition}")


@dataclass(frozen=True)
class Node:
    """One tree node: a decision point, a terminal, or the chance root."""

    id: str
    player: int | None = None
    actions: tuple = ()  # tuple[(label, child id), ...], declaration order
    payoffs: tuple | None = None  # exact rationals, terminal only

    @property
    def is_terminal(self) -> bool:
        return self.payoffs is not None

    def child(self, label: str) -> str:
        for a, c in self.actions:
            if a == label:
                return c
        raise KeyError(f"node {self.id} has no action {label!r}")

    def action_labels(self) -> tuple:
        return tuple(a for a, _ in self.actions)


class GameTree:
    """The extensive form, with derived structure precomputed.

    Construction assumes structural validity; use `gamefile.validate_game`
    to build one from an untrusted description.
    """

    def __init__(self, nodes: Mapping[str, Node], root: str, players,
                 info_sets: Mapping[str, tuple] | None = None,
                 chance_at_root: Mapping[str, int | Fraction] | None = None):
        self.nodes = dict(nodes)
        self.root = root
        self.players = tuple(players)
        self.n_players = len(self.players)
        self.chance_at_root = dict(chance_at_root) if chance_at_root else None

        # The preorder walk fixes each node's position and depth. With the
        # end set below, the subtree of `nid` is preorder[position:end].
        self._parent: dict[str, tuple[str, str]] = {}
        self._depth: dict[str, int] = {root: 0}
        self.preorder: list[str] = []
        order = [root]
        while order:
            nid = order.pop()
            self.preorder.append(nid)
            node = self.nodes[nid]
            for label, child in reversed(node.actions):
                self._parent[child] = (nid, label)
                self._depth[child] = self._depth[nid] + 1
                order.append(child)
        self._pos = {nid: k for k, nid in enumerate(self.preorder)}

        self.terminal_ids = tuple(
            nid for nid in self.preorder if self.nodes[nid].is_terminal)
        self.decision_ids = tuple(
            nid for nid in self.preorder
            if not self.nodes[nid].is_terminal and self.nodes[nid].player is not None)

        # Information sets: every decision node not covered by a declared
        # set gets a singleton set named after the node.
        covered: dict[str, str] = {}
        self.info_sets: dict[str, tuple] = {}
        for set_id, members in (info_sets or {}).items():
            members = tuple(sorted(members, key=self._pos.__getitem__))
            self.info_sets[set_id] = members
            for nid in members:
                covered[nid] = set_id
        for nid in self.decision_ids:
            if nid not in covered:
                self.info_sets[nid] = (nid,)
                covered[nid] = nid
        self._info_set_of = covered

        # One bottom-up pass gives each subtree its end, the players who move
        # in it, and the lowest and highest position of any information set
        # with a member inside it. A decision node with a singleton set roots
        # a subgame when every such set lies whole inside its subtree.
        self._end: dict[str, int] = {}
        self.movers: dict[str, frozenset] = {}
        span, roots = {}, []
        for nid in reversed(self.preorder):
            node = self.nodes[nid]
            sid = covered.get(nid)
            members = (nid,) if sid is None else self.info_sets[sid]
            lo, hi = self._pos[members[0]], self._pos[members[-1]]
            end = self._pos[nid] + 1
            for _, child in node.actions:
                end = self._end[child]
                lo, hi = min(lo, span[child][0]), max(hi, span[child][1])
            self._end[nid], span[nid] = end, (lo, hi)
            movers = frozenset().union(*(self.movers[c] for _, c in node.actions))
            self.movers[nid] = movers if node.player is None else movers | {node.player}
            if node.is_terminal or nid == root or (
                    sid is not None and len(members) == 1
                    and self._pos[nid] <= lo and hi < end):
                roots.append(nid)
        self.subgame_roots = frozenset(roots)

        # One preorder pass puts each node in the layer of the nearest
        # subgame root at or above it, filling each layer's frontier (the
        # maximal proper subgame roots below it) and information sets.
        layer_of: dict[str, str] = {}
        frontier: dict[str, list] = {g: [] for g in roots}
        layer_sets: dict[str, dict] = {g: {} for g in roots}
        for nid in self.preorder:
            if nid in self.subgame_roots:
                layer_of[nid] = nid
                if nid != root:
                    frontier[layer_of[self._parent[nid][0]]].append(nid)
            else:
                layer_of[nid] = layer_of[self._parent[nid][0]]
            if nid in covered:
                layer_sets[layer_of[nid]][covered[nid]] = None
        self._frontier = {g: tuple(f) for g, f in frontier.items()}
        self._layer_sets = {g: tuple(sets) for g, sets in layer_sets.items()}
        # The subgame roots whose layer is the root alone, in a singleton set.
        self.one_node_layers = frozenset(
            g for g, sets in self._layer_sets.items()
            if len(sets) == 1 and self.info_sets[sets[0]] == (g,))
        self._layer_orders: dict[str, tuple | None] = {}  # see layer_order

    # -- basic structure ---------------------------------------------------

    def player_name(self, i: int) -> str:
        return self.players[i - 1]

    def position(self, nid: str) -> int:
        """The index of `nid` in `preorder`."""
        return self._pos[nid]

    def depth_of(self, nid: str) -> int:
        return self._depth[nid]

    def subtree_nodes(self, nid: str) -> list:
        """All nodes of the subtree rooted at `nid`, including `nid`, in
        preorder."""
        return self.preorder[self._pos[nid]:self._end[nid]]

    def in_subtree(self, nid: str, root: str) -> bool:
        """True when `nid` lies in the subtree rooted at `root`."""
        return self._pos[root] <= self._pos[nid] < self._end[root]

    def info_set_of(self, nid: str) -> str:
        return self._info_set_of[nid]

    @cached_property
    def set_rank(self) -> dict:
        """Each information set -> (its index in the order of (player, position
        of the first node), its player): brackets list sets in this order."""
        key = {s: (self.nodes[m[0]].player, self._pos[m[0]]) for s, m in self.info_sets.items()}
        return {s: (k, key[s][0]) for k, s in enumerate(sorted(key, key=key.__getitem__))}

    def owner(self, unit: str) -> int:
        """The player who moves at an information-set id or a node id."""
        if unit in self.info_sets:
            return self.nodes[self.info_sets[unit][0]].player
        return self.nodes[unit].player

    @property
    def is_perfect_information(self) -> bool:
        return all(len(m) == 1 for m in self.info_sets.values())

    def path_from_root(self, nid: str) -> list[tuple[str, str]]:
        """Edges (node, action label) leading from the root to `nid`."""
        edges = []
        while (edge := self._parent.get(nid)) is not None:
            parent, label = edge
            edges.append((parent, label))
            nid = parent
        edges.reverse()
        return edges

    # -- subgame decomposition ----------------------------------------------

    def frontier_of(self, g: str) -> tuple:
        """Maximal proper subgame roots (and terminals) strictly below the
        subgame root `g`, in preorder."""
        return self._frontier[g]

    def layer_info_sets(self, g: str) -> tuple:
        """Information sets of the subgame root `g`'s layer (its decision
        nodes that no proper subgame contains), in preorder."""
        return self._layer_sets[g]

    def layer_order(self, g: str) -> tuple | None:
        """The information sets of the subgame root `g`'s layer bottom-up;
        None when the layer has no such order, because two sets each hold a
        node above a node of the other.

        A set is ready once every set with a node below one of its nodes
        (`set_below`) has gone, and of the ready sets the one whose first
        node is deepest, then first in preorder, goes first. A set below a
        node holds one of its nearest layer descendants or a node below one,
        so a set waits on those alone. Worked out on first use, so only a
        solver that has already bounded the layer pays for it.
        """
        if g in self._layer_orders:
            return self._layer_orders[g]
        sets = self._layer_sets[g]
        if len(sets) < 2:  # most layers: nothing to order
            self._layer_orders[g] = sets
            return sets
        above: dict[str, dict] = {s: {} for s in sets}  # set -> the sets waiting on it
        stack = []  # the layer ancestors of the node at hand, nearest last
        for m in sorted((m for s in sets for m in self.info_sets[s]), key=self._pos.__getitem__):
            while stack and self._end[stack[-1]] <= self._pos[m]:
                stack.pop()
            if stack and self._info_set_of[stack[-1]] != self._info_set_of[m]:
                above[self._info_set_of[m]][self._info_set_of[stack[-1]]] = None
            stack.append(m)
        waiting = Counter(s for waiters in above.values() for s in waiters)
        key = {s: (-self._depth[self.info_sets[s][0]], self._pos[self.info_sets[s][0]], s)
               for s in sets}
        ready = [key[s] for s in sets if not waiting[s]]
        heapify(ready)
        order = []
        while ready:
            s = heappop(ready)[2]
            order.append(s)
            for t in above[s]:
                waiting[t] -= 1
                if not waiting[t]:
                    heappush(ready, key[t])
        self._layer_orders[g] = tuple(order) if len(order) == len(sets) else None
        return self._layer_orders[g]

    def set_below(self, s: str, t: str) -> bool:
        """True when a node of information set `s` lies strictly below a
        node of information set `t`."""
        pos = [self._pos[m] for m in self.info_sets[s]]  # members are in preorder
        return any(bisect_right(pos, self._pos[b]) < bisect_left(pos, self._end[b])
                   for b in self.info_sets[t])


# -- utility system ---------------------------------------------------------


@dataclass(frozen=True)
class Synergy:
    """Override of one player's individual utility under a partition pattern.

    Applies when the partition contains `block` as an exact block.
    """

    player: int
    block: tuple
    terminal: str
    value: int | Fraction


@dataclass(frozen=True)
class UtilitySystem:
    """Coalitional utilities: a combinator over member payoffs or a table."""

    n_players: int
    feasible: frozenset | None = None  # canon member tuples; None: every coalition
    combinator: str | None = "min"  # "min" | "sum" | "weighted"; None => table
    weights: tuple | None = None  # per-player exact rationals for "weighted"
    table: Mapping | None = None  # block tuple -> {terminal id -> exact rational}
    synergies: tuple = ()

    def is_feasible(self, members: Iterable[int]) -> bool:
        m = canon_block(members)
        if not m or m[0] < 1 or m[-1] > self.n_players or len(set(m)) < len(m):
            return False
        return len(m) == 1 or self.feasible is None or m in self.feasible

    def restricted_to_singletons(self) -> "UtilitySystem":
        # The form `gamefile` stores a parsed list in: every singleton listed.
        return replace(self, feasible=frozenset((i,) for i in range(1, self.n_players + 1)))

    # -- valuations ----------------------------------------------------------

    def coalition_value(self, members, terminal: str, tree: GameTree) -> int | Fraction:
        m = canon_block(members)
        if not self.is_feasible(m):
            raise InfeasibleCoalition(f"coalition {m} is not feasible")
        payoffs = tree.nodes[terminal].payoffs
        if len(m) == 1:
            return payoffs[m[0] - 1]
        if self.table is not None:
            return self.table[m][terminal]
        values = [payoffs[i - 1] for i in m]
        if self.combinator == "min":
            return min(values)
        if self.combinator == "sum":
            return sum(values)
        if self.combinator == "weighted":
            return sum(self.weights[i - 1] * payoffs[i - 1] for i in m)
        raise ValueError(f"unknown combinator {self.combinator!r}")

    def individual_value(self, i: int, terminal: str,
                         partition: PartitionKey, tree: GameTree) -> int | Fraction:
        for entry in self.synergies:
            if (entry.player == i and entry.terminal == terminal
                    and entry.block in partition):
                return entry.value
        return tree.nodes[terminal].payoffs[i - 1]


# -- expected values over terminal distributions -----------------------------
# A "dist" is a tuple of (terminal id, exact probability) pairs, sorted by
# terminal id, so that mixed equilibria stay exact; a probability is an `int`
# when integral and a `Fraction` otherwise. Its probabilities are positive
# and sum to exactly 1: a terminal solves to ((z, 1),), chance is validated
# exactly, mixed equilibria are exact and `noncoop._layer_walk` drops zeros.
# So a one-terminal dist is pure, and `block_value` takes its value as is;
# over several terminals, an expected value is one `Fraction` of a sum over
# integer weights (`_weights`).


def _weights(dist) -> tuple:
    """The probabilities of `dist` as integers over their lcm: (weights in
    dist order, the lcm)."""
    d = lcm(*(p.denominator for _, p in dist))
    return [p.numerator * (d // p.denominator) for _, p in dist], d


def dist_payoffs(dist, tree: GameTree) -> tuple:
    """Expected payoff vector of a terminal distribution."""
    if len(dist) == 1:
        return tree.nodes[dist[0][0]].payoffs
    weights, d = _weights(dist)
    return tuple(Fraction(sum(map(mul, weights, column)), d)
                 for column in zip(*(tree.nodes[z].payoffs for z, _ in dist)))


class Valuation:
    """One solve's tables over `tree`: coalition values per (feasible block,
    terminal), each filled on first read from the definition in `utils`, and
    synergies per (player, terminal), first listed first, and the terminals
    they name. Read by `block_value` and `individual_values`."""

    def __init__(self, tree: GameTree, utils: UtilitySystem):
        self.tree, self.utils = tree, utils
        self.coalitions: dict = {}  # (block, terminal) -> exact rational
        self.synergies: dict = {}  # (player, terminal) -> [(block, value), ...]
        for s in utils.synergies:
            self.synergies.setdefault((s.player, s.terminal), []).append(
                (s.block, s.value))
        self.synergy_terminals = frozenset(z for _, z in self.synergies)


def block_value(block, dist, partition, valuation: Valuation) -> int | Fraction:
    """What `block` expects from `dist`: a singleton's individual value, else
    the coalition's value. Every expected utility of a block is read here."""
    values = []
    for z, _ in dist:
        if len(block) == 1:
            value = valuation.tree.nodes[z].payoffs[block[0] - 1]
            for members, override in valuation.synergies.get((block[0], z), ()):
                if members in partition:
                    value = override
                    break
        elif (value := valuation.coalitions.get((block, z))) is None:
            value = valuation.utils.coalition_value(block, z, valuation.tree)
            valuation.coalitions[block, z] = value
        if len(dist) == 1:
            return value
        values.append(value)
    weights, d = _weights(dist)
    return Fraction(sum(map(mul, weights, values)), d)


def individual_values(dist, partition, valuation: Valuation) -> tuple:
    """Each player's individual value from `dist`, player i's at i - 1: what
    `block_value((i,), ...)` gives, and from it unless `dist` is pure on a
    terminal no synergy names, whose payoff vector is returned as is."""
    if len(dist) == 1 and dist[0][0] not in valuation.synergy_terminals:
        return valuation.tree.nodes[dist[0][0]].payoffs
    return tuple(block_value((i,), dist, partition, valuation)
                 for i in range(1, valuation.tree.n_players + 1))
