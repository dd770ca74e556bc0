"""Core model for coalitional extensive-form games.

A game couples a finite rooted tree (decision nodes owned by players,
terminal nodes carrying payoff vectors, information sets partitioning the
decision nodes) with a utility system that assigns a von Neumann-Morgenstern
utility function to every feasible coalition. Players are the integers
1..n; a coalition is a frozenset of players; a partition is a tuple of
sorted member tuples, ordered by smallest member.

All payoffs and probabilities are kept as `fractions.Fraction` so that every
comparison made by the solvers is exact and runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
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
    payoffs: tuple | None = None  # Fractions, terminal only

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
                 chance_at_root: Mapping[str, Fraction] | None = None):
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

    def info_set_player(self, set_id: str) -> int:
        return self.nodes[self.info_sets[set_id][0]].player

    def owner(self, unit: str) -> int:
        """The player who moves at an information-set id or a node id."""
        if unit in self.info_sets:
            return self.info_set_player(unit)
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


# -- utility system ---------------------------------------------------------


@dataclass(frozen=True)
class Synergy:
    """Override of one player's individual utility under a partition pattern.

    Applies when the partition contains `block` as an exact block.
    """

    player: int
    block: tuple
    terminal: str
    value: Fraction


@dataclass(frozen=True)
class UtilitySystem:
    """Coalitional utilities: a combinator over member payoffs or a table."""

    n_players: int
    feasible: frozenset | None = None  # canon member tuples; None: every coalition
    combinator: str | None = "min"  # "min" | "sum" | "weighted"; None => table
    weights: tuple | None = None  # per-player Fractions for "weighted"
    table: Mapping | None = None  # block tuple -> {terminal id -> Fraction}
    synergies: tuple = ()

    def is_feasible(self, members: Iterable[int]) -> bool:
        m = canon_block(members)
        if not m or any(i < 1 or i > self.n_players for i in m):
            return False
        if len(m) == 1:
            return True
        return self.feasible is None or m in self.feasible

    def restricted_to_singletons(self) -> "UtilitySystem":
        return replace(self, feasible=frozenset())

    # -- valuations ----------------------------------------------------------

    def coalition_value(self, members, terminal: str, tree: GameTree) -> Fraction:
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
                         partition: PartitionKey, tree: GameTree) -> Fraction:
        for entry in self.synergies:
            if (entry.player == i and entry.terminal == terminal
                    and entry.block in partition):
                return entry.value
        return tree.nodes[terminal].payoffs[i - 1]


# -- expected values over terminal distributions -----------------------------
# A "dist" is a tuple of (terminal id, Fraction probability) pairs, sorted by
# terminal id, so that mixed equilibria stay exact. Its probabilities are
# positive and sum to exactly 1: a terminal solves to ((z, 1),), chance is
# validated exactly, mixed equilibria are exact and `make_dist` drops zeros.
# So a one-terminal dist is pure, and `block_value` takes its value as is.


def make_dist(pairs) -> tuple:
    acc: dict[str, Fraction] = {}
    for terminal, p in pairs:
        if p:
            acc[terminal] = acc.get(terminal, Fraction(0)) + p
    return tuple(sorted(acc.items()))


def dist_payoffs(dist, tree: GameTree) -> tuple:
    """Expected payoff vector of a terminal distribution."""
    if len(dist) == 1:
        return tree.nodes[dist[0][0]].payoffs
    totals = [Fraction(0)] * tree.n_players
    for terminal, p in dist:
        payoffs = tree.nodes[terminal].payoffs
        for k in range(tree.n_players):
            totals[k] += p * payoffs[k]
    return tuple(totals)


def block_value(block, dist, partition, utils, tree) -> Fraction:
    """What `block` expects from `dist`: a singleton's individual value, else
    the coalition's value. Every expected utility of a block is read here."""
    if len(block) == 1:
        i = block[0]
        if len(dist) == 1:
            return utils.individual_value(i, dist[0][0], partition, tree)
        return sum(p * utils.individual_value(i, z, partition, tree)
                   for z, p in dist)
    if len(dist) == 1:
        return utils.coalition_value(block, dist[0][0], tree)
    return sum(p * utils.coalition_value(block, z, tree) for z, p in dist)
