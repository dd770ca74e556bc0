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

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping

from .errors import GameValidationError, InfeasibleCoalition, NotASubgameRoot

Block = frozenset
PartitionKey = tuple  # tuple[tuple[int, ...], ...], blocks sorted by min member


def to_number(value) -> Fraction:
    """Convert a parsed JSON number to an exact Fraction.

    Floats go through Decimal(str(...)) so that `0.1` means one tenth, not
    the nearest binary float.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not valid payoffs")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(Decimal(str(value)))
    raise TypeError(f"not a number: {value!r}")


def coalition_sort_key(members: Iterable[int]):
    """Canonical coalition order: size ascending, then lexicographic."""
    m = tuple(sorted(members))
    return (len(m), m)


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


def merge_into(partition: PartitionKey, union: Iterable[int]) -> PartitionKey:
    """Coarsen a partition by merging the blocks covered by `union`.

    `union` must be exactly a union of whole blocks of `partition`.
    """
    union_set = set(union)
    kept, merged = [], []
    for block in partition:
        if set(block) <= union_set:
            merged.extend(block)
        elif union_set & set(block):
            raise ValueError(f"{sorted(union_set)} splits block {block}")
        else:
            kept.append(block)
    if set(merged) != union_set:
        raise ValueError(f"{sorted(union_set)} is not a union of blocks")
    return canon_partition(kept + [merged])


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

    Construction assumes structural validity; use `validate_game` to build
    one from an untrusted description.
    """

    def __init__(self, nodes: Mapping[str, Node], root: str, players,
                 info_sets: Mapping[str, tuple] | None = None,
                 chance_at_root: Mapping[str, Fraction] | None = None):
        self.nodes = dict(nodes)
        self.root = root
        self.players = tuple(players)
        self.n_players = len(self.players)
        self.chance_at_root = dict(chance_at_root) if chance_at_root else None

        self._parent: dict[str, tuple[str, str]] = {}
        self.preorder: list[str] = []
        order = [root]
        while order:
            nid = order.pop()
            self.preorder.append(nid)
            node = self.nodes[nid]
            for label, child in reversed(node.actions):
                self._parent[child] = (nid, label)
                order.append(child)
        self._pre_index = {nid: k for k, nid in enumerate(self.preorder)}

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
            members = tuple(sorted(members, key=self._pre_index.__getitem__))
            self.info_sets[set_id] = members
            for nid in members:
                covered[nid] = set_id
        for nid in self.decision_ids:
            if nid not in covered:
                self.info_sets[nid] = (nid,)
                covered[nid] = nid
        self._info_set_of = covered

        self._subtree_cache: dict[str, frozenset] = {}
        self.subgame_roots = frozenset(
            nid for nid in self.preorder if self._is_subgame_root(nid))

    # -- basic structure ---------------------------------------------------

    def player_name(self, i: int) -> str:
        return self.players[i - 1]

    def parent_of(self, nid: str):
        """(parent id, action label) or None for the root."""
        return self._parent.get(nid)

    def depth_of(self, nid: str) -> int:
        d = 0
        while (edge := self._parent.get(nid)) is not None:
            nid = edge[0]
            d += 1
        return d

    def subtree_nodes(self, nid: str) -> frozenset:
        """All nodes of the subtree rooted at `nid`, including `nid`."""
        cached = self._subtree_cache.get(nid)
        if cached is None:
            acc = set()
            stack = [nid]
            while stack:
                cur = stack.pop()
                acc.add(cur)
                stack.extend(c for _, c in self.nodes[cur].actions)
            cached = self._subtree_cache[nid] = frozenset(acc)
        return cached

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

    def _is_subgame_root(self, nid: str) -> bool:
        node = self.nodes[nid]
        if node.is_terminal or nid == self.root:
            return True
        if node.player is None:
            return False
        if len(self.info_sets[self._info_set_of[nid]]) != 1:
            return False
        inside = self.subtree_nodes(nid)
        for members in self.info_sets.values():
            hit = sum(1 for m in members if m in inside)
            if 0 < hit < len(members):
                return False
        return True

    def frontier_of(self, g: str) -> tuple:
        """Maximal proper subgame roots (and terminals) strictly below `g`."""
        out = []
        stack = [c for _, c in reversed(self.nodes[g].actions)]
        while stack:
            nid = stack.pop()
            if nid in self.subgame_roots:
                out.append(nid)
            else:
                stack.extend(c for _, c in reversed(self.nodes[nid].actions))
        return tuple(out)

    def layer_nodes(self, g: str) -> tuple:
        """Decision nodes of `g`'s subgame not inside a proper subgame."""
        out = []
        stack = [g]
        while stack:
            nid = stack.pop()
            node = self.nodes[nid]
            if node.is_terminal:
                continue
            if nid != g and nid in self.subgame_roots:
                continue
            out.append(nid)
            stack.extend(c for _, c in reversed(node.actions))
        return tuple(sorted(out, key=self._pre_index.__getitem__))

    def layer_info_sets(self, g: str) -> tuple:
        seen, out = set(), []
        for nid in self.layer_nodes(g):
            sid = self._info_set_of[nid]
            if sid not in seen:
                seen.add(sid)
                out.append(sid)
        return tuple(out)

    def root_of_info_set(self, set_id: str) -> str:
        """Root of the smallest subgame containing the information set."""
        members = self.info_sets[set_id]
        nid = members[0]
        while True:
            if nid in self.subgame_roots:
                inside = self.subtree_nodes(nid)
                if all(m in inside for m in members):
                    return nid
            edge = self._parent.get(nid)
            if edge is None:
                raise NotASubgameRoot(f"no subgame contains info set {set_id}")
            nid = edge[0]


@dataclass(frozen=True)
class SubtreeView:
    """A subtree T(h): an information set plus all successors."""

    tree: GameTree
    info_set: str
    nodes: tuple
    root_node: str  # root of the smallest subgame containing the info set


def subgame_at(tree: GameTree, x: str) -> SubtreeView:
    """The largest subgame rooted at node `x`.

    Raises NotASubgameRoot when `x` does not root a well-formed subgame
    (non-singleton information set, or the subtree would split one).
    """
    if x not in tree.subgame_roots:
        raise NotASubgameRoot(f"{x} does not root a subgame")
    members = sorted(tree.subtree_nodes(x), key=tree._pre_index.__getitem__)
    set_id = tree.info_set_of(x) if x in tree.decision_ids else x
    return SubtreeView(tree, set_id, tuple(members), x)


def subtree_at(tree: GameTree, set_id: str) -> SubtreeView:
    """The subtree T(h) at an information set, with root_of(h) attached."""
    members = tree.info_sets[set_id]
    acc = set()
    for m in members:
        acc |= tree.subtree_nodes(m)
    nodes = tuple(sorted(acc, key=tree._pre_index.__getitem__))
    return SubtreeView(tree, set_id, nodes, tree.root_of_info_set(set_id))


def root_of(tree: GameTree, set_id_or_node: str) -> str:
    sid = set_id_or_node
    if sid not in tree.info_sets:
        sid = tree.info_set_of(set_id_or_node)
    return tree.root_of_info_set(sid)


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
    feasible_is_all: bool
    feasible: frozenset  # of canon member tuples; ignored when feasible_is_all
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
        return self.feasible_is_all or m in self.feasible

    def feasible_containing(self, i: int):
        """All feasible coalitions containing `i`, in canonical order."""
        found = []
        if self.feasible_is_all:
            others = [j for j in range(1, self.n_players + 1) if j != i]
            for size in range(len(others) + 1):
                for extra in combinations(others, size):
                    found.append(canon_block((i,) + extra))
        else:
            found.append((i,))
            found.extend(m for m in self.feasible if i in m and len(m) > 1)
        return sorted(set(found), key=coalition_sort_key)

    def restricted_to_singletons(self) -> "UtilitySystem":
        return UtilitySystem(
            n_players=self.n_players, feasible_is_all=False,
            feasible=frozenset(), combinator=self.combinator,
            weights=self.weights, table=self.table, synergies=self.synergies)

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


def coalition_utility(members, terminal: str, utils: UtilitySystem,
                      tree: GameTree) -> Fraction:
    """u_C at a terminal; the singleton case is the player's own payoff."""
    return utils.coalition_value(members, terminal, tree)


def individual_utility(i: int, terminal: str, partition,
                       utils: UtilitySystem, tree: GameTree) -> Fraction:
    """A player's individual utility at a terminal, given a partition."""
    return utils.individual_value(i, terminal, canon_partition(partition), tree)


def feasible_coalitions_containing(i: int, utils: UtilitySystem):
    return [frozenset(m) for m in utils.feasible_containing(i)]


# -- expected values over terminal distributions -----------------------------
# A "dist" is a tuple of (terminal id, Fraction probability) pairs, sorted by
# terminal id; solutions of subgames carry one instead of a bare terminal so
# that mixed equilibria stay exact.


def make_dist(pairs) -> tuple:
    acc: dict[str, Fraction] = {}
    for terminal, p in pairs:
        if p:
            acc[terminal] = acc.get(terminal, Fraction(0)) + p
    return tuple(sorted(acc.items()))


def _pure_terminal(dist):
    """The terminal a dist reaches with probability exactly 1, else None.

    Every dist of a perfect-information solve is one such terminal; the
    helpers below then return its value as is instead of weighting it by 1.
    """
    if len(dist) == 1 and dist[0][1] == 1:
        return dist[0][0]
    return None


def dist_payoffs(dist, tree: GameTree) -> tuple:
    """Expected payoff vector of a terminal distribution."""
    pure = _pure_terminal(dist)
    if pure is not None:
        return tree.nodes[pure].payoffs
    totals = [Fraction(0)] * tree.n_players
    for terminal, p in dist:
        payoffs = tree.nodes[terminal].payoffs
        for k in range(tree.n_players):
            totals[k] += p * payoffs[k]
    return tuple(totals)


def expected_coalition_value(members, dist, utils, tree) -> Fraction:
    pure = _pure_terminal(dist)
    if pure is not None:
        return utils.coalition_value(members, pure, tree)
    return sum(p * utils.coalition_value(members, z, tree) for z, p in dist)


def expected_individual_value(i, dist, partition, utils, tree) -> Fraction:
    pure = _pure_terminal(dist)
    if pure is not None:
        return utils.individual_value(i, pure, partition, tree)
    return sum(p * utils.individual_value(i, z, partition, tree)
               for z, p in dist)


# -- supergame views ---------------------------------------------------------


@dataclass(frozen=True)
class SupergameView:
    """The base game re-indexed so one coalition acts as a merged player.

    Tree shape, actions and terminals are untouched; only node ownership
    (via `partition`) and the utility applied at merged nodes change.
    """

    base: GameTree
    utils: UtilitySystem
    partition: PartitionKey

    @property
    def effective_players(self) -> tuple:
        return self.partition

    def merged_player_of(self, i: int) -> tuple:
        return block_containing(self.partition, i)

    def owner_block(self, nid: str) -> tuple:
        return block_containing(self.partition, self.base.nodes[nid].player)


def build_supergame(tree: GameTree, utils: UtilitySystem, C) -> SupergameView:
    """The supergame for coalition C: P_C merges C, all others stay single."""
    members = canon_block(C)
    if len(members) < 2 or not utils.is_feasible(members):
        raise InfeasibleCoalition(f"coalition {members} is not feasible")
    singles = [(j,) for j in range(1, tree.n_players + 1) if j not in members]
    return SupergameView(tree, utils, canon_partition(singles + [members]))


# -- validation ---------------------------------------------------------------


def validate_game(spec) -> tuple[GameTree, UtilitySystem]:
    """Validate a parsed game description and build the model objects.

    Collects every detectable violation before raising GameValidationError.
    `spec` is a `gamefile.GameSpec` (or any object with the same fields).
    """
    bad: list[tuple[str, str]] = []
    nodes_raw = spec.nodes

    if spec.root not in nodes_raw:
        raise GameValidationError([("MissingRoot", f"root {spec.root!r} is not a node")])

    n = len(spec.players)
    repeated = sorted({p for p in spec.players if spec.players.count(p) > 1})
    if repeated:
        bad.append(("DuplicatePlayer",
                    f"player names repeated: {', '.join(repeated)}"))
    referenced: dict[str, str] = {}
    for nid, raw in nodes_raw.items():
        if raw.get("actions") is not None:
            labels = [a for a, _ in raw["actions"]]
            if len(set(labels)) != len(labels):
                bad.append(("DuplicateAction", f"node {nid} repeats an action label"))
            if not labels:
                bad.append(("NoActions", f"decision node {nid} has no actions"))
            for label, child in raw["actions"]:
                if child not in nodes_raw:
                    bad.append(("UnknownChild", f"node {nid} action {label!r} -> missing node {child!r}"))
                elif child in referenced:
                    bad.append(("CycleDetected", f"node {child} has two parents ({referenced[child]} and {nid})"))
                elif child == spec.root:
                    bad.append(("CycleDetected", f"root {child} appears as a child of {nid}"))
                else:
                    referenced[child] = nid
            player = raw.get("player")
            if player is None:
                if nid != spec.root or spec.chance is None:
                    bad.append(("MissingPlayer", f"decision node {nid} has no player"))
            elif not _is_player(player, n):
                bad.append(("BadPlayer", f"node {nid}: player {player!r} not in 1..{n}"))
        else:
            payoffs = raw.get("payoffs")
            if payoffs is None:
                bad.append(("EmptyNode", f"node {nid} has neither actions nor payoffs"))
            elif len(payoffs) != n:
                bad.append(("PayoffLengthMismatch",
                            f"terminal {nid} has {len(payoffs)} payoffs for {n} players"))

    # Reachability plus cycle detection via a walk from the root.
    if not any(code == "UnknownChild" for code, _ in bad):
        seen: set[str] = set()
        stack = [spec.root]
        while stack:
            nid = stack.pop()
            if nid in seen:
                bad.append(("CycleDetected", f"node {nid} reached twice from the root"))
                break
            seen.add(nid)
            raw = nodes_raw[nid]
            stack.extend(c for _, c in (raw.get("actions") or ()))
        else:
            unreachable = sorted(set(nodes_raw) - seen)
            if unreachable:
                bad.append(("UnreachableNode", f"nodes not reachable from root: {', '.join(unreachable)}"))

    if bad:
        raise GameValidationError(bad)

    built = {}
    for nid, raw in nodes_raw.items():
        if raw.get("actions") is not None:
            built[nid] = Node(id=nid, player=raw.get("player"),
                              actions=tuple(raw["actions"]))
        else:
            built[nid] = Node(id=nid, payoffs=tuple(to_number(v) for v in raw["payoffs"]))

    chance = None
    if spec.chance is not None:
        chance = {child: to_number(p) for child, p in spec.chance.items()}
        root_children = [c for _, c in nodes_raw[spec.root].get("actions") or ()]
        if sorted(chance) != sorted(root_children):
            bad.append(("BadChanceDistribution",
                        "chance distribution keys must be exactly the root's children"))
        if any(p < 0 for p in chance.values()):
            bad.append(("BadChanceDistribution", "chance probabilities must be nonnegative"))
        elif sum(chance.values()) != 1:
            bad.append(("BadChanceDistribution",
                        f"chance probabilities sum to {sum(chance.values())}, not 1"))

    info_sets = None
    if spec.info_sets:
        info_sets = {}
        placed: set[str] = set()
        for set_id, members in spec.info_sets.items():
            for m in members:
                if m not in nodes_raw or nodes_raw[m].get("actions") is None:
                    bad.append(("BadInfoSet", f"info set {set_id}: {m!r} is not a decision node"))
                elif m in placed:
                    bad.append(("BadInfoSet", f"node {m} appears in two info sets"))
                placed.add(m)
            info_sets[set_id] = tuple(members)
        if bad:
            raise GameValidationError(bad)

    tree = GameTree(built, spec.root, spec.players,
                    info_sets=info_sets, chance_at_root=chance)

    for set_id, members in tree.info_sets.items():
        owners = {tree.nodes[m].player for m in members}
        if len(owners) != 1:
            bad.append(("InfoSetActionMismatch",
                        f"info set {set_id} mixes players {sorted(owners)}"))
            continue
        label_seqs = {tree.nodes[m].action_labels() for m in members}
        if len(label_seqs) != 1:
            bad.append(("InfoSetActionMismatch",
                        f"info set {set_id} has differing action labels across nodes"))
    bad.extend(_check_perfect_recall(tree))
    if tree.chance_at_root:
        for child in (c for _, c in tree.nodes[tree.root].actions):
            if child not in tree.subgame_roots:
                bad.append(("ChanceBranchNotSubgame",
                            f"chance branch {child} does not root a subgame"))

    utils, util_bad = _build_utils(spec, tree)
    bad.extend(util_bad)
    if bad:
        raise GameValidationError(bad)
    return tree, utils


def _is_player(value, n: int) -> bool:
    """True for a player number in 1..n; a JSON boolean is not one."""
    return isinstance(value, int) and not isinstance(value, bool) and 1 <= value <= n


def _check_perfect_recall(tree: GameTree):
    """No-forgetting: nodes sharing an info set share the owner's experience."""
    bad = []
    for set_id, members in tree.info_sets.items():
        if len(members) == 1:
            continue
        owner = tree.nodes[members[0]].player
        experiences = set()
        for m in members:
            exp = []
            for nid, label in tree.path_from_root(m):
                node = tree.nodes[nid]
                if node.player == owner:
                    exp.append((tree.info_set_of(nid), label))
            experiences.add(tuple(exp))
        if len(experiences) != 1:
            bad.append(("ImperfectRecall",
                        f"info set {set_id} violates perfect recall for player {owner}"))
    return bad


def _build_utils(spec, tree: GameTree):
    bad: list[tuple[str, str]] = []
    n = tree.n_players
    feasible_is_all = spec.feasible == "all"
    feasible = frozenset()
    if not feasible_is_all:
        blocks = set()
        for members in spec.feasible:
            m = canon_block(members)
            if not m or any(i < 1 or i > n for i in m):
                bad.append(("BadCoalition", f"coalition {members} is not a subset of 1..{n}"))
            elif len(set(m)) != len(m):
                bad.append(("BadCoalition", f"coalition {members} repeats a member"))
            else:
                blocks.add(m)
        blocks.update((i,) for i in range(1, n + 1))
        feasible = frozenset(blocks)

    combinator, weights, table = None, None, None
    if spec.utility.get("table") is not None:
        table = {}
        for key, per_terminal in spec.utility["table"].items():
            m = canon_block(key)
            table[m] = {z: to_number(v) for z, v in per_terminal.items()}
        non_singletons = ([m for m in feasible if len(m) > 1] if not feasible_is_all
                          else [canon_block(c) for size in range(2, n + 1)
                                for c in combinations(range(1, n + 1), size)])
        for m in non_singletons:
            have = table.get(m, {})
            missing = [z for z in tree.terminal_ids if z not in have]
            if missing:
                bad.append(("MissingCoalitionUtility",
                            f"coalition {m} lacks table values for terminals {', '.join(missing)}"))
    else:
        combinator = spec.utility.get("combinator", "min")
        if combinator not in ("min", "sum", "weighted"):
            bad.append(("BadCombinator", f"unknown combinator {combinator!r}"))
        if combinator == "weighted":
            raw = spec.utility.get("weights") or {}
            weights = tuple(to_number(raw.get(i, raw.get(str(i), 1))) for i in range(1, n + 1))

    synergies = []
    for entry in spec.synergies or ():
        player, block, terminal, value = entry
        if not _is_player(player, n):
            bad.append(("BadSynergy", f"synergy player {player!r} not in 1..{n}"))
            continue
        if len(set(block)) != len(block):
            bad.append(("BadSynergy", f"synergy block {list(block)} repeats a member"))
            continue
        if terminal not in tree.terminal_ids:
            bad.append(("BadSynergy", f"synergy terminal {terminal!r} is not a terminal"))
            continue
        synergies.append(Synergy(player, canon_block(block), terminal, to_number(value)))

    utils = UtilitySystem(n, feasible_is_all, feasible, combinator=combinator,
                          weights=weights, table=table, synergies=tuple(synergies))
    return utils, bad
