"""Deliberately naive reference implementations for cross-validation.

Everything here re-derives solutions straight from the definitions, at desk
scale and without memoization, so that the production solvers can be checked
against an independent path:

* `oracle_bi` enumerates every pure strategy profile and keeps the ones that
  survive the node-local argmax check at every decision node;
* `oracle_solve` runs the recursive-induction definition literally: it
  builds each supergame's merged partition and reads each value from the
  utility definitions where it compares that value;
* `random_game` builds small random games with globally distinct payoffs so
  that no comparison anywhere can tie.

The oracle shares only the model layer (trees and utility definitions) with
the solvers; it never looks at solver internals.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import combinations, product

from .errors import TooLarge
from .model import (
    GameTree,
    Node,
    UtilitySystem,
    block_containing,
    canon_block,
    canon_partition,
    dist_payoffs,
    singleton_partition,
)
from .noncoop import LocalSolution


@dataclass(frozen=True)
class OracleReport:
    game_digest: str
    solver_outcome: tuple
    oracle_outcome: tuple
    solver_partition: tuple
    oracle_partition: tuple
    match: bool
    first_divergence: tuple | None  # (node id, step kind)


def _playout(tree, profile, start):
    nid = start
    while not tree.nodes[nid].is_terminal:
        nid = tree.nodes[nid].child(profile[nid])
    return nid


def _block_value(tree, utils, partition, block, terminal):
    if len(block) == 1:
        return utils.individual_value(block[0], terminal, partition, tree)
    return utils.coalition_value(block, terminal, tree)


def oracle_bi(tree, utils, max_profiles=1_000_000) -> LocalSolution:
    """Backward induction by brute force over pure strategy profiles.

    Keeps the first profile (in enumeration order) that prescribes a
    node-local argmax for its owner at every decision node. With generic
    payoffs the survivor is unique and equals `backward_induction`.
    """
    partition = singleton_partition(tree.n_players)
    if not tree.is_perfect_information:
        raise TooLarge("oracle_bi handles perfect information only")
    if tree.chance_at_root:
        raise TooLarge("oracle_bi does not handle chance moves")

    nodes = list(tree.decision_ids)
    count = 1
    for nid in nodes:
        count *= len(tree.nodes[nid].actions)
        if count > max_profiles:
            raise TooLarge(f"more than {max_profiles} pure profiles")

    def value(profile, nid, child):
        z = _playout(tree, profile, child)
        return utils.individual_value(tree.nodes[nid].player, z, partition, tree)

    label_sets = [tree.nodes[nid].action_labels() for nid in nodes]
    for combo in product(*label_sets):
        profile = dict(zip(nodes, combo))
        if all(value(profile, nid, tree.nodes[nid].child(profile[nid]))
               >= max(value(profile, nid, child) for _, child in tree.nodes[nid].actions)
               for nid in nodes):
            dist = ((_playout(tree, profile, tree.root), 1),)
            return LocalSolution(profile, dist, dist_payoffs(dist, tree), partition)
    raise TooLarge("no profile survived the argmax filter")  # unreachable


def oracle_solve(tree: GameTree, utils: UtilitySystem, max_nodes=15,
                 max_players=3) -> LocalSolution:
    """The recursive-induction definition, implemented literally.

    At every node it enumerates the supergames by building each one's
    merged partition, recurses without memoization, sorts the reference
    points, and filters them by the strict-improvement test. Each value is
    read from the utility definitions where it is compared. Returns the
    adopted solution at the root; its `partition` is the adopted partition.
    """
    if tree.n_players > max_players:
        raise TooLarge(f"{tree.n_players} players exceeds the oracle limit")
    if len(tree.nodes) > max_nodes:
        raise TooLarge(f"{len(tree.nodes)} nodes exceeds the oracle limit")
    if not tree.is_perfect_information or tree.chance_at_root:
        raise TooLarge("oracle_solve handles perfect information, no chance")
    return _ri_literal(tree, utils, singleton_partition(tree.n_players), tree.root)


def _ri_literal(tree, utils, partition, x) -> LocalSolution:
    node = tree.nodes[x]
    if node.is_terminal:
        dist = ((x, 1),)
        return LocalSolution({}, dist, dist_payoffs(dist, tree), partition)
    subs = {child: _ri_literal(tree, utils, partition, child)
            for _, child in node.actions}
    block = block_containing(partition, node.player)

    def member_key(action):
        z = subs[action[1]].dist[0][0]
        extra = tuple(utils.individual_value(i, z, partition, tree)
                      for i in block) if len(block) > 1 else ()
        return (_block_value(tree, utils, partition, block, z),) + extra

    best_label, best_child = max(node.actions, key=member_key)  # the first maximizer
    actions = {x: best_label}
    for sub in subs.values():
        actions.update(sub.actions)
    chosen = subs[best_child]
    r0 = LocalSolution(actions, chosen.dist, chosen.outcome, partition)

    candidates = []
    others = [b for b in partition if b != block]
    for size in range(1, len(others) + 1):
        for combo in combinations(others, size):
            members = set(block)
            for b in combo:
                members.update(b)
            if not utils.is_feasible(members):
                continue
            union = canon_block(members)
            kept = [b for b in others if b not in combo]
            sol = _ri_literal(tree, utils, canon_partition(kept + [union]), x)
            value = _block_value(tree, utils, sol.partition, block, sol.dist[0][0])
            candidates.append((value, union, sol))
    candidates.sort(key=lambda c: (c[0], len(c[1]), c[1]))

    accepted = r0
    for value, union, sol in candidates:
        z_new, z_old = sol.dist[0][0], accepted.dist[0][0]
        adopting = block_containing(sol.partition, union[0])
        if all(utils.individual_value(i, z_new, sol.partition, tree)
               > utils.individual_value(i, z_old, accepted.partition, tree)
               for i in adopting):
            accepted = sol
    return accepted


def game_digest(tree: GameTree, utils: UtilitySystem) -> str:
    """Short hash of everything that defines the game: the tree with its
    owners, payoffs, information sets and chance, and the utility system."""
    payload = {
        "players": list(tree.players),
        "root": tree.root,
        "nodes": {
            nid: ([n.player, [[a, c] for a, c in n.actions]] if not n.is_terminal
                  else [str(v) for v in n.payoffs])
            for nid, n in sorted(tree.nodes.items())
        },
        "info_sets": {sid: list(m) for sid, m in tree.info_sets.items()},
        "chance": {c: str(p) for c, p in (tree.chance_at_root or {}).items()},
        "feasible": "all" if utils.feasible is None else sorted(utils.feasible),
        "combinator": utils.combinator,
        "weights": [str(w) for w in utils.weights or ()],
        "table": {",".join(map(str, m)): {z: str(v) for z, v in row.items()}
                  for m, row in (utils.table or {}).items()},
        "synergies": [[s.player, list(s.block), s.terminal, str(s.value)]
                      for s in utils.synergies],
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def equivalence_check(tree: GameTree, utils: UtilitySystem,
                      solver=None, max_nodes=15) -> OracleReport:
    """Run the production solver and the oracle, compare adopted solutions.

    `solver` defaults to `solve_game`; tests may inject a corrupted stub.
    Divergence is localized to the first subgame (bottom-up) where the two
    standalone solutions differ.
    """
    from .ri import solve_game

    solve_fn = solver if solver is not None else solve_game
    # The oracle's size and information guards raise before any solve.
    reference = oracle_solve(tree, utils, max_nodes=max_nodes)
    profile = solve_fn(tree, utils)
    match = (tuple(profile.outcome) == tuple(reference.outcome)
             and tuple(profile.partition) == tuple(reference.partition))

    divergence = None
    if not match:
        divergence = (tree.root,
                      "outcome" if tuple(profile.outcome) != tuple(reference.outcome)
                      else "partition")
        base = singleton_partition(tree.n_players)
        order = sorted((nid for nid in tree.subgame_roots
                        if nid in tree.decision_ids),
                       key=lambda nid: (-tree.depth_of(nid), nid))
        for nid in order:
            try:
                mine = profile.standalone_entry(nid)
            except (AttributeError, KeyError):
                break
            ref = _ri_literal(tree, utils, base, nid)
            if tuple(mine.outcome) != tuple(ref.outcome):
                divergence = (nid, "outcome")
                break
            if tuple(mine.partition) != tuple(ref.partition):
                divergence = (nid, "partition")
                break

    return OracleReport(
        game_digest=game_digest(tree, utils),
        solver_outcome=tuple(profile.outcome),
        oracle_outcome=tuple(reference.outcome),
        solver_partition=tuple(profile.partition),
        oracle_partition=tuple(reference.partition),
        match=match,
        first_divergence=divergence,
    )


# -- random fixtures -----------------------------------------------------------


def random_game(rng, max_players=3, max_depth=4, max_nodes=15,
                min_players=2) -> tuple[GameTree, UtilitySystem]:
    """A small random game with globally distinct `int` payoffs, as the
    parser loads integral numbers.

    Distinct payoffs across all terminals and players keep every value
    comparison tie-free, so solver/oracle agreement cannot hinge on the
    tie-break policy.
    """
    n = rng.randint(min_players, max_players)
    nodes: dict = {}
    counter = [0]

    def fresh(prefix):
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    budget = [max_nodes - 1]  # child slots left; the root takes the first node

    def build(depth, force_decision=False):
        make_terminal = (depth >= max_depth or budget[0] < 2
                         or (not force_decision and rng.random() < 0.3))
        nid = fresh("t" if make_terminal else "n")
        if make_terminal:
            nodes[nid] = None  # its payoffs come once every terminal is known
            return nid
        width = 2 if budget[0] < 4 else rng.choice((2, 2, 3))
        width = min(width, budget[0])
        budget[0] -= width
        children = [build(depth + 1) for _ in range(width)]
        labels = [chr(ord("a") + k) for k in range(width)]
        nodes[nid] = Node(nid, rng.randint(1, n), tuple(zip(labels, children)))
        return nid

    root = build(0, force_decision=True)

    terminals = [nid for nid, node in nodes.items() if node is None]
    pool = rng.sample(range(1, 20 * n * len(terminals) + 1), n * len(terminals))
    for z in terminals:
        nodes[z] = Node(z, payoffs=tuple(pool.pop() for _ in range(n)))
    tree = GameTree(nodes, root, [f"P{i}" for i in range(1, n + 1)])
    utils = UtilitySystem(n)
    return tree, utils
