"""Recursive backward induction over coalitional extensive-form games.

The solver works bottom-up over subgames. At each subgame root it first
computes the index reference point (the active player best-responding
independently to the adopted successor solutions), then solves one supergame
per feasible coalition containing the active player — the same game with
those players merged into a single one — and walks the resulting reference
points in nondecreasing order of the active player's value. A reference
point is accepted only if every member of the adopting block strictly
improves on the previously accepted point; the last accepted point becomes
the subgame's solution.

Subgames are solved innermost first on an explicit stack. A supergame is
solved by a nested walk with fewer effective players, so solves nest at most
once per player. Solutions are memoized by (subgame root, view partition);
the memo doubles as the store of standalone per-subgame solutions that the
trace renders.

Imperfect information is handled at the subgame scale: a layer containing
non-singleton information sets is solved as a reduced normal-form game
(pure equilibria first, then two-player support enumeration), information
sets with no decision nodes below them adopt that equilibrium as is, and
every other information set runs the reference-point machinery against
supertrees, i.e. merged views of the same smallest subgame.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .errors import CefgError
from .model import (
    GameTree,
    UtilitySystem,
    block_containing,
    block_value,
    canon_block,
    canon_partition,
    dist_payoffs,
    singleton_partition,
)
from .noncoop import LayerGame, layer_play


@dataclass(frozen=True)
class SolveStep:
    """One event in the solution narrative at a node (or information set)."""

    node: str
    kind: str  # index-point | supergame-solved | ir-accepted | ir-rejected | adopted
    coalition: tuple | None
    outcome: tuple
    reason: str
    view: tuple
    active_value: Fraction | None = None
    comparisons: tuple = ()  # ((agent, candidate value, incumbent value), ...)


@dataclass(frozen=True)
class Entry:
    """Adopted solution of one subgame under one view.

    `own` maps each information set of the subgame's own layer to its
    action; `children` holds the nested per-subgame entries this solution
    extends. After a coalition is adopted they come from the supergame's
    own solve, which is why an inner entry need not be the restriction of
    the outer profile.
    """

    node: str
    own: dict
    dist: tuple
    outcome: tuple
    partition: tuple
    coalition: tuple | None
    children: dict

    @property
    def actions(self) -> dict:
        """The whole subgame's action map: `own`, then the children's."""
        return {sid: act for entry in walk_entries([self])
                for sid, act in entry.own.items()}


def walk_entries(tops):
    """Each distinct Entry under `tops` once, preorder, children in stored order."""
    seen, stack = set(), list(reversed(tops))
    while stack:
        entry = stack.pop()
        if id(entry) in seen:  # every entry is alive while `tops` is
            continue
        seen.add(id(entry))
        yield entry
        stack.extend(reversed(entry.children.values()))


class SolutionProfile:
    """The family of per-(context, subgame) solutions plus the solve trace."""

    def __init__(self, tree: GameTree, utils: UtilitySystem, root_entry: Entry,
                 memo: dict, audit):
        self.tree = tree
        self.utils = utils
        self.root_entry = root_entry
        self._memo = dict(memo)
        self.audit = tuple(audit)
        self._base = singleton_partition(tree.n_players)

    @property
    def outcome(self) -> tuple:
        return self.root_entry.outcome

    @property
    def partition(self) -> tuple:
        return self.root_entry.partition

    @property
    def coalition(self) -> tuple | None:
        return self.root_entry.coalition

    def trace_steps(self) -> tuple:
        """Steps of the base-view recursion, in emission order."""
        return tuple(s for s in self.audit if s.view == self._base)

    def standalone_entry(self, node: str) -> Entry:
        """The solution of the subgame at `node` solved on its own."""
        return self._memo[(node, self._base)]

    @cached_property
    def root_context(self) -> dict:
        """Subgame root -> its Entry inside the adopted root context, in
        preorder."""
        return {entry.node: entry for entry in walk_entries([self.root_entry])}

    def contexts(self) -> dict:
        """Context root -> its Entry: the root context, then every subgame
        solved on its own (terminals included), in memo order."""
        out = {self.root_entry.node: self.root_entry}
        for (node, view), entry in self._memo.items():
            if view == self._base:
                out.setdefault(node, entry)
        return out

    def entries(self) -> dict:
        """Flat (context root, subgame root) -> Entry map over all contexts."""
        return {(ctx, entry.node): entry for ctx, top in self.contexts().items()
                for entry in walk_entries([top])}


def reach_nodes(tree: GameTree, entry: Entry) -> tuple:
    """Nodes of `entry`'s subgame reached with positive probability under
    its actions, in preorder: those on the paths from its root to the
    terminals of its dist."""
    reached = {z for z, _ in entry.dist}
    for z, _ in entry.dist:
        reached.update(nid for nid, _ in tree.path_from_root(z)
                       if tree.in_subtree(nid, entry.node))
    return tuple(sorted(reached, key=tree.position))


class _Solver:
    def __init__(self, tree: GameTree, utils: UtilitySystem):
        self.tree = tree
        self.utils = utils
        self.memo: dict = {}
        self.audit: list[SolveStep] = []

    def solve(self, g: str, view: tuple) -> Entry:
        """Solve and memoize the subgames under `g` innermost first, in the
        order a recursion down the tree would finish them."""
        stack = [(g, False)]
        while stack:
            node, kids_done = stack.pop()
            if (node, view) in self.memo:
                continue
            if kids_done:
                self.memo[node, view] = self._solve(node, view)
            else:
                stack.append((node, True))
                stack.extend((y, False) for y in reversed(self.tree.frontier_of(node)))
        return self.memo[g, view]

    # -- one subgame ---------------------------------------------------------

    def _solve(self, g: str, view: tuple) -> Entry:
        node = self.tree.nodes[g]
        if node.is_terminal:
            dist = ((g, Fraction(1)),)
            return Entry(g, {}, dist, node.payoffs, view, None, {})
        # `solve` walks innermost first, so every kid is in the memo.
        kids = {y: self.memo[y, view] for y in self.tree.frontier_of(g)}
        continuation = {y: kid.dist for y, kid in kids.items()}
        # The layer's noncooperative play: at a one-node layer, the index
        # point; otherwise the equilibrium the layer's steps start from.
        nu = self._point(g, view, kids, *layer_play(self.tree, self.utils, view,
                                                    g, continuation))
        layer = self.tree.layer_info_sets(g)
        if len(layer) == 1 and self.tree.info_sets[layer[0]] == (g,):
            return self._adopt(g, view, block_containing(view, node.player), nu)
        return self._solve_layer(g, view, layer, continuation, nu)

    def _point(self, g: str, view: tuple, kids: dict, own: dict, dist) -> Entry:
        """The unadopted solution at `g` whose own information sets play
        `own`, reaching `dist`, over the solved subgames `kids`."""
        return Entry(g, dict(own), dist, dist_payoffs(dist, self.tree),
                     view, None, dict(kids))

    def _solve_layer(self, g: str, view: tuple, layer, continuation: dict,
                     nu: Entry) -> Entry:
        """Step over the layer of subgame `g` when it is more than one
        decision node (an imperfect-information layer, or the chance root's
        layer, which has no information sets), from its equilibrium `nu`."""
        tree = self.tree
        pinned: dict = {}  # info set -> the action adopted there
        entry = nu
        for sid in _layer_bottom_up(tree, layer):
            if not any(tree.movers[child] for m in tree.info_sets[sid]
                       for _, child in tree.nodes[m].actions):
                continue  # terminal layer: equilibrium play as is
            # The index point is the SPNE extension of the actions pinned
            # at the sets below `sid`.
            fixed = {other: act for other, act in pinned.items()
                     if _set_below(tree, other, sid)}
            r0 = nu
            if fixed:
                assignment, dist = LayerGame(tree, self.utils, view, g,
                                             continuation, fixed=fixed).solve()
                r0 = self._point(g, view, nu.children,
                                 {**nu.own, **fixed, **assignment}, dist)
            block = block_containing(view, tree.info_set_player(sid))
            entry = self._adopt(g, view, block, r0, step_node=sid)
            # An index point that kept the equilibrium pins nothing, so the
            # sets above it are not pinned to a copy of it.
            if r0 is not nu or entry.coalition is not None:
                pinned[sid] = entry.own[sid]
        return entry

    # -- reference points and the IR chain ------------------------------------

    def _candidates(self, g: str, view: tuple, block: tuple):
        """Supergames of `block` with some other blocks of `view`, by value."""
        others = [b for b in view if b != block]
        merges = []
        for size in range(1, len(others) + 1):
            for combo in combinations(others, size):
                union = canon_block(block + sum(combo, ()))
                if self.utils.is_feasible(union):
                    kept = [b for b in others if b not in combo]
                    merges.append((len(union), union, canon_partition(kept + [union])))
        out = []
        for _, union, merged in sorted(merges):
            entry = self.solve(g, merged)
            value = block_value(block, entry.dist, entry.partition,
                                self.utils, self.tree)
            out.append((value, union, entry))
        out.sort(key=lambda item: (item[0], len(item[1]), item[1]))
        return out

    def _adopt(self, g: str, view: tuple, block: tuple, r0: Entry,
               step_node: str | None = None) -> Entry:
        """Run the reference-point sequence and IR chain at one node."""
        tree, utils = self.tree, self.utils
        at = step_node or g
        steps = []
        r0_value = block_value(block, r0.dist, r0.partition, utils, tree)
        steps.append(SolveStep(at, "index-point", None, r0.outcome,
                               "best-response", view, active_value=r0_value))
        accepted, accepted_value, accepted_coalition = r0, r0_value, None
        held_values: dict = {}  # agent -> value under `accepted`
        movers = tree.movers[g]
        for value, union, entry in self._candidates(g, view, block):
            idle = [i for i in union if i not in movers]
            note = "idle:" + ",".join(map(str, idle)) if idle else ""
            steps.append(SolveStep(at, "supergame-solved", union, entry.outcome,
                                   note, view, active_value=value))
            # The IR test: every member of the candidate's block that holds
            # `union` must strictly gain on the accepted point.
            comparisons, failing = [], None
            for agent in block_containing(entry.partition, union[0]):
                cand = block_value((agent,), entry.dist, entry.partition,
                                   utils, tree)
                held = held_values.get(agent)
                if held is None:
                    held = held_values[agent] = block_value(
                        (agent,), accepted.dist, accepted.partition, utils, tree)
                comparisons.append((agent, cand, held))
                if failing is None and not cand > held:
                    failing = agent
            kind, reason = (("ir-accepted", "strict-improvement")
                            if failing is None
                            else ("ir-rejected", f"blocked-by:{failing}"))
            steps.append(SolveStep(at, kind, union, entry.outcome, reason, view,
                                   active_value=value,
                                   comparisons=tuple(comparisons)))
            if failing is None:
                accepted, accepted_value, accepted_coalition = entry, value, union
                held_values.clear()
        steps.append(SolveStep(at, "adopted", accepted_coalition,
                               accepted.outcome,
                               "greatest-ir" if accepted_coalition else "index",
                               view, active_value=accepted_value))
        # The nested supergame solves emitted their steps first.
        self.audit.extend(steps)
        return Entry(g, accepted.own, accepted.dist, accepted.outcome,
                     accepted.partition, accepted_coalition, accepted.children)


def _set_below(tree, sid_a, sid_b) -> bool:
    """True when some node of info set a lies strictly below some node of
    info set b."""
    return any(a != b and tree.in_subtree(a, b)
               for a in tree.info_sets[sid_a] for b in tree.info_sets[sid_b])


def _layer_bottom_up(tree, layer):
    remaining = list(layer)
    done: list = []
    while remaining:
        ready = [s for s in remaining
                 if not any(_set_below(tree, other, s)
                            for other in remaining if other != s)]
        if not ready:
            raise CefgError("information-set order has a cycle")
        ready.sort(key=lambda s: (-tree.depth_of(tree.info_sets[s][0]),
                                  tree.position(tree.info_sets[s][0])))
        first = ready[0]
        remaining.remove(first)
        done.append(first)
    return done


# -- public API ----------------------------------------------------------------


def solve_game(tree: GameTree, utils: UtilitySystem, *,
               singletons_only=False) -> SolutionProfile:
    """RI solution of any valid game; perfect and imperfect information run
    the same solve.

    `singletons_only` restricts feasibility to singletons, the
    noncooperative reduction.
    """
    if singletons_only:
        utils = utils.restricted_to_singletons()
    solver = _Solver(tree, utils)
    root_entry = solver.solve(tree.root, singleton_partition(tree.n_players))
    return SolutionProfile(tree, utils, root_entry, solver.memo, solver.audit)


def check_ir_invariants(profile: SolutionProfile):
    """Re-assert from the trace what the acceptance rule implies.

    A point is accepted only when every member of the adopting block
    strictly improves on the accepted point, so every accepted step must
    show a strict gain for each compared agent, among them every member of
    the active block, and every rejected step must show an agent that does
    not gain. Only when the active block is a single player is its value
    that player's individual value, so only then must the chain strictly
    increase the active value; a merged block's coalition value (a table,
    or a sum over payoffs that synergies override) can fall while each
    member gains.

    Returns (groups checked, acceptances seen); raises CefgError on the
    first violated invariant.
    """
    tree = profile.tree
    groups: list[list[SolveStep]] = []
    current_key = None
    for step in profile.audit:
        key = (step.node, step.view)
        if key != current_key:
            groups.append([])
            current_key = key
        groups[-1].append(step)
    accepted_total = 0
    for group in groups:
        block = block_containing(group[0].view, tree.owner(group[0].node))
        value = None
        for step in group:
            if step.kind == "index-point":
                value = step.active_value
            elif step.kind == "ir-accepted":
                accepted_total += 1
                if (len(block) == 1 and value is not None
                        and not step.active_value > value):
                    raise CefgError(
                        f"accepted point at {step.node} does not increase the "
                        f"active player's value ({step.active_value} <= {value})")
                value = step.active_value
                if not step.comparisons:
                    raise CefgError(f"accepted step at {step.node} lacks comparisons")
                compared = {agent for agent, _, _ in step.comparisons}
                if not compared.issuperset(block):
                    raise CefgError(
                        f"accepted step at {step.node} does not compare every "
                        f"member of the active block {block}")
                for agent, cand, held in step.comparisons:
                    if not cand > held:
                        raise CefgError(
                            f"agent {agent} does not strictly improve at {step.node}")
            elif step.kind == "ir-rejected":
                if all(cand > held for _, cand, held in step.comparisons):
                    raise CefgError(
                        f"rejected point at {step.node} improves every agent")
    return len(groups), accepted_total
