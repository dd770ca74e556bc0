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
once per player. Solutions are memoized by view partition, then subgame
root; the profile keeps only the base view's memo, the standalone
per-subgame solutions that the trace renders.

Imperfect information is handled at the subgame scale: a layer containing
non-singleton information sets is solved as a reduced normal-form game
(pure equilibria first, then two-player support enumeration), information
sets with no decision nodes below them adopt that equilibrium as is, and
every other information set runs the reference-point machinery against
supertrees, i.e. merged views of the same smallest subgame.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import itemgetter
from typing import NamedTuple

from .errors import CefgError, UntimeableLayer
from .model import (
    GameTree,
    UtilitySystem,
    Valuation,
    block_containing,
    block_value,
    dist_payoffs,
    individual_values,
    singleton_partition,
)
from .noncoop import layer_play


class SolveStep(NamedTuple):
    """One event in the solution narrative at a node (or information set)."""

    node: str
    kind: str  # index-point | supergame-solved | ir-accepted | ir-rejected | adopted
    coalition: tuple | None
    outcome: tuple
    reason: str
    view: tuple
    active_value: int | Fraction | None = None
    comparisons: tuple = ()  # ((agent, candidate value, incumbent value), ...)


class Entry(NamedTuple):
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

    def __eq__(self, other):
        """Tuple equality, with `children` walked on a stack, not recursively."""
        if not isinstance(other, tuple):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b or (not isinstance(a, Entry) and a == b):
                continue
            if not (isinstance(a, Entry) and isinstance(b, tuple) and len(b) == len(a)
                    and a[:-1] == b[:-1] and isinstance(b[-1], dict)
                    and a.children.keys() == b[-1].keys()):
                return False
            stack.extend((kid, b[-1][key]) for key, kid in a.children.items())
        return True

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal


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
                 standalone: dict, rows):
        self.tree = tree
        self.utils = utils
        self.root_entry = root_entry
        self._standalone = standalone  # the base view's memo: subgame root -> Entry
        # The audit as plain tuples, one row per adoption: (step node,
        # subgame root, view, index point's outcome and value, candidates,
        # adopted coalition, outcome and value), each candidate (failing
        # agent or None, union, outcome, value, compared block, its and the
        # accepted point's individual values). `_steps` writes every step.
        self._rows = rows
        self._summary = None  # render.bracket_summary's text, made on first use

    def _steps(self, rows):
        movers = self.tree.movers
        for at, g, view, r0_outcome, r0_value, candidates, coalition, outcome, value in rows:
            yield SolveStep(at, "index-point", None, r0_outcome, "best-response",
                            view, r0_value, ())
            for failing, union, c_outcome, c_value, members, cand, held in candidates:
                idle = ",".join(str(i) for i in union if i not in movers[g])
                yield SolveStep(at, "supergame-solved", union, c_outcome,
                                idle and "idle:" + idle, view, c_value, ())
                kind, reason = (("ir-accepted", "strict-improvement") if failing is None
                                else ("ir-rejected", f"blocked-by:{failing}"))
                yield SolveStep(at, kind, union, c_outcome, reason, view, c_value, tuple([
                    (agent, cand[agent - 1], held[agent - 1]) for agent in members]))
            yield SolveStep(at, "adopted", coalition, outcome,
                            "greatest-ir" if coalition else "index", view, value, ())

    @cached_property
    def audit(self) -> tuple:
        """Every step of the solve, the supergame recursions' too, in
        emission order; made on first read."""
        return tuple(self._steps(self._rows))

    @property
    def outcome(self) -> tuple:
        return self.root_entry.outcome

    @property
    def partition(self) -> tuple:
        return self.root_entry.partition

    @property
    def coalition(self) -> tuple | None:
        return self.root_entry.coalition

    @cached_property
    def _base_steps(self) -> tuple:
        base = singleton_partition(self.tree.n_players)
        return tuple(self._steps(r for r in self._rows if r[2] == base))

    def trace_steps(self) -> tuple:
        """Steps of the base-view recursion, in emission order."""
        return self._base_steps

    def standalone_entry(self, node: str) -> Entry:
        """The solution of the subgame at `node` solved on its own."""
        return self._standalone[node]

    @cached_property
    def root_context(self) -> dict:
        """Subgame root -> its Entry inside the adopted root context, in
        preorder."""
        return {entry.node: entry for entry in walk_entries([self.root_entry])}

    def contexts(self) -> dict:
        """Context root -> its Entry: the root context, then every subgame
        solved on its own (terminals included), in memo order."""
        return {self.root_entry.node: self.root_entry, **self._standalone}

    def entries(self) -> dict:
        """Flat (context root, subgame root) -> Entry map over all contexts."""
        return {(ctx, entry.node): entry for ctx, top in self.contexts().items()
                for entry in walk_entries([top])}


def reach_nodes(tree: GameTree, entry: Entry) -> set:
    """Nodes of `entry`'s subgame reached with positive probability under
    its actions: those on the paths from its root to the terminals of its
    dist."""
    reached = {z for z, _ in entry.dist}
    for z, _ in entry.dist:
        reached.update(nid for nid, _ in tree.path_from_root(z)
                       if tree.in_subtree(nid, entry.node))
    return reached


class _Solver:
    def __init__(self, tree: GameTree, utils: UtilitySystem):
        self.tree = tree
        self.valuation = Valuation(tree, utils)
        self.memo: dict = {}  # view -> {subgame root -> Entry}
        self.merges: dict = {}  # (view, block) -> [(union, merged view, its memo), ...]
        self.audit: list[tuple] = []  # SolutionProfile's rows

    def solve(self, g: str, view: tuple) -> Entry:
        """Solve and memoize the subgames under `g` innermost first, in the
        order a recursion down the tree would finish them."""
        tree, memo = self.tree, self.memo.setdefault(view, {})
        stack = [(g, False)]
        while stack:
            node, kids_done = stack.pop()
            if node in memo:
                continue
            frontier = tree.frontier_of(node)
            if not frontier:  # a terminal
                memo[node] = Entry(node, {}, ((node, 1),), tree.nodes[node].payoffs,
                                   view, None, {})
            elif kids_done:
                memo[node] = self._solve(node, view)
            else:
                stack.append((node, True))
                stack.extend((y, False) for y in reversed(frontier))
        return memo[g]

    # -- one subgame ---------------------------------------------------------

    def _solve(self, g: str, view: tuple) -> Entry:
        # `solve` walks innermost first, so every kid is in the memo.
        tree, memo = self.tree, self.memo[view]
        kids = {y: memo[y] for y in tree.frontier_of(g)}
        continuation = {y: kid.dist for y, kid in kids.items()}
        # The layer's noncooperative play: at a one-node layer, the index
        # point; otherwise the equilibrium the layer's steps start from.
        own, dist = layer_play(self.valuation, view, g, continuation)
        nu = Entry(g, own, dist, dist_payoffs(dist, tree), view, None, kids)
        order = tree.layer_order(g)
        if order is None:
            raise UntimeableLayer(f"information-set order has a cycle in the layer at {g}")
        # A one-node layer's set adopts, its steps named after the node. In
        # a wider layer (an imperfect-information layer, or the chance
        # root's) the sets adopt bottom-up, and a set with no decision node
        # below it keeps the equilibrium play.
        one_node = g in tree.one_node_layers
        pinned: dict = {}  # info set -> the action adopted there
        entry = nu
        for sid in order:
            if not one_node and not any(
                    tree.movers[child] for m in tree.info_sets[sid]
                    for _, child in tree.nodes[m].actions):
                continue
            # The index point is the SPNE extension of the actions pinned
            # at the sets below `sid`.
            fixed = {other: act for other, act in pinned.items()
                     if tree.set_below(other, sid)}
            r0 = nu
            if fixed:
                assignment, dist = layer_play(self.valuation, view, g,
                                              continuation, fixed)
                r0 = Entry(g, {**own, **fixed, **assignment}, dist,
                           dist_payoffs(dist, tree), view, None, kids)
            block = block_containing(view, tree.owner(sid))
            entry = self._adopt(g, view, block, r0, g if one_node else sid)
            # An index point that kept the equilibrium pins nothing, so the
            # sets above it are not pinned to a copy of it.
            if r0 is not nu or entry.coalition is not None:
                pinned[sid] = entry.own[sid]
        return entry

    # -- reference points and the IR chain ------------------------------------

    def _candidates(self, g: str, view: tuple, block: tuple):
        """Supergames of `block` with some other blocks of `view`, by value;
        their merged views depend on the pair alone, so each pair lists them once."""
        merges = self.merges.get((view, block))
        if merges is None:
            # A union of two or more members is feasible when `feasible` is None
            # or lists it. Disjoint blocks sort into min-member order.
            feasible, found = self.valuation.utils.feasible, []
            others = [b for b in view if b != block]
            for size in range(1, len(others) + 1):
                for combo in combinations(others, size):
                    union = tuple(sorted(block + sum(combo, ())))
                    if feasible is None or union in feasible:
                        kept = [b for b in others if b not in combo]
                        found.append((len(union), union, tuple(sorted(kept + [union]))))
            merges = self.merges[view, block] = [
                (union, merged, self.memo.setdefault(merged, {}))
                for _, union, merged in sorted(found)]
        out = []
        for union, merged, memo in merges:
            # An Entry is a non-empty tuple, so only a miss runs the stack.
            entry = memo.get(g) or self.solve(g, merged)
            value = block_value(block, entry.dist, entry.partition, self.valuation)
            out.append((value, union, entry))
        # The merges are in (size, members) order, and the sort is stable.
        out.sort(key=itemgetter(0))
        return out

    def _adopt(self, g: str, view: tuple, block: tuple, r0: Entry,
               at: str) -> Entry:
        """Run the reference-point sequence and IR chain of `block` in
        subgame `g` from `r0`, and record them as one audit row whose steps
        are named `at`."""
        valuation = self.valuation
        r0_value = block_value(block, r0.dist, r0.partition, valuation)
        accepted, accepted_value, accepted_coalition = r0, r0_value, None
        # Without synergies a player's individual value is its expected
        # payoff, which every Entry holds as `outcome`; `held` is the
        # accepted point's.
        synergies = valuation.synergies
        held = individual_values(r0.dist, r0.partition, valuation) if synergies else r0.outcome
        candidates = []
        for value, union, entry in self._candidates(g, view, block):
            # The IR test: every member of the candidate's block that holds
            # `union` must strictly gain on the accepted point.
            cand = (individual_values(entry.dist, entry.partition, valuation)
                    if synergies else entry.outcome)
            members = block_containing(entry.partition, union[0])
            failing = None
            for agent in members:
                if not cand[agent - 1] > held[agent - 1]:
                    failing = agent
                    break
            candidates.append((failing, union, entry.outcome, value, members, cand, held))
            if failing is None:
                accepted, accepted_value, accepted_coalition = entry, value, union
                held = cand
        # Numbers only, in SolutionProfile's row shape; the nested supergame
        # solves appended their rows first.
        self.audit.append((at, g, view, r0.outcome, r0_value, candidates,
                           accepted_coalition, accepted.outcome, accepted_value))
        if accepted_coalition is None:
            return r0
        return Entry(g, accepted.own, accepted.dist, accepted.outcome,
                     accepted.partition, accepted_coalition, accepted.children)


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
    base = singleton_partition(tree.n_players)
    root_entry = solver.solve(tree.root, base)
    return SolutionProfile(tree, utils, root_entry, solver.memo[base], solver.audit)


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
    groups = accepted_total = 0
    value = None
    for step in profile.audit:
        if step.kind == "index-point":  # opens its (node, view) group
            groups += 1
            value = step.active_value
        elif step.kind == "ir-accepted":
            accepted_total += 1
            block = block_containing(step.view, tree.owner(step.node))
            if len(block) == 1 and value is not None and not step.active_value > value:
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
        elif step.kind == "ir-rejected" and all(
                cand > held for _, cand, held in step.comparisons):
            raise CefgError(f"rejected point at {step.node} improves every agent")
    return groups, accepted_total
