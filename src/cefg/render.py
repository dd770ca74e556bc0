"""Text, DOT, and JSON rendering of solution profiles.

Bracket notation: per-player action lists, then the partition, e.g.
``[{R},{a,d},{e,g,j,l}; {1,3},2]``. Partition blocks are listed in the order
their members first act in the subgame; singleton blocks are bare,
coalitions braced.

Three bracket conventions coexist:

* an entry adopted from the index point lists the full profile over its
  subgame (every information set pinned);
* an entry adopted from a coalition's supergame lists only the coalition's
  coordinated path — off-path play inside an adopted supergame is shown by
  the nested per-subgame entries instead;
* the root summary composes the adopted path with every player's individual
  best response at off-path nodes, the "on-path solution" view of the game.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache

from .errors import TooLarge
from .model import Valuation, block_containing, block_value, singleton_partition
from .noncoop import LocalSolution
from .ri import Entry, SolutionProfile, reach_nodes, walk_entries


def fmt_value(v) -> str:
    """A number as text: an integer when integral, else `p/q`."""
    return str(v) if type(v) in (Fraction, int) else str(Fraction(v))


def outcome_str(vec) -> str:
    return "(" + ", ".join(fmt_value(v) for v in vec) + ")"


def block_str(block) -> str:
    inner = ",".join(str(i) for i in sorted(block))
    return inner if len(block) == 1 else "{" + inner + "}"


def _action_str(act) -> str:
    if isinstance(act, tuple):
        parts = ",".join(f"{label}={fmt_value(p)}" for label, p in act if p)
        return f"mix({parts})"
    return act


def _acting_blocks(tree, entry):
    """Partition blocks in the order their members first act in the subgame."""
    order = []
    for nid in tree.subtree_nodes(entry.node):
        node = tree.nodes[nid]
        if node.is_terminal or node.player is None:
            continue
        block = block_containing(entry.partition, node.player)
        if block not in order:
            order.append(block)
            if len(order) == len(entry.partition):
                break
    return order


def _bracket(tree, entry, pairs) -> str:
    """Bracket of (info set, action) pairs grouped by owner, players in id
    order, then `entry`'s partition blocks."""
    rank = tree.set_rank
    groups: dict = {}
    for (_, player), act in sorted([(rank[sid], act) for sid, act in pairs]):
        groups.setdefault(player, []).append(_action_str(act))
    blocks = ",".join(block_str(b) for b in _acting_blocks(tree, entry))
    return "[" + ",".join("{" + ",".join(g) + "}" for g in groups.values()) + "; " + blocks + "]"


def bracket_entry(tree, entry: Entry) -> str:
    """Bracket line for one solved subgame entry."""
    return _bracket_entry(tree, entry, entry.actions)


def _bracket_entry(tree, entry: Entry, actions: dict) -> str:
    """`bracket_entry`, given `entry`'s full action map."""
    if entry.coalition is None:
        return _bracket(tree, entry, actions.items())
    sids = {tree.info_set_of(nid) for nid in reach_nodes(tree, entry)
            if tree.nodes[nid].player is not None}
    return _bracket(tree, entry, [(sid, actions[sid]) for sid in sids])


def bracket_summary(profile: SolutionProfile) -> str:
    """The root summary: adopted path plus individual off-path responses,
    worked out once per profile."""
    if profile._summary is not None:
        return profile._summary
    tree = profile.tree
    top = profile.root_entry
    actions = top.actions
    family = profile.root_context
    valuation = Valuation(tree, profile.utils)
    on_path = reach_nodes(tree, top)
    pairs = []
    for sid, (nid, *more) in tree.info_sets.items():  # `_bracket` puts them in order
        node = tree.nodes[nid]
        if (nid in on_path or more
                or any(c not in family for _, c in node.actions)):
            pairs.append((sid, actions[sid]))
            continue
        label, _ = max(node.actions, key=lambda a: block_value(
            (node.player,), family[a[1]].dist, family[a[1]].partition, valuation))
        pairs.append((sid, label))
    profile._summary = _bracket(tree, top, pairs)
    return profile._summary


def partition_str(partition) -> str:
    return ",".join(block_str(b) for b in partition)


# -- solve narrative -----------------------------------------------------------


def _unit_name(tree, view, unit) -> str:
    block = block_containing(view, tree.owner(unit))
    if len(block) == 1:
        return tree.player_name(block[0])
    return block_str(block)


def _step_line(tree, step, num, outcome, block) -> str:
    """One step's line, its texts from the render call's memos."""
    where = f"[{step.node}]"
    if step.kind == "index-point":
        return f"{where} index point -> {outcome(step.outcome)}"
    coal = block(step.coalition) if step.coalition else "index point"
    if step.kind == "supergame-solved":
        active = _unit_name(tree, step.view, step.node)
        note = ""
        if step.reason.startswith("idle:"):
            idle = step.reason.split(":", 1)[1]
            note = f" (no moves: {idle})"
        return (f"{where} supergame {coal} -> {outcome(step.outcome)}, "
                f"value {num(step.active_value)} for {active}{note}")
    if step.kind == "ir-accepted":
        gains = ", ".join(
            f"{tree.player_name(i)} {num(cand)} > {num(held)}"
            for i, cand, held in step.comparisons)
        return f"{where} ir-accepted {coal} -> {outcome(step.outcome)}: {gains}"
    if step.kind == "ir-rejected":
        # The blocker is the first compared member that does not gain.
        blocker, cand, held = next(c for c in step.comparisons if not c[1] > c[2])
        return (f"{where} ir-rejected {coal} -> {outcome(step.outcome)}: "
                f"blocked by {tree.player_name(blocker)} "
                f"({num(cand)} <= {num(held)})")
    return f"{where} adopted {coal} -> {outcome(step.outcome)}"


def render_trace(profile: SolutionProfile, verbosity: str = "summary") -> str:
    """The solve narrative: index points, supergame values, IR chain, adoption.

    `summary` shows the base-game recursion; `full` also shows every step
    taken inside the supergame recursions, tagged with their view.
    """
    tree = profile.tree
    memos = cache(fmt_value), cache(outcome_str), cache(block_str)
    view_text = cache(partition_str)
    lines = []
    base = singleton_partition(tree.n_players)
    for step in profile.audit if verbosity == "full" else profile.trace_steps():
        if step.view == base:
            lines.append(_step_line(tree, step, *memos))
        else:
            lines.append(f"  (view {view_text(step.view)}) "
                         + _step_line(tree, step, *memos))
    return "\n".join(lines)


# -- complete solution (nested per-subgame listing) -----------------------------


# The most characters the nested listing's blocks may hold. The listing
# repeats each subgame's block under every context above it, so it grows
# with the cube of the depth: a 300-level chain's blocks hold 33 million
# characters (0.1 s with Python 3.11), a 400-level chain's 78 million.
_MAX_LISTING_CHARS = 1 << 26


def render_solution(profile: SolutionProfile) -> str:
    """Nested complete solution: the root context, then each subgame standalone.

    An entry's block is its line, then its nested subgames indented below
    it. Memo hits put one Entry object under many contexts, and its block
    does not depend on the context, so each block is built once, children
    first, keyed by `id(entry)` (the profile keeps every entry alive), and
    so is the entry's full action map, from its own play and its kids' maps.
    Raises TooLarge once the blocks hold more than `_MAX_LISTING_CHARS`.
    """
    tree = profile.tree
    root = profile.root_entry
    standalone = sorted(
        (nid for nid in tree.subgame_roots
         if nid in tree.decision_ids and nid != root.node),
        key=lambda nid: (tree.depth_of(nid), tree.position(nid)))
    tops = [root] + [profile.standalone_entry(nid) for nid in standalone]
    blocks: dict = {}
    actions: dict = {}
    outcome = cache(outcome_str)
    size, stack = 0, [(entry, False) for entry in reversed(tops)]
    while stack:
        entry, kids_done = stack.pop()
        if id(entry) in blocks:
            continue
        kids = [kid for kid in entry.children.values()  # stored in preorder
                if not tree.nodes[kid.node].is_terminal]
        if not kids_done:
            stack.append((entry, True))
            stack.extend((kid, False) for kid in reversed(kids))
            continue
        full = dict(entry.own)
        for kid in kids:
            full.update(actions[id(kid)])
        actions[id(entry)] = full
        bracket = (bracket_summary(profile) if entry is root
                   else _bracket_entry(tree, entry, full))
        block = [f"{entry.node}: {bracket} -> {outcome(entry.outcome)}"]
        for kid in kids:
            block.extend(["  " + line for line in blocks[id(kid)]])
        size += sum(map(len, block))
        if size > _MAX_LISTING_CHARS:
            raise TooLarge("the nested listing holds more than "
                           f"{_MAX_LISTING_CHARS} characters")
        blocks[id(entry)] = block
    lines = [f"=== solution at {root.node} (root) ===", *blocks[id(root)]]
    for nid, entry in zip(standalone, tops[1:]):
        lines += [f"=== standalone solution at {nid} ===", *blocks[id(entry)]]
    return "\n".join(lines)


# -- DOT export -----------------------------------------------------------------


def _dot_str(text: str) -> str:
    """`text` as a DOT quoted string on one line: `\\`, `"` and newline escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


def export_dot(tree, profile: SolutionProfile | None = None) -> str:
    """Graphviz text of the tree, styled by the solution when given.

    Chosen edges are dashed for an independently acting player and bold for
    a coalition; decision nodes are annotated with the acting unit.
    """
    # Each information set -> (its layer's entry in the root context, action).
    played = {sid: (entry, act) for entry in walk_entries([profile.root_entry])
              for sid, act in entry.own.items()} if profile is not None else {}
    nodes, edges = [], []
    for nid in tree.preorder:
        node = tree.nodes[nid]
        if node.is_terminal:
            nodes.append(f'  {_dot_str(nid)} [shape=box, label="{outcome_str(node.payoffs)}"];')
            continue
        if node.player is None:
            nodes.append(f'  {_dot_str(nid)} [shape=diamond, label="chance"];')
            for label, child in node.actions:
                text = f"{label} ({fmt_value(tree.chance_at_root[child])})"
                edges.append(f"  {_dot_str(nid)} -> {_dot_str(child)} [label={_dot_str(text)}];")
            continue
        unit, style, other, chosen = str(node.player), "dashed", "", {}
        entry, act = played.get(tree.info_set_of(nid), (None, None))
        if entry is not None:
            block = block_containing(entry.partition, node.player)
            unit = ",".join(str(i) for i in block)
            style = "bold" if len(block) > 1 else "dashed"
            other = ", color=gray"
            if isinstance(act, tuple):
                chosen = {label: p for label, p in act if p}
            else:
                chosen = {act: None}
        nodes.append(f'  {_dot_str(nid)} [shape=circle, label="{unit}"];')
        for label, child in node.actions:
            edge = f"  {_dot_str(nid)} -> {_dot_str(child)} "
            if label in chosen:
                prob = chosen[label]
                text = label if prob is None else f"{label} ({fmt_value(prob)})"
                edges.append(edge + f"[label={_dot_str(text)}, style={style}];")
            else:
                edges.append(edge + f"[label={_dot_str(label)}{other}];")
    lines = ["digraph game {", '  node [fontname="Helvetica"];']
    return "\n".join(lines + nodes + edges + ["}"]) + "\n"


# -- JSON -----------------------------------------------------------------------
#
# The JSON text is exactly what `json.dumps(body, sort_keys=True, indent=2)`
# gives the equivalent body, built from strings directly: the standard
# library's indenting encoder is pure Python and took most of a request's
# time on deep games. Each helper gets the number of containers its value
# sits in (`level`), which fixes its indentation. Entries and trace steps
# fill fixed-key templates; only the objects whose keys vary sort them. A
# `profile_to_json` call formats each distinct value once, in memos
# (`functools.cache`) that live for that call alone; equal values format to
# equal text, so keying by value is sound.

_str = json.encoder.encode_basestring_ascii  # the string encoder json.dumps uses


def _num_text(v) -> str:
    """A number: an int when integral, an exact fraction string otherwise."""
    text = fmt_value(v)
    return f'"{text}"' if "/" in text else text


def _array(items: list, level: int) -> str:
    """A list of already encoded items."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * level + "]"


def _object(pairs: list, level: int) -> str:
    """An object of (key, already encoded value) pairs, in the given order."""
    if not pairs:
        return "{}"
    pad = "\n" + "  " * (level + 1)
    return ("{" + pad + ("," + pad).join(_str(k) + ": " + v for k, v in pairs)
            + "\n" + "  " * level + "}")


# An entry's and a trace step's objects, in sorted-key order; `%` fills in values.
_ENTRY = _object([(k, "%s") for k in ("actions", "children", "coalition", "outcome",
                                      "partition", "terminals")], 2)
_STEP = _object([(k, "%s") for k in ("coalition", "comparisons", "kind", "node",
                                     "outcome", "reason")], 2)


def _nums_text(values, level: int) -> str:
    return _array([_num_text(v) for v in values], level)


def _block_text(block, level: int) -> str:
    return _array([str(i) for i in block], level)


def _coalition_text(coalition, level: int) -> str:
    return _block_text(coalition, level) if coalition else "null"


def _partition_text(partition, level: int) -> str:
    return _array([_block_text(b, level + 1) for b in partition], level)


def _actions_text(actions: dict, level: int) -> str:
    return _object(sorted(
        (sid, _object(sorted((label, _num_text(p)) for label, p in act), level + 1)
         if isinstance(act, tuple) else _str(act))
        for sid, act in actions.items()), level)


def solution_to_json(sol: LocalSolution) -> str:
    """Deterministic JSON of one solution: its outcome and its actions."""
    return _object([("actions", _actions_text(sol.actions, 1)),
                    ("outcome", _nums_text(sol.outcome, 1))], 0) + "\n"


def profile_to_json(profile: SolutionProfile) -> str:
    """Deterministic JSON of the whole solution profile (schema 2).

    The solution is a DAG of shared entries: an inner subgame's entry need
    not restrict the enclosing solution, so each context keeps its own
    entry ids. `entries` lists each distinct entry once; an entry holds the
    actions at its own layer's information sets and `children` maps each
    nested subgame root to that subgame's entry id. `contexts` maps the
    root and every standalone subgame root to its entry id. A context's
    full action map is its entry's actions plus, recursively, those of its
    children.
    """
    contexts = profile.contexts()
    order = list(walk_entries(contexts.values()))
    ids = {id(entry): str(i) for i, entry in enumerate(order)}  # `order` keeps them alive
    num = cache(_num_text)
    nums = cache(lambda vec: _array(list(map(num, vec)), 3))
    coalition = cache(lambda block: _coalition_text(block, 3))
    partition = cache(lambda part: _partition_text(part, 3))
    terminals = cache(lambda dist: _object(sorted((z, num(p)) for z, p in dist), 3))
    entries = [_ENTRY % (
        _actions_text(entry.own, 3),
        _object(sorted((node, ids[id(kid)]) for node, kid in entry.children.items()), 3),
        coalition(entry.coalition),
        nums(entry.outcome),
        partition(entry.partition),
        terminals(entry.dist),
    ) for entry in order]
    trace = [_STEP % (
        coalition(s.coalition),
        _array([_array(list(map(num, c)), 4) for c in s.comparisons], 3),
        _str(s.kind),
        _str(s.node),
        nums(s.outcome),
        _str(s.reason),
    ) for s in profile.trace_steps()]
    return _object([
        ("coalition", _coalition_text(profile.coalition, 1)),
        ("contexts", _object(sorted((ctx, ids[id(entry)])
                                    for ctx, entry in contexts.items()), 1)),
        ("entries", _array(entries, 1)),
        ("outcome", _nums_text(profile.outcome, 1)),
        ("partition", _partition_text(profile.partition, 1)),
        ("schema", "2"),
        ("summary", _str(bracket_summary(profile))),
        ("trace", _array(trace, 1)),
    ], 0) + "\n"
