"""Game description file format: parse, validate, serialize.

The format is JSON with a fixed schema::

    {
      "format_version": 1,
      "players": ["P1", "P2", "P3"],
      "root": "x7",
      "nodes": {
        "x7": {"player": 1, "actions": {"L": "x5", "R": "x6"}},
        "z1": {"payoffs": [5, 5, 3]},
        ...
      },
      "chance": {"x5": "1/3", "x6": "2/3"},      // optional, root only
      "info_sets": {"h2": ["xL", "xR"]},          // optional
      "coalitions": {
        "feasible": "all",                        // or [[1,2],[2,3],...]
        "utility": {"combinator": "min"}          // or "sum",
                                                  // {"combinator": "weighted", "weights": {"1": 2}},
                                                  // {"table": {"1,3": {"z1": 4, ...}}}
      },
      "synergies": [{"player": 1, "block": [1, 2], "terminal": "z1", "value": 7}]
    }

Every number (payoffs, chance probabilities, weights, table and synergy
values) is a JSON number or an exact rational string "p/q" (integers,
q > 0); `parse_game` loads it as an `int` when integral, else as a
`Fraction`, and stores each node as the model's `Node`. Action maps
preserve declaration order, which fixes every tie-break downstream.
`parse_game` reports the first syntax error with line/column; schema
problems raise GameFormatError with a code.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

from .errors import GameFormatError, GameValidationError
from .model import GameTree, Node, Synergy, UtilitySystem, canon_block

FORMAT_VERSION = 1

_TOP_KEYS = {"format_version", "players", "root", "nodes", "chance",
             "info_sets", "coalitions", "synergies"}
_NODE_KEYS = {"player", "actions", "payoffs"}
_SYNERGY_KEYS = {"player", "block", "terminal", "value"}
_COALITION_KEYS = {"feasible", "utility"}
_UTILITY_KEYS = {"combinator", "weights", "table"}


@dataclass
class GameSpec:
    """Normalized in-memory form of a game description file."""

    format_version: int
    players: list
    root: str
    nodes: dict  # id -> Node; every number of the spec is an int or a Fraction
    chance: dict | None = None
    info_sets: dict | None = None
    feasible: object = "all"  # "all" or list of member lists
    utility: dict = field(default_factory=lambda: {"combinator": "min"})
    synergies: list = field(default_factory=list)


def _fail(code, message, line=None, column=None):
    raise GameFormatError(code, message, line, column)


_RATIONAL = re.compile(r"-?[0-9]+/[0-9]+")
_TABLE_KEY = re.compile(r"[0-9]+(,[0-9]+)*")


def _exact(value) -> int | Fraction | None:
    """The exact value of a game-file number, else None: a finite JSON
    number that is not a boolean (Python's JSON reader takes NaN, Infinity
    and 1e400; an int is its own value), or a "p/q" string (integers,
    q > 0). A float goes through Decimal(str(...)): `0.1` is one tenth. The
    value is an `int` when integral, so that comparisons and sums of
    integral values run in C, else a `Fraction`."""
    if isinstance(value, float):
        if not math.isfinite(value):
            return None
        exact = Fraction(Decimal(str(value)))
    elif isinstance(value, int):
        return None if isinstance(value, bool) else value
    elif isinstance(value, str) and _RATIONAL.fullmatch(value):
        try:
            exact = Fraction(value)
        except (ValueError, ZeroDivisionError):  # more digits than int() converts, q = 0
            return None
    else:
        return None
    return exact.numerator if exact.denominator == 1 else exact


def _number(value, where) -> int | Fraction:
    exact = _exact(value)
    if exact is None:
        _fail("SyntaxError", f"{where} must be a number or a \"p/q\" string, "
                             f"not {value!r}")
    return exact


def _object(value, where) -> dict:
    if not isinstance(value, dict):
        _fail("SyntaxError", f"{where} must be an object")
    return value


def _known_fields(value: dict, allowed, where) -> None:
    for key in value:
        if key not in allowed:
            _fail("UnknownField", f"{where}: unknown field {key!r}")


def _players_list(value, where) -> list:
    if not isinstance(value, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in value):
        _fail("SyntaxError", f"{where} must be a list of player numbers")
    return list(value)


def _pairs_hook(pairs):
    d = {}
    for key, value in pairs:
        if key in d:
            _fail("DuplicateId", f"duplicate key {key!r}")
        d[key] = value
    return d


def parse_game(text: str) -> GameSpec:
    """Parse a game description; raises GameFormatError on any problem."""
    if not text.strip():
        _fail("SyntaxError", "empty input", 1, 1)
    try:
        raw = json.loads(text, object_pairs_hook=_pairs_hook)
    except json.JSONDecodeError as exc:
        _fail("SyntaxError", exc.msg, exc.lineno, exc.colno)
    except (ValueError, RecursionError) as exc:
        # The reader's own limits: integer digits and nesting depth.
        _fail("SyntaxError", f"input exceeds a JSON reader limit: {exc}")

    if not isinstance(raw, dict):
        _fail("SyntaxError", "top level must be an object")
    for key in raw:
        if key not in _TOP_KEYS:
            _fail("UnknownField", f"unknown top-level field {key!r}")
    for key in ("format_version", "players", "root", "nodes"):
        if key not in raw:
            _fail("MissingField", f"required field {key!r} missing")
    version = raw["format_version"]
    # An int, as for player numbers: `true` and `1.0` equal 1 but are not it.
    if (not isinstance(version, int) or isinstance(version, bool)
            or version != FORMAT_VERSION):
        _fail("UnknownField", f"unsupported format_version {version!r}")
    if not isinstance(raw["root"], str):
        _fail("SyntaxError", "root must be a node id")
    players = raw["players"]
    if (not isinstance(players, list) or not players
            or not all(isinstance(p, str) for p in players)):
        _fail("SyntaxError", "players must be a non-empty list of names")

    nodes = {}
    if not isinstance(raw["nodes"], dict) or not raw["nodes"]:
        _fail("SyntaxError", "nodes must be a non-empty object")
    for nid, body in raw["nodes"].items():
        if not isinstance(body, dict):
            _fail("SyntaxError", f"node {nid} must be an object")
        _known_fields(body, _NODE_KEYS, f"node {nid}")
        has_actions = "actions" in body
        has_payoffs = "payoffs" in body
        if has_actions == has_payoffs:
            _fail("SyntaxError", f"node {nid} must have exactly one of actions/payoffs")
        if has_actions:
            actions = body["actions"]
            if isinstance(actions, dict):
                pairs = list(actions.items())
            elif isinstance(actions, list):
                if not all(isinstance(a, list) and len(a) == 2 for a in actions):
                    _fail("SyntaxError",
                          f"node {nid}: each action must be a [label, child] pair")
                pairs = [tuple(a) for a in actions]
            else:
                _fail("SyntaxError", f"node {nid}: actions must be an object or list")
            if not all(isinstance(label, str) and isinstance(child, str)
                       for label, child in pairs):
                _fail("SyntaxError",
                      f"node {nid}: action labels and children must be strings")
            nodes[nid] = Node(nid, body.get("player"), tuple(pairs))
        else:
            payoffs = body["payoffs"]
            payoffs = tuple(map(_exact, payoffs)) if isinstance(payoffs, list) else None
            if payoffs is None or None in payoffs:
                _fail("SyntaxError", f"node {nid}: payoffs must be a list of numbers "
                                     f"or \"p/q\" strings")
            nodes[nid] = Node(nid, payoffs=payoffs)

    coalitions = _object(raw.get("coalitions") or {}, "coalitions")
    _known_fields(coalitions, _COALITION_KEYS, "coalitions")
    feasible = coalitions.get("feasible", "all")
    if feasible != "all":
        if not isinstance(feasible, list):
            _fail("SyntaxError", "coalitions.feasible must be \"all\" or a list")
        feasible = [_players_list(c, "each feasible coalition") for c in feasible]
    utility = _object(coalitions.get("utility") or {"combinator": "min"},
                      "coalitions.utility")
    _known_fields(utility, _UTILITY_KEYS, "coalitions.utility")
    if "table" in utility:
        if len(utility) > 1:
            _fail("SyntaxError", "coalitions.utility.table takes no other field")
        table, keys = {}, {}
        for key, per_terminal in _object(utility["table"],
                                         "coalitions.utility.table").items():
            try:
                if not _TABLE_KEY.fullmatch(key):
                    raise ValueError(key)
                members = tuple(int(part) for part in key.split(","))
            except ValueError:  # also more digits than int() converts
                _fail("SyntaxError", f"table key {key!r} must list player "
                                     f"numbers separated by commas")
            if (first := keys.setdefault(members, key)) != key:  # "1,2", "01,2"
                _fail("BadCoalition", f"table keys {first!r} and {key!r} name "
                                      f"the same coalition")
            table[members] = {
                z: _number(v, f"table value for {key!r} at {z!r}")
                for z, v in _object(per_terminal, f"table entry {key!r}").items()}
        utility = {"table": table}
    elif "combinator" not in utility:
        _fail("SyntaxError", "coalitions.utility needs a combinator or a table")
    elif "weights" in utility and utility["combinator"] != "weighted":
        _fail("SyntaxError", "coalitions.utility.weights needs the weighted combinator")
    elif utility.get("weights") is not None:
        utility = {**utility, "weights": {
            i: _number(w, f"weight of player {i}")
            for i, w in _object(utility["weights"], "coalitions.utility.weights").items()}}

    synergies = []
    raw_synergies = raw.get("synergies") or []
    if not isinstance(raw_synergies, list):
        _fail("SyntaxError", "synergies must be a list")
    for entry in raw_synergies:
        _known_fields(_object(entry, "each synergy entry"), _SYNERGY_KEYS,
                      "synergy entry")
        try:
            synergies.append((entry["player"],
                              tuple(_players_list(entry["block"], "synergy block")),
                              entry["terminal"],
                              _number(entry["value"], "synergy value")))
        except KeyError as exc:
            _fail("MissingField", f"synergy entry missing {exc.args[0]!r}")

    info_sets = raw.get("info_sets")
    if info_sets is not None:
        info_sets = _object(info_sets, "info_sets")
        if not all(isinstance(members, list)
                   and all(isinstance(m, str) for m in members)
                   for members in info_sets.values()):
            _fail("SyntaxError", "info_sets must map names to lists of node ids")

    chance = raw.get("chance")
    if chance:
        chance = {child: _number(p, f"chance probability of {child!r}")
                  for child, p in _object(chance, "chance").items()}

    return GameSpec(
        format_version=raw["format_version"],
        players=list(players),
        root=raw["root"],
        nodes=nodes,
        chance=chance or None,
        info_sets=info_sets,
        feasible=feasible,
        utility=utility,
        synergies=synergies,
    )


# -- validation ---------------------------------------------------------------


def _check_exact(values) -> None:
    """Raise TypeError unless every value is an `int` (not a boolean) or a
    `Fraction`, as `parse_game` stores numbers; a spec built in code skips
    the parser."""
    if not {int, Fraction}.issuperset(map(type, values)):
        raise TypeError(f"numbers must be int or Fraction: {list(values)!r}")


def validate_game(spec) -> tuple[GameTree, UtilitySystem]:
    """Validate a parsed game description and build the model objects.

    Collects every detectable violation before raising GameValidationError.
    `spec` is a `GameSpec` (or any object with the same fields).
    """
    bad: list[tuple[str, str]] = []
    nodes = spec.nodes

    if spec.root not in nodes:
        raise GameValidationError([("MissingRoot", f"root {spec.root!r} is not a node")])

    n = len(spec.players)
    repeated = sorted({p for p in spec.players if spec.players.count(p) > 1})
    if repeated:
        bad.append(("DuplicatePlayer",
                    f"player names repeated: {', '.join(repeated)}"))
    referenced: dict[str, str] = {}
    for nid, node in nodes.items():
        if node.is_terminal:
            _check_exact(node.payoffs)
            if len(node.payoffs) != n:
                bad.append(("PayoffLengthMismatch",
                            f"terminal {nid} has {len(node.payoffs)} payoffs for {n} players"))
            continue
        labels = node.action_labels()
        if len(set(labels)) != len(labels):
            bad.append(("DuplicateAction", f"node {nid} repeats an action label"))
        if not labels:
            bad.append(("NoActions", f"decision node {nid} has no actions"))
        for label, child in node.actions:
            if child not in nodes:
                bad.append(("UnknownChild", f"node {nid} action {label!r} -> missing node {child!r}"))
            elif child in referenced:
                bad.append(("CycleDetected", f"node {child} has two parents ({referenced[child]} and {nid})"))
            elif child == spec.root:
                bad.append(("CycleDetected", f"root {child} appears as a child of {nid}"))
            else:
                referenced[child] = nid
        if node.player is None:
            if nid != spec.root or spec.chance is None:
                bad.append(("MissingPlayer", f"decision node {nid} has no player"))
        elif not _is_player(node.player, n):
            bad.append(("BadPlayer", f"node {nid}: player {node.player!r} not in 1..{n}"))

    # Reachability. A node reached twice from the root has two parents or is
    # the root, and both are reported above, so the walk skips it.
    if not any(code == "UnknownChild" for code, _ in bad):
        seen: set[str] = set()
        stack = [spec.root]
        while stack:
            nid = stack.pop()
            if nid not in seen:
                seen.add(nid)
                stack.extend(c for _, c in nodes[nid].actions)
        unreachable = sorted(set(nodes) - seen)
        if unreachable:
            bad.append(("UnreachableNode", f"nodes not reachable from root: {', '.join(unreachable)}"))

    if bad:
        raise GameValidationError(bad)

    chance = spec.chance
    if chance is not None:
        _check_exact(chance.values())
        if sorted(chance) != sorted(c for _, c in nodes[spec.root].actions):
            bad.append(("BadChanceDistribution",
                        "chance distribution keys must be exactly the root's children"))
        if nodes[spec.root].player is not None:
            bad.append(("BadChanceDistribution",
                        f"chance root {spec.root} also names a player"))
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
            if not members:
                bad.append(("BadInfoSet", f"info set {set_id} has no members"))
            # GameTree names the set of an undeclared decision node after
            # the node, so no other set may take that name.
            if (set_id not in members and set_id in nodes
                    and nodes[set_id].player is not None):
                bad.append(("BadInfoSet", f"info set {set_id} is named after "
                                          f"decision node {set_id} but does not hold it"))
            for m in members:
                if m not in nodes or nodes[m].player is None:
                    bad.append(("BadInfoSet", f"info set {set_id}: {m!r} is not a decision node"))
                elif m in placed:
                    bad.append(("BadInfoSet", f"node {m} appears in two info sets"))
                placed.add(m)
            info_sets[set_id] = tuple(members)
        if bad:
            raise GameValidationError(bad)

    tree = GameTree(nodes, spec.root, spec.players,
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


def _block_problem(block, n: int) -> str | None:
    """Why `block` is not a set of players in 1..n, or None when it is."""
    if not block or not all(_is_player(i, n) for i in block):
        return f"is not a subset of 1..{n}"
    if len(set(block)) != len(block):
        return "repeats a member"
    return None


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
    feasible = None
    if spec.feasible != "all":
        blocks = set()
        for members in spec.feasible:
            problem = _block_problem(members, n)
            if problem:
                bad.append(("BadCoalition", f"coalition {members} {problem}"))
            else:
                blocks.add(canon_block(members))
        blocks.update((i,) for i in range(1, n + 1))
        feasible = frozenset(blocks)

    combinator, weights, table = None, None, None
    if spec.utility.get("table") is not None:
        table, keys = {}, {}
        terminals = set(tree.terminal_ids)
        for key, per_terminal in spec.utility["table"].items():
            stray = [z for z in per_terminal if z not in terminals]
            problem = _block_problem(key, n) or (
                stray and f"has values at {stray}, which are not terminals")
            if problem:
                bad.append(("BadCoalition", f"table coalition {list(key)} {problem}"))
            elif (first := keys.setdefault(canon_block(key), key)) != key:
                bad.append(("BadCoalition", f"table keys {list(first)} and "
                                            f"{list(key)} name the same coalition"))
            _check_exact(per_terminal.values())
            table[canon_block(key)] = dict(per_terminal)
        non_singletons = ([m for m in feasible if len(m) > 1] if feasible is not None
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
            keys = [str(i) for i in range(1, n + 1)]
            unknown = [k for k in raw if k not in keys]
            if unknown:
                bad.append(("BadWeight", f"weights for {unknown} name no player in 1..{n}"))
            weights = tuple(raw.get(k, 1) for k in keys)
            _check_exact(weights)

    synergies = []
    for entry in spec.synergies or ():
        player, block, terminal, value = entry
        if not _is_player(player, n):
            bad.append(("BadSynergy", f"synergy player {player!r} not in 1..{n}"))
            continue
        problem = _block_problem(block, n)
        if problem:
            bad.append(("BadSynergy", f"synergy block {list(block)} {problem}"))
            continue
        if terminal not in tree.terminal_ids:
            bad.append(("BadSynergy", f"synergy terminal {terminal!r} is not a terminal"))
            continue
        _check_exact((value,))
        synergies.append(Synergy(player, canon_block(block), terminal, value))

    utils = UtilitySystem(n, feasible, combinator=combinator,
                          weights=weights, table=table, synergies=tuple(synergies))
    return utils, bad


def serialize_game(spec: GameSpec) -> str:
    """Render a GameSpec back to canonical file text (round-trip stable);
    a number that is not integral is written as its "p/q" string."""
    out = {
        "format_version": spec.format_version,
        "players": spec.players,
        "root": spec.root,
        "nodes": {},
    }
    for nid, node in spec.nodes.items():
        if node.is_terminal:
            out["nodes"][nid] = {"payoffs": list(node.payoffs)}
        else:
            entry = {} if node.player is None else {"player": node.player}
            entry["actions"] = dict(node.actions)
            out["nodes"][nid] = entry
    if spec.chance:
        out["chance"] = spec.chance
    if spec.info_sets:
        out["info_sets"] = spec.info_sets
    utility = spec.utility
    if "table" in utility:
        utility = {"table": {",".join(map(str, k)): dict(v)
                             for k, v in utility["table"].items()}}
    out["coalitions"] = {"feasible": spec.feasible, "utility": utility}
    if spec.synergies:
        out["synergies"] = [
            {"player": p, "block": list(b), "terminal": z, "value": v}
            for p, b, z, v in spec.synergies]
    return json.dumps(out, indent=2, default=str) + "\n"  # a Fraction as "p/q"


def load_game(path) -> tuple[GameTree, UtilitySystem]:
    """Parse and validate a game file; the usual entry point."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        _fail("NotFound", f"{path} does not exist")
    except IsADirectoryError:
        _fail("NotAFile", f"{path} is a directory, not a game file")
    except UnicodeDecodeError as exc:
        _fail("SyntaxError", f"{path} is not UTF-8 text ({exc.reason})")
    except OSError as exc:  # a symlink loop, an overlong name, no permission
        _fail("NotReadable", f"{path} cannot be read ({exc.strerror or exc})")
    return validate_game(parse_game(text))


def load_game_text(text: str) -> tuple[GameTree, UtilitySystem]:
    return validate_game(parse_game(text))
