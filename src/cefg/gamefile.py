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
      "chance": {"x5": 0.5, "x6": 0.5},          // optional, root only
      "info_sets": {"h2": ["xL", "xR"]},          // optional
      "coalitions": {
        "feasible": "all",                        // or [[1,2],[2,3],...]
        "utility": {"combinator": "min"}          // or "sum",
                                                  // {"combinator": "weighted", "weights": {"1": 2}},
                                                  // {"table": {"1,3": {"z1": 4, ...}}}
      },
      "synergies": [{"player": 1, "block": [1, 2], "terminal": "z1", "value": 7}]
    }

Action maps preserve declaration order, which fixes every tie-break
downstream. `parse_game` reports the first syntax error with line/column;
schema problems raise GameFormatError with a code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import GameFormatError
from .model import GameTree, UtilitySystem, validate_game

FORMAT_VERSION = 1

_TOP_KEYS = {"format_version", "players", "root", "nodes", "chance",
             "info_sets", "coalitions", "synergies"}
_NODE_KEYS = {"player", "actions", "payoffs"}
_SYNERGY_KEYS = {"player", "block", "terminal", "value"}


@dataclass
class GameSpec:
    """Normalized in-memory form of a game description file."""

    format_version: int
    players: list
    root: str
    nodes: dict  # id -> {"player": int, "actions": [(label, child)]} | {"payoffs": [...]}
    chance: dict | None = None
    info_sets: dict | None = None
    feasible: object = "all"  # "all" or list of member lists
    utility: dict = field(default_factory=lambda: {"combinator": "min"})
    synergies: list = field(default_factory=list)


def _fail(code, message, line=None, column=None):
    raise GameFormatError(code, message, line, column)


def _number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail("SyntaxError", f"{where} must be a number, not {value!r}")
    return value


def _object(value, where) -> dict:
    if not isinstance(value, dict):
        _fail("SyntaxError", f"{where} must be an object")
    return value


def _players_list(value, where) -> list:
    if not isinstance(value, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in value):
        _fail("SyntaxError", f"{where} must be a list of player numbers")
    return list(value)


class _DupCheckingDict(dict):
    pass


def _pairs_hook(pairs):
    d = _DupCheckingDict()
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

    if not isinstance(raw, dict):
        _fail("SyntaxError", "top level must be an object")
    for key in raw:
        if key not in _TOP_KEYS:
            _fail("UnknownField", f"unknown top-level field {key!r}")
    for key in ("format_version", "players", "root", "nodes"):
        if key not in raw:
            _fail("MissingField", f"required field {key!r} missing")
    if raw["format_version"] != FORMAT_VERSION:
        _fail("UnknownField", f"unsupported format_version {raw['format_version']!r}")
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
        for key in body:
            if key not in _NODE_KEYS:
                _fail("UnknownField", f"node {nid}: unknown field {key!r}")
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
            nodes[nid] = {"player": body.get("player"), "actions": pairs}
        else:
            payoffs = body["payoffs"]
            if not isinstance(payoffs, list) or not all(
                    isinstance(v, (int, float)) and not isinstance(v, bool) for v in payoffs):
                _fail("SyntaxError", f"node {nid}: payoffs must be a list of numbers")
            nodes[nid] = {"payoffs": list(payoffs)}

    coalitions = _object(raw.get("coalitions") or {}, "coalitions")
    feasible = coalitions.get("feasible", "all")
    if feasible != "all":
        if not isinstance(feasible, list):
            _fail("SyntaxError", "coalitions.feasible must be \"all\" or a list")
        feasible = [_players_list(c, "each feasible coalition") for c in feasible]
    utility = _object(coalitions.get("utility") or {"combinator": "min"},
                      "coalitions.utility")
    if "table" in utility:
        table = {}
        for key, per_terminal in _object(utility["table"],
                                         "coalitions.utility.table").items():
            try:
                members = tuple(int(part) for part in str(key).split(","))
            except ValueError:
                _fail("SyntaxError", f"table key {key!r} must list player "
                                     f"numbers separated by commas")
            table[members] = {
                z: _number(v, f"table value for {key!r} at {z!r}")
                for z, v in _object(per_terminal, f"table entry {key!r}").items()}
        utility = {"table": table}
    elif "combinator" not in utility:
        _fail("SyntaxError", "coalitions.utility needs a combinator or a table")
    elif utility.get("weights") is not None:
        for i, w in _object(utility["weights"], "coalitions.utility.weights").items():
            _number(w, f"weight of player {i}")

    synergies = []
    raw_synergies = raw.get("synergies") or []
    if not isinstance(raw_synergies, list):
        _fail("SyntaxError", "synergies must be a list")
    for entry in raw_synergies:
        for key in _object(entry, "each synergy entry"):
            if key not in _SYNERGY_KEYS:
                _fail("UnknownField", f"synergy entry: unknown field {key!r}")
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
        info_sets = {sid: list(members) for sid, members in info_sets.items()}

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


def serialize_game(spec: GameSpec) -> str:
    """Render a GameSpec back to canonical file text (round-trip stable)."""
    out = {
        "format_version": spec.format_version,
        "players": spec.players,
        "root": spec.root,
        "nodes": {},
    }
    for nid, body in spec.nodes.items():
        if "actions" in body:
            entry = {}
            if body.get("player") is not None:
                entry["player"] = body["player"]
            entry["actions"] = {label: child for label, child in body["actions"]}
            out["nodes"][nid] = entry
        else:
            out["nodes"][nid] = {"payoffs": body["payoffs"]}
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
    return json.dumps(out, indent=2) + "\n"


def load_game(path) -> tuple[GameTree, UtilitySystem]:
    """Parse and validate a game file; the usual entry point."""
    with open(path, encoding="utf-8") as fh:
        spec = parse_game(fh.read())
    return validate_game(spec)


def load_game_text(text: str) -> tuple[GameTree, UtilitySystem]:
    return validate_game(parse_game(text))
