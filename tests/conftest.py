import json
from pathlib import Path

import pytest

from cefg import load_game

GAMES = Path(__file__).resolve().parent.parent / "games"


@pytest.fixture(scope="session")
def abortion():
    return load_game(GAMES / "abortion.game")


@pytest.fixture(scope="session")
def example2():
    return load_game(GAMES / "example2.game")


@pytest.fixture(scope="session")
def example2_modified():
    return load_game(GAMES / "example2-modified.game")


def game_path(name: str) -> Path:
    return GAMES / name


def make_game_text(nodes, players=3, root=None, feasible="all",
                   combinator="min", info_sets=None, chance=None,
                   synergies=None, utility=None):
    """Compact builder for inline test games.

    `nodes` maps id -> {"player": i, "actions": {...}} or a payoff list.
    """
    body = {}
    for nid, spec in nodes.items():
        if isinstance(spec, (list, tuple)):
            body[nid] = {"payoffs": list(spec)}
        else:
            body[nid] = spec
    doc = {
        "format_version": 1,
        "players": [f"P{i}" for i in range(1, players + 1)],
        "root": root or next(iter(nodes)),
        "nodes": body,
        "coalitions": {"feasible": feasible,
                       "utility": utility or {"combinator": combinator}},
    }
    if info_sets:
        doc["info_sets"] = info_sets
    if chance:
        doc["chance"] = chance
    if synergies:
        doc["synergies"] = synergies
    return json.dumps(doc)


def wide_layer_text(depth):
    """Two players alternate binary moves for `depth` levels, and neither
    observes the other's moves, so the whole tree is one layer.

    A player's information sets group the nodes of a level by that player's
    own past moves (perfect recall holds). Both players get the same payoff,
    so the layer has a pure equilibrium. Every information set is binary,
    so the layer has 2 ** (number of sets) pure profiles under any view:
    1,024 at depth 5, 16,384 at depth 6 and 4,194,304 at depth 7.
    """
    nodes, info_sets = {}, {}

    def walk(path):
        nid = "n" + path if path else "r"
        level = len(path)
        if level == depth:
            value = sum(k + 1 for k, move in enumerate(path) if move == "b") % 5
            nodes[nid] = [value, value]
            return nid
        nodes[nid] = {"player": level % 2 + 1,
                      "actions": {"a": walk(path + "a"), "b": walk(path + "b")}}
        info_sets.setdefault(f"s{level}_{path[level % 2::2]}", []).append(nid)
        return nid

    walk("")
    return make_game_text(nodes, players=2, root="r", info_sets=info_sets)


def cycle_text():
    """A valid game whose one layer has no bottom-up order of its sets: P1's
    set A = {a1, a2} and P2's set B = {b1, b2}, where b1 lies below a1 and
    a2 below b2. RI refuses it; the SPNE solves it."""
    nodes = {
        "r": {"player": 3, "actions": {"L": "a1", "R": "b2"}},
        "a1": {"player": 1, "actions": {"x": "b1", "y": "z1"}},
        "b1": {"player": 2, "actions": {"u": "z2", "v": "z3"}},
        "b2": {"player": 2, "actions": {"u": "a2", "v": "z4"}},
        "a2": {"player": 1, "actions": {"x": "z5", "y": "z6"}},
        **{f"z{k}": [0, 0, 0] for k in range(1, 7)},
    }
    return make_game_text(nodes, info_sets={"A": ["a1", "a2"], "B": ["b1", "b2"]})


def spanning_set_text(depth, exits=True):
    """A valid game whose root layer holds `depth` + 2 information sets: P2
    moves at r and down a chain c1 .. c<depth>, and P1's one set H = {a1, a2}
    has a1 under the chain's end and a2 beside the chain, so no chain node
    roots a subgame. Every set is binary, and the layer has 2 ** (depth + 2)
    pure profiles; with `exits=False` the chain nodes lose their `y` exits,
    each set of the chain has one action and the layer has 4 profiles."""
    nodes = {"r": {"player": 2, "actions": {"a": "c1", "b": "a2"}}}
    for k in range(1, depth + 1):
        nodes[f"c{k}"] = {"player": 2, "actions": {
            "x": f"c{k + 1}" if k < depth else "a1"}}
        if exits:
            nodes[f"c{k}"]["actions"]["y"] = f"z{k}"
            nodes[f"z{k}"] = [0, k % 3]
    for a in ("a1", "a2"):
        nodes[a] = {"player": 1, "actions": {"x": f"{a}x", "y": f"{a}y"}}
        nodes[f"{a}x"], nodes[f"{a}y"] = [1, 0], [0, 1]
    return make_game_text(nodes, players=2, root="r", info_sets={"H": ["a1", "a2"]})


def chain_text(depth):
    """A 2-player centipede `depth` decision nodes deep."""
    nodes = {}
    for k in range(depth):
        nodes[f"c{k}"] = {"player": k % 2 + 1,
                          "actions": {"take": f"t{k}", "pass": f"c{k + 1}"}}
        nodes[f"t{k}"] = [k + 2, k] if k % 2 == 0 else [k, k + 2]
    nodes[f"c{depth}"] = [depth + 1, depth + 1]
    return make_game_text(nodes, players=2, root="c0")


def expand_v1_entries(doc) -> dict:
    """The "context/subgame" entry map of a schema-2 solution document.

    Walks each context from its entry id through `children`; a subgame's
    full action map is its entry's own-layer actions plus, recursively,
    those of its children. The result is the map the earlier format wrote.
    """
    items = doc["entries"]
    full_actions: dict = {}

    def actions_of(i):
        if i not in full_actions:
            acts = dict(items[i]["actions"])
            for child in items[i]["children"].values():
                acts.update(actions_of(child))
            full_actions[i] = acts
        return full_actions[i]

    out = {}
    for ctx, top in doc["contexts"].items():
        stack = [(ctx, top)]
        while stack:
            node, i = stack.pop()
            item = items[i]
            out[f"{ctx}/{node}"] = {
                "outcome": item["outcome"],
                "partition": item["partition"],
                "coalition": item["coalition"],
                "actions": actions_of(i),
                "terminals": item["terminals"],
            }
            stack.extend(item["children"].items())
    return out


def expand_v1(text: str) -> str:
    """The earlier JSON text of a solution from its schema-2 text."""
    doc = json.loads(text)
    assert doc["schema"] == 2
    body = {key: doc[key] for key in
            ("outcome", "partition", "coalition", "summary", "trace")}
    body["entries"] = expand_v1_entries(doc)
    return json.dumps(body, sort_keys=True, indent=2) + "\n"
