"""Seeded generators for the benchmark workloads.

Every workload is a list of ``(name, game text)`` pairs built from the run
seed alone, so the same seed always gives byte-identical inputs. The
generators write game *text* in the package's JSON format, so parsing and
validation do real work on every request. They do not use
``cefg.oracle.random_game``: that generator may be widened later, and the
workloads must not change when it is.

Workloads whose references come from the brute-force oracle (``coalitions``
and ``chains``) draw each slot's game from a fixed pool of ``POOL`` variants;
the seed picks the variant. The oracle takes seconds per game at n=5, far
more than a run can spend, so ``refs/`` holds its answers for the whole pool,
keyed by a hash of the game text. ``layers`` has no oracle references and
draws every game straight from the seed.

Each slot fixes the size of its games (players, decision nodes, depth,
layer stack). The seed fixes the rest: tree shape, movers, payoffs,
feasible lists, synergies and tables on `coalitions`; payoffs, first mover,
action order and utility on `chains`; payoffs on `layers`. Fixed sizes keep
the work per run steady across seeds.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("coalitions", "chains", "layers")
FIXTURES = ("abortion", "example2", "example2-modified")
POOL = 16

# games per run, players, decision nodes, three-way decision nodes, utility,
# restricted feasible list, synergies, tied payoffs. The picks put the
# median request inside the 4-player all-feasible group, whose cost varies
# least: 11 cheaper games below it, 12 dearer ones above.
COALITION_SLOTS = (
    (2, 4, 15, 4, "min", False, False, True),
    (2, 4, 15, 4, "sum", False, True, False),
    (1, 4, 15, 4, "weighted", True, False, False),
    (2, 4, 15, 4, "table", False, False, True),
    (1, 4, 15, 4, "min", True, True, True),
    (1, 4, 15, 4, "sum", True, False, False),
    (2, 4, 15, 4, "weighted", False, True, True),
    (1, 4, 15, 4, "table", True, True, False),
    (3, 5, 12, 3, "min", False, True, False),
    (3, 5, 12, 3, "sum", False, False, True),
    (3, 5, 12, 3, "weighted", False, False, False),
    (3, 5, 12, 3, "table", False, True, True),
    (1, 5, 12, 3, "min", True, False, True),
    (1, 5, 12, 3, "sum", True, True, False),
    (1, 5, 12, 3, "weighted", True, False, True),
    (1, 5, 12, 3, "table", True, False, False),
)

# games per run, depth. The picks put the median request in the middle of
# the depth-50 games and p90 among the depth-62 ones.
CHAIN_SLOTS = ((2, 40), (1, 46), (5, 50), (1, 56), (3, 62))

# games per run, players, layers, chance distribution at the root (one
# stack per branch). A layer "3c" is a 3x3 pair with cyclic payoffs (no pure
# equilibrium unless the continuation breaks the cycle); "2p" is a 2x2
# coordination pair (pure equilibria on the diagonal). The picks put the
# median request in the middle of the fifth structure's games (ten cheaper
# games below them, twelve dearer above) and p90 in the middle of the last
# structure's.
LAYER_SLOTS = (
    (3, 2, ("2c", "2p", "2c"), None),
    (1, 2, ("3c", "2p", "3p", "2c"), None),
    (3, 2, ("2c", "2c", "2p", "2c", "2p", "2c"), None),
    (1, 2, ("3c", "3p", "3c"), ("0.5", "0.5")),
    (8, 2, ("2c", "3p", "2c", "2p"), ("0.25", "0.25", "0.5")),
    (3, 3, ("2c", "2p", "2c"), None),
    (1, 3, ("3c", "2p", "2c", "3p", "2c"), None),
    (2, 3, ("2c", "2p", "2c", "2c", "2p", "2c"), None),
    (2, 3, ("2c", "3c", "2p"), ("0.5", "0.25", "0.25")),
    (6, 3, ("3c", "3p", "2c", "2p"), ("0.25", "0.25", "0.25", "0.25")),
)


def variant(workload: str, seed: int, pick: int) -> int:
    """The pool variant that `seed` picks for the pick-th game of a run."""
    blob = hashlib.sha256(f"{workload}/{seed}/{pick}".encode()).digest()
    return int.from_bytes(blob[:8], "big") % POOL


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def inputs_digest(games) -> str:
    """One digest over every (name, text) pair of a workload, in order."""
    h = hashlib.sha256()
    for name, text in games:
        h.update(name.encode() + b"\0" + text.encode() + b"\0")
    return h.hexdigest()[:16]


def fixture_games() -> list[tuple[str, str]]:
    return [(f"fixture/{name}", (HERE / "fixtures" / f"{name}.game").read_text())
            for name in FIXTURES]


def pool_game(workload: str, slot: int, v: int) -> tuple[str, str]:
    """Variant `v` of one slot of a pooled workload."""
    name = f"{workload}/{slot}/{v}"
    if workload == "coalitions":
        return name, coalition_game(random.Random(name), *COALITION_SLOTS[slot][1:])
    return name, chain_game(random.Random(name), *CHAIN_SLOTS[slot][1:])


def _picks(slots) -> list[int]:
    """Slot index of each game of a run: slot k appears slots[k][0] times."""
    return [k for k, params in enumerate(slots) for _ in range(params[0])]


def workload_games(workload: str, seed: int) -> list[tuple[str, str]]:
    if workload == "coalitions":
        return fixture_games() + [pool_game(workload, slot, variant(workload, seed, k))
                                  for k, slot in enumerate(_picks(COALITION_SLOTS))]
    if workload == "chains":
        return [pool_game(workload, slot, variant(workload, seed, k))
                for k, slot in enumerate(_picks(CHAIN_SLOTS))]
    if workload == "layers":
        return [(f"layers/{k}/{seed}", layer_game(
                    random.Random(f"layers/{k}/{seed}"), *LAYER_SLOTS[slot][1:]))
                for k, slot in enumerate(_picks(LAYER_SLOTS))]
    raise ValueError(f"unknown workload {workload!r}")


def _text(n_players, root, nodes, feasible="all", utility=None, **extra) -> str:
    body = {
        "format_version": 1,
        "players": [f"P{i}" for i in range(1, n_players + 1)],
        "root": root,
        "nodes": nodes,
    }
    body.update(extra)
    body["coalitions"] = {"feasible": feasible,
                          "utility": utility or {"combinator": "min"}}
    return json.dumps(body, indent=2) + "\n"


# -- coalitions: wide in players ----------------------------------------------


def coalition_game(rng, n, decisions, wide, utility, restricted, synergy,
                   ties) -> str:
    """Perfect-information game with `decisions` decision nodes, `wide` of
    them three-way, grown by expanding a random leaf each step."""
    widths = [3] * wide + [2] * (decisions - wide)
    rng.shuffle(widths)
    children: dict = {}
    leaves = ["x0"]
    count = 1
    for width in widths:
        leaf = leaves.pop(rng.randrange(len(leaves)))
        children[leaf] = [f"x{count + k}" for k in range(width)]
        count += width
        leaves.extend(children[leaf])
    terminals = sorted(leaves, key=lambda nid: int(nid[1:]))
    top = 5 if ties else 99
    nodes = {}
    for nid, kids in children.items():
        nodes[nid] = {"player": rng.randint(1, n),
                      "actions": {chr(ord("a") + k): kid for k, kid in enumerate(kids)}}
    for z in terminals:
        nodes[z] = {"payoffs": [rng.randint(0, top) for _ in range(n)]}

    every = [c for size in range(2, n + 1) for c in combinations(range(1, n + 1), size)]
    coalitions = every
    feasible = "all"
    if restricted:
        coalitions = sorted(rng.sample(every, len(every) // 3))
        feasible = [list(c) for c in coalitions]
    if utility == "table":
        util = {"table": {",".join(map(str, c)): {z: rng.randint(0, top) for z in terminals}
                          for c in coalitions}}
    elif utility == "weighted":
        util = {"combinator": "weighted",
                "weights": {str(i): rng.randint(1, 3) for i in range(1, n + 1)}}
    else:
        util = {"combinator": utility}
    extra = {}
    if synergy:
        extra["synergies"] = []
        for _ in range(3):
            block = list(rng.choice(coalitions))
            extra["synergies"].append({"player": rng.choice(block), "block": block,
                                       "terminal": rng.choice(terminals),
                                       "value": rng.randint(0, top + 5)})
    return _text(n, "x0", nodes, feasible, util, **extra)


# -- chains: deep in nodes ------------------------------------------------------


def chain_game(rng, depth) -> str:
    """Two-player centipede: at each node the mover takes the larger share
    of a growing pot or passes it on."""
    first = rng.randint(1, 2)
    labels = ("take", "pass") if rng.random() < 0.5 else ("pass", "take")
    nodes = {}
    big, small = 2, 1
    for k in range(depth):
        mover = 1 + (first - 1 + k) % 2
        nxt = f"c{k + 1}" if k + 1 < depth else f"t{depth}"
        acts = {"take": f"t{k}", "pass": nxt}
        nodes[f"c{k}"] = {"player": mover, "actions": {lab: acts[lab] for lab in labels}}
        nodes[f"t{k}"] = {"payoffs": [big, small] if mover == 1 else [small, big]}
        big, small = big + rng.randint(1, 3), small + rng.randint(1, 3)
    nodes[f"t{depth}"] = {"payoffs": [small + 1, small + 1]}
    utility = rng.choice(({"combinator": "min"}, {"combinator": "sum"},
                          {"combinator": "weighted",
                           "weights": {"1": rng.randint(1, 3), "2": rng.randint(1, 3)}}))
    return _text(2, "c0", nodes, "all", utility)


# -- layers: stacks of simultaneous moves -------------------------------------------


def _stack(rng, n, layers, prefix, nodes, info_sets) -> str:
    """One stack of simultaneous-move layers; returns its root id.

    Layer k is a row node and one column information set spanning the row
    node's children; the pair of movers rotates through the players. One
    cell, fixed by k, continues to layer k+1; the rest are terminal.
    """
    for k, layer in enumerate(layers):
        m, cyclic = int(layer[0]), layer[1] == "c"
        row, col = 1 + k % n, 1 + (k + 1) % n
        go = (k % m, (k + 1) % m) if k + 1 < len(layers) else None
        cols = [f"{prefix}c{k}_{i}" for i in range(m)]
        nodes[f"{prefix}r{k}"] = {"player": row, "actions": {
            f"R{k}{chr(ord('a') + i)}": cols[i] for i in range(m)}}
        info_sets[f"{prefix}h{k}"] = cols
        noise = rng.sample(range(10), m * m)
        for i in range(m):
            acts = {}
            for j in range(m):
                label = f"C{k}{chr(ord('a') + j)}"
                if (i, j) == go:
                    acts[label] = f"{prefix}r{k + 1}"
                    continue
                z = acts[label] = f"{prefix}z{k}_{i}{j}"
                pay = [rng.randint(0, 40) for _ in range(n)]
                diagonal = 3 if i == j else 1
                pay[row - 1] = 10 * diagonal + noise[i * m + j]
                pay[col - 1] = 10 * (4 - diagonal if cyclic else diagonal) + noise[-1 - i * m - j]
                nodes[z] = {"payoffs": pay}
            nodes[cols[i]] = {"player": col, "actions": acts}
    return f"{prefix}r0"


def layer_game(rng, n, layers, chance) -> str:
    nodes: dict = {}
    info_sets: dict = {}
    if chance is None:
        root = _stack(rng, n, layers, "", nodes, info_sets)
        return _text(n, root, nodes, info_sets=info_sets)
    roots = [_stack(rng, n, layers, f"b{b}", nodes, info_sets) for b in range(len(chance))]
    nodes = {"root": {"actions": {f"branch{b}": r for b, r in enumerate(roots)}}, **nodes}
    probs = {r: float(p) for r, p in zip(roots, chance)}
    return _text(n, "root", nodes, info_sets=info_sets, chance=probs)
