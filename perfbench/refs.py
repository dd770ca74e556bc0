"""Oracle references for the benchmark's perfect-information games.

References come from `cefg.oracle_solve`, the literal brute-force
definition, never from the solver under test. They are keyed by a hash of
the game text. `refs/<workload>.json` holds them for every game the seeded
generators can make; a game missing there (after a generator change) is
solved on demand and kept in `out/refs-<workload>.json`.

    python3 perfbench/refs.py                               # whole pool (slow)
    python3 perfbench/refs.py --workload chains --seed 7    # one run's games
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ORACLE_WORKLOADS = ("coalitions", "chains")


def _paths(workload):
    return HERE / "refs" / f"{workload}.json", HERE / "out" / f"refs-{workload}.json"


def load(workload) -> dict:
    refs = {}
    for path in _paths(workload):
        if path.is_file():
            refs.update(json.loads(path.read_text()))
    return refs


def missing(workload, games) -> list:
    if workload not in ORACLE_WORKLOADS:
        return []
    have = load(workload)
    return [(name, text) for name, text in games if gen.text_digest(text) not in have]


def fill(workload, games, path) -> None:
    """Solve every game of `games` missing a reference; store them at `path`."""
    from bench import cefg

    stored = json.loads(path.read_text()) if path.is_file() else {}
    todo = missing(workload, games)
    for k, (name, text) in enumerate(todo):
        tree, utils = cefg.load_game_text(text)
        sol = cefg.oracle_solve(tree, utils, max_nodes=len(tree.nodes),
                                max_players=tree.n_players)
        stored[gen.text_digest(text)] = {"outcome": [str(v) for v in sol.outcome],
                                         "partition": [list(b) for b in sol.partition]}
        print(f"refs: {workload} {k + 1}/{len(todo)} {name}", file=sys.stderr, flush=True)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(stored, indent=0, sort_keys=True) + "\n")


def pool(workload) -> list:
    """Every game the generator can place in any run of `workload`."""
    slots = len(gen.COALITION_SLOTS if workload == "coalitions" else gen.CHAIN_SLOTS)
    games = gen.fixture_games() if workload == "coalitions" else []
    return games + [gen.pool_game(workload, slot, v)
                    for slot in range(slots) for v in range(gen.POOL)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=ORACLE_WORKLOADS)
    parser.add_argument("--seed", type=int)
    args = parser.parse_args(argv)
    if args.workload is None:
        for workload in ORACLE_WORKLOADS:
            fill(workload, pool(workload), _paths(workload)[0])
        return 0
    fill(args.workload, gen.workload_games(args.workload, args.seed),
         _paths(args.workload)[1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
