"""Interleaved A/B of two checkouts' request time, in one process.

    python scripts/ab_inprocess.py CHECKOUT_A CHECKOUT_B --workload coalitions \\
        --seed 1 --repeats 7

Each checkout's own `perfbench/bench.py` is loaded, side by side, and its
`import_program` imports that checkout's `cefg` from its own `src/`,
refusing any other copy. The workload's games come from CHECKOUT_A's
`perfbench/gen.py`. For each repeat and each game, both sides run their
`bench.request`, the request the benchmark times: parse the game text,
validate it, solve it, run the noncooperative baseline and render the four
outputs (the solve text, the nested listing, JSON and DOT); the side that
runs first alternates per game and per repeat. It prints one line: each
side's sum over the games of that game's least time, and B / A, and how many
games gave different outputs on the two sides.

The two sides share one heap and one interpreter, so a ratio from this
script sizes a lever on a noisy host; it is not a measurement to claim a
gain from. Claims come from `scripts/bench_pairs.py`, which runs the
benchmark itself in fresh processes. What a shared heap hides can be
large: a change that frees the solver's merged-view memos when
`solve_game` returns, rather than with the profile, read 1.001-1.010 of its
parent here on `layers` (seed 1), while fresh-process pairs read
0.950-0.972 and an A/A series of two copies of the parent 0.997.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import time
from pathlib import Path


def _unload() -> dict:
    return {name: sys.modules.pop(name) for name in list(sys.modules)
            if name == "cefg" or name.startswith("cefg.")}


def load_side(checkout: Path):
    """`checkout`'s `perfbench/bench.py`, with the `cefg` it imported from
    the checkout's `src/` held apart from any other copy."""
    spec = importlib.util.spec_from_file_location(
        "bench", checkout.resolve() / "perfbench" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    path = list(sys.path)
    _unload()
    try:
        spec.loader.exec_module(bench)
    finally:
        sys.path[:] = path
    _unload()  # the loaded modules keep their references to each other
    return bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, metavar="CHECKOUT_A")
    parser.add_argument("b", type=Path, metavar="CHECKOUT_B")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.a.resolve() / "perfbench"))
    import gen
    texts = [text for _, text in gen.workload_games(args.workload, args.seed)]
    sides = [load_side(args.a), load_side(args.b)]
    best = [[float("inf")] * len(texts) for _ in sides]
    outputs: list = [[None] * len(texts) for _ in sides]
    for repeat in range(args.repeats):
        for k in range(len(texts)):
            first = (repeat + k) % 2
            for s in (first, 1 - first):
                start = time.perf_counter()
                *_, out = sides[s].request(texts[k])
                best[s][k] = min(best[s][k], time.perf_counter() - start)
                outputs[s][k] = out
    differ = sum(a != b for a, b in zip(*outputs))
    total_a, total_b = sum(best[0]), sum(best[1])
    print(f"{args.workload} seed {args.seed}, {len(texts)} games x {args.repeats}: "
          f"A {total_a * 1000:.1f} ms  B {total_b * 1000:.1f} ms  "
          f"B/A {total_b / total_a:.3f}  outputs differ in {differ} games")
    return 0


if __name__ == "__main__":
    sys.exit(main())
