"""Paired benchmark runs of two checkouts, alternating which side runs first.

    python scripts/bench_pairs.py PARENT CHANGE --workload chains --seed 1 \\
        --pairs 10 --seconds 25 --label pr22

Each pair runs `perfbench/run.py --trace 0` once in each checkout, each run
in a fresh process with the same arguments; odd pairs run PARENT first, even
pairs CHANGE first. The final JSON line of every run, with its pair, seed,
length and the side that ran first, is added to
`BENCH_<label>_<workload>_parent.json` or `..._change.json` in the current
directory (one record a line; a file that exists keeps its records). Then,
for each end-to-end metric in BENCHMARK.json, it prints each side's median
[quartiles] over this invocation's runs and how many pairs the change won,
ties counting for neither.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The final JSON line of one untraced benchmark run in `checkout`."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile), by the inclusive method."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(records: dict, metrics) -> dict:
    """Each metric's quartiles per side, and the pairs the change won.

    `records` maps "parent" and "change" to their run records (each with
    "pair" and the run's "result"); `metrics` is (name, "higher" or
    "lower", the better direction) pairs. Returns {name: {"parent": (q1,
    median, q3), "change": (q1, median, q3), "wins": k, "pairs": n}}.
    """
    out = {}
    for name, better in metrics:
        values = {side: {r["pair"]: r["result"]["metrics"][name]["value"]
                         for r in records[side]} for side in SIDES}
        pairs = sorted(values["parent"].keys() & values["change"].keys())
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (values["change"][k] - values["parent"][k]) > 0 for k in pairs)
        out[name] = {side: quartiles(values[side].values()) for side in SIDES}
        out[name].update(wins=wins, pairs=len(pairs))
    return out


def _save(path: Path, records: list) -> None:
    old = json.loads(path.read_text()) if path.exists() else []
    lines = [json.dumps(r, sort_keys=True) for r in old + records]
    path.write_text("[\n" + ",\n".join(lines) + "\n]\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    seconds = int(args.seconds) if args.seconds.is_integer() else args.seconds
    records: dict = {side: [] for side in SIDES}
    for pair in range(1, args.pairs + 1):
        first = SIDES[(pair - 1) % 2]
        for side in (first, SIDES[pair % 2]):
            result = run_once(checkouts[side], args.workload, args.seed, seconds)
            records[side].append({"first": first, "pair": pair, "result": result,
                                  "seconds": seconds, "seed": args.seed, "trace": 0})
            print(f"pair {pair} {side}: games_per_s "
                  f"{result['metrics']['games_per_s']['value']:.2f}", flush=True)
    for side in SIDES:
        _save(Path(f"BENCH_{args.label}_{args.workload}_{side}.json"), records[side])
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in config["end_to_end"]]
    for name, row in summarize(records, metrics).items():
        (p1, pm, p3), (c1, cm, c3) = row["parent"], row["change"]
        ratio = f"{cm / pm:.3f}x" if pm else "-"
        print(f"{name}: parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} "
              f"[{c1:.6g}, {c3:.6g}]  {ratio}  wins {row['wins']}/{row['pairs']}")
    for side in SIDES:
        runs = records[side]
        print(f"{side}: {sum(r['result']['correct'] for r in runs)}/{len(runs)} runs "
              f"correct, {sum(r['result']['failed'] for r in runs)} failed games")
    return 0


if __name__ == "__main__":
    sys.exit(main())
