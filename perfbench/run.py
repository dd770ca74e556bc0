"""Benchmark entry point: one workload per fresh process, closed loop, one client.

    python3 perfbench/run.py --workload coalitions --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A run generates the workload's games from the seed, warms up for up to two
seconds, then sends game requests back to back (one client, one thread, no
queues, so no layer ever waits on another) in whole passes for about
`--seconds`. Times are scaled to a reference host speed by a calibration
kernel run around every request (see timed_loop). After the timed loop it
runs every game once more untimed and checks the outputs (see
bench.check_game).

`--trace 0` reports the end-to-end metrics. `--trace 1` runs half the time
untraced and half traced, reports the per-layer metrics from the spans
(self time of each public call, written to out/spans-*.jsonl) and the
tracing overhead as the difference in games per second. `--workload all`
runs every workload in both modes, each in its own process, and prints every
metric. The last line of standard output is always one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import bench  # exits at once when the package is missing
import gen
import refs

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 15
WARMUP_NS = 2_000_000_000
# Reference speed: the host on which calibration_ns() reads exactly 3.5 ms,
# about the fast level of the host this benchmark was written on.
CAL_REF_NS = 3_500_000

# name, unit: the end-to-end metrics, reported with --trace 0
E2E = (
    ("games_per_s", "1/s"),
    ("game_ms.p50", "ms"),
    ("game_ms.p90", "ms"),
    ("output_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

COUNTS = (
    ("ri.subproblems", "count"),
    ("ri.views", "count"),
    ("ri.supergames", "count"),
    ("ri.ir_accepted", "count"),
    ("ri.ir_rejected", "count"),
    ("noncoop.contested_layers", "count"),
    ("noncoop.layer_profiles", "count"),
    ("noncoop.mixed_sets", "count"),
    ("render.json_bytes", "bytes"),
    ("render.solution_bytes", "bytes"),
    ("render.entries", "count"),
    ("model.nodes", "count"),
    ("gamefile.bytes_in", "bytes"),
)


# name, unit: the per-layer metrics, reported with --trace 1
PER_LAYER = (
    tuple((f"{call}.{kind}", unit) for call in bench.CALLS
          for kind, unit in (("ms", "ms"), ("share", "frac")))
    + COUNTS
    + (("ri.ir_accept_ratio", "ratio"),
       ("trace.games_per_s", "1/s"),
       ("trace.untraced_games_per_s", "1/s"),
       ("trace.overhead_games_per_s", "1/s"),
       ("check.games", "count"),
       ("failed_frac", "frac"))
    + tuple((f"check.{c}", "count") for c in bench.CHECKS)
)

PROBE = ("import sys, time; sys.path.insert(0, {here!r}); import bench, gen; "
         "games = gen.workload_games({workload!r}, {seed}); print(time.monotonic())")


def measure_setup(workload: str, seed: int) -> float:
    """Median time from starting a fresh interpreter to `import cefg` done
    and the inputs generated, scaled to the reference speed like a request.
    One unmeasured probe first compiles bytecode."""
    code = PROBE.format(here=str(HERE), workload=workload, seed=seed)
    times = []
    for k in range(SETUP_PROBES + 1):
        before = calibration_ns()
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, timeout=120)
        elapsed = float(done.stdout.split()[-1]) - start
        if k:
            times.append(elapsed * 2 * CAL_REF_NS / (before + calibration_ns()))
    return statistics.median(times)


def ensure_refs(workload: str, seed: int) -> None:
    """Solve missing oracle references in a child, so neither the oracle's
    time nor its memory lands in this process."""
    if refs.missing(workload, gen.workload_games(workload, seed)):
        subprocess.run([sys.executable, str(HERE / "refs.py"), "--workload", workload,
                        "--seed", str(seed)], check=True, timeout=3000)


# Walked in a scattered order by the calibration kernel, so that its cache
# and allocator traffic, like cefg's, reaches beyond the smallest caches.
_TABLE = [(i, str(i), Fraction(i, 7)) for i in range(20_000)]


def calibration_ns() -> int:
    """Time of a fixed pure-Python kernel: exact fractions, dicts, tuples and
    JSON over a 20k-entry table. It slows down with the host the way cefg
    does and does not depend on the program under test."""
    start = time.perf_counter_ns()
    seen = {}
    for k in range(0, 20_000, 14):
        i, key, value = _TABLE[k * 7919 % 20_000]
        seen[key] = (i, value + 1)
    json.dumps([[key, i, str(value)] for key, (i, value) in seen.items()])
    return time.perf_counter_ns() - start


def timed_loop(texts, seconds, run):
    """Whole passes over `texts` for about `seconds` of wall time.

    The host's speed swings by up to 2x for tens of seconds at a time (other
    tenants share the cores), so a calibration runs between requests and
    each request's time is scaled to the reference speed:
    ns * CAL_REF_NS / mean(calibration before, calibration after). Returns
    (scaled ns per request
    of each pass, host speed factors, output lengths per game, indices of
    games that raised, indices whose outputs changed).
    """
    passes, factors, lengths, raised, changed = [], [], {}, set(), set()
    begin = time.perf_counter_ns()
    last = 0
    calibration = calibration_ns()
    while not passes or time.perf_counter_ns() - begin + last // 2 < seconds * 1e9:
        pass_start = time.perf_counter_ns()
        times = []
        for k, text in enumerate(texts):
            start = time.perf_counter_ns()
            try:
                outputs = run(text)[3]
            except Exception:  # counted as a failed request; the loop goes on
                outputs = None
                raised.add(k)
            elapsed = time.perf_counter_ns() - start
            after = calibration_ns()
            factor = 2 * CAL_REF_NS / (calibration + after)
            calibration = after
            times.append(elapsed * factor)
            factors.append(factor)
            if outputs is not None:
                got = tuple(map(len, outputs))
                if lengths.setdefault(k, got) != got:
                    changed.add(k)
        passes.append(times)
        last = time.perf_counter_ns() - pass_start
    return passes, factors, lengths, raised, changed


def games_per_s(passes) -> float:
    return sum(map(len, passes)) * 1e9 / sum(map(sum, passes))


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_workload(workload, seed, seconds, trace):
    games = gen.workload_games(workload, seed)
    texts = [text for _, text in games]
    print(f"# {workload} seed={seed} games={len(games)} "
          f"inputs_digest={gen.inputs_digest(games)}")
    print("# closed loop, 1 client, 1 thread, no queues: no layer waits on "
          "another, so there are no wait metrics")
    warm_until = time.perf_counter_ns() + WARMUP_NS
    for text in texts:  # warm-up: interpreter caches, allocator arenas
        try:
            bench.request(text)
        except Exception:  # the check pass below counts it
            pass
        if time.perf_counter_ns() > warm_until:
            break

    metrics = {}
    if trace:
        plain = timed_loop(texts, seconds / 2, bench.request)
        tracer = bench.Tracer()
        loop = timed_loop(texts, seconds / 2, tracer.request)
        tracer.write(HERE / "out" / f"spans-{workload}-{seed}.jsonl")
        metrics["trace.games_per_s"] = games_per_s(loop[0])
        metrics["trace.untraced_games_per_s"] = games_per_s(plain[0])
        metrics["trace.overhead_games_per_s"] = (metrics["trace.untraced_games_per_s"]
                                                 - metrics["trace.games_per_s"])
        self_ns = tracer.self_times(loop[1])
        requests = len(loop[1])
        for name in bench.CALLS:
            metrics[f"{name}.ms"] = self_ns[name] / 1e6 / requests
            metrics[f"{name}.share"] = self_ns[name] / sum(self_ns.values())
        print(f"# traced {requests} requests, {len(tracer.spans)} spans; harness self "
              f"time {self_ns['request'] / 1e6 / requests:.4f} ms/request")
    else:
        loop = timed_loop(texts, seconds, bench.request)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        samples = sorted(t for times in loop[0] for t in times)
        metrics["games_per_s"] = games_per_s(loop[0])
        metrics["game_ms.p50"] = statistics.median(samples) / 1e6
        metrics["game_ms.p90"] = nearest_rank(samples, 0.9) / 1e6
        beyond = len(samples) - math.ceil(0.9 * len(samples))
        print(f"# {len(samples)} requests ({len(loop[0])} passes); p90 has {beyond} "
              f"samples beyond it{'' if beyond >= 10 else ' (fewer than 10)'}; median "
              f"scale to reference speed {statistics.median(loop[1]):.3f}")
    _, _, lengths, raised, changed = loop

    ref_map = refs.load(workload)
    checks, totals, failed_games = Counter(), Counter(), set()
    for k, (name, text) in enumerate(games):
        got, counts = bench.check_game(name, text, ref_map.get(gen.text_digest(text)),
                                       lengths.get(k))
        if k in raised:
            got["raised"] += 1
        if k in changed:
            got["nondeterministic"] += 1
        checks.update(got)
        totals.update(counts)
        if bench.game_failed(got):
            failed_games.add(k)
            bad = ", ".join(c for c in bench.FAILING_CHECKS if got[c])
            print(f"# failed: {name} ({bad})")
    n = len(games)
    for name, _ in COUNTS:
        metrics[name] = totals[name] / n
    metrics["output_bytes"] = totals["output_bytes"] / n
    judged = totals["ri.ir_accepted"] + totals["ri.ir_rejected"]
    metrics["ri.ir_accept_ratio"] = totals["ri.ir_accepted"] / judged if judged else 0.0
    for c in bench.CHECKS:
        metrics[f"check.{c}"] = checks[c]
    metrics["check.games"] = n
    # One attempt per distinct game, judged by the gate above: the timed
    # passes repeat the same requests, so counting them would make `failed`
    # depend on how many passes fit in the run instead of on the inputs.
    attempted = n
    failed = len(failed_games)
    metrics["failed_frac"] = failed / attempted
    correct = not any(checks[c] for c in bench.REFERENCE_CHECKS)
    return correct, attempted, failed, metrics


def _line(name, value, unit):
    return f"{name:<32} {value:>16.6f} {unit}"


def report(workload, seed, seconds, trace) -> int:
    if trace == 0:
        setup_s = measure_setup(workload, seed)
    ensure_refs(workload, seed)
    correct, attempted, failed, metrics = run_workload(workload, seed, seconds, trace)
    if trace == 0:
        metrics["setup_s"] = setup_s
        print(f"# setup_s is the median of {SETUP_PROBES} fresh interpreters")
    wanted = E2E if trace == 0 else PER_LAYER
    shown = {name for name, _ in wanted}
    units = dict(E2E + PER_LAYER)
    print(f"# {'end-to-end' if trace == 0 else 'per-layer'} metrics:")
    for name, unit in wanted:
        print(_line(name, metrics[name], unit))
    print("# also measured in this run:")
    for name in sorted(set(metrics) - shown):
        print(_line(name, metrics[name], units[name]))
    print(f"# correct={correct} attempted={attempted} failed={failed}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in wanted}}
    print(json.dumps(result), flush=True)
    return 0


def report_all(seed, seconds) -> int:
    """Every workload in both modes, each in a fresh process."""
    results = {}
    for workload in gen.WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=True, timeout=3600)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            results[f"{workload}/trace{trace}"] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return report_all(args.seed, args.seconds)
    return report(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
