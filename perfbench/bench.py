"""The game request, its correctness checks, and the per-layer counts.

A *game request* is one pass through the public calls that produce every
CLI output of one game once: parse, validate, solve, the noncooperative
baseline, the solve text, the nested listing, JSON and DOT. Each call runs
through a `call(name, fn, *args)` hook, so the same request code serves the
untimed, the timed and the traced loops.

The package is imported from the checkout's own `src/`; an installed copy
elsewhere is refused, so a run always measures the code beside it.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """Import `cefg` from ROOT/src; exit with an error if it is not there."""
    if not (SRC / "cefg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'cefg'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import cefg
    if Path(cefg.__file__).resolve().parent != (SRC / "cefg").resolve():
        sys.exit(f"perfbench: imported cefg from {cefg.__file__}, not from {SRC}")
    return cefg


cefg = import_program()
from cefg.render import outcome_str, partition_str  # noqa: E402

# Layer of each timed call, in request order. `cli` is not timed on its own:
# the request mirrors its commands, minus the repeated solves of
# `trace` and `export`.
CALLS = (
    "gamefile.parse_game",
    "model.validate_game",
    "ri.solve_game",
    "noncoop.baseline",
    "render.text",
    "render.solution",
    "render.json",
    "render.dot",
)

FIXTURE_PINS = {
    "fixture/abortion": ((2, 4, 3), ((1,), (2,), (3,))),
    "fixture/example2": ((6, 3, 5), ((1, 3), (2,))),
    "fixture/example2-modified": ((5, 5, 3), ((1, 2), (3,))),
}

# Checks that compare an output with a reference the solver did not make.
# A failure of any of them makes the run incorrect. `reduction_mismatch`
# compares two solver paths with each other (singleton-only RI against the
# BI/SPNE baseline); it marks the game failed but has no independent
# reference, so it does not by itself make the run incorrect.
REFERENCE_CHECKS = ("raised", "oracle_mismatch", "fixture_mismatch",
                    "json_mismatch", "nondeterministic")
FAILING_CHECKS = REFERENCE_CHECKS + ("reduction_mismatch",)
CHECKS = FAILING_CHECKS + ("oracle_checked", "ir_invariant_violations")


def direct(name, fn, *args):
    return fn(*args)


def solve_text(profile) -> str:
    """The text `cefg solve` prints."""
    return "\n".join([
        f"outcome: {outcome_str(profile.outcome)}",
        f"partition: {partition_str(profile.partition)}",
        f"summary: {cefg.bracket_summary(profile)}",
        "trace:",
        cefg.render_trace(profile),
    ]) + "\n"


def request(text: str, call=direct):
    """One game request; returns (tree, profile, baseline, outputs)."""
    spec = call("gamefile.parse_game", cefg.parse_game, text)
    tree, utils = call("model.validate_game", cefg.validate_game, spec)
    profile = call("ri.solve_game", cefg.solve_game, tree, utils)
    baseline_fn = (cefg.backward_induction if tree.is_perfect_information
                   else cefg.spne_in_subgame)
    baseline = call("noncoop.baseline", baseline_fn, tree, utils)
    outputs = (
        call("render.text", solve_text, profile),
        call("render.solution", cefg.render_solution, profile),
        call("render.json", cefg.profile_to_json, profile),
        call("render.dot", cefg.export_dot, tree, profile),
    )
    return tree, profile, baseline, outputs


class Tracer:
    """Spans kept in memory: (game id, span id, parent id, name, start, end).

    Times are `perf_counter_ns` values. The request span is the parent of
    every call span of that request.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._game = 0
        self._parent = None

    def request(self, text: str):
        self._game += 1
        start = time.perf_counter_ns()
        self._parent = len(self.spans)
        self.spans.append(None)
        try:
            return request(text, self.call)
        finally:
            self.spans[self._parent] = (self._game, self._parent, None, "request",
                                        start, time.perf_counter_ns())

    def call(self, name, fn, *args):
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.spans.append((self._game, len(self.spans), self._parent, name,
                               start, time.perf_counter_ns()))

    def self_times(self, factors) -> dict:
        """Total self time per span name: duration minus child spans, each
        request's spans scaled by its factor (`factors[game id - 1]`)."""
        child_ns: Counter = Counter()
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: Counter = Counter()
        for game, sid, _, name, start, end in self.spans:
            out[name] += (end - start - child_ns[sid]) * factors[game - 1]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("game", "id", "parent", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# -- correctness ---------------------------------------------------------------


def _num(v):
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else str(v)


def _blocks(partition):
    return [list(b) for b in partition]


def check_game(name: str, text: str, ref, timed_lengths) -> tuple[Counter, dict]:
    """Run one game request untimed and check every output.

    `ref` is the oracle's {"outcome", "partition"} for the game, or None when
    the game has none (imperfect information). `timed_lengths` are the output
    lengths the timed loop saw. Returns (check counts, per-layer counts).
    """
    checks: Counter = Counter()
    try:
        tree, profile, baseline, outputs = request(text)
        reduced = cefg.solve_game(tree, profile.utils, singletons_only=True)
    except Exception:  # any raise fails the game; the run goes on
        checks["raised"] += 1
        return checks, {}
    text_out, solution, js, dot = outputs

    if ref is not None:
        checks["oracle_checked"] += 1
        if ([str(Fraction(v)) for v in profile.outcome] != ref["outcome"]
                or _blocks(profile.partition) != ref["partition"]):
            checks["oracle_mismatch"] += 1
    pin = FIXTURE_PINS.get(name)
    if pin is not None and (tuple(profile.outcome), tuple(profile.partition)) != pin:
        checks["fixture_mismatch"] += 1
    body = json.loads(js)
    if (body["outcome"] != [_num(v) for v in profile.outcome]
            or body["partition"] != _blocks(profile.partition)
            or body["summary"] != cefg.bracket_summary(profile)):
        checks["json_mismatch"] += 1
    if reduced.outcome != baseline.outcome or reduced.root_entry.actions != baseline.actions:
        checks["reduction_mismatch"] += 1
    if timed_lengths is not None and tuple(map(len, outputs)) != tuple(timed_lengths):
        checks["nondeterministic"] += 1
    try:
        cefg.check_ir_invariants(profile)
    except cefg.CefgError:
        checks["ir_invariant_violations"] += 1

    audit = profile.audit
    kinds = Counter(step.kind for step in audit)
    contested = [g for g in tree.subgame_roots
                 if g in tree.decision_ids
                 and any(len(tree.info_sets[s]) > 1 for s in tree.layer_info_sets(g))]
    layer_profiles = 0
    for g in contested:
        size = 1
        for s in tree.layer_info_sets(g):
            size *= len(tree.nodes[tree.info_sets[s][0]].actions)
        layer_profiles += size
    encoded = [len(out.encode()) for out in outputs]
    counts = {
        "ri.subproblems": len({(s.node, s.view) for s in audit}),
        "ri.views": len({s.view for s in audit}),
        "ri.supergames": kinds["supergame-solved"],
        "ri.ir_accepted": kinds["ir-accepted"],
        "ri.ir_rejected": kinds["ir-rejected"],
        "noncoop.contested_layers": len(contested),
        "noncoop.layer_profiles": layer_profiles,
        "noncoop.mixed_sets": sum(isinstance(a, tuple) for a in baseline.actions.values()),
        "render.json_bytes": encoded[2],
        "render.solution_bytes": encoded[1],
        "render.entries": len(profile.entries()),
        "model.nodes": len(tree.nodes),
        "gamefile.bytes_in": len(text.encode()),
        "output_bytes": sum(encoded),
    }
    return checks, counts


def game_failed(checks: Counter) -> bool:
    return any(checks[c] for c in FAILING_CHECKS)
