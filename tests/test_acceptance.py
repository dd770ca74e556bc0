"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` reports the same results as test outcomes. Timing
bounds cover the computation (load, solve, render), not interpreter startup.
"""

import random
import time

import pytest

from cefg import (
    backward_induction,
    check_ir_invariants,
    load_game,
    load_game_text,
    solve_game,
    spne_in_subgame,
)
from cefg.oracle import oracle_solve, random_game
from cefg.render import bracket_entry, bracket_summary, render_solution, render_trace
from conftest import game_path, make_game_text


def _report(number, text, elapsed=None):
    suffix = f" [{elapsed * 1000:.1f} ms]" if elapsed is not None else ""
    print(f"PASS criterion {number}: {text}{suffix}")


def test_criterion_01_abortion_baseline():
    start = time.perf_counter()
    tree, utils = load_game(game_path("abortion.game"))
    sol = backward_induction(tree, utils)
    elapsed = time.perf_counter() - start
    assert sol.outcome == (3, 2, 1)
    assert sol.actions["g"] == "Illegal"
    assert sol.actions["a"] == "N"
    assert elapsed < 0.010
    _report(1, "bi abortion.game -> (3, 2, 1) via Illegal, N", elapsed)


def test_criterion_02_abortion_ri():
    start = time.perf_counter()
    tree, utils = load_game(game_path("abortion.game"))
    prof = solve_game(tree, utils)
    elapsed = time.perf_counter() - start
    assert prof.outcome == (2, 4, 3)
    assert prof.coalition is None and prof.partition == ((1,), (2,), (3,))
    illegal = prof.standalone_entry("a")
    assert illegal.coalition == (2, 3)
    assert prof.root_context["a"].coalition == (2, 3)
    assert elapsed < 0.050
    _report(2, "solve abortion.game -> (2, 4, 3), {2,3} in the Illegal subgame, "
               "no coalition at the root", elapsed)


def test_criterion_03_example2_ri():
    start = time.perf_counter()
    tree, utils = load_game(game_path("example2.game"))
    prof = solve_game(tree, utils)
    summary = bracket_summary(prof)
    trace = render_trace(prof)
    elapsed = time.perf_counter() - start
    assert prof.outcome == (6, 3, 5)
    assert prof.partition == ((1, 3), (2,))
    assert summary == "[{R},{a,d},{e,g,j,l}; {1,3},2]"
    order = [
        trace.index("[x5] index point -> (5, 5, 3)"),
        trace.index("[x5] adopted {2,3} -> (1, 6, 4)"),
        trace.index("[x7] index point -> (2, 2, 6)"),
        trace.index("[x7] ir-rejected {1,2,3} -> (4, 4, 5): blocked by P3"),
        trace.index("[x7] ir-accepted {1,2} -> (5, 5, 3)"),
        trace.index("[x7] ir-accepted {1,3} -> (6, 3, 5)"),
    ]
    assert order == sorted(order)
    assert elapsed < 0.100
    _report(3, "example2 -> (6, 3, 5), {{1,3},{2}}, summary and trace order exact",
            elapsed)


def test_criterion_04_example2_modified():
    start = time.perf_counter()
    tree, utils = load_game(game_path("example2-modified.game"))
    prof = solve_game(tree, utils)
    summary = bracket_summary(prof)
    trace = render_trace(prof)
    elapsed = time.perf_counter() - start
    assert prof.outcome == (5, 5, 3)
    assert prof.partition == ((1, 2), (3,))
    assert summary == "[{L},{a,c},{e,g,j,k}; {1,2},3]"
    assert "[x7] ir-rejected {1,3} -> (5, 5, 3): blocked by P1" in trace
    assert elapsed < 0.100
    _report(4, "modified example2 -> (5, 5, 3), {{1,2},{3}}, {1,3} rejected",
            elapsed)


def test_criterion_05_complete_solution_rendering():
    tree, utils = load_game(game_path("example2.game"))
    prof = solve_game(tree, utils)
    assert bracket_entry(tree, prof.standalone_entry("x5")) == "[{b},{h}; {2,3}]"
    assert bracket_entry(tree, prof.standalone_entry("x6")) == "[{c},{j,k}; 2,3]"
    assert bracket_entry(tree, prof.root_context["x5"]) == "[{a},{e,g}; 2,{1,3}]"
    assert bracket_entry(tree, prof.root_context["x6"]) == "[{d},{i,l}; 2,{1,3}]"
    text = render_solution(prof)
    root_at = text.index("=== solution at x7 (root) ===")
    x5_alone = text.index("=== standalone solution at x5 ===")
    x6_alone = text.index("=== standalone solution at x6 ===")
    assert root_at < x5_alone < x6_alone
    root_section = text[root_at:x5_alone]
    assert "[{a},{e,g}; 2,{1,3}]" in root_section
    assert "[{d},{i,l}; 2,{1,3}]" in root_section
    assert "[{b},{h}; {2,3}]" in text[x5_alone:x6_alone]
    assert "[{c},{j,k}; 2,3]" in text[x6_alone:]
    _report(5, "trace example2 reproduces the nested complete solution; "
               "standalone and in-context entries differ as required")


def test_criterion_06_reduction_property():
    rng = random.Random(60_001)
    start = time.perf_counter()
    for _ in range(1000):
        tree, utils = random_game(rng, max_players=3, max_depth=4, max_nodes=64)
        prof = solve_game(tree, utils, singletons_only=True)
        bi = backward_induction(tree, utils)
        assert prof.outcome == bi.outcome
        assert prof.root_entry.actions == bi.actions
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _report(6, "1000 random games: singleton-only RI == backward induction "
               "(outcome and actions)", elapsed)


def test_criterion_07_oracle_equivalence():
    rng = random.Random(70_001)
    start = time.perf_counter()
    profiles = []
    for _ in range(500):
        tree, utils = random_game(rng, max_players=3, max_depth=4, max_nodes=15)
        prof = solve_game(tree, utils)
        ref = oracle_solve(tree, utils)
        assert tuple(prof.outcome) == tuple(ref.outcome)
        assert prof.partition == ref.partition
        profiles.append(prof)
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    # reused below: every one of these profiles must satisfy the chain invariants
    test_criterion_07_oracle_equivalence.profiles = profiles
    _report(7, "500 random games: solve_game matches the literal oracle on "
               "outcome and partition", elapsed)


def test_criterion_08_ir_chain_invariants():
    fixtures = [load_game(game_path(name)) for name in
                ("abortion.game", "example2.game", "example2-modified.game")]
    accepted_total = 0
    for tree, utils in fixtures:
        prof = solve_game(tree, utils)
        _, accepted = check_ir_invariants(prof)
        accepted_total += accepted
    rng = random.Random(80_001)
    for _ in range(200):
        tree, utils = random_game(rng)
        prof = solve_game(tree, utils)
        _, accepted = check_ir_invariants(prof)
        accepted_total += accepted
    profiles = getattr(test_criterion_07_oracle_equivalence, "profiles", [])
    for prof in profiles:
        check_ir_invariants(prof)
    assert accepted_total > 0
    _report(8, f"IR chains strictly increase a singleton active block's "
               f"value and adopted blocks strictly improve "
               f"({accepted_total} acceptances checked)")


PD_TEXT = make_game_text({
    "r": {"player": 1, "actions": {"C": "rc", "D": "rd"}},
    "rc": {"player": 2, "actions": {"c": "z1", "d": "z2"}},
    "rd": {"player": 2, "actions": {"c": "z3", "d": "z4"}},
    "z1": [3, 3], "z2": [0, 5], "z3": [5, 0], "z4": [1, 1],
}, players=2, info_sets={"h2": ["rc", "rd"]})

MP_TEXT = make_game_text({
    "r": {"player": 1, "actions": {"H": "rh", "T": "rt"}},
    "rh": {"player": 2, "actions": {"h": "z1", "t": "z2"}},
    "rt": {"player": 2, "actions": {"h": "z3", "t": "z4"}},
    "z1": [1, -1], "z2": [-1, 1], "z3": [-1, 1], "z4": [1, -1],
}, players=2, info_sets={"h2": ["rh", "rt"]})


def test_criterion_09_imperfect_information_desk_check():
    tree, utils = load_game_text(PD_TEXT)
    prof = solve_game(tree, utils)
    index_outcomes = [s.outcome for s in prof.trace_steps()
                      if s.kind == "index-point"]
    assert index_outcomes == [(1, 1)]
    assert prof.outcome == (3, 3)
    assert prof.coalition == (1, 2)

    tree_mp, utils_mp = load_game_text(MP_TEXT)
    spne = spne_in_subgame(tree_mp, utils_mp)
    assert spne.outcome == (0, 0)  # exact rationals: within any tolerance
    from fractions import Fraction
    assert dict(spne.actions["r"]) == {"H": Fraction(1, 2), "T": Fraction(1, 2)}
    assert dict(spne.actions["h2"]) == {"h": Fraction(1, 2), "t": Fraction(1, 2)}
    _report(9, "prisoner's dilemma: r0 (1, 1), adopted (3, 3); matching "
               "pennies: (1/2, 1/2) mixed equilibrium worth (0, 0)")


def test_criterion_10_determinism(tmp_path):
    from cefg.cli import main
    for name in ("abortion.game", "example2.game", "example2-modified.game"):
        a, b = tmp_path / f"{name}.a.json", tmp_path / f"{name}.b.json"
        for target in (a, b):
            code = main(["solve", str(game_path(name)),
                         "--format", "json", "-o", str(target)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
    _report(10, "solve --format json is byte-identical across consecutive "
                "runs on every fixture")
