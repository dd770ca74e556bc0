"""The summary of `scripts/bench_pairs.py`, on synthetic runs, and a smoke run
of `scripts/ab_inprocess.py`."""

import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from bench_pairs import quartiles, summarize  # noqa: E402


def _runs(values, metric):
    return [{"pair": k, "result": {"metrics": {metric: {"value": v}}}}
            for k, v in enumerate(values, 1)]


def test_summary_gives_quartiles_per_side_and_counts_the_change_wins():
    parent = [100, 104, 101, 103, 102]
    change = [110, 103, 101, 120, 115]  # loses pair 2, ties pair 3
    records = {"parent": _runs(parent, "games_per_s"), "change": _runs(change, "games_per_s")}
    row = summarize(records, [("games_per_s", "higher")])["games_per_s"]
    assert row["parent"] == (101, 102, 103)
    assert row["change"] == (103, 110, 115)
    assert (row["wins"], row["pairs"]) == (3, 5)
    # Lower is better: the same numbers as latencies give the change one win.
    records = {"parent": _runs(parent, "game_ms.p50"), "change": _runs(change, "game_ms.p50")}
    row = summarize(records, [("game_ms.p50", "lower")])["game_ms.p50"]
    assert (row["wins"], row["pairs"]) == (1, 5)


@pytest.mark.parametrize("values,expected", [
    ([7.0], (7.0, 7.0, 7.0)),
    ([1, 2], (1.25, 1.5, 1.75)),
    ([4, 1, 3, 2], (1.75, 2.5, 3.25)),
])
def test_quartiles_of_few_runs(values, expected):
    assert quartiles(values) == expected


def test_in_process_ab_of_a_checkout_against_itself():
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "ab_inprocess.py"), str(root), str(root),
         "--workload", "chains", "--repeats", "1"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("chains seed 1, ")
    assert lines[0].endswith("outputs differ in 0 games")
