"""The summary and verdicts of `scripts/bench_pairs.py`, on synthetic runs,
and its export of git revisions."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import bench_pairs  # noqa: E402
from bench_pairs import quartiles, summarize  # noqa: E402


def _runs(values, metric):
    return [{"pair": k, "result": {"metrics": {metric: {"value": v}}}}
            for k, v in enumerate(values, 1)]


def test_summary_gives_quartiles_per_side_and_counts_the_change_wins():
    parent = [100, 104, 101, 103, 102]
    change = [110, 103, 101, 120, 115]  # loses pair 2, ties pair 3
    records = {"parent": _runs(parent, "games_per_s"), "change": _runs(change, "games_per_s")}
    row = summarize(records, [("games_per_s", "higher", 0.15)])["games_per_s"]
    assert row["parent"] == (101, 102, 103)
    assert row["change"] == (103, 110, 115)
    assert (row["wins"], row["pairs"]) == (3, 5)
    # Lower is better: the same numbers as latencies give the change one win.
    records = {"parent": _runs(parent, "game_ms.p50"), "change": _runs(change, "game_ms.p50")}
    row = summarize(records, [("game_ms.p50", "lower", 0.25)])["game_ms.p50"]
    assert (row["wins"], row["pairs"]) == (1, 5)


@pytest.mark.parametrize("values,expected", [
    ([7.0], (7.0, 7.0, 7.0)),
    ([1, 2], (1.25, 1.5, 1.75)),
    ([4, 1, 3, 2], (1.75, 2.5, 3.25)),
])
def test_quartiles_of_few_runs(values, expected):
    assert quartiles(values) == expected


def _verdicts(parent, change, better, bound):
    records = {"parent": _runs(parent, "m"), "change": _runs(change, "m")}
    row = summarize(records, [("m", better, bound)])["m"]
    return row["claim"], row["bound"]


@pytest.mark.parametrize("parent,change,better,bound,expected", [
    # 9 wins and a tie of 10 pairs, a median 10 above a quartile width of 4.5.
    (list(range(100, 110)), [110, *range(111, 119), 109], "higher", 0.15, ("met", "ok")),
    # A tie is no win: 8 wins and 2 ties fall short of nine tenths.
    (list(range(100, 110)), [110, *range(111, 118), 108, 109], "higher", 0.15,
     ("not met", "ok")),
    # Every pair won, but the median moves less than the parent's spread.
    ([100, 104, 108, 112], [101, 105, 109, 113], "higher", 0.15, ("not met", "ok")),
    # Lower is better: 20% worse against a bound of 10%.
    ([100] * 4, [120] * 4, "lower", 0.1, ("not met", "exceeded")),
    # The parent's quartile width (15) is wider than the bound (6.25).
    ([10, 20, 30, 40], [11, 21, 31, 41], "lower", 0.25, ("not met", "unresolved")),
    # ... unless every run of the change beats every run of the parent; but
    # four pairs are too few for a claim.
    ([10, 20, 30, 40], [1, 2, 3, 4], "lower", 0.25, ("not met", "ok")),
    # A median worse by more than the bound is exceeded, however wide the spread.
    ([10, 20, 30, 40], [40, 50, 60, 70], "lower", 0.25, ("not met", "exceeded")),
])
def test_verdicts_follow_the_claim_rule_and_the_bound(parent, change, better, bound,
                                                     expected):
    assert _verdicts(parent, change, better, bound) == expected


def _git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                          cwd=repo, capture_output=True, text=True, check=True).stdout.strip()


def test_revisions_run_from_fresh_exports_and_directories_as_they_are(
        tmp_path, monkeypatch, capsys):
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    _git(repo, "init", "-q")
    commits = []
    for version in ("old", "new"):
        (repo / "perfbench" / "run.py").write_text(version)
        _git(repo, "add", "-A")
        _git(repo, "commit", "-q", "-m", version)
        commits.append(_git(repo, "rev-parse", "HEAD"))
    # Untracked leftovers of earlier runs in the working copy.
    (repo / "perfbench" / "out").mkdir()
    (repo / "perfbench" / "__pycache__").mkdir()
    seen = []

    def stub_run(checkout, workload, seed, seconds):
        files = sorted(str(f.relative_to(checkout)) for f in checkout.rglob("*"))
        seen.append((checkout, (checkout / "perfbench" / "run.py").read_text(), files))
        return {"correct": True, "failed": 0, "metrics": {
            m: {"value": 1.0} for m in ("games_per_s", "game_ms.p50", "game_ms.p90",
                                        "output_bytes", "peak_rss_mb", "setup_s")}}

    monkeypatch.setattr(bench_pairs, "run_once", stub_run)
    monkeypatch.chdir(repo)
    assert bench_pairs.main(["HEAD~1", "HEAD", "--workload", "chains", "--seed", "1",
                             "--pairs", "2", "--seconds", "1", "--label", "t"]) == 0
    assert [text for _, text, _ in seen] == ["old", "new", "new", "old"]
    verdicts = [line for line in capsys.readouterr().out.splitlines() if "  claim " in line]
    assert len(verdicts) == 6  # one per end-to-end metric of BENCHMARK.json
    assert verdicts[0] == ("games_per_s: parent 1 [1, 1]  change 1 [1, 1]  1.000x  "
                           "wins 0/2  claim not met  bound ok")
    for checkout, _, files in seen:
        assert checkout != repo and not checkout.exists()  # removed after the runs
        assert files == ["perfbench", "perfbench/run.py"]
    for side, commit in zip(("parent", "change"), commits):
        records = json.loads((repo / f"BENCH_t_chains_{side}.json").read_text())
        assert [r["revision"] for r in records] == [commit, commit]
    # A directory is run where it is, with no revision.
    seen.clear()
    assert bench_pairs.main([str(repo), "HEAD", "--workload", "chains", "--seed", "1",
                             "--pairs", "1", "--seconds", "1", "--label", "d"]) == 0
    assert seen[0][0] == repo and seen[1][1] == "new"
    records = json.loads((repo / "BENCH_d_chains_parent.json").read_text())
    assert records[0]["revision"] is None
    with pytest.raises(SystemExit, match="neither a directory nor a commit"):
        bench_pairs.main(["no-such-revision", "HEAD", "--workload", "chains", "--seed", "1",
                          "--pairs", "1", "--seconds", "1", "--label", "x"])
