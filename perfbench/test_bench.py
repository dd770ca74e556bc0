"""Self-tests of the benchmark. Run with `python3 -m pytest -q perfbench`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import gen
import run

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = gen.inputs_digest(gen.workload_games(workload, 11))
    assert first == gen.inputs_digest(gen.workload_games(workload, 11))
    assert first != gen.inputs_digest(gen.workload_games(workload, 12))


def test_planted_wrong_reference_is_a_failure():
    name, text = gen.fixture_games()[1]
    good = {"outcome": ["6", "3", "5"], "partition": [[1, 3], [2]]}
    checks, _ = bench.check_game(name, text, good, None)
    assert checks["oracle_checked"] == 1 and not bench.game_failed(checks)
    planted = dict(good, outcome=["5", "5", "3"])
    checks, _ = bench.check_game(name, text, planted, None)
    assert checks["oracle_mismatch"] == 1 and bench.game_failed(checks)


def test_benchmark_json_matches_run_py():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.E2E)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(gen.WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
def test_printout_names_every_metric_with_its_unit(trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "layers", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=170)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = BENCHMARK["end_to_end" if trace == 0 else "per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    printed = {tuple(line.split()[::2]) for line in lines[:-1] if not line.startswith("#")}
    names = [name for name, _ in (run.E2E if trace == 0 else run.PER_LAYER)]
    units = dict(run.E2E + run.PER_LAYER)
    for name in names + [f"check.{c}" for c in bench.CHECKS] + ["failed_frac"]:
        assert (name, units[name]) in printed, name


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chains", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")
