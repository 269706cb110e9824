"""Every workload and every check, at toy size, through the benchmark command.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_toy_run_prints_every_metric(workload, trace):
    proc = run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, "--toy")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True, proc.stderr
    assert out["failed"] == 0 and out["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace == "1" else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in out["metrics"].items()}
    if trace == "1":
        v = {name: m["value"] for name, m in out["metrics"].items()}
        layers = sum(x for name, x in v.items() if name.startswith("layer."))
        assert layers + v["trace.unattributed_s"] == pytest.approx(v["trace.wall_s"])
        assert 0 <= v["trace.unattributed_s"] < 0.05 * v["trace.wall_s"]


def test_same_seed_same_inputs():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for w in workloads.WORKLOADS:
        assert workloads.items(w, 3) == workloads.items(w, 3)
    assert workloads.items("search-sweep", 3) != workloads.items("search-sweep", 4)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", "desk-exact", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
