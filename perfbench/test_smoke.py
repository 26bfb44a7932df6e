"""Smoke test of the benchmark at tiny sizes.  It is kept with the benchmark
and is not part of the repository's test suite (pytest's testpaths is
``tests``); run it with

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(root: Path, *args):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run(workload, trace):
    proc = run(HERE.parent, "--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, proc.stderr
    want = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_same_seed_same_inputs():
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import numpy as np
    import workloads
    a, b, c = (workloads.Plan(s, tiny=True) for s in (7, 7, 8))
    assert all(np.array_equal(a.theta[k], b.theta[k]) for k in a.theta)
    assert not np.array_equal(a.theta["generic"], c.theta["generic"])
    assert workloads.Cli(7).cmds == workloads.Cli(7).cmds != workloads.Cli(8).cmds


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, "--workload", "plan", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
