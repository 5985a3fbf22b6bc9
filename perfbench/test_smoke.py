"""Tiny-scale smoke test of the benchmark's output contract.

    python3 -m pytest perfbench -q

Each workload runs for one second on a corpus 1/20 of its size, traced
and untraced, from a directory other than the repository root.  The
last test runs the benchmark in a directory holding only the benchmark,
where it must fail without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(cwd, workload, trace, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.05"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line(workload, trace, tmp_path):
    p = run(tmp_path, workload, trace)
    assert p.returncode == 0, p.stderr[-4000:]
    assert p.stdout.count("\n") == 1, "stdout carries only the result line"
    r = json.loads(p.stdout)
    assert set(r) == {"correct", "attempted", "failed", "metrics"}
    assert r["correct"] is True, p.stderr[-4000:]
    assert r["failed"] == 0 and r["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert set(r["metrics"]) == {m["name"] for m in want}
    for m in want:
        got = r["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
    assert not os.listdir(tmp_path), "the run writes only in its checkout"


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    p = run(tmp_path, SPEC["workloads"][0]["name"], 0,
            script=str(tmp_path / "perfbench" / "run.py"))
    assert p.returncode != 0
    assert p.stdout == ""
