"""Smoke run of the pipeline benchmark, so the harness under perfbench/ cannot rot.

It gates nothing on time: one short ``toy-train`` run must finish correct, with
no failed operation and a value for every end-to-end metric of BENCHMARK.json.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_smoke_toy_train():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toy-train", "--seconds", "1",
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        wanted = {m["name"] for m in json.load(fh)["end_to_end"]}
    assert wanted <= set(result["metrics"])
