"""Two runs of ``scripts/artifact_digest.py`` on one workload print the same
digests: the pipeline is deterministic per seed, and the tool that checks
whether a change keeps every output bit for bit still runs."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUTS = [
    "loss_history.csv", "checkpoint.bin", "eval_report.csv", "metrics.jsonl",
    "extract-paths stdout", "train stdout", "eval stdout", "explain stdout", "path set",
]


def digest_lines(workload: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "scripts/artifact_digest.py", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.splitlines()


def test_toy_train_digests_repeat():
    first, second = digest_lines("toy-train"), digest_lines("toy-train")
    assert first == second
    assert [line.partition("toy-train: ")[2] for line in first] == OUTPUTS
    assert all(len(line.split()[0]) == 64 for line in first)
