"""Two runs of ``scripts/artifact_digest.py`` on one workload print the same
digests: the pipeline is deterministic per seed, and the tool that checks
whether a change keeps every output bit for bit still runs. Its ``--standard``
runs print the digests committed in ``standard_digests.txt``, whose header
names the numpy version and the machine they were taken on."""

import os
import platform
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STANDARD_DIGESTS = os.path.join(ROOT, "tests", "standard_digests.txt")
OUTPUTS = [
    "loss_history.csv", "checkpoint.bin", "eval_report.csv", "metrics.jsonl",
    "extract-paths stdout", "train stdout", "eval stdout", "explain stdout", "path set",
]


def digest_lines(*args: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "scripts/artifact_digest.py", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.splitlines()


def test_toy_train_digests_repeat():
    first, second = digest_lines("toy-train"), digest_lines("toy-train")
    assert first == second
    assert [line.partition("toy-train: ")[2] for line in first] == OUTPUTS
    assert all(len(line.split()[0]) == 64 for line in first)


def test_standard_digests_match_the_committed_file():
    """``--standard`` prints the committed lines. Where they differ on another
    numpy version or machine than the header names, nothing tells a moved bit
    from numpy's or the machine's own rounding: the test warns that it cannot
    judge the bits, and skips."""
    with open(STANDARD_DIGESTS, encoding="utf-8") as fh:
        header, *committed = fh.read().splitlines()
    taken = re.fullmatch(r"# numpy (\S+) on (\S+): .*", header).groups()
    committed = [line for line in committed if not line.startswith("#")]
    lines = digest_lines("--standard")
    here = (np.__version__, platform.machine())
    if lines != committed and here != taken:
        moved = sum(a != b for a, b in zip(lines, committed)) + abs(len(lines) - len(committed))
        message = (f"cannot judge the bits: the digests were taken with numpy {taken[0]} on "
                   f"{taken[1]}, this is numpy {here[0]} on {here[1]}, and {moved} lines differ")
        warnings.warn(message)
        pytest.skip(message)
    assert lines == committed
