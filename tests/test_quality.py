"""``scripts/quality.py`` runs from a checkout: acceptance [7]-[9] call its
functions, and these tests run its ``main`` the way a user does, without
``PYTHONPATH`` and without an external benchmark."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_quality(*args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "RPJE_FB15K_DIR")}
    return subprocess.run([sys.executable, "scripts/quality.py", *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_quality_script_prints_every_result(tmp_path):
    proc = run_quality("--workdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr[-2000:]
    _, toy, sweep, smoke = re.split(r"^== ", proc.stdout, flags=re.M)
    assert re.findall(r"^(\w+): +filtered Hits@10 = ", toy, re.M) == ["joint", "ablation"]
    thresholds = re.findall(r"^threshold (\S+): filtered Hits@10 = ", sweep, re.M)
    assert thresholds == ["0.0", "0.5", "0.7", "0.8", "0.9", "1.0"]
    assert smoke.startswith("smoke run: synthetic stand-in") and "ablation: yes" in smoke
    values = [float(v) for v in re.findall(r"Hits@10 = (\S+)", proc.stdout)]
    assert len(values) == 10 and all(0.0 <= v <= 1.0 for v in values)


def test_malformed_external_split_exits_2_before_training(tmp_path):
    for split, text in (("train", "a\tr\tb\nb\tr\tc\nc\tr\n"), ("valid", ""), ("test", "")):
        (tmp_path / f"{split}.txt").write_text(text)
    proc = run_quality("--data-dir", str(tmp_path), "--workdir", str(tmp_path / "work"))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        f"error: {tmp_path / 'train.txt'}:3: expected 3 tab-separated fields, got 2"
    ]
