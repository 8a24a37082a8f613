"""``scripts/quality.py`` runs from a checkout: acceptance [7]-[9] call its
functions, and these tests run its ``main`` the way a user does, without
``PYTHONPATH`` and without an external benchmark."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rpje.synthetic import ToyConfig, generate, write_dataset

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


@pytest.mark.parametrize("rules", ["missing", "malformed"])
def test_bad_rule_file_exits_2_before_training(tmp_path, rules):
    files = write_dataset(generate(ToyConfig()), tmp_path / "data")
    path = tmp_path / "rules.tsv"
    if rules == "missing":
        error = f"[Errno 2] No such file or directory: '{path}'"
    else:  # the toy's own rules, then a line in neither syntax
        text = Path(files["rules"]).read_text(encoding="utf-8")
        path.write_text(text + "not a rule\n")
        error = f"{path}:{len(text.splitlines()) + 1}: expected 'head <= body<TAB>confidence'"
    proc = run_quality("--data-dir", str(tmp_path / "data"), "--rules", str(path),
                       "--workdir", str(tmp_path / "work"))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [f"error: {error}"]


def test_rules_without_data_dir_is_refused(tmp_path):
    proc = run_quality("--rules", str(tmp_path / "rules.tsv"), "--workdir", str(tmp_path))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines()[-1].endswith("error: --rules needs --data-dir")
