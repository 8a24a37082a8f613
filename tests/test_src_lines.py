"""``scripts/src_lines.py`` counts every line and the code lines of a tree: not
blank lines, comments or docstrings, but every line of any other string."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = '''"""A module docstring
over two lines."""

# a comment
def f(x):  # a code line with a comment
    """A docstring."""
    s = """a string over
    two lines"""
    return s
'''


def src_lines(*dirs: str) -> list[str]:
    proc = subprocess.run([sys.executable, "scripts/src_lines.py", *dirs],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_src_lines_counts(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "notes.txt").write_text("not python\n")
    first, _, total = src_lines(str(tmp_path), str(tmp_path))
    assert first.endswith(": 9 lines, 4 code lines")
    assert total == "total: 18 lines, 8 code lines"
    [src] = src_lines()
    assert src.startswith("src: ")
