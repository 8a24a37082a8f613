#!/usr/bin/env python3
"""Line counts of the Python files under a directory.

    python3 scripts/src_lines.py              # src/ next to this script
    python3 scripts/src_lines.py src tests    # each directory, then their total

Prints, per directory, two counts over its ``*.py`` files: every line, and the
code lines, those that hold a token other than a comment, a docstring or a line
break. A docstring is the string expression that opens a module, class or
function body (``ast``); a line a token spans counts once.
"""

import argparse
import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) where each docstring of ``tree`` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(source: str) -> tuple[int, int]:
    """(all lines, code lines) of one file's source."""
    docstrings = docstring_starts(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            continue
        if token.type == tokenize.STRING and token.start in docstrings:
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code)


def count_tree(directory: str) -> tuple[int, int]:
    """(all lines, code lines) summed over the ``*.py`` files under ``directory``."""
    total = [0, 0]
    for parent, _, names in os.walk(directory):
        for name in sorted(names):
            if name.endswith(".py"):
                with open(os.path.join(parent, name), encoding="utf-8") as fh:
                    lines, code = count(fh.read())
                total[0] += lines
                total[1] += code
    return total[0], total[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dirs", nargs="*", default=[os.path.join(ROOT, "src")])
    args = parser.parse_args(argv)
    totals = [0, 0]
    for directory in args.dirs:
        if not os.path.isdir(directory):
            parser.error(f"not a directory: {directory}")
        lines, code = count_tree(directory)
        totals[0] += lines
        totals[1] += code
        print(f"{os.path.relpath(directory)}: {lines} lines, {code} code lines")
    if len(args.dirs) > 1:
        print(f"total: {totals[0]} lines, {totals[1]} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
