#!/usr/bin/env python3
"""SHA-256 digests of one benchmark workload's pipeline outputs.

    python3 scripts/artifact_digest.py wide-eval
    python3 scripts/artifact_digest.py toy-train norm=L2

Writes the workload of ``perfbench/workloads.py`` to a temporary directory,
runs encode-rules, extract-paths, train and eval on it, then 20 seeded
``explain --machine`` queries, and prints one digest per output:
``loss_history.csv``, ``checkpoint.bin``, ``eval_report.csv``, the
extract-paths, train and eval stdout, the explain stdout, and the path set
that ``paths.bin`` loads to, dumped one path per line as head, tail, relations
and ``float.hex`` reliability. Two checkouts that print the same lines wrote
byte-identical outputs, except that the path-set line compares the loaded
paths, not the cache bytes, so it holds across cache formats. A ``key=value`` argument replaces that
hyperparameter in the workload's run config. The rpje package is imported from
the ``src/`` directory next to this script.
"""

import argparse
import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from rpje import cli, paths  # noqa: E402
import workloads  # noqa: E402

EXPLAIN_QUERIES = 20
EXPLAIN_SEED = 0


def run(argv: list[str], out_dir: str) -> str:
    """stdout of one CLI command, with the output directory replaced by ``<out>``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        sys.exit(f"error: {' '.join(argv[:1])} exited with {code}")
    return buf.getvalue().replace(out_dir, "<out>")


def path_set_dump(cache: str) -> str:
    """One line per path, in pair order: head, tail, relations, reliability bits."""
    ps = paths.load_path_set(cache)
    return "".join(
        f"{h}\t{t}\t{','.join(map(str, p.relations))}\t{p.reliability.hex()}\n"
        for (h, t), group in sorted(ps.pairs.items())
        for p in group
    )


def override(cfg_path: str, assignments: list[str]) -> None:
    with open(cfg_path, encoding="utf-8") as fh:
        text = fh.read()
    for item in assignments:
        key, sep, value = item.partition("=")
        text, n = re.subn(rf"(?m)^{re.escape(key)} = .*$", f"{key} = {value}", text)
        if not sep or n != 1:
            sys.exit(f"error: {item!r} is not key=value for a key of the run config")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(text)


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("overrides", nargs="*", metavar="key=value")
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as work:
        data, cfg_path = workloads.write_workload(workload, os.path.join(work, "data"))
        override(cfg_path, args.overrides)
        out_dir = os.path.join(work, "out")
        stdout = {}
        for name in ("encode-rules", "extract-paths", "train", "eval"):
            stdout[name] = run([name, "--config", cfg_path, "--out", out_dir], out_dir)
        stdout["explain"] = "".join(
            run(["explain", "--config", cfg_path, "--out", out_dir, "--machine", h, t], out_dir)
            for h, t in workloads.explain_pairs(data, EXPLAIN_SEED, EXPLAIN_QUERIES)
        )
        digests = {}
        for name in ("loss_history.csv", "checkpoint.bin", "eval_report.csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        for name in ("extract-paths", "train", "eval", "explain"):
            digests[f"{name} stdout"] = hashlib.sha256(stdout[name].encode()).hexdigest()
        dump = path_set_dump(os.path.join(out_dir, "paths.bin"))
        digests["path set"] = hashlib.sha256(dump.encode()).hexdigest()
    label = " ".join([args.workload, *args.overrides])
    for name, digest in digests.items():
        print(f"{digest}  {label}: {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
