#!/usr/bin/env python3
"""SHA-256 digests of one benchmark workload's pipeline outputs.

    python3 scripts/artifact_digest.py wide-eval
    python3 scripts/artifact_digest.py toy-train norm=L2
    python3 scripts/artifact_digest.py --standard > digests.txt

Writes the workload of ``perfbench/workloads.py`` to a temporary directory,
runs encode-rules, extract-paths, train and eval on it, then 20 seeded
``explain --machine`` queries, and prints one digest per output:
``loss_history.csv``, ``checkpoint.bin``, ``eval_report.csv``,
``metrics.jsonl`` (per-epoch draws, give-ups and active hinges among them)
without its timings, the extract-paths, train and eval stdout, the explain
stdout, and the path set that ``paths.bin`` loads to, dumped one path per line
as head, tail, relations and ``float.hex`` reliability. Two checkouts that
print the same lines wrote byte-identical outputs, except that the path-set
line compares the loaded paths, not the cache bytes, so it holds across cache
formats, and the metrics line leaves out each command's ``seconds``. A
``key=value`` argument replaces that hyperparameter in the workload's run
config. ``--standard`` runs the ten runs a change that keeps every output
bit for bit is checked on (``STANDARD``), so comparing two checkouts is one
``diff`` of their outputs. The rpje package is imported from the ``src/``
directory next to this script.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from rpje import cli, paths  # noqa: E402
import workloads  # noqa: E402

EXPLAIN_QUERIES = 20
EXPLAIN_SEED = 0
# every workload under each norm, the toy run without each joint term, and
# 3-step walks on the graphs without hubs
STANDARD = [
    ("toy-train", []), ("toy-train", ["norm=L2"]),
    ("wide-eval", []), ("wide-eval", ["norm=L2"]),
    ("hub-paths", []), ("hub-paths", ["norm=L2"]),
    ("toy-train", ["alpha_paths=0"]), ("toy-train", ["alpha_relpairs=0"]),
    ("wide-eval", ["max_path_steps=3"]), ("toy-train", ["max_path_steps=3"]),
]


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
    counts = np.diff(ps.indptr)
    heads, tails = np.repeat(ps.heads, counts).tolist(), np.repeat(ps.tails, counts).tolist()
    return "".join(
        f"{h}\t{t}\t{','.join(str(r) for r in rels if r >= 0)}\t{w.hex()}\n"
        for h, t, rels, w in zip(heads, tails, ps.relations.tolist(), ps.reliabilities.tolist())
    )


def metrics_dump(path: str) -> str:
    """``metrics.jsonl`` with each line's timing left out."""
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    return "".join(json.dumps({k: v for k, v in line.items() if k != "seconds"}) + "\n"
                   for line in lines)


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


def digests(name: str, overrides: list[str]) -> dict[str, str]:
    """Per output of one workload run, its SHA-256 digest."""
    with tempfile.TemporaryDirectory() as work:
        data, cfg_path = workloads.write_workload(workloads.WORKLOADS[name], os.path.join(work, "data"))
        override(cfg_path, overrides)
        out_dir = os.path.join(work, "out")
        stdout = {}
        for command in ("encode-rules", "extract-paths", "train", "eval"):
            stdout[command] = run([command, "--config", cfg_path, "--out", out_dir], out_dir)
        stdout["explain"] = "".join(
            run(["explain", "--config", cfg_path, "--out", out_dir, "--machine", h, t], out_dir)
            for h, t in workloads.explain_pairs(data, EXPLAIN_SEED, EXPLAIN_QUERIES)
        )
        found = {}
        for output in ("loss_history.csv", "checkpoint.bin", "eval_report.csv"):
            with open(os.path.join(out_dir, output), "rb") as fh:
                found[output] = hashlib.sha256(fh.read()).hexdigest()
        dump = metrics_dump(os.path.join(out_dir, "metrics.jsonl"))
        found["metrics.jsonl"] = hashlib.sha256(dump.encode()).hexdigest()
        for command in ("extract-paths", "train", "eval", "explain"):
            found[f"{command} stdout"] = hashlib.sha256(stdout[command].encode()).hexdigest()
        dump = path_set_dump(os.path.join(out_dir, "paths.bin"))
        found["path set"] = hashlib.sha256(dump.encode()).hexdigest()
    return found


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("workload", nargs="?", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("overrides", nargs="*", metavar="key=value")
    parser.add_argument("--standard", action="store_true", help="run the ten STANDARD runs")
    args = parser.parse_args()
    if args.standard == (args.workload is not None):
        parser.error("give either a workload or --standard")
    runs = STANDARD if args.standard else [(args.workload, args.overrides)]
    for name, overrides in runs:
        label = " ".join([name, *overrides])
        for output, digest in digests(name, overrides).items():
            print(f"{digest}  {label}: {output}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
