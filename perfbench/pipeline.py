"""One benchmark pass of the rpje CLI, run in-process, with its output checks.

Every CLI call and every output check is one operation; a non-zero exit code,
an exception or a failed check is a failed operation.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import time
import traceback

from rpje import cli

REPORT_TASKS = ("entity-head", "entity-tail", "entity-combined", "relation")
REPORT_SETTINGS = ("raw", "filtered")
REPORT_METRICS = ("MR", "MRR", "Hits@1", "Hits@3", "Hits@10")


class Ops:
    """Attempted and failed operations, with a note on each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def run_cli(argv: list[str], ops: Ops, tracer=None) -> tuple[bool, str, tuple[float, float]]:
    """Call ``rpje.cli.main`` with captured output; returns (ok, stdout, (start, end))."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call(f"cli.{argv[0]}", cli.main, argv)
    except Exception:  # an uncaught error is a failed operation, not a benchmark crash
        code = traceback.format_exc(limit=-1).strip().splitlines()[-1]
    span = (start, time.perf_counter())
    ok = ops.record(code == 0, f"{argv[0]}: exit {code}: {err.getvalue().strip()[:200]}")
    return ok, out.getvalue(), span


def read_report(path: str) -> dict[tuple[str, str, str], float]:
    with open(path, encoding="utf-8") as fh:
        return {
            (row["task"], row["setting"], row["metric"]): float(row["value"])
            for row in csv.DictReader(fh)
        }


def check_report(report: dict, ops: Ops) -> None:
    """Every task x setting x metric row is present and in range; filtered >= raw."""
    problems = []
    for task in REPORT_TASKS:
        for setting in REPORT_SETTINGS:
            for metric in REPORT_METRICS:
                if (task, setting, metric) not in report:
                    problems.append(f"missing {task},{setting},{metric}")
    for (task, setting, metric), value in report.items():
        low, high = (1.0, math.inf) if metric == "MR" else (0.0, 1.0)
        if not (math.isfinite(value) and low <= value <= high):
            problems.append(f"{task},{setting},{metric}={value}")
    ops.record(not problems, "eval_report.csv: " + "; ".join(problems[:5]))

    worse = []
    for task in REPORT_TASKS:
        for metric in REPORT_METRICS:
            raw = report.get((task, "raw", metric))
            filtered = report.get((task, "filtered", metric))
            if raw is None or filtered is None:
                continue
            if (filtered > raw) if metric == "MR" else (filtered < raw):
                worse.append(f"{task} {metric} filtered {filtered} vs raw {raw}")
    ops.record(not worse, "filtered below raw: " + "; ".join(worse[:5]))


def check_explain(stdout: str, top_k: int, ops: Ops) -> None:
    """``explain --machine`` prints ``top_k`` relation lines with finite scores."""
    scores = []
    for line in stdout.splitlines():
        fields = line.split("\t")
        if fields[0] == "relation":
            try:
                scores.append(float(fields[2]))
            except (IndexError, ValueError):
                scores.append(math.nan)
    ok = len(scores) == top_k and all(math.isfinite(s) for s in scores)
    ops.record(ok, f"explain printed relation scores {scores}, expected {top_k} finite")


def command(name: str, cfg_path: str, out_dir: str, *extra: str) -> list[str]:
    return [name, "--config", cfg_path, "--out", out_dir, *extra]


def setup(cfg_path: str, out_dir: str, ops: Ops, tracer=None) -> dict | None:
    """encode-rules + extract-paths on an empty ``out_dir``; the span of each command."""
    spans = {}
    for name in ("encode-rules", "extract-paths"):
        ok, _, spans[name] = run_cli(command(name, cfg_path, out_dir), ops, tracer)
        if not ok:
            return None
    return spans


def train_eval(cfg_path: str, out_dir: str, ops: Ops, tracer=None):
    """train + eval after ``setup``; returns (span per command, report) or None."""
    spans = {}
    for name in ("train", "eval"):
        ok, _, spans[name] = run_cli(command(name, cfg_path, out_dir), ops, tracer)
        if not ok:
            return None
    try:
        report = read_report(f"{out_dir}/eval_report.csv")
    except (OSError, ValueError, KeyError) as exc:
        ops.record(False, f"eval_report.csv unreadable: {exc}")
        return None
    check_report(report, ops)
    return spans, report


def explain(cfg_path, out_dir, pairs, top_k, ops: Ops, tracer=None) -> list:
    """One ``explain --machine`` call per pair; the span of each call, None if it failed."""
    spans = []
    for head, tail in pairs:
        argv = command("explain", cfg_path, out_dir, "--machine", head, tail)
        ok, stdout, span = run_cli(argv, ops, tracer)
        if ok:
            check_explain(stdout, top_k, ops)
        spans.append(span if ok else None)
    return spans
