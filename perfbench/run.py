#!/usr/bin/env python3
"""RPJE pipeline benchmark: encode-rules -> extract-paths -> train -> eval -> explain.

Run from the repository root:

    python3 perfbench/run.py --workload toy-train --seed 0 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one process each

Each run generates its workload, then repeats passes of the real pipeline
through ``rpje.cli.main`` in fresh output directories until ``--seconds`` is
spent (at least two passes, whose quality metrics must be identical);
``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json. With
``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a workload record (machine, versions,
graph properties, command shares) is written to ``.bench_out/``.
"""

import os

# One process, one thread: pin the BLAS pools before numpy is imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

EXPLAIN_QUERIES = 100  # per run; p90 then has 10 queries beyond it
EXPLAIN_PER_PASS = EXPLAIN_QUERIES // 2
MIN_PASSES = 2
MAX_PASSES = 8
EXTRA_SETUPS_MAX = 60
EXTRA_SETUP_SHARE = 0.1  # of --seconds, spent on extra cold setups for setup_s
HARD_LIMIT_S = 150.0  # no pass may start that could end a run past 180 s
PIPELINE = ("encode-rules", "extract-paths", "train", "eval")
LAYERS = ("kg", "rules", "paths", "compose", "model", "training", "evaluation", "cli")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_program() -> None:
    """Import rpje from this checkout's src/, refusing any other installation."""
    if not os.path.isfile(os.path.join(SRC, "rpje", "cli.py")):
        sys.exit(f"error: no rpje sources under {SRC}")
    sys.path.insert(0, SRC)
    import rpje

    if os.path.dirname(os.path.abspath(rpje.__file__)) != os.path.join(SRC, "rpje"):
        sys.exit(f"error: imported rpje from {rpje.__file__}, not from {SRC}")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def machine() -> dict:
    import numpy

    model = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python_threads": threading.active_count(),
    }


def properties(data_dir: str, out_dir: str, hp: dict) -> dict:
    """Graph, path and rule properties the per-layer claims depend on."""
    from rpje import kg, paths, rules

    graph = kg.load_dataset(*(os.path.join(data_dir, f"{s}.tsv") for s in ("train", "valid", "test")))
    degrees = sorted((len(graph.adjacency(e)) for e in range(graph.n_entities)), reverse=True)
    ps = paths.load_path_set(os.path.join(out_dir, "paths.bin"))
    stats = rules.ParseStats()
    encoded = rules.encode_rules(rules.parse_rules(os.path.join(data_dir, "rules.tsv"), graph, stats), graph, stats)
    index = rules.build_index(encoded, hp["confidence_threshold"], stats)
    return {
        "entities": graph.n_entities,
        "train_triples": len(graph.train),
        "test_triples": len(graph.test),
        "top5_degree": degrees[:5],
        "path_pairs": len(ps.pairs),
        "paths": ps.n_paths,
        "paths_per_pair": ps.n_paths / max(1, len(ps.pairs)),
        "rules_kept_r1": index.n_r1,
        "rules_kept_r2": index.n_r2,
        "rules_rejected": stats.rejected_not_chainable + stats.dropped_unknown_relation,
    }


def run_passes(cfg_path, work, pairs, hp, seconds, tracer, ops):
    """Extra cold setups (untraced runs only), then pipeline passes until time is spent.

    Returns (extra setups, passes, pass-0 eval report, workload properties);
    commands are recorded as (start, end) spans for ``compensate``.
    """
    import pipeline

    start = time.perf_counter()
    setups = []
    while tracer is None and (
        not setups or (time.perf_counter() - start < EXTRA_SETUP_SHARE * seconds and len(setups) < EXTRA_SETUPS_MAX)
    ):
        out_dir = os.path.join(work, f"setup{len(setups)}")
        spans = pipeline.setup(cfg_path, out_dir, ops)
        shutil.rmtree(out_dir, ignore_errors=True)
        if spans is None:
            return setups, [], None, None
        setups.append(spans)

    passes, reference, props = [], None, None
    while len(passes) < MAX_PASSES:
        n = len(passes)
        if passes:
            longest = max(p["wall"] for p in passes)
            budget = seconds if n >= MIN_PASSES else HARD_LIMIT_S
            if time.perf_counter() - start + longest > budget:
                break
        traced = tracer is not None and n % 2 == 1
        # Passes take turns over the two halves of the queries; a traced pass
        # repeats the queries of the untraced pass before it.
        half = (n // 2 if tracer is not None else n) % 2
        queries = range(half * EXPLAIN_PER_PASS, (half + 1) * EXPLAIN_PER_PASS)
        t = tracer if traced else None
        out_dir = os.path.join(work, f"pass{n}")
        began = time.perf_counter()
        with tracer.installed() if traced else contextlib.nullcontext():
            setup_spans = pipeline.setup(cfg_path, out_dir, ops, t)
            result = setup_spans and pipeline.train_eval(cfg_path, out_dir, ops, t)
            if result:
                explain_spans = pipeline.explain(cfg_path, out_dir, [pairs[i] for i in queries], hp["top_k"], ops, t)
        if not result:
            break
        if reference is None:
            reference = result[1]
            props = properties(os.path.join(work, "data"), out_dir, hp)
        else:
            ops.record(result[1] == reference, f"pass {n}: eval_report.csv differs from pass 0")
        explained = [(i, span) for i, span in zip(queries, explain_spans) if span is not None]
        passes.append(
            {"traced": traced, **setup_spans, **result[0], "explain": explained, "wall": time.perf_counter() - began}
        )
        shutil.rmtree(out_dir, ignore_errors=True)
    return setups, passes, reference, props


def compensate(meter, setups, passes):
    """Replace every span by its speed-compensated seconds (see speed.py)."""
    setups = [sum(meter.seconds(s) for s in spans.values()) for spans in setups]
    for p in passes:
        p["raw"] = {c: p[c][1] - p[c][0] for c in PIPELINE}
        for c in PIPELINE:
            p[c] = meter.seconds(p[c])
        p["explain"] = [(i, meter.seconds(span)) for i, span in p["explain"]]
    return setups, passes


def median_of(passes, command: str) -> float:
    return statistics.median(p[command] for p in passes)


def end_to_end(setups, passes, reference, props, hp) -> dict:
    """Medians over the run's samples of speed-compensated seconds."""
    med = statistics.median
    setup = med(setups + [p["encode-rules"] + p["extract-paths"] for p in passes])
    per_query = {}
    for p in passes:
        for i, seconds in p["explain"]:
            per_query.setdefault(i, []).append(seconds)
    latencies = sorted(med(v) for v in per_query.values())
    train, evaluate = median_of(passes, "train"), median_of(passes, "eval")
    return {
        "setup_s": setup,
        "train_triples_per_s": props["train_triples"] * hp["epochs"] / train,
        "eval_triples_per_s": props["test_triples"] / evaluate,
        "explain_p50_ms": 1e3 * percentile(latencies, 50),
        "explain_p90_ms": 1e3 * percentile(latencies, 90),
        "pipeline_s": med(sum(p[c] for c in PIPELINE) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "filtered_hits10": reference[("entity-combined", "filtered", "Hits@10")],
        "filtered_mrr": reference[("entity-combined", "filtered", "MRR")],
    }


def per_layer(tracer, passes, props, hp) -> dict:
    """Per-layer figures, each per traced pass; ``.s`` are self seconds."""
    from tracing import TARGETS

    med = statistics.median
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    k = len(traced)
    out = {}
    for name in {t[0] for t in TARGETS}:
        out[f"{name}.s"] = tracer.self_s[name] / k
        out[f"{name}.calls"] = tracer.calls[name] / k
    for name in ("rank_entities", "rank_relations"):
        samples = tracer.samples[f"evaluation.{name}"]
        out[f"evaluation.{name}.us_p50"] = 1e6 * percentile(samples, 50)
        out[f"evaluation.{name}.us_p90"] = 1e6 * percentile(samples, 90)

    counts = tracer.counts
    composed = max(1, tracer.calls["compose.Composer.compose"])
    out["compose.memo_hit_frac"] = counts["compose.memo_hits"] / composed
    out["compose.fully_composed_frac"] = counts["compose.fully_composed"] / composed
    sampled = max(1, tracer.calls["training.NegativeSampler"])
    out["training.NegativeSampler.giveup_frac"] = counts["training.NegativeSampler.giveups"] / sampled
    out["paths.save_path_set.bytes"] = counts["paths.save_path_set.bytes"] / k
    work = props["train_triples"] * hp["epochs"]
    out["training.us_per_triple_epoch"] = 1e6 * median_of(plain, "train") / work
    _, total, triple, path, relpair = tracer.last_history[-1]
    out["training.final_loss.triple"] = triple
    out["training.final_loss.path"] = path
    out["training.final_loss.relpair"] = relpair
    out["training.final_loss.path_share"] = path / total if total else 0.0

    out["paths.pairs.count"] = props["path_pairs"]
    out["paths.paths.count"] = props["paths"]
    out["paths.paths_per_pair"] = props["paths_per_pair"]
    out["rules.kept_r1.count"] = props["rules_kept_r1"]
    out["rules.kept_r2.count"] = props["rules_kept_r2"]
    out["rules.rejected.count"] = props["rules_rejected"]

    pipeline_plain = sum(median_of(plain, c) for c in PIPELINE)
    for cmd in PIPELINE:
        out[f"cli.{cmd}.share"] = median_of(plain, cmd) / pipeline_plain
        out[f"cli.{cmd}.trace_overhead_frac"] = median_of(traced, cmd) / median_of(plain, cmd) - 1
    explain_traced = med(s for p in traced for _, s in p["explain"])
    explain_plain = med(s for p in plain for _, s in p["explain"])
    out["cli.explain.trace_overhead_frac"] = explain_traced / explain_plain - 1
    for cmd in PIPELINE + ("explain",):
        out[f"cli.{cmd}.s"] = tracer.incl_s[f"cli.{cmd}"] / k

    # Share of the traced pipeline (setup + train + eval) spent in each module's own code.
    roots = {f"cli.{c}" for c in PIPELINE}
    pipeline_traced = sum(tracer.incl_s[r] for r in roots)
    for layer in LAYERS:
        own = sum(s for (root, name), s in tracer.self_by_root.items() if root in roots and name.split(".")[0] == layer)
        out[f"{layer}.pipeline_share"] = own / pipeline_traced
    return out


def run_workload(name: str, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    import_program()
    import pipeline
    import workloads
    from speed import SpeedMeter
    from tracing import Tracer

    workload = workloads.WORKLOADS[name]
    hp = workloads.hyperparameters(workload)
    out_root = os.path.join(ROOT, ".bench_out")
    work = os.path.join(out_root, f"{name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    ops = pipeline.Ops()
    tracer = Tracer() if trace else None
    data, cfg_path = workloads.write_workload(workload, os.path.join(work, "data"))
    pairs = workloads.explain_pairs(data, seed, EXPLAIN_QUERIES)
    try:
        with SpeedMeter() as meter:
            setups, passes, reference, props = run_passes(cfg_path, work, pairs, hp, seconds, tracer, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups, passes = compensate(meter, setups, passes)
    if len(passes) < MIN_PASSES:
        ops.failures.append(f"only {len(passes)} complete pass(es); {MIN_PASSES} are needed")
    correct = not ops.failures

    wanted = spec["per_layer" if trace else "end_to_end"]
    values = {}
    if correct:
        values = per_layer(tracer, passes, props, hp) if trace else end_to_end(setups, passes, reference, props, hp)
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise RuntimeError(f"benchmark computes no value for {missing}")
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}

    plain = [p for p in passes if not p["traced"]]
    record = {
        "workload": name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(),
        "hyperparameters": hp,
        "properties": props,
        "passes": len(passes),
        "extra_setups": len(setups),
        "explain_calls": sum(len(p["explain"]) for p in passes),
        "median_s": {c: median_of(plain, c) for c in PIPELINE} if plain else {},
        "pass_s": [{c: p[c] for c in PIPELINE} for p in passes],
        "median_wall_s": {c: statistics.median(p["raw"][c] for p in plain) for c in PIPELINE} if plain else {},
        "probes": len(meter.starts),
        "op_fail_frac": len(ops.failures) / max(1, ops.attempted),
        "failures": ops.failures[:20],
        "missing_trace_targets": tracer.missing if tracer else [],
        "metrics": {k: m["value"] for k, m in metrics.items()},
    }
    if plain:
        total = sum(record["median_s"].values())
        record["command_share_of_pipeline"] = {c: v / total for c, v in record["median_s"].items()}
    with open(os.path.join(out_root, f"{name}-seed{seed}-trace{int(trace)}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    for key, m in metrics.items():
        print(f"{name} {key:<40} {m['value']:.6g} {m['unit']}")
    print(f"{name} {'op_fail_frac':<40} {record['op_fail_frac']:.6g} fraction of {ops.attempted} operations")
    print(f"{name} passes: {len(passes)}, explain calls: {record['explain_calls']} over {EXPLAIN_QUERIES} queries")
    for failure in ops.failures[:20]:
        print(f"{name} FAILED: {failure}")
    print("record " + json.dumps(record, default=str))
    return {"correct": correct, "attempted": ops.attempted, "failed": len(ops.failures), "metrics": metrics}


def run_all(args, spec: dict) -> dict:
    """Each workload in its own process, one after another; results are combined."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=180)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: workload {w['name']} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{w['name']}.{key}"] = m
    return combined


def main() -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0, help="draws the explain queries")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        result = run_all(args, spec)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
