#!/usr/bin/env python3
"""Smoke run: end-to-end pipeline on a 5% sample of an external benchmark
(FB15K-style train/valid/test splits) or, when none is available, on a
synthetic stand-in. Runs the joint model and the plain-translation ablation
and compares filtered Hits@10.

Point --data-dir (or the RPJE_FB15K_DIR environment variable) at a directory
containing train/valid/test files (.txt or .tsv, tab-separated h r t).
"""

import argparse
import csv
import os
import sys
import tempfile

import numpy as np

from rpje.cli import EXIT_OK, main as cli_main
from rpje.synthetic import ToyConfig, generate, write_dataset


def sample_external(source_dir, out_dir, fraction, seed):
    rng = np.random.default_rng(seed)

    def read(name):
        for candidate in (f"{name}.txt", f"{name}.tsv"):
            path = os.path.join(source_dir, candidate)
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    return [tuple(line.rstrip("\n").split("\t"))
                            for line in fh if line.strip()]
        raise FileNotFoundError(f"no {name} split under {source_dir}")

    train = read("train")
    keep = rng.random(len(train)) < fraction
    sampled = [t for t, k in zip(train, keep) if k]
    entities = {h for h, _, _ in sampled} | {t for _, _, t in sampled}
    relations = {r for _, r, _ in sampled}

    def restrict(rows):
        return [(h, r, t) for h, r, t in rows
                if h in entities and t in entities and r in relations]

    files = {}
    for name, rows in (("train", sampled), ("valid", restrict(read("valid"))),
                       ("test", restrict(read("test")))):
        path = os.path.join(out_dir, f"{name}.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            for h, r, t in rows:
                fh.write(f"{h}\t{r}\t{t}\n")
        files[name] = path
        print(f"{name}: {len(rows)} triples")
    return files


def hits10_from_report(report_path):
    with open(report_path, newline="", encoding="utf-8") as fh:
        for task, setting, metric, value in csv.reader(fh):
            if (task, setting, metric) == ("entity-combined", "filtered", "Hits@10"):
                return float(value)
    raise RuntimeError(f"entity-combined filtered Hits@10 missing in {report_path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", default=os.environ.get("RPJE_FB15K_DIR"))
    parser.add_argument("--rules", default=None,
                        help="mined rule file for the external dataset")
    parser.add_argument("--fraction", type=float, default=0.05)
    parser.add_argument("--workdir", default=None)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--epochs", type=int, default=100)
    parser.add_argument("--lr", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    workdir = args.workdir or tempfile.mkdtemp(prefix="rpje_smoke_")

    rules_flags = []
    if args.data_dir:
        print(f"sampling {args.fraction:.0%} of {args.data_dir}")
        files = sample_external(args.data_dir, workdir, args.fraction, args.seed)
        if args.rules:
            rules_flags = ["--rules", args.rules]
    else:
        print("no external benchmark found; using a synthetic stand-in")
        data = generate(ToyConfig(n_countries=20, n_persons=150, seed=13))
        files = write_dataset(data, workdir)
        rules_flags = ["--rules", files["rules"]]

    common = [
        "--train", files["train"], "--valid", files["valid"], "--test", files["test"],
        *rules_flags, "--dim", str(args.dim), "--lr", str(args.lr),
        "--epochs", str(args.epochs), "--seed", str(args.seed),
    ]
    hits = {}
    for variant, extra in (
        ("joint", []),
        ("ablation", ["--alpha1", "0", "--alpha2", "0"]),
    ):
        out = os.path.join(workdir, variant)
        flags = common + ["--out", out] + extra
        for command in ("encode-rules", "extract-paths", "train", "eval"):
            code = cli_main([command, *flags])
            if code != EXIT_OK:
                print(f"{variant} {command} failed with exit code {code}",
                      file=sys.stderr)
                return code
        hits[variant] = hits10_from_report(os.path.join(out, "eval_report.csv"))

    print(f"\njoint    filtered Hits@10 = {hits['joint']:.3f}")
    print(f"ablation filtered Hits@10 = {hits['ablation']:.3f}")
    ok = hits["joint"] >= hits["ablation"]
    print("joint >= ablation:", "yes" if ok else "NO")
    print(f"artifacts under {workdir}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
