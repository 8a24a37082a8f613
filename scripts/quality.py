#!/usr/bin/env python3
"""The paper's quality claims, each as a run of the pipeline CLI.

    python3 scripts/quality.py
    python3 scripts/quality.py --data-dir FB15K --rules FB15K/rules.tsv --workdir runs

Every number comes from one route: ``encode-rules``, ``extract-paths``,
``train`` and ``eval`` through ``rpje.cli.main``, stdout captured, then the
entity-combined filtered Hits@10 of ``eval_report.csv``. On top of it:

- ``joint_vs_ablation``: the joint model against plain translation, both loss
  weights 0 (``--alpha1 0 --alpha2 0``). The rule file stays, but with both
  weights 0 no rule reaches training or entity ranking;
- ``threshold_sweep``: one run per rule confidence threshold;
- ``smoke_dataset``: a 5% sample of an external benchmark, or a synthetic
  stand-in, for joint against ablation.

``main`` runs all three: the toy KG, the sweep over ``SWEEP`` with planted
noisy rules, and the smoke run on ``--data-dir`` (default ``$RPJE_FB15K_DIR``)
or the stand-in. It samples ``--data-dir`` and parses ``--rules`` against the
sample before any training, so a bad file exits 2 at once with one line. An
external sample trains for 50 epochs, the toy graphs for 100, all at dim 32,
lr 0.02 and seed 0. A failed command ends the run with its exit code.
Acceptance criteria [7]-[9] in ``tests/test_acceptance.py`` call these same
functions. The rpje package is imported from the ``src/`` directory next to
this script.
"""

import argparse
import contextlib
import csv
import io
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from rpje.cli import EXIT_DATA, EXIT_OK, main as cli_main  # noqa: E402
from rpje.kg import DatasetError, load_dataset  # noqa: E402
from rpje.rules import RuleParseError, parse_rules  # noqa: E402
from rpje.synthetic import ToyConfig, generate, write_dataset  # noqa: E402

TOY_EPOCHS = 100
EXTERNAL_EPOCHS = 50
FRACTION = 0.05
SWEEP = (0.0, 0.5, 0.7, 0.8, 0.9, 1.0)
STAND_IN = ToyConfig(n_countries=20, n_persons=150, seed=13)
SPLITS = ("train", "valid", "test")


def filtered_hits10(files: dict, out, *flags: str, epochs: int = TOY_EPOCHS) -> float:
    """Entity-combined filtered Hits@10 of the pipeline on ``files`` (its splits
    and, if present, ``rules``), with its artifacts under ``out``."""
    argv = [*(f"--{name}={path}" for name, path in files.items()), f"--out={out}",
            f"--epochs={epochs}", "--dim=32", "--lr=0.02", "--seed=0", *flags]
    with contextlib.redirect_stdout(io.StringIO()):
        for command in ("encode-rules", "extract-paths", "train", "eval"):
            if (code := cli_main([command, *argv])) != EXIT_OK:
                sys.exit(code)  # the command printed its error
    with open(os.path.join(out, "eval_report.csv"), newline="", encoding="utf-8") as fh:
        report = {tuple(row[:3]): row[3] for row in csv.reader(fh)}
    return float(report["entity-combined", "filtered", "Hits@10"])


def joint_vs_ablation(files: dict, workdir, epochs: int = TOY_EPOCHS) -> tuple[float, float]:
    """Filtered Hits@10 of the joint model and of the plain-translation ablation."""
    return (filtered_hits10(files, os.path.join(workdir, "joint"), epochs=epochs),
            filtered_hits10(files, os.path.join(workdir, "ablation"), "--alpha1=0",
                            "--alpha2=0", epochs=epochs))


def threshold_sweep(files: dict, workdir, thresholds) -> dict[float, float]:
    """Filtered Hits@10 per rule confidence threshold."""
    return {threshold: filtered_hits10(files, os.path.join(workdir, f"threshold_{threshold}"),
                                       f"--confidence-threshold={threshold}")
            for threshold in thresholds}


def toy_dataset(directory, noisy: bool = False) -> dict:
    """The toy KG's files under ``directory``; ``noisy`` plants wrong rules."""
    return write_dataset(generate(ToyConfig(noisy_rules=noisy)), directory)


def sample_external(source_dir, out_dir) -> dict:
    """``FRACTION`` of the train rows of ``source_dir``'s splits (``.txt``, else
    ``.tsv``), drawn with seed 0, and the valid and test rows whose entities and
    relation survive, written by name under ``out_dir``. A malformed split
    raises ``DatasetError``."""
    txt = [os.path.join(source_dir, f"{name}.txt") for name in SPLITS]
    graph = load_dataset(*(p if os.path.exists(p) else p[:-3] + "tsv" for p in txt))
    train = graph.train_ids[np.random.default_rng(0).random(len(graph.train_ids)) < FRACTION]
    entity_kept = np.bincount(train[:, [0, 2]].ravel(), minlength=graph.n_entities) > 0
    relation_kept = np.bincount(train[:, 1], minlength=graph.n_base_relations) > 0
    os.makedirs(out_dir, exist_ok=True)
    files = {name: os.path.join(out_dir, f"{name}.tsv") for name in SPLITS}
    for name, ids in zip(SPLITS, (train, graph.valid_ids, graph.test_ids)):
        h, r, t = ids[entity_kept[ids[:, 0]] & relation_kept[ids[:, 1]] & entity_kept[ids[:, 2]]].T
        rows = [np.take(graph.entity_names, h), np.take(graph.relation_names, r),
                np.take(graph.entity_names, t)]
        np.savetxt(files[name], np.column_stack(rows), "%s", "\t", encoding="utf-8")
    return files


def smoke_dataset(directory, data_dir=None, rules=None) -> tuple[dict, int, str]:
    """The smoke run's files under ``directory``, its epochs and its source: a
    sample of ``data_dir``, with the rule file ``rules`` if given, or else the
    synthetic stand-in with its rules. The rules are parsed against the sample
    as ``encode-rules`` parses them, so a missing or malformed file raises
    ``OSError`` or ``RuleParseError`` here."""
    if not data_dir:
        return (write_dataset(generate(STAND_IN), directory), TOY_EPOCHS,
                "synthetic stand-in (no external benchmark present)")
    files = sample_external(data_dir, directory)
    if rules:
        parse_rules(rules, load_dataset(*(files[name] for name in SPLITS)))
        files["rules"] = rules
    return files, EXTERNAL_EPOCHS, f"5% sample of {data_dir}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", default=os.environ.get("RPJE_FB15K_DIR"),
                        help="splits to sample for the smoke run (default: $RPJE_FB15K_DIR)")
    parser.add_argument("--rules", help="rule file for --data-dir (needs --data-dir)")
    parser.add_argument("--workdir", help="datasets and artifacts (default: a temporary directory)")
    args = parser.parse_args()
    if args.rules and not args.data_dir:
        parser.error("--rules needs --data-dir")
    workdir = args.workdir or tempfile.mkdtemp(prefix="rpje_quality_")
    smoke_dir, toy_dir, noisy_dir = (os.path.join(workdir, d) for d in ("smoke", "toy", "noisy"))
    try:  # before any training, so a bad --data-dir or --rules fails at once
        smoke_files, smoke_epochs, source = smoke_dataset(smoke_dir, args.data_dir, args.rules)
    except (DatasetError, RuleParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA

    joint, ablation = joint_vs_ablation(toy_dataset(toy_dir), toy_dir)
    print("== joint model vs plain-translation ablation (toy KG) ==")
    print(f"joint:    filtered Hits@10 = {joint:.3f}\nablation: filtered Hits@10 = "
          f"{ablation:.3f}\ngap:      {100 * (joint - ablation):.1f} percentage points")
    print("\n== confidence-threshold sweep with planted noisy rules ==")
    for threshold, hits in threshold_sweep(toy_dataset(noisy_dir, True), noisy_dir, SWEEP).items():
        print(f"threshold {threshold:.1f}: filtered Hits@10 = {hits:.3f}")
    joint, ablation = joint_vs_ablation(smoke_files, smoke_dir, smoke_epochs)
    print(f"\n== smoke run: {source}, {smoke_epochs} epochs ==")
    print(f"joint:    filtered Hits@10 = {joint:.3f}\nablation: filtered Hits@10 = "
          f"{ablation:.3f}\njoint >= ablation: {'yes' if joint >= ablation else 'NO'}")
    print(f"\nartifacts under {workdir}")
    return EXIT_OK if joint >= ablation else 1


if __name__ == "__main__":
    sys.exit(main())
