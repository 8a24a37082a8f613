#!/usr/bin/env python3
"""Toy-KG experiments: joint model vs plain-translation ablation, and a
confidence-threshold sweep against planted noisy rules.

Writes datasets and artifacts under --workdir and prints filtered Hits@10
for every configuration.
"""

import argparse
import os
import tempfile

from rpje.evaluation import evaluate
from rpje.kg import KnowledgeGraph
from rpje.model import TrainingConfig
from rpje.paths import PathFinder, extract_paths
from rpje.rules import build_index, encode_rules, parse_rules
from rpje.synthetic import ToyConfig, generate, write_dataset
from rpje.training import train

TOY_TRAINING = dict(dim=32, epochs=100, lr=0.02)


def filtered_hits10(kg, emb, index, alpha):
    reports = evaluate(emb, PathFinder(kg, 2), index, kg, alpha_paths=alpha)
    rep = next(r for r in reports
               if r.task == "entity-combined" and r.setting == "filtered")
    return rep.hits[10]


def setup(workdir, noisy, seed):
    data = generate(ToyConfig(noisy_rules=noisy))
    files = write_dataset(data, workdir)
    kg = KnowledgeGraph.from_rows(data.train, data.valid, data.test)
    encoded = encode_rules(parse_rules(files["rules"], kg), kg)
    return kg, encoded


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default=None)
    parser.add_argument("--seed", type=int, default=0, help="training seed")
    args = parser.parse_args()
    workdir = args.workdir or tempfile.mkdtemp(prefix="rpje_toy_")

    print("== joint model vs plain-translation ablation ==")
    kg, encoded = setup(os.path.join(workdir, "clean"), noisy=False, seed=args.seed)
    path_set = extract_paths(kg, 2)
    index = build_index(encoded, 0.7)
    joint = train(kg, path_set, index, TrainingConfig(seed=args.seed, **TOY_TRAINING)).table
    h_joint = filtered_hits10(kg, joint, index, alpha=1.0)

    empty = build_index([], 0.7)
    ablation_cfg = TrainingConfig(seed=args.seed, alpha_paths=0.0,
                                  alpha_relpairs=0.0, **TOY_TRAINING)
    ablated = train(kg, path_set, empty, ablation_cfg).table
    h_ablation = filtered_hits10(kg, ablated, empty, alpha=0.0)
    print(f"joint:    filtered Hits@10 = {h_joint:.3f}")
    print(f"ablation: filtered Hits@10 = {h_ablation:.3f}")
    print(f"gap:      {100 * (h_joint - h_ablation):.1f} percentage points")

    print("\n== confidence-threshold sweep with planted noisy rules ==")
    kg, encoded = setup(os.path.join(workdir, "noisy"), noisy=True, seed=args.seed)
    path_set = extract_paths(kg, 2)
    for threshold in (0.0, 0.5, 0.7, 0.8, 0.9, 1.0):
        index = build_index(encoded, threshold)
        cfg = TrainingConfig(seed=args.seed, confidence_threshold=threshold,
                             **TOY_TRAINING)
        emb = train(kg, path_set, index, cfg).table
        hits = filtered_hits10(kg, emb, index, alpha=1.0)
        print(f"threshold {threshold:.1f}: filtered Hits@10 = {hits:.3f} "
              f"(rules kept: R1={index.n_r1} R2={index.n_r2})")
    print(f"\nartifacts under {workdir}")


if __name__ == "__main__":
    main()
