"""Workload inputs for the RPJE pipeline benchmark.

Every workload is a scaled copy of the repository's rule-governed toy KG
(``rpje.synthetic``); ``hub-paths`` additionally rewires ``friend_of`` so a few
persons become hubs. The program only ever sees the TSV, rules and config
files that ``write_workload`` produces.

The graph and the training seed of each workload are fixed: the quality
metrics are gated per workload, and their spread over generator seeds (toy
MRR 0.41-0.62 over seeds 0-9, hub-paths Hits@10 0.003-0.014) is wider than any
usable bound. The run's ``--seed`` draws the ``explain`` queries instead.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from rpje.synthetic import ToyConfig, ToyData, generate, write_dataset

# ToyConfig() is the toy KG at x1 (212 entities), so toy-train is exactly the
# repository's toy run.
TOY_SEED = ToyConfig().seed

# configs/toy.cfg hyperparameters, restated so later edits to that file cannot
# silently change the benchmark.
TOY_HYPERPARAMETERS = {
    "dim": 32,
    "lr": 0.02,
    "epochs": 100,
    "n_batches": 100,
    "margin_triple": 1.0,
    "margin_path": 1.0,
    "margin_relpair": 1.0,
    "alpha_paths": 1.0,
    "alpha_relpairs": 3.0,
    "norm": "L1",
    "confidence_threshold": 0.7,
    "max_path_steps": 2,
    "path_cutoff": 0.01,
    "per_pair_cap": 200,
    "seed": 0,
    "top_k": 3,
}


@dataclass(frozen=True)
class Workload:
    name: str
    scale: int
    overrides: dict = field(default_factory=dict)
    hub_out_degree: int = 0  # >0: Zipf-weighted friend_of targets (hub-paths)
    test_size: int = 0  # >0: keep this many test triples; the rest join valid, still filtered


# Why each workload exists is recorded once, in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("toy-train", scale=1),
        Workload("wide-eval", scale=16, overrides={"epochs": 1}),
        Workload(
            "hub-paths",
            scale=8,
            overrides={"epochs": 1, "max_path_steps": 3},
            hub_out_degree=4,
            test_size=160,
        ),
    )
}


def toy_config(scale: int, hub_out_degree: int = 0) -> ToyConfig:
    base = ToyConfig()
    return ToyConfig(
        n_countries=base.n_countries * scale,
        n_persons=base.n_persons * scale,
        friends_per_person=0 if hub_out_degree else base.friends_per_person,
    )


def add_hub_friendships(data: ToyData, out_degree: int, seed: int) -> None:
    """Give every person ``out_degree`` friend_of edges to foreign persons.

    Targets are drawn with Zipf(1.0) weight over a seeded ranking of all
    persons, so low-rank persons collect hundreds of in-edges. Friendships
    still only cross country borders, as in the toy generator.
    """
    home = {h: t for h, r, t in data.train if r == "born_in_country"}
    persons = sorted(home, key=lambda p: int(p.split("_")[1]))
    rng = random.Random(seed)
    ranked = persons[:]
    rng.shuffle(ranked)
    weight = {p: 1.0 / (i + 1) for i, p in enumerate(ranked)}
    for p in persons:
        foreigners = [q for q in ranked if home[q] != home[p]]
        weights = [weight[q] for q in foreigners]
        chosen: list[str] = []
        while len(chosen) < min(out_degree, len(foreigners)):
            q = rng.choices(foreigners, weights)[0]
            if q not in chosen:
                chosen.append(q)
        data.train.extend((p, "friend_of", q) for q in chosen)


def make_data(workload: Workload) -> ToyData:
    data = generate(toy_config(workload.scale, workload.hub_out_degree))
    if workload.hub_out_degree:
        add_hub_friendships(data, workload.hub_out_degree, seed=TOY_SEED)
    if workload.test_size:
        data.valid += data.test[workload.test_size :]
        data.test = data.test[: workload.test_size]
    return data


def hyperparameters(workload: Workload) -> dict:
    return {**TOY_HYPERPARAMETERS, **workload.overrides}


def write_workload(workload: Workload, directory: str) -> tuple[ToyData, str]:
    """Write the dataset files and a run config; returns (data, config path)."""
    data = make_data(workload)
    files = write_dataset(data, directory)
    cfg_path = os.path.join(directory, "run.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(f"train_path = {files['train']}\n")
        fh.write(f"valid_path = {files['valid']}\n")
        fh.write(f"test_path = {files['test']}\n")
        fh.write(f"rules_path = {files['rules']}\n")
        for key, value in hyperparameters(workload).items():
            fh.write(f"{key} = {value}\n")
    return data, cfg_path


def explain_pairs(data: ToyData, seed: int, n: int) -> list[tuple[str, str]]:
    """``n`` (head, tail) queries, one drawn from each of ``n`` equal strata of the
    sorted test and train pairs, so every run asks about the same mix of entity types."""
    pairs = sorted({(h, t) for h, _, t in data.test} | {(h, t) for h, _, t in data.train})
    rng = random.Random(seed)
    step = len(pairs) / n
    return [pairs[int((i + rng.random()) * step)] for i in range(n)]
