"""Acceptance suite: one verdict line per criterion in the terminal summary.

Each test re-derives its expected values from an independent oracle (most are
shared with the unit-test modules) and records a single PASS/FAIL line via
``conftest.ACCEPTANCE_LINES``.
"""

import os
import sys
import time

import numpy as np
import pytest

from rpje.compose import Composer
from rpje.energy import NORMS
from rpje.evaluation import EntityScorer, metrics_from_ranks
from rpje.model import TrainingConfig, init_embeddings
from rpje.paths import extract_paths
from rpje.rules import ChainRule, build_index, encode_rule, parse_rules

from conftest import ACCEPTANCE_LINES, make_kg
from test_compose import confidences, oracle_compose
from oracles import PathSet, brute_rank
from test_evaluation import rank_one
from test_paths import frontier_conservation_holds
from test_rules import CONVERSION_MODES
from test_training import (
    path_case,
    relpair_case,
    run_transe_reduction,
    triple_case,
)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "scripts"))

import quality  # noqa: E402

EPS = 1e-6
RTOL = 1e-4


def record(number: int, title: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"[{number}] {title}: {verdict} ({detail})")
    assert ok, f"acceptance {number} ({title}): {detail}"


def test_acceptance_1_rule_conversion_modes(tmp_path):
    started = time.time()
    kg = make_kg([("a", "r1", "b"), ("a", "r2", "b"), ("a", "r3", "b")])
    failures = []
    for body, expected in CONVERSION_MODES:
        path = tmp_path / "rule.tsv"
        path.write_text(f"r3(a,b) <= {body}\t0.8\n")
        chain = encode_rule(parse_rules(path, kg)[0], kg)
        want = tuple(kg.relation_id(name) for name in expected)
        if chain is None or chain.body != want or chain.head != kg.relation_id("r3"):
            failures.append(body)
    record(
        1,
        "length-2 rule conversion modes",
        not failures,
        f"{8 - len(failures)}/8 bodies encode to the expected chains, "
        f"{time.time() - started:.1f}s",
    )


def test_acceptance_2_composition_oracle():
    started = time.time()
    rng = np.random.default_rng(2024)
    checked, mismatches = 0, 0
    for _ in range(1000):
        n_rel = int(rng.integers(2, 31))
        rules = [
            ChainRule(
                head=int(rng.integers(n_rel)),
                body=(int(rng.integers(n_rel)), int(rng.integers(n_rel))),
                confidence=float(rng.random()),
            )
            for _ in range(int(rng.integers(0, 61)))
        ]
        index = build_index(rules, 0.0)
        seq = tuple(int(rng.integers(n_rel)) for _ in range(int(rng.integers(2, 4))))
        cr = Composer(index).compose(seq)
        residual, rule_confidences = oracle_compose(seq, index)
        agrees = (
            cr.residual == residual
            and confidences(cr) == rule_confidences
            and len(cr.applied_rules) == len(seq) - len(cr.residual)
        )
        checked += 1
        mismatches += not agrees
    record(
        2,
        "composition matches independent leftmost-first oracle",
        mismatches == 0,
        f"{checked} random rule sets, {mismatches} mismatches, "
        f"{time.time() - started:.1f}s",
    )


def test_acceptance_3_pcra_conservation():
    started = time.time()
    rng = np.random.default_rng(3)
    bad_graphs = 0
    for _ in range(200):
        n_ent = int(rng.integers(3, 51))
        names = [f"n{i}" for i in range(n_ent)]
        n_edges = int(rng.integers(1, 40))
        edges = [
            (
                names[int(rng.integers(n_ent))],
                f"r{int(rng.integers(3))}",
                names[int(rng.integers(n_ent))],
            )
            for _ in range(n_edges)
        ]
        if not frontier_conservation_holds(make_kg(edges)):
            bad_graphs += 1

    # branching toy: a -r-> {b1, b2}, only b1 continues; resource halves exactly
    kg = make_kg([("a", "r", "b1"), ("a", "r", "b2"), ("b1", "s", "c"), ("a", "q", "c")])
    ps = extract_paths(kg, max_steps=2)
    reliabilities = {
        p.relations: p.reliability
        for p in PathSet.of(ps).paths_between(kg.entity_id("a"), kg.entity_id("c"))
    }
    branch_exact = reliabilities[(kg.relation_id("r"), kg.relation_id("s"))] == 0.5
    record(
        3,
        "path-reliability resource conservation",
        bad_graphs == 0 and branch_exact,
        f"200 random graphs, {bad_graphs} violations; branching example "
        f"reliability == 0.5 exactly: {branch_exact}; {time.time() - started:.1f}s",
    )


def _fd_count(emb, loss_fn, dense, rng):
    """Count coordinate-level agreements between analytic subgradients and
    central finite differences."""
    dense_e, dense_r = dense
    checked, failed = 0, 0
    for arr, grad in ((emb.entities, dense_e), (emb.relations, dense_r)):
        rows = np.nonzero(np.abs(grad).sum(axis=1))[0]
        for i in rows:
            for k in rng.choice(arr.shape[1], size=min(3, arr.shape[1]), replace=False):
                orig = arr[i, k]
                arr[i, k] = orig + EPS
                up = loss_fn()
                arr[i, k] = orig - EPS
                down = loss_fn()
                arr[i, k] = orig
                fd = (up - down) / (2 * EPS)
                checked += 1
                if abs(grad[i, k] - fd) > RTOL * abs(fd) + 1e-7:
                    failed += 1
    return checked, failed


def test_acceptance_4_gradient_checks():
    """Batches of array hinges: active ones, inverse relation ids and an inactive
    hinge sharing their rows, under both norms."""
    started = time.time()
    rng = np.random.default_rng(4)
    totals = {}
    for name, case in (("triple", triple_case), ("path", path_case), ("relpair", relpair_case)):
        checked = failed = wrong_activity = 0
        seed = 0
        while checked < 100:
            for norm in NORMS:
                emb, term, inactive = case(1000 + 17 * seed, norm)
                loss, dense = term()
                wrong_activity += any((loss[i] == 0.0) != (i in inactive) for i in range(len(loss)))
                c, f = _fd_count(emb, lambda: term()[0].sum(), dense, rng)
                checked += c
                failed += f
            seed += 1
        totals[name] = (checked, failed + wrong_activity)
    ok = all(f == 0 for _, f in totals.values())
    detail = "; ".join(f"{k}: {c} points, {f} failures" for k, (c, f) in totals.items())
    record(4, "analytic gradients match finite differences", ok,
           f"{detail}; {time.time() - started:.1f}s")


def test_acceptance_5_transe_reduction():
    started = time.time()
    emb, oracle_entities, oracle_relations = run_transe_reduction(10)
    diff = max(
        np.abs(emb.entities - oracle_entities).max(),
        np.abs(emb.relations - oracle_relations).max(),
    )
    record(
        5,
        "alpha=0 training equals standalone TransE oracle",
        diff <= 1e-9,
        f"10 batches, max coordinate difference {diff:.2e}; "
        f"{time.time() - started:.1f}s",
    )


def test_acceptance_6_metric_correctness():
    started = time.time()
    mr, mrr, hits = metrics_from_ranks([1, 2, 4])
    metrics_ok = (
        mr == pytest.approx(7 / 3)
        and mrr == pytest.approx(0.5833333333333333)
        and hits[1] == pytest.approx(1 / 3)
        and hits[10] == 1.0
    )
    kg = make_kg(
        train=[
            ("a", "r", "b"), ("b", "s", "c"), ("a", "q", "c"),
            ("d", "r", "b"), ("d", "q", "c"), ("e", "r", "b"),
        ],
        valid=[("e", "q", "c")],
        test=[("a", "q", "c"), ("d", "q", "c")],
    )
    emb = init_embeddings(kg, TrainingConfig(dim=8, seed=5))
    scorer = EntityScorer(emb, "L1")
    rank_mismatches = 0
    filtered_worse = 0
    for triple in kg.test + kg.train:
        for slot in ("head", "tail"):
            ranks = dict(zip(("raw", "filtered"), rank_one(scorer, kg, triple, slot)))
            for setting, got in ranks.items():
                if got != brute_rank(scorer, kg, triple, slot, setting):
                    rank_mismatches += 1
            if ranks["filtered"] > ranks["raw"]:
                filtered_worse += 1
    ok = metrics_ok and rank_mismatches == 0 and filtered_worse == 0
    record(
        6,
        "evaluator matches brute-force ranking and hand metrics",
        ok,
        f"hand metrics ok: {metrics_ok}; rank mismatches: {rank_mismatches}; "
        f"filtered>raw cases: {filtered_worse}; {time.time() - started:.1f}s",
    )


def test_acceptance_7_toy_reproduction(tmp_path):
    started = time.time()
    hits_joint, hits_ablation = quality.joint_vs_ablation(quality.toy_dataset(tmp_path), tmp_path)
    elapsed = time.time() - started
    gap = 100 * (hits_joint - hits_ablation)
    ok = hits_joint >= 0.80 and gap >= 10.0 and elapsed < 300
    record(
        7,
        "toy KG: joint model beats plain-translation ablation",
        ok,
        f"filtered Hits@10 {hits_joint:.3f} (need >= 0.80) vs ablation "
        f"{hits_ablation:.3f}, gap {gap:.1f}pp (need >= 10); {elapsed:.0f}s",
    )


def test_acceptance_8_confidence_threshold_sweep(tmp_path):
    started = time.time()
    files = quality.toy_dataset(tmp_path, noisy=True)
    hits = quality.threshold_sweep(files, tmp_path, (0.0, 0.7, 0.8, 1.0))
    elapsed = time.time() - started
    ok = (
        all(hits[mid] > hits[0.0] and hits[mid] > hits[1.0] for mid in (0.7, 0.8))
        and elapsed < 900
    )
    summary = ", ".join(f"{thr}: {value:.3f}" for thr, value in hits.items())
    record(
        8,
        "mid confidence thresholds beat 0.0 and 1.0 with noisy rules",
        ok,
        f"filtered Hits@10 by threshold {{{summary}}}; {elapsed:.0f}s",
    )


def test_acceptance_9_smoke_run(tmp_path):
    started = time.time()
    files, epochs, source = quality.smoke_dataset(tmp_path, os.environ.get("RPJE_FB15K_DIR"))
    hits_joint, hits_ablation = quality.joint_vs_ablation(files, tmp_path, epochs)
    elapsed = time.time() - started
    ok = hits_joint >= hits_ablation and elapsed < 1800
    record(
        9,
        "smoke run: full pipeline, joint >= plain-translation ablation",
        ok,
        f"{source}; filtered Hits@10 joint {hits_joint:.3f} vs ablation "
        f"{hits_ablation:.3f}; {elapsed:.0f}s",
    )
