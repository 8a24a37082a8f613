"""Joint margin-based training: triple, path and relation-pair losses under SGD.

Per positive triple (h,r,t) the batch loss is
    L1(h,r,t) + alpha_1 * sum_{p in P(h,t)} L2(p,r) + alpha_2 * sum_{r_e in D(r)} L3(r,r_e)
with one negative per corruption slot (h', t', r') for L1 and one negative
relation per L2/L3 term. Subgradients are accumulated sparsely and applied once
per batch; entity vectors are then projected back to the unit ball.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compose import Composer
from .energy import path_hinge, relpair_hinge, triple_hinge
from .kg import KnowledgeGraph, Triple
from .model import EmbeddingTable, TrainingConfig, init_embeddings
from .paths import PathSet
from .rules import RuleIndex


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


class NegativeSampler:
    """Uniform corruption sampling that never emits a triple present in train."""

    def __init__(self, kg: KnowledgeGraph, seed: int = 0, max_attempts: int = 100):
        self.kg = kg
        self.rng = np.random.default_rng(seed)
        self.max_attempts = max_attempts

    def corrupt_head(self, triple: Triple) -> Triple | None:
        h, r, t = triple
        for _ in range(self.max_attempts):
            h2 = int(self.rng.integers(self.kg.n_entities))
            if not self.kg.in_train((h2, r, t)):
                return (h2, r, t)
        return None

    def corrupt_tail(self, triple: Triple) -> Triple | None:
        h, r, t = triple
        for _ in range(self.max_attempts):
            t2 = int(self.rng.integers(self.kg.n_entities))
            if not self.kg.in_train((h, r, t2)):
                return (h, r, t2)
        return None

    def corrupt_relation(self, triple: Triple) -> Triple | None:
        h, r, t = triple
        for _ in range(self.max_attempts):
            r2 = int(self.rng.integers(self.kg.n_base_relations))
            if not self.kg.in_train((h, r2, t)):
                return (h, r2, t)
        return None

    def relation_for_pair(self, h: int, t: int) -> int | None:
        """A base relation r' with (h, r', t) absent from train."""
        neg = self.corrupt_relation((h, -1, t))
        return neg[1] if neg is not None else None

    def relation_not_deduced(self, r: int, deduced: frozenset[int]) -> int | None:
        for _ in range(self.max_attempts):
            r2 = int(self.rng.integers(self.kg.n_base_relations))
            if r2 != r and r2 not in deduced:
                return r2
        return None


@dataclass
class GradientUpdate:
    """Sparse per-batch subgradient accumulator."""

    entity: dict[int, np.ndarray] = field(default_factory=dict)
    relation: dict[int, np.ndarray] = field(default_factory=dict)

    def add_entity(self, e: int, g: np.ndarray) -> None:
        acc = self.entity.get(e)
        if acc is None:
            self.entity[e] = g.copy()
        else:
            acc += g

    def add_relation(self, r: int, g: np.ndarray, n_base: int) -> None:
        # Inverse relations are tied to the negated base vector.
        if r >= n_base:
            r, g = r - n_base, -g
        acc = self.relation.get(r)
        if acc is None:
            self.relation[r] = g.copy()
        else:
            acc += g

    def apply(self, emb: EmbeddingTable, lr: float) -> None:
        for e, g in self.entity.items():
            emb.entities[e] -= lr * g
        for r, g in self.relation.items():
            emb.relations[r] -= lr * g


@dataclass
class LossParts:
    triple: float = 0.0
    path: float = 0.0
    relpair: float = 0.0

    @property
    def total(self) -> float:
        return self.triple + self.path + self.relpair


def loss_and_gradients(
    batch: list[Triple],
    kg: KnowledgeGraph,
    ps: PathSet,
    composer: Composer,
    emb: EmbeddingTable,
    cfg: TrainingConfig,
    sampler: NegativeSampler,
) -> tuple[LossParts, GradientUpdate]:
    grads = GradientUpdate()
    parts = LossParts()
    use_paths = cfg.alpha_paths > 0 and not cfg.disable_paths_and_r2
    use_relpairs = cfg.alpha_relpairs > 0 and not cfg.disable_r1
    index = composer.index
    for triple in batch:
        h, r, t = triple
        for negative in (
            sampler.corrupt_head(triple),
            sampler.corrupt_tail(triple),
            sampler.corrupt_relation(triple),
        ):
            if negative is not None:
                parts.triple += triple_hinge(
                    emb, triple, negative, cfg.margin_triple, cfg.norm, grads
                )
        if use_paths:
            for path in ps.paths_between(h, t):
                r_neg = sampler.relation_for_pair(h, t)
                if r_neg is None:
                    continue
                cr = composer.compose(path.relations)
                parts.path += path_hinge(
                    emb, path, cr, r, r_neg, cfg.margin_path, cfg.norm, grads, cfg.alpha_paths
                )
        if use_relpairs:
            deduced = index.deduced_from(r)
            if deduced:
                excluded = frozenset(d for d, _ in deduced)
                for r_e, beta in deduced:
                    r_neg = sampler.relation_not_deduced(r, excluded)
                    if r_neg is None:
                        continue
                    parts.relpair += relpair_hinge(
                        emb, r, r_e, beta, r_neg, cfg.margin_relpair, cfg.norm, grads,
                        cfg.alpha_relpairs,
                    )
    return parts, grads


def project_entities(emb: EmbeddingTable) -> None:
    """Scale entity vectors with norm > 1 back onto the unit sphere."""
    norms = np.linalg.norm(emb.entities, axis=1)
    mask = norms > 1.0
    if mask.any():
        emb.entities[mask] /= norms[mask, None]


@dataclass
class TrainResult:
    table: EmbeddingTable
    # rows of (epoch, total, triple part, path part, relpair part)
    history: list[tuple[int, float, float, float, float]]


def train(
    kg: KnowledgeGraph,
    ps: PathSet,
    index: RuleIndex,
    cfg: TrainingConfig,
    emb: EmbeddingTable | None = None,
    sampler: NegativeSampler | None = None,
    log_every: int | None = None,
) -> TrainResult:
    cfg.validate()
    if emb is None:
        emb = init_embeddings(kg, cfg)
    if sampler is None:
        sampler = NegativeSampler(kg, seed=cfg.seed + 1)
    shuffle_rng = np.random.default_rng(cfg.seed + 2)
    composer = Composer(index)
    triples = np.array(kg.train, dtype=np.int64)
    history: list[tuple[int, float, float, float, float]] = []
    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(len(triples))
        totals = LossParts()
        for chunk in np.array_split(perm, cfg.n_batches):
            if len(chunk) == 0:
                continue
            batch = [tuple(map(int, triples[i])) for i in chunk]
            parts, grads = loss_and_gradients(batch, kg, ps, composer, emb, cfg, sampler)
            grads.apply(emb, cfg.lr)
            project_entities(emb)
            totals.triple += parts.triple
            totals.path += parts.path
            totals.relpair += parts.relpair
        if not np.isfinite(totals.total):
            raise DivergenceError(f"non-finite loss at epoch {epoch}: {totals.total}")
        history.append((epoch, totals.total, totals.triple, totals.path, totals.relpair))
        if log_every and (epoch + 1) % log_every == 0:
            print(
                f"epoch {epoch + 1}/{cfg.epochs} loss={totals.total:.4f} "
                f"(triple={totals.triple:.4f} path={totals.path:.4f} "
                f"relpair={totals.relpair:.4f})"
            )
    return TrainResult(table=emb, history=history)


def write_loss_history(history, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,total,triple,path,relpair\n")
        for epoch, total, l1, l2, l3 in history:
            fh.write(f"{epoch},{total:.10g},{l1:.10g},{l2:.10g},{l3:.10g}\n")
