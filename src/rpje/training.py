"""Joint margin-based training: triple, path and relation-pair losses under SGD.

Per positive triple (h,r,t) the batch loss is
    L1(h,r,t) + alpha_1 * sum_{p in P(h,t)} L2(p,r) + alpha_2 * sum_{r_e in D(r)} L3(r,r_e)
with one negative per corruption slot (h', t', r') for L1 and one negative
relation per L2/L3 term. Every hinge of a batch sees the embeddings as they
were at its start; the summed subgradients are applied once per batch, and
entity vectors are then projected back to the unit ball. The first batch of a
run projects every row; each later one only the rows it updated and the rows
the previous batch scaled, which gives the full pass's result bit for bit.

A batch runs in two parts. One Python pass over its triples does the integer
work: negative draws and the id lists of every hinge. A path hinge names its
path's position in the ``PathStore``; the store is composed once per run
(``Composer.compile``), and each batch gathers its residuals and weights from
that by position.
Then each loss term is one gather of embedding rows, one vectorized hinge and
the subgradient rows of its active hinges (``energy``), and one scatter sums
those rows per entity and base relation.

The sampler's stream is drawn in this order, triple by triple: head, tail and
relation corruption; one relation per stored path of (h, t), in ``PathStore``
order; one relation per (r_e, beta) of D(r). A give-up skips its hinge. The
scatter adds each row's subgradients in the order a per-hinge loop would (the
triple's L1 hinges, its L2 hinges, its L3 hinges, then the next triple), and
losses are summed left to right, so the result is bit for bit that of the
per-hinge loop kept in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compose import CompiledPaths, Composer
from .energy import Grad, fold_inverse, path_hinge, relpair_hinge, triple_hinge
from .kg import KnowledgeGraph, Triple
from .model import EmbeddingTable, TrainingConfig, init_embeddings
from .paths import PathStore
from .rules import RuleIndex


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


class NegativeSampler:
    """Uniform corruption sampling that never emits a triple present in train.

    Each draw is the value a scalar ``default_rng(seed).integers(n)`` call would
    return at that point of the stream. ``uint32`` words are prefetched in blocks
    and mapped by numpy's 32-bit Lemire rule: m = u * n, drawn again while
    (m mod 2^32) < (2^32 - n) mod n, value m >> 32; n = 1 takes no word. A draw
    that names a train triple is retried, ``max_attempts`` draws in all before
    the sampler gives up and returns None. Triples carry base relation ids, as
    in ``kg.train``.
    """

    BLOCK = 1024  # uint32 words per prefetch

    def __init__(self, kg: KnowledgeGraph, seed: int = 0, max_attempts: int = 100):
        self._rng = np.random.default_rng(seed)  # read only through the prefetched blocks
        self.max_attempts = max_attempts
        self._n_ent, self._n_rel = kg.n_entities, kg.n_base_relations
        # train membership by the integer key (h * n_rel + r) * n_ent + t
        self._train = {(h * self._n_rel + r) * self._n_ent + t for h, r, t in kg.train}
        self._words = np.empty(0, dtype=np.uint32)
        self._pos = 0
        self._values: dict[int, list[int]] = {}

    def draw(self, n: int) -> int:
        """One uniform draw from range(n), n <= 2^32."""
        if n == 1:
            return 0
        while True:
            if self._pos == len(self._words):
                self._words = self._rng.integers(0, 2**32, size=self.BLOCK, dtype=np.uint32)
                self._pos = 0
                self._values = {}
            values = self._values.get(n)
            if values is None:
                # per word: the value it gives in range(n), or -1 where Lemire draws again
                m = self._words.astype(np.uint64) * np.uint64(n)
                v = (m >> np.uint64(32)).astype(np.int64)
                v[(m & np.uint64(0xFFFFFFFF)) < (2**32 - n) % n] = -1
                values = self._values[n] = v.tolist()
            value = values[self._pos]
            self._pos += 1
            if value >= 0:
                return value

    def _free(self, n: int, key: int, stride: int) -> int | None:
        """The first draw x in range(n) whose train key ``key + x * stride`` is free."""
        for _ in range(self.max_attempts):
            x = self.draw(n)
            if key + x * stride not in self._train:
                return x
        return None

    def corrupt_head(self, triple: Triple) -> Triple | None:
        h, r, t = triple
        h2 = self._free(self._n_ent, r * self._n_ent + t, self._n_rel * self._n_ent)
        return None if h2 is None else (h2, r, t)

    def corrupt_tail(self, triple: Triple) -> Triple | None:
        h, r, t = triple
        t2 = self._free(self._n_ent, (h * self._n_rel + r) * self._n_ent, 1)
        return None if t2 is None else (h, r, t2)

    def corrupt_relation(self, triple: Triple) -> Triple | None:
        h, r, t = triple
        r2 = self._free(self._n_rel, h * self._n_rel * self._n_ent + t, self._n_ent)
        return None if r2 is None else (h, r2, t)

    def relation_for_pair(self, h: int, t: int) -> int | None:
        """A base relation r' with (h, r', t) absent from train."""
        neg = self.corrupt_relation((h, -1, t))
        return neg[1] if neg is not None else None

    def relation_not_deduced(self, r: int, deduced: frozenset[int]) -> int | None:
        for _ in range(self.max_attempts):
            r2 = self.draw(self._n_rel)
            if r2 != r and r2 not in deduced:
                return r2
        return None


def _row_sums(rows: np.ndarray, values: np.ndarray, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows, ascending, and per row its vectors summed in input order."""
    dim = values.shape[1]
    present = np.zeros(n_rows, dtype=bool)
    present[rows] = True
    slot = np.cumsum(present) - 1
    # bincount adds its weights in input order, as a loop of += over the rows would
    flat = (slot[rows][:, None] * dim + np.arange(dim)).ravel()
    distinct = np.flatnonzero(present)
    sums = np.bincount(flat, weights=values.ravel(), minlength=len(distinct) * dim)
    return distinct, sums.reshape(-1, dim)


@dataclass
class GradientUpdate:
    """One batch's subgradient, summed per entity and base relation row it touches."""

    entity_rows: np.ndarray
    entity: np.ndarray
    relation_rows: np.ndarray
    relation: np.ndarray

    @classmethod
    def summed(cls, entity: Grad, relation: list[tuple[np.ndarray, Grad]],
               n_entities: int, n_base: int) -> GradientUpdate:
        """Sum the entity rows, which come in hinge order, and the relation rows of the
        terms, each with ``seq`` mapping the term's hinges to their places in the
        batch's hinge order."""
        rows, values = [entity.rows], [entity.values]
        if relation:
            order = np.argsort(np.concatenate([seq[g.hinge] for seq, g in relation]), kind="stable")
            rel_rows, rel_values = fold_inverse(
                np.concatenate([g.rows for _, g in relation])[order],
                np.concatenate([g.values for _, g in relation])[order],
                n_base,
            )
            # relation rows are numbered after the entities, so one scatter sums both
            rows.append(rel_rows + n_entities)
            values.append(rel_values)
        n_rows = n_entities + n_base
        distinct, sums = _row_sums(np.concatenate(rows), np.concatenate(values), n_rows)
        k = np.searchsorted(distinct, n_entities)
        return cls(distinct[:k], sums[:k], distinct[k:] - n_entities, sums[k:])

    def apply(self, emb: EmbeddingTable, lr: float) -> None:
        emb.entities[self.entity_rows] -= lr * self.entity
        emb.relations[self.relation_rows] -= lr * self.relation


@dataclass
class LossParts:
    triple: float = 0.0
    path: float = 0.0
    relpair: float = 0.0

    @property
    def total(self) -> float:
        return self.triple + self.path + self.relpair


def _loop_sum(losses: np.ndarray) -> float:
    """Left-to-right sum, as a loop of += gives it (np.sum adds pairwise)."""
    return float(np.add.accumulate(losses)[-1])


def loss_and_gradients(
    batch: list[Triple],
    kg: KnowledgeGraph,
    ps: PathStore,
    composer: Composer,
    emb: EmbeddingTable,
    cfg: TrainingConfig,
    sampler: NegativeSampler,
) -> tuple[LossParts, GradientUpdate]:
    use_paths = cfg.alpha_paths > 0 and not cfg.disable_paths_and_r2
    use_relpairs = cfg.alpha_relpairs > 0 and not cfg.disable_r1
    index = composer.index
    # Bookkeeping: per term, each hinge's place in the batch's hinge order and its ids.
    n = 0
    tri_seq, tri_ids = [], []
    path_seq, path_ids, path_rels = [], [], []
    pair_seq, pair_rels, betas = [], [], []
    for triple in batch:
        h, r, t = triple
        for negative in (
            sampler.corrupt_head(triple),
            sampler.corrupt_tail(triple),
            sampler.corrupt_relation(triple),
        ):
            if negative is not None:
                tri_seq.append(n)
                tri_ids.append(triple + negative)
                n += 1
        if use_paths:
            for path in range(*ps.path_range(h, t)):
                r_neg = sampler.relation_for_pair(h, t)
                if r_neg is None:
                    continue
                path_seq.append(n)
                path_ids.append(path)
                path_rels.append((r, r_neg))
                n += 1
        if use_relpairs:
            deduced = index.deduced_from(r)
            if deduced:
                excluded = frozenset(d for d, _ in deduced)
                for r_e, beta in deduced:
                    r_neg = sampler.relation_not_deduced(r, excluded)
                    if r_neg is None:
                        continue
                    pair_seq.append(n)
                    pair_rels.append((r, r_e, r_neg))
                    betas.append(beta)
                    n += 1

    # Array work: one gather-hinge-subgradient per term, then one scatter.
    parts = LossParts()
    no_rows = np.empty(0, np.int64)
    entity = Grad(no_rows, no_rows, np.empty((0, emb.dim)))
    relation = []
    if tri_seq:
        loss, ent, rel = triple_hinge(
            emb, np.array(tri_ids).reshape(-1, 2, 3), cfg.margin_triple, cfg.norm
        )
        parts.triple = _loop_sum(loss)
        entity = ent
        relation.append((np.array(tri_seq), rel))
    if path_seq:
        compiled = composer.compile(ps)
        ids = np.array(path_ids)
        loss, rel = path_hinge(
            emb, compiled.residuals[compiled.residual_id[ids]], compiled.weight[ids],
            np.array(path_rels), cfg.margin_path, cfg.norm, cfg.alpha_paths,
        )
        parts.path = _loop_sum(loss)
        relation.append((np.array(path_seq), rel))
    if pair_seq:
        loss, rel = relpair_hinge(
            emb, np.array(pair_rels), np.array(betas), cfg.margin_relpair, cfg.norm,
            cfg.alpha_relpairs,
        )
        parts.relpair = _loop_sum(loss)
        relation.append((np.array(pair_seq), rel))
    return parts, GradientUpdate.summed(entity, relation, emb.n_entities, emb.n_base_relations)


def project_entities(emb: EmbeddingTable, rows: np.ndarray | None = None) -> np.ndarray:
    """Scale entity vectors with norm > 1 back onto the unit sphere: every row, or
    only the distinct ``rows``. Returns the rows it scaled.

    Each row's norm and scaling depend on that row alone, so a pass over the rows
    that can have left the ball since the last pass gives what a full pass gives:
    the rows changed since, and the rows it scaled, whose norm may round to just
    above 1.
    """
    vectors = emb.entities if rows is None else emb.entities[rows]
    norms = np.linalg.norm(vectors, axis=1)
    over = norms > 1.0
    scaled = np.flatnonzero(over) if rows is None else rows[over]
    if len(scaled):
        emb.entities[scaled] /= norms[over, None]
    return scaled


@dataclass
class TrainResult:
    table: EmbeddingTable
    # rows of (epoch, total, triple part, path part, relpair part)
    history: list[tuple[int, float, float, float, float]]
    paths: CompiledPaths  # the path store as the run's rule index composes it


def train(
    kg: KnowledgeGraph,
    ps: PathStore,
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
    compiled = composer.compile(ps)
    triples = np.array(kg.train, dtype=np.int64)
    history: list[tuple[int, float, float, float, float]] = []
    scaled = None  # rows the last projection scaled; None before the first (full) pass
    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(len(triples))
        totals = LossParts()
        for chunk in np.array_split(perm, cfg.n_batches):
            if len(chunk) == 0:
                continue
            batch = list(map(tuple, triples[chunk].tolist()))
            parts, grads = loss_and_gradients(batch, kg, ps, composer, emb, cfg, sampler)
            grads.apply(emb, cfg.lr)
            rows = None if scaled is None else np.union1d(grads.entity_rows, scaled)
            scaled = project_entities(emb, rows)
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
    return TrainResult(table=emb, history=history, paths=compiled)


def write_loss_history(history, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,total,triple,path,relpair\n")
        for epoch, total, l1, l2, l3 in history:
            fh.write(f"{epoch},{total:.10g},{l1:.10g},{l2:.10g},{l3:.10g}\n")
