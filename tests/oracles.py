"""Dict-and-loop oracles of the energies, the array path store, the scorer and
evaluation.

``path_weight``, ``compose_embedding`` and ``relpair_energy`` are the per-path
and per-pair formulas of E2 and E3, written with one ``relation_vec`` per
relation. ``triple_set`` holds the triples a filtered rank skips or a negative
sample avoids, built from the splits directly.
``PathSet`` is the per-pair dict of ``Path`` tuples the store replaced, built
from a store's arrays the way the loader used to build it. ``OracleScorer``
scores entities by E1 over the row-major entity table, and relations by E1 plus
one ``compose`` and one ``path_energy`` per path of the pair, summed in a
loop, as the scorer did before it read compiled arrays and a dimension-major
copy. ``brute_rank`` and ``brute_relation_rank`` rank one query by comparing
its candidates one at a time and filtering by membership in ``known_triples``.
``relation_categories`` and ``evaluate_in_triple_order`` are the per-triple
loops the array code replaced; the latter ranks with the two brute ranks.
``batch_parts`` sums one training batch's losses per term in a loop, as
``train`` did batch by batch before it summed a span's parts at once.
``mask_row_sums`` sums a batch's subgradients per row through a mask and a
``cumsum`` over every row of the table, as training did before it sorted the
batch's own rows.
All are kept so the array code can be checked against them bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from rpje.energy import dissimilarity, path_energy, triple_energy
from rpje.evaluation import EvalReport, metrics_from_ranks
from rpje.paths import Path, PathStore, _Arrivals, _pair_starts
from rpje.training import LossParts


def path_weight(path: Path, cr) -> float:
    """R(p|h,t) * prod(mu)."""
    return path.reliability * cr.confidence_product


def compose_embedding(cr, emb) -> np.ndarray:
    """C(p): the sum of the residual relations' embeddings."""
    out = emb.relation_vec(cr.residual[0]).copy()
    for rid in cr.residual[1:]:
        out += emb.relation_vec(rid)
    return out


def relpair_energy(r: np.ndarray, r_e: np.ndarray, norm: str):
    """E3 = ||r - r_e||."""
    return dissimilarity(r - r_e, norm)


def batch_parts(batch, losses) -> LossParts:
    """A ``HingeBatch``'s ``losses`` summed per term, each from 0.0 left to right."""
    parts = [0.0, 0.0, 0.0]
    for kind, loss in zip(batch.kind.tolist(), losses.tolist()):
        parts[kind] += loss
    return LossParts(*parts)


def mask_row_sums(rows: np.ndarray, values: np.ndarray, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of range(n_rows) in ``rows``, ascending, and per row its
    vectors summed in input order."""
    dim = values.shape[1]
    present = np.zeros(n_rows, dtype=bool)
    present[rows] = True
    slot = np.cumsum(present) - 1
    flat = (slot[rows][:, None] * dim + np.arange(dim)).ravel()
    distinct = np.flatnonzero(present)
    sums = np.bincount(flat, weights=values.ravel(), minlength=len(distinct) * dim)
    return distinct, sums.reshape(-1, dim)


def triple_set(kg, *splits) -> set[tuple[int, int, int]]:
    """The (h, r, t) rows of the splits' id arrays, each also as its inverse view
    (t, r + B, h); ``kg.train_ids`` alone for a sampler, all three for a filter."""
    n = kg.n_base_relations
    rows = [tuple(row) for ids in splits for row in ids.tolist()]
    return set(rows) | {(t, r + n, h) for h, r, t in rows}


def known_triples(kg) -> set[tuple[int, int, int]]:
    return triple_set(kg, kg.train_ids, kg.valid_ids, kg.test_ids)


def residual_matrix(residuals) -> np.ndarray:
    """Residual relation sequences as one int array, rows padded with -1."""
    width = max(map(len, residuals))
    return np.array([res + (-1,) * (width - len(res)) for res in residuals], dtype=np.int64)


def paths_by_pair(found: _Arrivals) -> dict[tuple[int, int], tuple[Path, ...]]:
    """Paths grouped per (head, tail), in the order of ``found`` (sorted by pair)."""
    lengths = np.count_nonzero(found.relations >= 0, axis=1).tolist()
    rows = zip(*found.relations.T.tolist())
    paths = [
        Path(rels[:n], w) for rels, n, w in zip(rows, lengths, found.reliabilities.tolist())
    ]
    starts = _pair_starts(found)
    bounds = [*starts.tolist(), len(paths)]
    return {
        (h, t): tuple(paths[lo:hi])
        for h, t, lo, hi in zip(
            found.heads[starts].tolist(), found.tails[starts].tolist(), bounds, bounds[1:]
        )
    }


@dataclass
class PathSet:
    """Paths per entity pair with PCRA reliabilities; immutable after construction."""

    max_steps: int
    cutoff: float
    per_pair_cap: int = 200
    pairs: dict[tuple[int, int], tuple[Path, ...]] = field(default_factory=dict)

    @classmethod
    def of(cls, store: PathStore) -> PathSet:
        counts = np.diff(store.indptr)
        found = _Arrivals(
            np.repeat(store.heads, counts), np.repeat(store.tails, counts),
            np.asarray(store.relations), np.asarray(store.reliabilities),
        )
        return cls(store.max_steps, store.cutoff, store.per_pair_cap, paths_by_pair(found))

    def paths_between(self, h: int, t: int) -> tuple[Path, ...]:
        return self.pairs.get((h, t), ())

    @property
    def n_paths(self) -> int:
        return sum(len(v) for v in self.pairs.values())


def store_from_pairs(
    max_steps: int, cutoff: float, pairs: dict[tuple[int, int], tuple[Path, ...]], cap: int = 200
) -> PathStore:
    """A store holding ``pairs``, which must be given in (head, tail) order."""
    keys = list(pairs)
    assert keys == sorted(keys)
    paths = [p for group in pairs.values() for p in group]
    relations = np.full((len(paths), max_steps), -1, dtype=np.int64)
    for i, p in enumerate(paths):
        relations[i, : len(p.relations)] = p.relations
    indptr = np.zeros(len(keys) + 1, dtype=np.int64)
    np.cumsum([len(group) for group in pairs.values()], out=indptr[1:])
    ends = np.array(keys, dtype=np.int64).reshape(-1, 2)
    return PathStore(
        max_steps, cutoff, cap, ends[:, 0].copy(), ends[:, 1].copy(), indptr, relations,
        np.array([p.reliability for p in paths], dtype=np.float64),
    )


class OracleScorer:
    """The per-path scorer: E1 alone for entities; for relations, E1 plus one
    compose per path of the provider's ``paths_between`` and a += loop."""

    def __init__(self, emb, provider, composer, alpha_paths, norm):
        self.emb, self.provider, self.composer = emb, provider, composer
        self.alpha, self.norm = alpha_paths, norm

    def path_penalty(self, paths, r):
        total = 0.0
        for p in paths:
            cr = self.composer.compose(p.relations)
            total += path_energy(
                path_weight(p, cr), compose_embedding(cr, self.emb), r, self.norm
            )
        return total

    def score(self, h, r, t):
        """Q(h, r, t) of one candidate relation r."""
        rvec = self.emb.relation_vec(r)
        ent = self.emb.entities
        q = triple_energy(ent[h], rvec, ent[t], self.norm)
        if self.alpha:
            q += self.alpha * self.path_penalty(self.provider.paths_between(h, t), rvec)
        return float(q)

    def tail_scores(self, h, r):
        ent = self.emb.entities
        return triple_energy(ent[h], self.emb.relation_vec(r), ent, self.norm)

    def head_scores(self, r, t):
        ent = self.emb.entities
        return triple_energy(ent, self.emb.relation_vec(r), ent[t], self.norm)

    def relation_scores(self, h, t):
        ent, rels = self.emb.entities, self.emb.relations
        scores = triple_energy(ent[h], rels, ent[t], self.norm)
        if self.alpha:
            scores += self.alpha * self.path_penalty(self.provider.paths_between(h, t), rels)
        return scores


def relation_categories(kg, threshold: float = 1.5) -> dict[int, str]:
    """1-1 / 1-N / N-1 / N-N from per-relation head and tail sets, one train triple at a time."""
    heads: dict[int, set[int]] = {}
    tails: dict[int, set[int]] = {}
    counts: dict[int, int] = {}
    for h, r, t in kg.train:
        heads.setdefault(r, set()).add(h)
        tails.setdefault(r, set()).add(t)
        counts[r] = counts.get(r, 0) + 1
    categories = {}
    for r, n in counts.items():
        tph = n / len(heads[r])
        hpt = n / len(tails[r])
        if tph < threshold and hpt < threshold:
            categories[r] = "1-1"
        elif tph >= threshold and hpt < threshold:
            categories[r] = "1-N"
        elif tph < threshold and hpt >= threshold:
            categories[r] = "N-1"
        else:
            categories[r] = "N-N"
    return categories


def brute_rank(scorer, kg, triple, slot, setting, stored=None):
    """Independent rank computation scoring candidates one at a time, by E1 with
    the scorer's embeddings and norm, and filtering by membership in the splits
    (``stored``, which defaults to ``known_triples(kg)``)."""
    h, r, t = triple
    ent, rvec = scorer.emb.entities, scorer.emb.relation_vec(r)
    stored = known_triples(kg) if stored is None else stored
    if slot == "tail":
        true_idx = t
        cand_score = lambda c: triple_energy(ent[h], rvec, ent[c], scorer.norm)
        known = lambda c: (h, r, c) in stored
    else:
        true_idx = h
        cand_score = lambda c: triple_energy(ent[c], rvec, ent[t], scorer.norm)
        known = lambda c: (c, r, t) in stored
    s_true = cand_score(true_idx)
    rank = 1
    for c in range(kg.n_entities):
        if c == true_idx:
            continue
        if setting == "filtered" and known(c):
            continue
        if cand_score(c) <= s_true:
            rank += 1
    return rank


def brute_relation_rank(oracle, kg, triple, setting, stored=None):
    """The rank of the true relation among the base relations, comparing the
    scores ``oracle.relation_scores`` gives one candidate at a time and filtering
    by membership in the splits."""
    h, r, t = triple
    stored = known_triples(kg) if stored is None else stored
    scores = oracle.relation_scores(h, t).tolist()
    rank = 1
    for c in range(kg.n_base_relations):
        if c == r or (setting == "filtered" and (h, c, t) in stored):
            continue
        if scores[c] <= scores[r]:
            rank += 1
    return rank


def evaluate_in_triple_order(oracle, kg, triples) -> list[EvalReport]:
    """``evaluate``'s reports from one brute-force query after another in
    test-triple order, scored by ``oracle`` (an ``OracleScorer``)."""
    categories = relation_categories(kg)
    stored = known_triples(kg)
    ranks: dict[tuple[str, str], list[int]] = {}
    cat_hits: dict[tuple[str, str], list[int]] = {}
    for triple in triples:
        cat = categories.get(triple[1], "N-N")
        for slot in ("head", "tail"):
            raw, filtered = (brute_rank(oracle, kg, triple, slot, setting, stored)
                             for setting in ("raw", "filtered"))
            ranks.setdefault((f"entity-{slot}", "raw"), []).append(raw)
            ranks.setdefault((f"entity-{slot}", "filtered"), []).append(filtered)
            cat_hits.setdefault((slot, cat), []).append(int(filtered <= 10))
        raw, filtered = (brute_relation_rank(oracle, kg, triple, setting, stored)
                         for setting in ("raw", "filtered"))
        ranks.setdefault(("relation", "raw"), []).append(raw)
        ranks.setdefault(("relation", "filtered"), []).append(filtered)
    reports = []
    for setting in ("raw", "filtered"):
        head = ranks[("entity-head", setting)]
        tail = ranks[("entity-tail", setting)]
        for task, rlist in (("entity-head", head), ("entity-tail", tail),
                            ("entity-combined", head + tail)):
            mr, mrr, hits = metrics_from_ranks(rlist)
            report = EvalReport(task=task, setting=setting, mr=mr, mrr=mrr, hits=hits)
            if setting == "filtered" and task != "entity-combined":
                slot = task.split("-")[1]
                report.per_category = {
                    cat: float(np.mean(vals))
                    for (s, cat), vals in sorted(cat_hits.items()) if s == slot
                }
            reports.append(report)
        mr, mrr, hits = metrics_from_ranks(ranks[("relation", setting)])
        reports.append(EvalReport(task="relation", setting=setting, mr=mr, mrr=mrr, hits=hits))
    return reports
