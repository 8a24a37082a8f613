"""Link prediction evaluation: scoring, ranking, metrics and explanations.

Entities are ranked by E1(h,r,t) = ||h + r - t|| alone. Relations are ranked by
    Q(h,r,t) = E1(h,r,t) + alpha_1 * sum_{p in P(h,t)} E2(p,r)
over the pair's own paths P(h,t): ``evaluate`` finds the paths of its test
pairs in one blocked walk (``PathFinder.find``) and ``explain`` those of its
one pair, so both score a pair alike, bit for bit. Candidates are ranked
ascending (lower energy = better). A rank counts the rivals of the true
candidate, those with an energy no higher than its own, s_true; one rival
mask gives both the raw and the filtered rank.

An entity query computes s_true with ``triple_energy``, then scans E1 of every
candidate in float32 from a dimension-major copy of the entity table
(``energy.Float32Scan``, made on the first entity query), each within a
proven bound B of its exact energy. A candidate whose scan lies at or below
s_true - B is a rival, one above s_true + B is not, and only the undecided
band between (the true candidate, usually alone) is rescored with
``triple_energy`` on its rows. So every rank is the one the exact energies of
all candidates give. Tables of fewer than ``Scorer.PREFILTER_FROM`` cells
(entities × dim) are not scanned: every candidate is rescored. Relation scores
are computed row-major over the base relations and never build the copy, so
``explain`` does not either.

The filtered setting removes corrupted candidates already present anywhere in
the KG, looked up in the graph's array filter index (``known_tails``/
``known_heads``/``known_relations``). Ties are broken pessimistically: the
true answer ranks after equal-scored rivals.

The path term of a relation query reads the pair's range of the store. The
store is compiled once (``Composer.compile``), C(p) is kept per distinct
residual, and ``np.bincount`` sums the pair's path energies per relation.
``np.bincount`` adds its weights in input order from 0.0, so every sum is the
one a loop of += over the pair's paths in store order gives, bit for bit (that
loop is kept as the oracle in ``tests/oracles.py``).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .compose import Composer
from .energy import (
    SCAN_MAX_DIM, Float32Scan, composed_relations, path_energy, signed_relations, triple_energy,
)
from .kg import KnowledgeGraph, Triple, distinct_sorted
from .model import EmbeddingTable, TrainingConfig
from .paths import PathFinder, PathStats, PathStore
from .rules import RuleIndex, format_chain_rule

HITS_AT = (1, 3, 10)


def relation_categories(kg: KnowledgeGraph, threshold: float = 1.5) -> dict[int, str]:
    """1-1 / 1-N / N-1 / N-N per train relation, from its tails per head (triples
    over distinct heads) and heads per tail (triples over distinct tails)."""
    h, r, t = kg.train_ids.astype(np.int64).T
    n_rel, n_ent = kg.n_base_relations, kg.n_entities

    def distinct(ends: np.ndarray) -> np.ndarray:
        return np.bincount(distinct_sorted(r * n_ent + ends) // n_ent, minlength=n_rel)

    counts, heads, tails = np.bincount(r, minlength=n_rel), distinct(h), distinct(t)
    present = np.flatnonzero(counts)
    many_tails = counts[present] / heads[present] >= threshold
    many_heads = counts[present] / tails[present] >= threshold
    names = np.array(["1-1", "1-N", "N-1", "N-N"])[many_tails + 2 * many_heads]
    return dict(zip(present.tolist(), names.tolist()))


class Scorer:
    """E1-scoring of candidate entities, and Q-scoring of candidate relations
    against trained embeddings and the paths of the pairs in ``store``.

    The composer compiles the store once (``Composer.compile``), and the scorer
    keeps C(p) per distinct residual.
    """

    def __init__(
        self,
        emb: EmbeddingTable,
        store: PathStore,
        composer: Composer,
        alpha_paths: float = TrainingConfig.alpha_paths,
        norm: str = TrainingConfig.norm,
    ):
        self.emb = emb
        self.store = store
        self.composer = composer
        self.alpha = alpha_paths
        self.norm = norm
        self._scan: Float32Scan | None = None  # of the entity table, on first use
        self._relation_sizes: np.ndarray | None = None  # sum |r| per base relation, with it too
        self.rescored: list[int] = []  # candidates rescored exactly, per entity query
        self._composed: np.ndarray | None = None  # C(p) per distinct residual, on first use

    def path_penalty(self, paths: slice) -> np.ndarray:
        """Per base relation r, the sum of E2(p, r) over ``paths``, one pair's range
        of the store.

        Each sum adds its paths' energies in store order starting from 0.0, as a
        loop of += over the pair's paths does: ``np.bincount`` adds in input order.
        """
        n = self.emb.n_base_relations
        if paths.start == paths.stop:  # nothing to compile
            return np.zeros(n)
        compiled = self.composer.compile(self.store)
        if self._composed is None:
            self._composed = composed_relations(signed_relations(self.emb), compiled.residuals)
        residual, weight = compiled.residual_id[paths], compiled.weight[paths]
        energies = path_energy(
            weight[:, None], self._composed[residual][:, None], self.emb.relations, self.norm
        )
        slots = np.arange(len(weight) * n) % n
        return np.bincount(slots, weights=energies.ravel(), minlength=n)

    # --- vectorized candidate scoring ---

    # Tables of fewer entity x dim cells are not scanned, and every candidate is
    # rescored: there the scan's numpy calls per query cost more than they save.
    # The exact pass costs per cell, so this is 512 entities at dim 32 and 164 at
    # dim 100.
    PREFILTER_FROM = 1 << 14

    def _prefilter(self) -> Float32Scan | None:
        """The float32 scan of the entity table, or None for a table whose every
        candidate is rescored."""
        ent = self.emb.entities
        if self._scan is None and ent.size >= self.PREFILTER_FROM and self.emb.dim <= SCAN_MAX_DIM:
            self._scan = Float32Scan(ent, self.norm)
            self._relation_sizes = np.abs(self.emb.relations).sum(axis=1)
        return self._scan

    def tail_scores(self, h: int, r: int) -> np.ndarray:
        ent = self.emb.entities
        return triple_energy(ent[h], self.emb.relation_vec(r), ent, self.norm)

    def head_scores(self, r: int, t: int) -> np.ndarray:
        ent = self.emb.entities
        return triple_energy(ent, self.emb.relation_vec(r), ent[t], self.norm)

    def entity_rivals(self, h: int, r: int, t: int, slot: str) -> np.ndarray:
        """Which entities score no higher than the true one as the ``slot``
        ("head" or "tail") of (h, r, t), the true one among them: the mask
        ``tail_scores(h, r) <= tail_scores(h, r)[t]`` (or the head's) gives."""
        ent, rvec, norm = self.emb.entities, self.emb.relation_vec(r), self.norm

        def exact(rows):
            if slot == "tail":
                return triple_energy(ent[h], rvec, ent[rows], norm)
            return triple_energy(ent[rows], rvec, ent[t], norm)

        true, side = (t, h) if slot == "tail" else (h, t)
        scan = self._prefilter()
        if scan is None:  # a small table: every candidate is rescored
            self.rescored.append(len(ent))
            scores = exact(slice(None))
            return scores <= scores[true]
        s_true = exact(true)
        fixed = ent[h] + rvec if slot == "tail" else ent[t] - rvec
        size = scan.sizes[side] + self._relation_sizes[r % self.emb.n_base_relations]
        rivals, band = scan.undecided(fixed, size, s_true)
        rivals[band] = exact(band) <= s_true
        self.rescored.append(len(band))
        return rivals

    def relation_scores(self, h: int, t: int) -> np.ndarray:
        ent, rels = self.emb.entities, self.emb.relations
        scores = triple_energy(ent[h], rels, ent[t], self.norm)
        if self.alpha:
            scores += self.alpha * self.path_penalty(self.store.between(h, t))
        return scores


def _rank(scores: np.ndarray, true_idx: int, excluded: np.ndarray) -> tuple[int, int]:
    """(raw, filtered) 1-based pessimistic ranks of true_idx by ``scores``."""
    return _rank_rivals(scores <= scores[true_idx], true_idx, excluded)


def _rank_rivals(rivals: np.ndarray, true_idx: int, excluded: np.ndarray) -> tuple[int, int]:
    """(raw, filtered) 1-based pessimistic ranks of true_idx, from the mask of
    candidates that score no worse than it (which it may mark itself).

    ``excluded`` holds distinct ids that do not compete in the filtered rank; it
    may contain true_idx itself. The filtered rank is the raw rank less the
    excluded rivals.
    """
    rivals[true_idx] = False
    raw = 1 + int(np.count_nonzero(rivals))
    return raw, raw - int(np.count_nonzero(rivals[excluded]))


def rank_entities(
    scorer: Scorer, kg: KnowledgeGraph, triple: Triple, slot: str
) -> tuple[int, int]:
    """(raw, filtered) rank of the true head or tail among all entities."""
    h, r, t = triple
    if slot == "tail":
        true_idx, known = t, kg.known_tails(h, r)
    elif slot == "head":
        true_idx, known = h, kg.known_heads(r, t)
    else:
        raise ValueError(f"slot must be head or tail, got {slot!r}")
    return _rank_rivals(scorer.entity_rivals(h, r, t, slot), true_idx, known)


def rank_relations(scorer: Scorer, kg: KnowledgeGraph, triple: Triple) -> tuple[int, int]:
    """(raw, filtered) rank of the true relation among the base relations."""
    h, r, t = triple
    return _rank(scorer.relation_scores(h, t), r, kg.known_relations(h, t))


@dataclass
class EvalReport:
    task: str  # entity-head | entity-tail | entity-combined | relation
    setting: str  # raw | filtered
    mr: float
    mrr: float
    hits: dict[int, float]
    per_category: dict[str, float] = field(default_factory=dict)


def metrics_from_ranks(ranks: list[int]) -> tuple[float, float, dict[int, float]]:
    arr = np.asarray(ranks, dtype=float)
    mr = float(arr.mean())
    mrr = float((1.0 / arr).mean())
    hits = {n: float((arr <= n).mean()) for n in HITS_AT}
    return mr, mrr, hits


@dataclass
class EvalStats:
    """What one ``evaluate`` call walked and compiled, and its stage timings."""

    test_pairs: int = 0  # distinct (head, tail) pairs of the test triples
    paths: PathStats = field(default_factory=PathStats)  # the walk; all 0 when skipped
    compiled: dict = field(default_factory=dict)  # the walked store's compile summary
    entity_queries: int = 0  # head and tail queries ranked
    rescored: dict[str, int] = field(default_factory=dict)  # their exact rescores: total, max
    # per stage, and the p50 and p90 of one entity query's ranking time
    seconds: dict[str, float] = field(default_factory=dict)

    def metrics(self) -> dict:
        return {"test_pairs": self.test_pairs, **asdict(self.paths), **self.compiled,
                "entity_queries": self.entity_queries, "rescored": self.rescored,
                "seconds": self.seconds}


def evaluate(
    emb: EmbeddingTable,
    finder: PathFinder,
    index: RuleIndex,
    kg: KnowledgeGraph,
    alpha_paths: float = TrainingConfig.alpha_paths,
    norm: str = TrainingConfig.norm,
    test_triples: list[Triple] | None = None,
    stats: EvalStats | None = None,
) -> list[EvalReport]:
    """Aggregate MR/MRR/Hits over the test split, raw and filtered, per task.

    Relations are ranked on the paths of the test pairs, which ``finder`` walks
    once; without a path term to rank by, nothing is walked.
    """
    triples = test_triples if test_triples is not None else kg.test
    if not triples:
        raise ValueError("test split is empty")
    stats = EvalStats() if stats is None else stats
    pairs = np.array(triples, dtype=np.int64)[:, [0, 2]]
    stats.test_pairs = len(distinct_sorted(pairs[:, 0] * kg.n_entities + pairs[:, 1]))
    start = time.perf_counter()
    store = finder.find(pairs if alpha_paths else [], stats.paths)
    stats.seconds["walk"] = time.perf_counter() - start
    scorer = Scorer(emb, store, Composer(index), alpha_paths, norm)
    tasks = ("entity-head", "entity-tail", "relation")
    ranks = {(task, setting): [] for task in tasks for setting in ("raw", "filtered")}
    latencies = []
    start = time.perf_counter()
    for triple in triples:
        for slot in ("head", "tail"):
            begin = time.perf_counter()
            raw, filtered = rank_entities(scorer, kg, triple, slot)
            latencies.append(time.perf_counter() - begin)
            ranks[(f"entity-{slot}", "raw")].append(raw)
            ranks[(f"entity-{slot}", "filtered")].append(filtered)
    stats.seconds["entity_ranking"] = time.perf_counter() - start
    latencies.sort()
    for q in (50, 90):  # nearest rank; np.percentile would import numpy.ma (11 ms)
        stats.seconds[f"entity_query_p{q}"] = latencies[-(-len(latencies) * q // 100) - 1]
    stats.entity_queries = len(scorer.rescored)
    stats.rescored = {"total": sum(scorer.rescored), "max": max(scorer.rescored)}
    start = time.perf_counter()
    for triple in triples:
        raw, filtered = rank_relations(scorer, kg, triple)
        ranks[("relation", "raw")].append(raw)
        ranks[("relation", "filtered")].append(filtered)
    stats.seconds["relation_ranking"] = time.perf_counter() - start
    stats.compiled = scorer.composer.compile(store).summary()
    categories = relation_categories(kg)
    cat_hits: dict[tuple[str, str], list[int]] = {}
    for (_, r, _), head, tail in zip(
        triples, ranks[("entity-head", "filtered")], ranks[("entity-tail", "filtered")]
    ):
        cat = categories.get(r, "N-N")
        cat_hits.setdefault(("head", cat), []).append(int(head <= 10))
        cat_hits.setdefault(("tail", cat), []).append(int(tail <= 10))

    reports = []
    for setting in ("raw", "filtered"):
        head = ranks[("entity-head", setting)]
        tail = ranks[("entity-tail", setting)]
        for task, rlist in (
            ("entity-head", head),
            ("entity-tail", tail),
            ("entity-combined", head + tail),
        ):
            mr, mrr, hits = metrics_from_ranks(rlist)
            report = EvalReport(task=task, setting=setting, mr=mr, mrr=mrr, hits=hits)
            if setting == "filtered" and task in ("entity-head", "entity-tail"):
                slot = task.split("-")[1]
                report.per_category = {
                    cat: float(np.mean(vals))
                    for (s, cat), vals in sorted(cat_hits.items())
                    if s == slot
                }
            reports.append(report)
        mr, mrr, hits = metrics_from_ranks(ranks[("relation", setting)])
        reports.append(EvalReport(task="relation", setting=setting, mr=mr, mrr=mrr, hits=hits))
    return reports


def report_lines(reports: list[EvalReport]) -> list[str]:
    lines = [f"{'task':<16} {'setting':<9} {'MR':>9} {'MRR':>8} "
             + " ".join(f"H@{n:<3}" for n in HITS_AT)]
    for rep in reports:
        hits = " ".join(f"{rep.hits[n]:.3f}" for n in HITS_AT)
        lines.append(
            f"{rep.task:<16} {rep.setting:<9} {rep.mr:>9.2f} {rep.mrr:>8.4f} {hits}"
        )
        if rep.per_category:
            cats = "  ".join(f"{c}:{v:.3f}" for c, v in rep.per_category.items())
            lines.append(f"    hits@10 by category: {cats}")
    return lines


def report_csv_rows(reports: list[EvalReport]) -> list[str]:
    rows = ["task,setting,metric,value"]
    for rep in reports:
        rows.append(f"{rep.task},{rep.setting},MR,{rep.mr:.6g}")
        rows.append(f"{rep.task},{rep.setting},MRR,{rep.mrr:.6g}")
        for n, v in rep.hits.items():
            rows.append(f"{rep.task},{rep.setting},Hits@{n},{v:.6g}")
        for cat, v in rep.per_category.items():
            rows.append(f"{rep.task},{rep.setting},Hits@10[{cat}],{v:.6g}")
    return rows


@dataclass
class PathEvidence:
    relations: tuple[int, ...]
    reliability: float
    applied_rules: tuple
    confidence_product: float
    residual: tuple[int, ...]
    association: tuple[int, int, float] | None = None  # (from, to, beta) via R1


@dataclass
class RelationExplanation:
    relation: int
    score: float
    paths: list[PathEvidence]


def explain(
    emb: EmbeddingTable,
    finder: PathFinder,
    index: RuleIndex,
    kg: KnowledgeGraph,
    h: int,
    t: int,
    top_k: int = 3,
    alpha_paths: float = TrainingConfig.alpha_paths,
    norm: str = TrainingConfig.norm,
) -> list[RelationExplanation]:
    """Top-k predicted relations for (h,t) with their rule/path support, from the
    pair's own paths, which ``finder`` walks."""
    store = finder.find([(h, t)])
    composer = Composer(index)
    scores = Scorer(emb, store, composer, alpha_paths, norm).relation_scores(h, t)
    order = np.argsort(scores, kind="stable")[:top_k]
    paths = store.paths_between(h, t)
    out = []
    for r in order:
        r = int(r)
        evidence = []
        for p in paths:
            cr = composer.compose(p.relations)
            association = None
            if cr.fully_composed and cr.residual[0] != r:
                for deduced, beta in index.deduced_from(cr.residual[0]):
                    if deduced == r:
                        association = (cr.residual[0], r, beta)
                        break
            evidence.append(
                PathEvidence(
                    relations=p.relations,
                    reliability=p.reliability,
                    applied_rules=cr.applied_rules,
                    confidence_product=cr.confidence_product,
                    residual=cr.residual,
                    association=association,
                )
            )
        out.append(RelationExplanation(relation=r, score=float(scores[r]), paths=evidence))
    return out


def explanation_lines(
    explanations: list[RelationExplanation], kg: KnowledgeGraph, machine: bool = False
) -> list[str]:
    lines = []
    for exp in explanations:
        rname = kg.relation_name(exp.relation)
        if machine:
            lines.append(f"relation\t{rname}\t{exp.score:.6g}")
        else:
            lines.append(f"predicted relation {rname} (score {exp.score:.4f})")
        if not exp.paths:
            lines.append("path\tnone" if machine else "  triple term only")
            continue
        for ev in exp.paths:
            seq = ",".join(kg.relation_name(r) for r in ev.relations)
            res = ",".join(kg.relation_name(r) for r in ev.residual)
            if machine:
                lines.append(
                    f"path\t{seq}\t{ev.reliability:.6g}\t{ev.confidence_product:.6g}\t{res}"
                )
                for rule in ev.applied_rules:
                    lines.append("rule\t" + format_chain_rule(rule, kg))
                if ev.association:
                    frm, to, beta = ev.association
                    lines.append(
                        f"assoc\t{kg.relation_name(frm)}\t{kg.relation_name(to)}\t{beta:g}"
                    )
            else:
                lines.append(
                    f"  path ({seq}) reliability={ev.reliability:.3f} "
                    f"confidence={ev.confidence_product:.3f} residual=({res})"
                )
                for rule in ev.applied_rules:
                    lines.append("    applied rule " + format_chain_rule(rule, kg))
                if ev.association:
                    frm, to, beta = ev.association
                    lines.append(
                        f"    association {kg.relation_name(frm)} -> "
                        f"{kg.relation_name(to)} (confidence {beta:g})"
                    )
    return lines
