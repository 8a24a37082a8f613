"""Link prediction evaluation: scoring, ranking, metrics and explanations.

Entities are ranked by E1(h,r,t) = ||h + r - t|| alone. Relations are ranked by
    Q(h,r,t) = E1(h,r,t) + alpha_1 * sum_{p in P(h,t)} E2(p,r)
over the pair's own paths P(h,t): ``evaluate`` finds the paths of its test
pairs in one blocked walk (``PathFinder.find``) and ``explain`` those of its
one pair, so both score a pair alike, bit for bit. Candidates are ranked
ascending (lower energy = better). A rank counts the rivals of the true
candidate, those with an energy no higher than its own, s_true; one rival
mask gives both the raw and the filtered rank.

``evaluate`` ranks the whole test split in array passes (``rank_entities``,
``rank_relations``). Each pass builds its temporaries (queries x dim, pairs x
relations x dim, paths x relations x dim) ``BLOCK_CELLS`` cells at a time, so
only O(queries) scalars live for the whole split.

Entity queries share nothing, with each other or with the path side (the
walk of the test pairs, the ``Scorer`` of their store and the relation
ranking), so ``rank_entities`` runs them by the one split rule of the walk's
blocks (``forked.run_blocks``), one block per triple: one process per idle
CPU, but at most one per ``_SHARE_TRIPLES`` triples. A split of fewer than
twice that many (the toy's 40) is one claim block in this process, after the
path side, with no pipe and no fork. A larger split is cut into claim blocks
of ``_CLAIM_TRIPLES`` triples (at most 256 blocks), which each forked child
claims until none is left, and so does ``evaluate``'s process once its path
side is done: on 2 CPUs, for hub-paths' 160 test triples and wide-eval's 640
alike, one child claims from the start and the parent joins in later. The
float32 scan is built with the ``EntityScorer``, before the first fork, so
every process reads the one copy, and a walk on the path side splits over the
CPUs the children leave (``forked.idle_cpus``). A child sends back each block
it ranked, with its raw and filtered ranks, its per-query seconds and its exact
rescore counts, as one message, and the blocks are merged in triple order.
Each query's rank depends on its own triple alone, so every rank, count and
report is that of one process, whichever process claims which block.

Entity ranking computes, per block of triples, arrays of s_true (which a
triple's head and tail query share), of the fixed sides h + r (tail queries)
and t - r (head queries), and of their float32 copies and scan thresholds
(``Float32Scan.cover``); each query's known ends are its range of the filter
index, from one lookup per split. Per query remain only its float32 scan of E1
of every candidate, from a dimension-major copy of the entity table
(``energy.Float32Scan``, built once with the ``EntityScorer``), each within a
proven bound B of its exact energy; the exact rescore of its undecided band;
and its two rank counts. A candidate whose scan lies at or below s_true - B is
a rival, one above s_true + B is not, and only the band between (the true
candidate, usually alone, whose exact energy is s_true) is rescored with E1 on
its rows. So every rank is the one the exact energies of all candidates give.
Every query takes that one path, the toy's too: one the bound does not cover
(a table past ``energy.SCAN_MAX_DIM`` dimensions, or a fixed side too large
for the scan or NaN) gets NaN thresholds, so its band is every candidate.

Relation scores are E1 over a block of pairs x base relations by
broadcasting, each summed over its own row of dim terms, so it has the bits
that pair scored alone gets; ``explain`` scores its one pair through the same
function. They never build the float32 copy, so ``explain`` does not either.

The filtered setting removes corrupted candidates already present anywhere in
the KG, looked up in the graph's array filter index (``known_tails``/
``known_heads``/``known_relations``). Ties are broken pessimistically: the
true answer ranks after equal-scored rivals.

The path term of a block of pairs reads each pair's range of the store. The
store is compiled once (``Composer.compile``), C(p) is kept per distinct
residual, and one ``np.bincount`` over (pair, relation) slots sums each pair's
path energies per relation. ``np.bincount`` adds its weights in input order
from 0.0, so every sum is the one a loop of += over the pair's paths in store
order gives, bit for bit (that loop is kept as the oracle in
``tests/oracles.py``).
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

import numpy as np

from . import forked
from .compose import Composer
from .energy import (
    Float32Scan, composed_relations, dissimilarity, path_energy, signed_relations, triple_energy,
)
from .kg import KnowledgeGraph, KnownRanges, Triple, distinct_sorted
from .model import EmbeddingTable, TrainingConfig
from .paths import PathFinder, PathStats, PathStore, _ranges
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


# Every pass over a batch of queries, pairs or paths builds its temporaries
# (queries x dim, pairs x relations x dim, paths x relations x dim) in runs of
# rows cut by ``forked.runs`` to at most this many cells (512 KiB of float64),
# or one row. A constant, not an option: it bounds memory and changes no bits.
# Blocks of 2^17 cells ranked the wide-eval benchmark no faster and raised its
# peak RSS by 1 MB.
BLOCK_CELLS = 2**16


def _ranks(
    scores: np.ndarray, true: np.ndarray, known: KnownRanges
) -> tuple[np.ndarray, np.ndarray]:
    """(raw, filtered) 1-based pessimistic ranks of column ``true[i]`` of each row
    of ``scores``. The filtered rank is the raw rank less the rivals among the
    row's known candidates, which are distinct and may hold the true one."""
    rows = np.arange(len(scores))
    rivals = scores <= scores[rows, true][:, None]
    rivals[rows, true] = False
    raw = 1 + np.count_nonzero(rivals, axis=1)
    row, at = _ranges(known.start, known.stop - known.start)
    return raw, raw - np.bincount(row[rivals[row, known.values[at]]], minlength=len(rows))


class EntityScorer:
    """E1-ranking of entity queries against trained embeddings (``rank_block``)
    from the float32 scan of the entity table. It needs no paths, so
    ``evaluate`` can rank entities before the test pairs' store exists.

    The scan, the signed relation table and each base relation's sum |r| are
    built here, once: before the first fork, so every process reads the one
    copy. The scorer keeps nothing of the queries it ranks.
    """

    def __init__(self, emb: EmbeddingTable, norm: str = TrainingConfig.norm):
        self.emb = emb
        self.norm = norm
        self._scan = Float32Scan(emb.entities, norm)
        self._relation_sizes = np.abs(emb.relations).sum(axis=1)
        self._signed = signed_relations(emb)

    def rank_block(self, triples: np.ndarray, known: dict[str, KnownRanges],
                   ranks: dict[str, np.ndarray], seconds: dict[str, np.ndarray]) -> None:
        """Rank the true head and tail of each triple of one block into ``ranks``
        (per slot, a raw, a filtered and a rescored row: the candidates each
        query rescores exactly), given each slot's ``known`` ends per triple; the
        seconds each query takes go to its slot's row of ``seconds``.

        The true energies, which a triple's head and tail query share, the fixed
        sides, their float32 copies and the scan thresholds are arrays over the
        block. Every query takes one path: its scan, the exact rescore of its
        undecided band unless that is the true candidate alone, and its two rank
        counts. A query the bound does not cover has every candidate in its band.
        """
        ent, norm, scan = self.emb.entities, self.norm, self._scan
        h, r, t = triples.T
        rvec = self._signed[r]
        tail_side = ent[h] + rvec  # h + r, as ``triple_energy`` adds it
        s_true = dissimilarity(tail_side - ent[t], norm)

        def exact(slot, i, rows):
            """E1 of the candidates ``rows`` as the ``slot`` of query i."""
            if slot == "tail":
                return dissimilarity(tail_side[i] - ent[rows], norm)
            return triple_energy(ent[rows], rvec[i], ent[t[i]], norm)

        # the scan runs with numpy's ufunc buffer at its minimum (see
        # ``Float32Scan.norms``)
        bufsize = np.setbufsize(16)
        try:
            for slot, true, end in (("tail", t, h), ("head", h, t)):
                (raw, filtered, rescored), (values, start, stop) = ranks[slot], known[slot]
                spent = seconds[slot]
                size = scan.sizes[end] + self._relation_sizes[r % self.emb.n_base_relations]
                side = tail_side if slot == "tail" else ent[t] - rvec
                fixed, lo, hi = scan.cover(side, size, s_true)
                for i in range(len(triples)):
                    begin = time.perf_counter()
                    rivals, band = scan.undecided(fixed[i], lo[i], hi[i])
                    # the true candidate's exact energy is s_true: a band of it
                    # alone needs no rescore
                    if len(band) != 1 or band[0] != true[i]:
                        rivals[band] = exact(slot, i, band) <= s_true[i]
                    rescored[i] = len(band)
                    rivals[true[i]] = False
                    raw[i] = n = 1 + np.count_nonzero(rivals)
                    filtered[i] = n - np.count_nonzero(rivals[values[start[i]:stop[i]]])
                    spent[i] = time.perf_counter() - begin
        finally:
            np.setbufsize(bufsize)


class Scorer:
    """E1-scoring of one query's candidate entities (``tail_scores``,
    ``head_scores``), and Q-scoring of candidate relations against trained
    embeddings and the paths of the pairs in ``store`` (the path side:
    ``relation_scores``). It builds no float32 scan: entities are ranked on an
    ``EntityScorer``.

    The store is compiled once, here (``Composer.compile``): the scorer keeps
    the compiled paths (``paths``) and C(p) per distinct residual.
    """

    def __init__(
        self,
        emb: EmbeddingTable,
        store: PathStore,
        index: RuleIndex,
        alpha_paths: float = TrainingConfig.alpha_paths,
        norm: str = TrainingConfig.norm,
    ):
        self.emb = emb
        self.norm = norm
        self.store = store
        self.alpha = alpha_paths
        self.paths = Composer(index).compile(store)
        self._composed = composed_relations(signed_relations(emb), self.paths.residuals)

    def tail_scores(self, h: int, r: int) -> np.ndarray:
        ent = self.emb.entities
        return triple_energy(ent[h], self.emb.relation_vec(r), ent, self.norm)

    def head_scores(self, r: int, t: int) -> np.ndarray:
        ent = self.emb.entities
        return triple_energy(ent, self.emb.relation_vec(r), ent[t], self.norm)

    def path_penalty(self, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
        """Per pair i and base relation r, the sum of E2(p, r) over the paths
        ``start[i]:stop[i]`` of the store, pair i's range: pairs x base relations.

        Each sum adds its pair's path energies in store order starting from 0.0,
        as a loop of += over the pair's paths does: ``np.bincount`` adds in input
        order, and each of its bins is one pair and relation.
        """
        n, dim = self.emb.relations.shape
        pair, paths = _ranges(start, stop - start)
        residual, weight = self.paths.residual_id[paths], self.paths.weight[paths]
        energies = np.empty((len(paths), n))
        for a, b in forked.runs(len(paths), n * dim, BLOCK_CELLS):
            energies[a:b] = path_energy(weight[a:b, None], self._composed[residual[a:b], None],
                                        self.emb.relations, self.norm)
        slots = pair[:, None] * n + np.arange(n)
        return np.bincount(slots.ravel(), weights=energies.ravel(),
                           minlength=len(start) * n).reshape(-1, n)

    def relation_scores(self, pairs: np.ndarray) -> np.ndarray:
        """Q of every base relation for each (head, tail) row of ``pairs``: pairs x
        base relations. E1 sums each pair's and relation's own row of dim terms,
        so every score has the bits that pair scored alone gets."""
        ent, rels = self.emb.entities, self.emb.relations
        h, t = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
        start, stop = self.store.between(h, t)
        n, dim = rels.shape
        scores = np.empty((len(h), n))
        for a, b in forked.runs(len(h), n * (dim + 2 * (stop - start)), BLOCK_CELLS):
            block = triple_energy(ent[h[a:b], None], rels, ent[t[a:b], None], self.norm)
            if self.alpha:
                block += self.alpha * self.path_penalty(start[a:b], stop[a:b])
            scores[a:b] = block
        return scores


# A ranking's triples per process, at least: a split of fewer than twice this
# many triples stays in one process. A child costs about 2 ms beyond its
# blocks (its fork, copy-on-write faults and message). Timed with claims of 32
# triples (2 vCPUs, warm in-process ``eval`` of the first k test triples,
# medians of 14 calls in each of 3 processes, two processes against one):
# hub-paths (3-step walks) lost 1.0-1.5 ms at k = 33 to 64, 0-0.7 at 80 and
# 0.5 at 96, and gained 1.0-1.4 at 128; wide-eval (2-step walks) broke even
# at 64 and gained 0.3-0.6 ms at 80 and 1.9-2.1 at 128. So a split needs 128
# triples; the toy's 40 stay in one process.
_SHARE_TRIPLES = 64
# The triples of one claim block, at least (a split has at most 256 blocks).
# Smaller blocks balance the processes better, but each costs about 60 us of
# set-up: hub-paths' 160 test triples ranked in one process in 7.25 ms as one
# block, 7.90 in blocks of 16 and 8.36 in blocks of 8. Warm in-process eval
# (2 vCPUs, 3 processes x 30 calls), at 16 / 24 / 32 / 40 / 48: hub-paths
# 10.8-11.0 / 10.8-11.1 / 10.5-10.8 / 10.4-10.5 / 11.1-11.3 ms, against
# 12.3-12.6 with the child beside the path side; wide-eval, at 16 / 32 / 48,
# 30.1-30.6 / 30.4-30.6 / 29.6-29.8 ms, against 31.8-32.4 split after the walk.
_CLAIM_TRIPLES = 32


@dataclass
class EntityRanking:
    """What ``rank_entities`` measured: per slot, the (raw, filtered) ranks by
    triple; per query, the tail queries in triple order and then the head
    queries, its exact rescores and seconds; and per process, this process's
    first, the claim blocks it ranked and its seconds ranking them."""

    ranks: dict[str, tuple[np.ndarray, np.ndarray]]
    rescored: np.ndarray
    seconds: np.ndarray
    shares: list[tuple[int, float]]


def rank_entities(
    scorer: EntityScorer, kg: KnowledgeGraph, triples: np.ndarray,
    beside: Callable[[], object] | None = None,
) -> EntityRanking:
    """The ranks of the true head and the true tail of each triple among all
    entities (relation ids may be inverse ids), with each query's rescores and
    seconds and each process's share of the work.

    The triples are ranked by ``forked.run_blocks``, one block per triple and
    one process per ``_SHARE_TRIPLES``, in claim blocks of ``_CLAIM_TRIPLES``
    at least; this process claims once ``beside()`` has returned."""
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    h, r, t = triples.T
    known = {"head": kg.known_heads(r, t), "tail": kg.known_tails(h, r)}
    parts, shares = forked.run_blocks(
        "entity ranking", len(triples), _SHARE_TRIPLES,
        lambda a, b: _rank_share(scorer, triples, known, slice(a, b)), _CLAIM_TRIPLES, beside)
    head, tail = np.concatenate([ranks for ranks, _ in parts], axis=-1)
    seconds = np.concatenate([part_seconds for _, part_seconds in parts], axis=-1)
    return EntityRanking({"head": (head[0], head[1]), "tail": (tail[0], tail[1])},
                         np.concatenate((tail[2], head[2])),
                         np.concatenate((seconds[1], seconds[0])), shares)


def _rank_share(
    scorer: EntityScorer, triples: np.ndarray, known: dict[str, KnownRanges], share: slice
) -> tuple[np.ndarray, np.ndarray]:
    """The ranks of ``triples[share]`` (head and tail, each raw, filtered and
    rescored, by triple), and each query's seconds (head and tail, by triple)."""
    ranks = np.empty((2, 3, share.stop - share.start), dtype=np.int64)
    seconds = np.empty((2, ranks.shape[-1]))
    for a, b in forked.runs(ranks.shape[-1], 4 * scorer.emb.dim, BLOCK_CELLS):
        rows = slice(share.start + a, share.start + b)
        scorer.rank_block(triples[rows],
                          {slot: KnownRanges(values, start[rows], stop[rows])
                           for slot, (values, start, stop) in known.items()},
                          {"head": ranks[0, :, a:b], "tail": ranks[1, :, a:b]},
                          {"head": seconds[0, a:b], "tail": seconds[1, a:b]})
    return ranks, seconds


def rank_relations(
    scorer: Scorer, kg: KnowledgeGraph, triples: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(raw, filtered) ranks of the true relation of each triple among the base
    relations."""
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    h, r, t = triples.T
    values, start, stop = kg.known_relations(h, t)
    raw, filtered = np.empty((2, len(triples)), dtype=np.int64)
    for a, b in forked.runs(len(triples), kg.n_base_relations, BLOCK_CELLS):
        scores = scorer.relation_scores(triples[a:b, ::2])
        known = KnownRanges(values, start[a:b], stop[a:b])
        raw[a:b], filtered[a:b] = _ranks(scores, r[a:b], known)
    return raw, filtered


@dataclass
class EvalReport:
    task: str  # entity-head | entity-tail | entity-combined | relation
    setting: str  # raw | filtered
    mr: float
    mrr: float
    hits: dict[int, float]
    per_category: dict[str, float] = field(default_factory=dict)


def metrics_from_ranks(ranks: np.ndarray) -> tuple[float, float, dict[int, float]]:
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
    # per stage (walk, entity_ranking, relation_ranking), the p50 and p90 of
    # one entity query's ranking time, and per process, the parent's first,
    # the claim blocks it ranked (entity_blocks) and its seconds ranking them
    # (entity_shares). entity_ranking runs from the first fork to the merge,
    # so it holds walk and relation_ranking, which time the parent's path
    # side. entity_blocks is a count, but who claims which block varies from
    # run to run as the timings do, so it is kept here with them.
    seconds: dict[str, float | list[float] | list[int]] = field(default_factory=dict)

    def metrics(self) -> dict:
        paths = asdict(self.paths)
        del paths["seconds"]  # the walk's time is seconds["walk"]
        return {"test_pairs": self.test_pairs, **paths, **self.compiled,
                "entity_queries": self.entity_queries, "rescored": self.rescored,
                "seconds": self.seconds}


def evaluate(
    emb: EmbeddingTable,
    finder: PathFinder,
    index: RuleIndex,
    kg: KnowledgeGraph,
    alpha_paths: float = TrainingConfig.alpha_paths,
    norm: str = TrainingConfig.norm,
    test_triples: np.ndarray | list[Triple] | None = None,
    stats: EvalStats | None = None,
) -> list[EvalReport]:
    """Aggregate MR/MRR/Hits over the test split, raw and filtered, per task.

    Relations are ranked on the paths of the test pairs, which ``finder`` walks
    once; without a path term to rank by, nothing is walked. The path side
    (the walk, the ``Scorer`` of its store and the relation ranking) shares
    nothing with the entity ranking, so it runs here while any entity
    children claim blocks, and this process claims what is left once it is
    done (``rank_entities``' ``beside``).
    """
    triples = np.asarray(kg.test_ids if test_triples is None else test_triples,
                         dtype=np.int64).reshape(-1, 3)
    if not len(triples):
        raise ValueError("test split is empty")
    stats = EvalStats() if stats is None else stats
    pairs = triples[:, [0, 2]]
    stats.test_pairs = len(distinct_sorted(pairs[:, 0] * kg.n_entities + pairs[:, 1]))
    ranks = {}

    def path_side() -> None:
        """Walk the test pairs once, score their store and rank relations."""
        start = time.perf_counter()
        store = finder.find(pairs if alpha_paths else [], stats.paths)
        stats.seconds["walk"] = time.perf_counter() - start
        scorer = Scorer(emb, store, index, alpha_paths, norm)
        start = time.perf_counter()
        ranks[("relation", "raw")], ranks[("relation", "filtered")] = rank_relations(
            scorer, kg, triples)
        stats.seconds["relation_ranking"] = time.perf_counter() - start
        stats.compiled = scorer.paths.summary()

    scorer = EntityScorer(emb, norm)
    start = time.perf_counter()
    entity = rank_entities(scorer, kg, triples, beside=path_side)
    stats.seconds["entity_ranking"] = time.perf_counter() - start
    stats.seconds["entity_blocks"] = [blocks for blocks, _ in entity.shares]
    stats.seconds["entity_shares"] = [seconds for _, seconds in entity.shares]
    latencies = sorted(entity.seconds.tolist())
    for q in (50, 90):  # nearest rank; np.percentile would import numpy.ma (11 ms)
        stats.seconds[f"entity_query_p{q}"] = latencies[-(-len(latencies) * q // 100) - 1]
    stats.entity_queries = len(entity.rescored)
    stats.rescored = {"total": int(entity.rescored.sum()), "max": int(entity.rescored.max())}
    for task, slot in (("entity-head", "head"), ("entity-tail", "tail")):
        ranks[(task, "raw")], ranks[(task, "filtered")] = entity.ranks[slot]
    categories = relation_categories(kg)
    category = np.array([categories.get(r, "N-N") for r in range(kg.n_relations)])[triples[:, 1]]
    present = sorted(set(category.tolist()))  # np.unique of strings would import numpy.ma

    reports = []
    for setting in ("raw", "filtered"):
        head = ranks[("entity-head", setting)]
        tail = ranks[("entity-tail", setting)]
        for task, rlist in (
            ("entity-head", head),
            ("entity-tail", tail),
            ("entity-combined", np.concatenate((head, tail))),
        ):
            mr, mrr, hits = metrics_from_ranks(rlist)
            report = EvalReport(task=task, setting=setting, mr=mr, mrr=mrr, hits=hits)
            if setting == "filtered" and task != "entity-combined":
                hit = rlist <= 10
                report.per_category = {cat: float(np.mean(hit[category == cat])) for cat in present}
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
    pair's own paths, which ``finder`` walks. Each path's evidence is the
    composition that scored it, read from the scorer's compiled store."""
    store = finder.find([(h, t)])
    scorer = Scorer(emb, store, index, alpha_paths, norm)
    scores = scorer.relation_scores([(h, t)])[0]
    start, stop = store.between(h, t)
    span = slice(int(start), int(stop))
    paths = [
        (tuple(r for r in rels if r >= 0), reliability, scorer.paths.compositions[seq])
        for rels, reliability, seq in zip(store.relations[span].tolist(),
                                          store.reliabilities[span].tolist(),
                                          scorer.paths.sequence_id[span].tolist())
    ]
    out = []
    for r in np.argsort(scores, kind="stable")[:top_k].tolist():
        evidence = []
        for relations, reliability, cr in paths:
            association = None
            if cr.fully_composed and cr.residual[0] != r:
                for deduced, beta in index.deduced_from(cr.residual[0]):
                    if deduced == r:
                        association = (cr.residual[0], r, beta)
                        break
            evidence.append(PathEvidence(relations, reliability, cr.applied_rules,
                                         cr.confidence_product, cr.residual, association))
        out.append(RelationExplanation(relation=r, score=float(scores[r]), paths=evidence))
    return out


# Per line kind, its (machine, human) template.
_TEMPLATES = {
    "relation": ("relation\t{rel}\t{score:.6g}", "predicted relation {rel} (score {score:.4f})"),
    "none": ("path\tnone", "  triple term only"),
    "path": ("path\t{seq}\t{reliability:.6g}\t{confidence:.6g}\t{res}",
             "  path ({seq}) reliability={reliability:.3f} confidence={confidence:.3f} "
             "residual=({res})"),
    "rule": ("rule\t{rule}", "    applied rule {rule}"),
    "assoc": ("assoc\t{frm}\t{to}\t{beta:g}", "    association {frm} -> {to} (confidence {beta:g})"),
}


def explanation_lines(
    explanations: list[RelationExplanation], kg: KnowledgeGraph, machine: bool = False
) -> list[str]:
    lines = []

    def line(kind: str, **values) -> None:
        lines.append(_TEMPLATES[kind][0 if machine else 1].format(**values))

    # Every one of the top-k relations lists the pair's same paths: each path's
    # relation names and each rule's text are formatted once per call.
    texts: dict = {}  # relation ids or a rule -> its text

    def names(relations: tuple[int, ...]) -> str:
        if relations not in texts:
            texts[relations] = ",".join(map(kg.relation_name, relations))
        return texts[relations]

    for exp in explanations:
        line("relation", rel=kg.relation_name(exp.relation), score=exp.score)
        if not exp.paths:
            line("none")
        for ev in exp.paths:
            line("path", seq=names(ev.relations), reliability=ev.reliability,
                 confidence=ev.confidence_product, res=names(ev.residual))
            for rule in ev.applied_rules:
                if rule not in texts:
                    texts[rule] = format_chain_rule(rule, kg)
                line("rule", rule=texts[rule])
            if ev.association:
                frm, to, beta = ev.association
                line("assoc", frm=kg.relation_name(frm), to=kg.relation_name(to), beta=beta)
    return lines
