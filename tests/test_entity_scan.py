"""Entity ranking from the float32 scan: ranks against the brute-force oracle
on wide, tiny, tied and degenerate tables, one query at a time and in whole
splits, ``evaluate``'s reports against a brute-force loop in test-triple order,
which queries the scan's bound covers, and which scorer builds the scan."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rpje.compose import Composer
from rpje import energy, evaluation
from rpje.energy import SCAN_LIMIT, SCAN_MAX_DIM, Float32Scan
from rpje.evaluation import EntityScorer, EvalStats, Scorer, evaluate, explain, rank_entities
from rpje.model import EmbeddingTable, TrainingConfig, init_embeddings
from rpje.paths import PathFinder, extract_paths
from rpje.rules import build_index

from conftest import make_kg
from oracles import OracleScorer, PathSet, brute_rank, evaluate_in_triple_order

# log10 of the magnitudes of each kind of table
MAGNITUDES = {"wide": (-150, 150), "mid": (-30, 14), "tiny": (-50, -20)}


def table_values(rng, shape, kind):
    """Floats with random signs: of magnitude 10^lo..10^hi per ``MAGNITUDES`` (wide
    reaches beyond float32's range, tiny into float32's subnormals and below),
    standard normal (unit), or small integers (ties, many of them exact); each
    kind with a share of +0.0 and -0.0."""
    if kind in MAGNITUDES:
        x = 10.0 ** rng.uniform(*MAGNITUDES[kind], size=shape)
        x *= rng.choice([-1.0, 1.0], size=shape)
    elif kind == "unit":
        x = rng.normal(size=shape)
    else:
        x = rng.integers(-3, 4, size=shape).astype(float)
    zeros = rng.random(shape) < 0.1
    x[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    return x


def ring_kg(n_ent, n_rel):
    """A KG whose train split links entity i to i + 1 (mod n_ent) by relation
    i mod n_rel, so every entity and relation has an id, and the filtered rank
    excludes one known end."""
    return make_kg([(f"e{i % n_ent}", f"r{i % n_rel}", f"e{(i + 1) % n_ent}")
                    for i in range(max(n_ent, n_rel))])


def uncovered(ent, rel, triple, slot) -> bool:
    """Whether the scan's bound leaves the ``slot`` query of ``triple`` out: its
    fixed end's and relation's magnitudes sum past ``SCAN_LIMIT`` (or to NaN),
    or its true energy is NaN."""
    h, r, t = triple
    size = np.abs(ent[h if slot == "tail" else t]).sum() + np.abs(rel[r % len(rel)]).sum()
    rvec = rel[r] if r < len(rel) else -rel[r - len(rel)]
    return not size <= SCAN_LIMIT or np.isnan(np.abs(ent[h] + rvec - ent[t]).sum())


def assert_ranks_match(ent, rel, norm, triples) -> list[int]:
    """Raw and filtered head and tail ranks of each triple (relation ids of both
    directions) equal ``brute_rank``'s, with every table scanned in float32.
    Every query rescores at least one candidate, and one the bound does not
    cover rescores them all. The rescores, two per triple, are returned."""
    kg = ring_kg(len(ent), len(rel))
    assert (kg.n_entities, kg.n_base_relations) == (len(ent), len(rel))
    scorer = EntityScorer(EmbeddingTable(ent, rel), norm)
    rescored = []
    for triple in triples:
        ranking = rank_entities(scorer, kg, [triple])  # a one-row split
        for slot in ("head", "tail"):
            got = tuple(int(rank[0]) for rank in ranking.ranks[slot])
            assert got == tuple(brute_rank(scorer, kg, triple, slot, setting)
                                for setting in ("raw", "filtered")), (triple, slot)
        tail, head = ranking.rescored.tolist()
        for slot, count in (("tail", tail), ("head", head)):
            assert 1 <= count <= len(ent)
            if uncovered(ent, rel, triple, slot):
                assert count == len(ent), (triple, slot)
        rescored += [tail, head]
    assert len(rescored) == 2 * len(triples)
    return rescored


@given(
    dim=st.integers(1, 300),
    n_ent=st.integers(1, 50),
    n_rel=st.integers(1, 3),
    norm=st.sampled_from(["L1", "L2"]),
    kind=st.sampled_from(["wide", "mid", "tiny", "unit", "ties"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(dim=7, n_ent=3, n_rel=1, norm="L1", kind="wide", seed=0)
@example(dim=8, n_ent=3, n_rel=2, norm="L2", kind="wide", seed=1)
@example(dim=128, n_ent=5, n_rel=1, norm="L1", kind="mid", seed=2)
@example(dim=129, n_ent=5, n_rel=3, norm="L2", kind="tiny", seed=3)
@example(dim=136, n_ent=50, n_rel=1, norm="L1", kind="ties", seed=4)
@example(dim=300, n_ent=2, n_rel=2, norm="L2", kind="unit", seed=5)
@settings(max_examples=200, deadline=None)
def test_prefilter_ranks_match_brute_force(dim, n_ent, n_rel, norm, kind, seed):
    """Raw and filtered, head and tail ranks from the float32 scan equal the
    brute-force oracle's, for dims across numpy's summation orders (<8, 8..128,
    >128), magnitudes 1e-150..1e150, exact ties (a repeated row) and near ties
    (a row one float64 step from another)."""
    rng = np.random.default_rng(seed)
    ent = table_values(rng, (n_ent, dim), kind)
    if n_ent > 1:
        ent[-1] = ent[0]
    if n_ent > 2:
        ent[-2] = ent[0]
        i = rng.integers(dim)
        ent[-2, i] = np.nextafter(ent[0, i], rng.choice([-np.inf, np.inf]))
    rel = table_values(rng, (n_rel, dim), kind)
    ends = sorted({0, n_ent - 1, int(rng.integers(n_ent))})
    triples = [(a, int(rng.integers(2 * n_rel)), b) for a in ends for b in ends]
    rescored = assert_ranks_match(ent, rel, norm, triples)
    if kind == "unit" and n_ent > 3:  # a normal row of its own: the scan decides some
        assert sum(rescored) < len(rescored) * n_ent


def edge_table(case, rng):
    """Entity and relation rows of one degenerate table, 8 entities of dim 12."""
    ent, rel = rng.normal(size=(8, 12)), rng.normal(size=(2, 12))
    if case == "all-tie":  # integer rows, each a signed permutation of one row
        base = rng.integers(-4, 5, size=12).astype(float)
        ent = np.array([rng.permutation(base) * rng.choice([-1.0, 1.0], size=12)
                        for _ in range(8)])
        rel = np.array([-ent[0], ent[0]])  # 0 + r, and t - r for t = 0, cancel to 0
    elif case == "beyond-float32":
        ent[1, 3], ent[2] = 1e39, ent[2] * 1e150
        ent[3, 0] = 2.0**50 * 1.5  # float32 holds it, but the scan leaves it out
    elif case == "nan":
        ent[1], ent[2, 5] = np.nan, np.nan
    elif case == "cancel":  # huge h = -r and t = r, with small other entities
        rel[0] *= 2.0**70
        ent[0], ent[1] = -rel[0], rel[0]
    elif case in ("subnormal", "underflow"):
        # values in float32's subnormal range, or whose squares underflow there,
        # and rows within 1e-6 of row 0 that float32 cannot tell apart from it
        ent[4:] = ent[0] * (1 + np.array([-2e-6, -1e-6, 1e-6, 2e-6]))[:, None]
        scale = 2.0**-140 if case == "subnormal" else 2.0**-80
        ent, rel = ent * scale, rel * scale
    return ent, rel


@pytest.mark.parametrize("norm", ["L1", "L2"])
@pytest.mark.parametrize(
    "case", ["all-tie", "beyond-float32", "nan", "cancel", "subnormal", "underflow"])
def test_prefilter_ranks_on_edge_tables(case, norm):
    """Ranks equal the brute-force oracle's for every triple of tables where every
    candidate ties, where rows lie beyond float32's range or hold NaN, where
    h + r or t - r cancels between huge terms, and where float32 underflows.
    The scan decides some candidates, but where L2's squares underflow: there
    the bound's absolute term leaves every row undecided."""
    ent, rel = edge_table(case, np.random.default_rng(7))
    triples = [(h, r, t) for h in range(8) for r in range(4) for t in range(8)]
    rescored = assert_ranks_match(ent, rel, norm, triples)
    if not (norm == "L2" and case in ("subnormal", "underflow")):
        assert sum(rescored) < len(rescored) * len(ent)


@pytest.mark.parametrize("norm", ["L1", "L2"])
def test_split_mixing_unscanned_queries_matches_brute_force(norm, monkeypatch):
    """One whole-split call, three triples per block, ranks queries whose fixed
    side exceeds ``SCAN_LIMIT`` (every candidate rescored) among scanned ones,
    and every rank equals ``brute_rank``'s."""
    rng = np.random.default_rng(11)
    n_ent, dim = 12, 6
    ent, rel = rng.normal(size=(n_ent, dim)), rng.normal(size=(2, dim))
    ent[3] *= 2.0**60  # beyond SCAN_LIMIT: not scanned as a fixed end, undecided as a row
    assert np.abs(ent[3]).sum() > SCAN_LIMIT
    kg = ring_kg(n_ent, 2)
    scorer = EntityScorer(EmbeddingTable(ent, rel), norm)
    monkeypatch.setattr(evaluation, "BLOCK_CELLS", 3 * 4 * dim)
    triples = [(h, r, t) for h in range(n_ent) for r in range(4) for t in (0, 3, 7)]
    ranking = rank_entities(scorer, kg, triples)
    for slot, (raw, filtered) in ranking.ranks.items():
        for triple, got in zip(triples, zip(raw.tolist(), filtered.tolist())):
            assert got == tuple(brute_rank(scorer, kg, triple, slot, setting)
                                for setting in ("raw", "filtered")), (triple, slot)
    rescored = ranking.rescored.tolist()
    assert len(rescored) == 2 * len(triples)
    # the tail queries, then the head queries: a fixed end of 3 rescores every candidate
    ends = [h for h, _, _ in triples] + [t for _, _, t in triples]
    assert all(n == n_ent for n, end in zip(rescored, ends) if end == 3)
    assert n_ent in rescored and min(rescored) < n_ent


def bound_thresholds(rows, norm, sides, sizes, s_true):
    """Per query, the float32 side and the thresholds by the formula of the
    scan's bound: B = gamma_{n+4} (size + largest row size) + n 2^-147
    (+ sqrt(n) 2^-73 for L2), and lo and hi one float64 and then one float32
    step below s_true - B and above s_true + B, clipped to +-2^100 between."""
    n = rows.shape[1]
    k = (n + 4) * 2.0**-24
    kept = (np.abs(rows) <= SCAN_LIMIT).all(axis=1)
    largest = np.abs(rows[kept]).sum(axis=1).max(initial=0.0)
    bound = k / (1 - k) * (sizes + largest) + n * 2.0**-147
    if norm == "L2":
        bound += np.sqrt(n) * 2.0**-73

    def past(x, toward):
        x = np.clip(np.nextafter(x, toward), -2.0**100, 2.0**100)
        return np.nextafter(x.astype(np.float32), np.float32(toward))

    return sides.astype(np.float32), past(s_true - bound, -np.inf), past(s_true + bound, np.inf)


@pytest.mark.parametrize("norm", ["L1", "L2"])
def test_cover_decides_which_queries_the_bound_holds_for(norm, monkeypatch):
    """``Float32Scan.cover`` gives a covered query its float32 side and the
    thresholds of the bound's formula, bit for bit, a size of exactly
    ``SCAN_LIMIT`` included. A query whose size exceeds it (with a side beyond
    float32's range) or is NaN, or whose s_true is NaN, and every query of a
    scan built past ``SCAN_MAX_DIM``, gets a zero side and NaN thresholds, so
    ``undecided`` finds no rival and leaves every row undecided."""
    rng = np.random.default_rng(13)
    n_ent, dim = 9, 10
    rows = rng.normal(size=(n_ent, dim))
    rows[2] *= 2.0**60  # NaN in the copy, and left out of the largest row size
    sides = rng.normal(size=(7, dim))
    sides[4] = 1e39 * rng.choice([-1.0, 1.0], size=dim)
    sides[5, 3] = np.nan
    sizes = np.abs(sides).sum(axis=1) + np.abs(rng.normal(size=(7, dim))).sum(axis=1)
    sizes[3] = SCAN_LIMIT
    s_true = 3 * rng.random(7)
    s_true[6] = np.nan
    covered, uncovered = [0, 1, 2, 3], [4, 5, 6]
    assert sizes[4] > SCAN_LIMIT and np.isnan(sizes[5])

    def assert_uncovered(scan, fixed, lo, hi, queries):
        for q in queries:
            assert fixed[q].tobytes() == np.zeros(dim, np.float32).tobytes(), q
            assert np.isnan(lo[q]) and np.isnan(hi[q]), q
            rivals, band = scan.undecided(fixed[q], lo[q], hi[q])
            assert not rivals.any() and band.tolist() == list(range(n_ent)), q

    scan = Float32Scan(rows, norm)
    fixed, lo, hi = scan.cover(sides, sizes, s_true)
    assert (fixed.dtype, lo.dtype, hi.dtype) == (np.float32,) * 3
    want = bound_thresholds(rows, norm, sides[covered], sizes[covered], s_true[covered])
    for got, expected in zip((fixed[covered], lo[covered], hi[covered]), want):
        assert got.tobytes() == expected.tobytes()
    assert np.isfinite(lo[covered]).all() and np.isfinite(hi[covered]).all()
    assert_uncovered(scan, fixed, lo, hi, uncovered)
    monkeypatch.setattr(energy, "SCAN_MAX_DIM", dim - 1)
    wide = Float32Scan(rows, norm)
    assert_uncovered(wide, *wide.cover(sides, sizes, s_true), range(7))


def toy_setup(toy_kg):
    emb = init_embeddings(toy_kg, TrainingConfig(dim=12, seed=3))
    return emb, extract_paths(toy_kg, max_steps=2), build_index([], 0.7)


@pytest.mark.parametrize("norm", ["L1", "L2"])
@pytest.mark.parametrize("scan_max_dim", [0, SCAN_MAX_DIM])
def test_evaluate_matches_triple_order_loop(toy_kg, norm, scan_max_dim, monkeypatch):
    """Reports, per-category hits included, equal those of one query after
    another in test-triple order, on query triples shuffled across relations,
    with the toy table's scan covering every query or, past a ``SCAN_MAX_DIM``
    of 0, none, so that every candidate is rescored. The toy test split holds
    two N-1 relations, so train triples of every relation join it."""
    monkeypatch.setattr(energy, "SCAN_MAX_DIM", scan_max_dim)
    emb, _, index = toy_setup(toy_kg)
    rng = np.random.default_rng(0)
    queries = toy_kg.test + [toy_kg.train[i] for i in rng.choice(len(toy_kg.train), 60, False)]
    triples = [queries[i] for i in rng.permutation(len(queries))]
    relations = [r for _, r, _ in triples]
    assert relations != sorted(relations) and len(set(relations)) == toy_kg.n_base_relations
    finder, stats = PathFinder(toy_kg, 2), EvalStats()
    got = evaluate(emb, finder, index, toy_kg, 1.0, norm, test_triples=triples, stats=stats)
    store = finder.find([(h, t) for h, _, t in triples])
    oracle = OracleScorer(emb, PathSet.of(store), Composer(index), 1.0, norm)
    want = evaluate_in_triple_order(oracle, toy_kg, triples)
    assert got == want
    # the scan decided all but a few candidates, or every one was rescored
    every = 2 * len(triples) * toy_kg.n_entities
    assert (stats.rescored["total"] < every) == (scan_max_dim > 0)
    assert (stats.rescored["max"] == toy_kg.n_entities) == (scan_max_dim == 0)
    assert all(len(rep.per_category) == 2 for rep in got if rep.per_category)


def test_evaluate_in_small_blocks_matches_triple_order_loop(toy_kg, monkeypatch):
    """With every pass split into blocks of a few pairs, queries or paths, the
    reports still equal the brute-force loop's in test-triple order."""
    monkeypatch.setattr(evaluation, "BLOCK_CELLS", 100)
    emb, _, index = toy_setup(toy_kg)
    finder, stats = PathFinder(toy_kg, 2), EvalStats()
    got = evaluate(emb, finder, index, toy_kg, 1.0, "L2", stats=stats)
    store = finder.find([(h, t) for h, _, t in toy_kg.test])
    oracle = OracleScorer(emb, PathSet.of(store), Composer(index), 1.0, "L2")
    assert got == evaluate_in_triple_order(oracle, toy_kg, toy_kg.test)
    assert stats.rescored["total"] < 2 * len(toy_kg.test) * toy_kg.n_entities  # the scan ran


def test_relation_scores_build_no_dimension_major_copy(toy_kg, monkeypatch):
    """Relation ranking, and so ``explain``, never builds the float32 copy of the
    entity table; a toy ``evaluate`` builds it once, for its ``EntityScorer``,
    and its scan decides all but a few candidates of its queries."""
    emb, store, index = toy_setup(toy_kg)
    built = []
    real = Float32Scan.__init__
    monkeypatch.setattr(Float32Scan, "__init__",
                        lambda self, *args: built.append(self) or real(self, *args))
    explain(emb, PathFinder(toy_kg, 2), index, toy_kg, 0, 1)
    scorer = Scorer(emb, store, index, 1.0, "L1")
    for h in range(5):
        scorer.relation_scores([(h, h + 1)])
    assert built == []
    stats = EvalStats()
    evaluate(emb, PathFinder(toy_kg, 2), index, toy_kg, 1.0, "L1", stats=stats)
    assert len(built) == 1
    assert built[0].table.shape == (emb.dim, emb.n_entities)
    assert built[0].table.dtype == np.float32
    assert stats.rescored["total"] < stats.entity_queries * toy_kg.n_entities
