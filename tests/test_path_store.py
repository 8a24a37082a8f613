"""The array path store and its compiled scoring and training against the dict
and per-path oracles of ``oracles.py``, bit for bit (``float.hex``)."""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import pytest

from rpje import energy, evaluation
from rpje.compose import Composer
from rpje.energy import SCAN_MAX_DIM
from rpje.evaluation import EntityScorer, Scorer, rank_entities
from rpje.model import EmbeddingTable, TrainingConfig
from rpje.paths import PathFinder, extract_paths, load_path_set, save_path_set
from rpje.rules import ChainRule, build_index
from rpje.training import hinge_table, loss_and_gradients

from conftest import make_kg, train_pairs
from oracles import (
    OracleScorer, Path, PathSet, batch_parts, store_from_pairs, update_parts,
)
from test_paths import oracle_paths, oracle_walk
from test_training import OracleSampler, hexes, one_batch, oracle_loss_and_gradients


def random_store(rng, n_ent, n_rel, max_steps, pairs, many):
    """A store over ``pairs``: 1..3 paths each, or up to 60 when ``many``, with
    random relation ids (inverse ids included) and reliabilities."""
    found = {}
    for pair in sorted(pairs):
        k = int(rng.integers(1, 61 if many else 4))
        found[pair] = tuple(
            Path(
                tuple(rng.integers(0, n_rel, size=int(rng.integers(2, max_steps + 1))).tolist()),
                float(rng.uniform(1e-3, 1.0)),
            )
            for _ in range(k)
        )
    return store_from_pairs(max_steps, 0.0, found, cap=60)


def random_index(rng, n_base, density):
    """Length-2 rules on a ``density`` share of the body pairs (inverse ids
    included), plus length-1 rules; density 0 composes nothing, 1 composes every
    path fully."""
    n_rel = 2 * n_base
    rules = []
    for a in range(n_rel):
        for b in range(n_rel):
            if rng.random() < density:
                head = int(rng.integers(n_rel))
                rules.append(ChainRule(head, (a, b), float(rng.uniform(0.5, 1.0))))
    for r in range(n_base):
        rules.append(ChainRule(int(rng.integers(n_rel)), (r,), float(rng.uniform(0.5, 1.0))))
    return build_index(rules, 0.0)


def random_table(rng, n_ent, n_base, dim):
    return EmbeddingTable(rng.normal(size=(n_ent, dim)), rng.normal(size=(n_base, dim)))


class _OneKnown:
    """A filter index that knows one candidate c, and only c, for every query."""

    def __init__(self, c):
        self.c = c

    def known_tails(self, a, b):
        return np.array([self.c]), np.zeros(len(a), dtype=np.int64), np.ones(len(a), dtype=np.int64)

    known_heads = known_tails


def rival_masks(entities, triples, n_ent) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Per slot, which candidates score no higher than each triple's true one,
    the true one left out, read from the ranks of the ``EntityScorer``
    ``entities``: filtering out candidate c lowers a rank by one exactly when c
    is a rival. Also each query's rescores, the tail queries' then the head
    queries', the same in every ranking."""
    masks = {slot: np.zeros((len(triples), n_ent), dtype=bool) for slot in ("head", "tail")}
    rescored = []
    for c in range(n_ent):
        ranking = rank_entities(entities, _OneKnown(c), triples)
        for slot, (raw, filtered) in ranking.ranks.items():
            masks[slot][:, c] = raw > filtered
        rescored.append(ranking.rescored)
    assert all((counts == rescored[0]).all() for counts in rescored)
    return masks, rescored[0]


def assert_scores_match(scorer, entities, oracle, n_ent, n_rel, n_base) -> np.ndarray:
    """Entity scores for every relation, inverse ids included, the rivals of
    every true entity among them (ranked on the ``EntityScorer`` ``entities``),
    and relation scores for every pair, as one array of every pair, as whole
    vectors and one candidate at a time. The entity queries' rescores are
    returned."""
    triples = [(e, r, true) for r in range(n_rel) for e in range(n_ent) for true in range(n_ent)]
    masks, rescored = rival_masks(entities, triples, n_ent)
    for (e, r, true), tail_rivals, head_rivals in zip(triples, masks["tail"], masks["head"]):
        # (e, r, true) asks for true as a tail of e, and for e as a head of true
        tails, heads = oracle.tail_scores(e, r), oracle.head_scores(r, true)
        tails_ok, heads_ok = tails <= tails[true], heads <= heads[e]
        tails_ok[true] = heads_ok[e] = False
        assert (tail_rivals == tails_ok).all() and (head_rivals == heads_ok).all()
    for r in range(n_rel):
        for e in range(n_ent):
            assert hexes(scorer.tail_scores(e, r)) == hexes(oracle.tail_scores(e, r))
            assert hexes(scorer.head_scores(r, e)) == hexes(oracle.head_scores(r, e))
    pairs = [(h, t) for h in range(n_ent) for t in range(n_ent)]
    for (h, t), scores in zip(pairs, scorer.relation_scores(pairs)):
        assert hexes(scores) == hexes(oracle.relation_scores(h, t))
        assert hexes(scores) == [oracle.score(h, r, t).hex() for r in range(n_base)]
    return rescored


@given(
    seed=st.integers(0, 2**32 - 1),
    n_ent=st.integers(1, 7),
    n_base=st.integers(1, 3),
    max_steps=st.sampled_from([2, 3]),
    density=st.sampled_from([0.0, 0.3, 1.0]),
    many=st.booleans(),
    norm=st.sampled_from(["L1", "L2"]),
    dim=st.sampled_from([3, 8, 17, 32, 136]),
    alpha=st.sampled_from([1.0, 0.35]),
    scanned=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_scorer_matches_per_path_oracle(seed, n_ent, n_base, max_steps, density, many, norm,
                                        dim, alpha, scanned):
    """Tail and head scores (E1), their rivals, and relation scores (Q) from the
    compiled store equal the per-path loop over the dict oracle, on random stores
    and rule sets, with the entity table's scan covering every query or, past
    a ``SCAN_MAX_DIM`` of 0, none, where every query rescores every entity."""
    rng = np.random.default_rng(seed)
    all_pairs = [(h, t) for h in range(n_ent) for t in range(n_ent)]
    chosen = rng.permutation(len(all_pairs))[: int(rng.integers(0, len(all_pairs) + 1))]
    store = random_store(rng, n_ent, 2 * n_base, max_steps, [all_pairs[i] for i in chosen], many)
    index = random_index(rng, n_base, density)
    emb = random_table(rng, n_ent, n_base, dim)
    scorer = Scorer(emb, store, index, alpha, norm)
    with mock.patch.object(energy, "SCAN_MAX_DIM", SCAN_MAX_DIM if scanned else 0):
        entities = EntityScorer(emb, norm)
    oracle = OracleScorer(emb, PathSet.of(store), Composer(index), alpha, norm)
    rescored = assert_scores_match(scorer, entities, oracle, n_ent, 2 * n_base, n_base)
    if not scanned:
        assert (rescored == n_ent).all()
    elif n_ent > 1:  # random normal rows, which the scan tells apart
        assert rescored.sum() < len(rescored) * n_ent


@pytest.mark.parametrize("norm", ["L1", "L2"])
def test_relation_scores_across_blocks_match_per_path_oracle(norm, monkeypatch):
    """Relation scores of many pairs in one call, scored a pair or two and two
    paths at a time, equal the per-path oracle's, for a pair given twice and for
    pairs without paths too."""
    rng = np.random.default_rng(5)
    n_ent, n_base, dim = 6, 3, 7
    store = random_store(rng, n_ent, 2 * n_base, 3, [(0, 1), (1, 2), (2, 2), (3, 0), (4, 5)], True)
    assert np.diff(store.indptr).max() > 2
    index = random_index(rng, n_base, 0.3)
    emb = random_table(rng, n_ent, n_base, dim)
    scorer = Scorer(emb, store, index, 0.35, norm)
    oracle = OracleScorer(emb, PathSet.of(store), Composer(index), 0.35, norm)
    # two paths of base relations x dim cells, or up to two pairs without paths
    monkeypatch.setattr(evaluation, "BLOCK_CELLS", 2 * n_base * dim)
    pairs = [(1, 2), (0, 1), (5, 5), (1, 2), (3, 0), (0, 3), (4, 5), (2, 2)]
    for (h, t), scores in zip(pairs, scorer.relation_scores(pairs)):
        assert hexes(scores) == hexes(oracle.relation_scores(h, t))


multigraphs = st.lists(
    st.tuples(*(st.sampled_from(names) for names in (["a", "b", "c", "d", "e"], "pq", "abcde"))),
    min_size=1, max_size=20,
)


@given(
    edges=multigraphs,
    max_steps=st.sampled_from([2, 3]),
    density=st.sampled_from([0.0, 0.5]),
    norm=st.sampled_from(["L1", "L2"]),
    seed=st.integers(0, 1000),
)
@settings(max_examples=40, deadline=None)
def test_finder_scores_match_per_path_oracle(edges, max_steps, density, norm, seed):
    """Relation scores from the store of every pair, walked together, and from
    each pair's own one-pair store, as ``explain`` walks it, equal the per-path
    loop over the dict walk's paths."""
    kg = make_kg(edges)
    rng = np.random.default_rng(seed)
    index = random_index(rng, kg.n_base_relations, density)
    emb = random_table(rng, kg.n_entities, kg.n_base_relations, 5)
    walked = {}
    for h in range(kg.n_entities):
        for t, found in sorted(oracle_walk(kg, h, max_steps).items()):
            if paths := oracle_paths(found, 0.0, 200):
                walked[(h, t)] = paths
    oracle = OracleScorer(emb, PathSet(max_steps, 0.0, pairs=walked), Composer(index), 1.0, norm)
    finder = PathFinder(kg, max_steps, 0.0)
    pairs = [(h, t) for h in range(kg.n_entities) for t in range(kg.n_entities)]
    scorer = Scorer(emb, finder.find(pairs), index, 1.0, norm)
    assert_scores_match(scorer, EntityScorer(emb, norm), oracle, kg.n_entities, kg.n_relations,
                        kg.n_base_relations)
    for h, t in pairs:
        one = Scorer(emb, finder.find([(h, t)]), index, 1.0, norm)
        assert hexes(one.relation_scores([(h, t)])[0]) == hexes(oracle.relation_scores(h, t))


def test_store_views_match_dict_oracle(toy_kg, tmp_path):
    """Each pair's paths are one range of the store, in pair order, alone or in
    an array of every pair; a pair outside the store has an empty one. ``pairs``
    is the store's (head, tail) rows as an (n, 2) int64 array in pair order, as
    many as the oracle's pairs: for the train store, a one-pair walk and an empty
    cache."""
    store = extract_paths(toy_kg, 3, 0.0, 5)
    oracle = PathSet.of(store)
    assert store.n_paths == oracle.n_paths
    stop = 0
    for (h, t), paths in oracle.pairs.items():
        start, end = store.between(h, t)
        assert start == stop and end - start == len(paths)
        stop = end
    assert stop == store.n_paths
    n_ent = toy_kg.n_entities
    heads, tails = np.divmod(np.arange(n_ent * n_ent), n_ent)
    starts, stops = store.between(heads, tails)
    for h, t, start, stop in zip(heads.tolist(), tails.tolist(), starts, stops):
        assert (start, stop) == store.between(h, t)
        if (h, t) not in oracle.pairs:
            assert start == stop
    assert [tuple(pair) for pair in store.pairs.tolist()] == list(oracle.pairs)
    h, t = list(oracle.pairs)[len(oracle.pairs) // 2]
    one = PathFinder(toy_kg, 3, 0.0, 5).find([(h, t)])
    cache = tmp_path / "paths.bin"
    save_path_set(extract_paths(toy_kg, 2, per_pair_cap=0), toy_kg.dataset_hash(), cache)
    empty = load_path_set(cache)
    for each in (store, one, empty):
        pairs = each.pairs
        assert pairs.dtype == np.int64 and pairs.shape == (len(each.heads), 2)
        assert np.array_equal(pairs, np.stack((each.heads, each.tails), 1))
        assert len(pairs) == len(PathSet.of(each).pairs)
    assert one.pairs.tolist() == [[h, t]] and empty.pairs.shape == (0, 2)


@given(
    edges=multigraphs,
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.0, 0.3, 1.0]),
    many=st.booleans(),
    norm=st.sampled_from(["L1", "L2"]),
)
@settings(max_examples=60, deadline=None)
def test_path_hinges_match_per_hinge_oracle(edges, seed, density, many, norm):
    """One batch's losses and subgradients from the compiled store's arrays equal
    the per-hinge loop, which composes every path and reads the dict oracle."""
    kg = make_kg(edges)
    rng = np.random.default_rng(seed)
    pairs = train_pairs(kg)
    keep = int(rng.integers(1, len(pairs) + 1))
    chosen = [pairs[i] for i in rng.permutation(len(pairs))[:keep]]
    store = random_store(rng, kg.n_entities, kg.n_relations, 3, chosen, many)
    index = random_index(rng, kg.n_base_relations, density)
    emb = random_table(rng, kg.n_entities, kg.n_base_relations, 6)
    cfg = TrainingConfig(dim=6, norm=norm, margin_path=3.0, margin_relpair=2.0)
    layout = one_batch(kg, store, index, cfg, seed % 1000)
    losses, update = loss_and_gradients(layout, 0, hinge_table(emb))
    parts = batch_parts(layout, losses)
    want, grads = oracle_loss_and_gradients(
        kg.train, PathSet.of(store), Composer(index), emb, cfg, OracleSampler(kg, seed=seed % 1000)
    )
    assert [parts.triple.hex(), parts.path.hex(), parts.relpair.hex()] == [
        float(x).hex() for x in want
    ]
    split = update_parts(update, kg.n_entities)
    assert split.relation_rows.tolist() == sorted(grads.relation)
    assert hexes(split.relation) == hexes([grads.relation[r] for r in sorted(grads.relation)])
    assert split.entity_rows.tolist() == sorted(grads.entity)
    assert hexes(split.entity) == hexes([grads.entity[e] for e in sorted(grads.entity)])
